"""Street typology: functional class x adjacent land use -> street type."""
from __future__ import annotations

import enum
import math

import numpy as np

from . import geo
from .network import INT64, check_rows, naming_rows, one_of, read_columns, repeats, write_csv

# a street takes the land use of the largest parcel within this many meters
ADJACENCY_BUFFER_M = 20.0


class LandUse(enum.Enum):
    RESIDENTIAL = "R"
    COMMERCIAL = "C"
    INDUSTRIAL = "I"
    PUBLIC = "P"
    OTHER = "O"


class TransportContext(enum.Enum):
    HIGHWAY = "Highway"
    THROUGHWAY = "Throughway"
    NEIGHBORHOOD_STREET = "NeighborhoodStreet"


class StreetType(enum.Enum):
    NEIGHBORHOOD_RESIDENTIAL = "NeighborhoodResidential"
    RESIDENTIAL_THROUGHWAY = "ResidentialThroughway"
    NEIGHBORHOOD_COMMERCIAL = "NeighborhoodCommercial"
    COMMERCIAL_THROUGHWAY = "CommercialThroughway"
    INDUSTRIAL = "Industrial"
    PSP = "PSP"
    HIGHWAY = "Highway"
    OTHERS = "Others"


_LAND_USES = {key: use for use in LandUse for key in (use, use.value)}


class Parcels:
    """Land parcels as columns, in input order: `ids`, `land_use` (each
    given as a LandUse or as its code), `area` and `rings`, the polygons'
    closed vertex table, built from the (N, 2) vertices `xy` of every
    polygon, `sizes[k]` of them polygon k's. Each ring keeps
    `geo.ring_rules`; the error names the first bad row, from 0."""

    def __init__(self, ids, xy, sizes, land_use):
        self.ids = np.array(ids, dtype=np.int64)
        # a dict lookup raises TypeError on a list
        uses = [_LAND_USES.get(v) if isinstance(v, (str, LandUse)) else None for v in land_use]
        self.rings = geo._Shapes(xy, sizes, True)
        rings, self.area = geo.ring_rules("parcel", sizes, self.rings)
        check_rows({"id": self.ids, "land_use": land_use}, {
            "bad land_use {land_use!r}, want one of R,C,I,P,O": np.array(
                [use is None for use in uses], dtype=bool),
            **rings})
        self.land_use = np.array(uses, dtype=object)


def transport_context(fclass: int, speed_mph: float) -> TransportContext:
    """Map functional class (and speed, for class 3) to a road context."""
    if fclass in (1, 2):
        return TransportContext.HIGHWAY
    if fclass == 3:
        if speed_mph > 50.0:
            return TransportContext.HIGHWAY
        return TransportContext.THROUGHWAY
    if fclass == 4:
        return TransportContext.THROUGHWAY
    return TransportContext.NEIGHBORHOOD_STREET


def _dominant_land_uses(lines, rows, parcels: Parcels, adjacency_buffer_m) -> list[LandUse]:
    """Per row of `rows`, the land use of the largest parcel within the
    buffer of that row's line in the vertex table `lines`; ties go to the
    smaller parcel id, then the earlier parcel. No parcel means OTHER."""
    b = adjacency_buffer_m
    if not 0 <= b < math.inf:  # NaN fails too
        raise ValueError("adjacency buffer must be finite and nonnegative")
    rows = np.asarray(rows, dtype=np.int64)
    rings = parcels.rings
    pair_row, pair_parcel = geo._candidates(geo._padded(lines.boxes()[rows], b), rings.boxes())
    within = geo.polygon_polyline_within(rings, pair_parcel, lines, rows[pair_row], b)
    k, j = pair_row[within], pair_parcel[within]
    # per row, the largest parcel first, then the smaller id, then the earlier parcel
    order = np.lexsort((j, parcels.ids[j], -parcels.area[j], k))
    held, top = np.unique(k[order], return_index=True)
    uses = np.full(len(rows), LandUse.OTHER, dtype=object)
    uses[held] = parcels.land_use[j[order][top]]
    return uses.tolist()


_NON_HIGHWAY_TABLE = {
    (TransportContext.NEIGHBORHOOD_STREET, LandUse.RESIDENTIAL): StreetType.NEIGHBORHOOD_RESIDENTIAL,
    (TransportContext.THROUGHWAY, LandUse.RESIDENTIAL): StreetType.RESIDENTIAL_THROUGHWAY,
    (TransportContext.NEIGHBORHOOD_STREET, LandUse.COMMERCIAL): StreetType.NEIGHBORHOOD_COMMERCIAL,
    (TransportContext.THROUGHWAY, LandUse.COMMERCIAL): StreetType.COMMERCIAL_THROUGHWAY,
}


def classify_street(context: TransportContext, land_use: LandUse) -> StreetType:
    """Total mapping of (context, land use) to one of the 8 street types."""
    if context is TransportContext.HIGHWAY:
        return StreetType.HIGHWAY
    if land_use is LandUse.INDUSTRIAL:
        return StreetType.INDUSTRIAL
    if land_use is LandUse.PUBLIC:
        return StreetType.PSP
    if land_use is LandUse.OTHER:
        return StreetType.OTHERS
    return _NON_HIGHWAY_TABLE[(context, land_use)]


def classify_network(network, parcels,
                     adjacency_buffer_m: float = ADJACENCY_BUFFER_M) -> np.ndarray:
    """Each link row's StreetType, in an object array."""
    contexts = list(map(transport_context, network.fclass.tolist(), network.speed_mph.tolist()))
    # land use cannot change a highway's type, so highways skip the geometry work
    streets = [k for k, context in enumerate(contexts) if context is not TransportContext.HIGHWAY]
    uses = np.full(network.n_links, LandUse.OTHER, dtype=object)
    uses[streets] = _dominant_land_uses(network.lines, streets, parcels, adjacency_buffer_m)
    return np.array(list(map(classify_street, contexts, uses)), dtype=object)


def load_parcels(path: str) -> Parcels:
    """Parcels in file order, as `Parcels` checks them, each `land_use` one
    of the codes R, C, I, P, O; errors name the file and the feature."""
    return geo._load_polygon_table(path, "parcel_id", Parcels, {"land_use": None})


def write_link_types(path: str, street_types: np.ndarray, network) -> None:
    """One row per link row: its id and its street type's name."""
    write_csv(path, ["link_id", "street_type"],
              zip(network.link_ids.tolist(), (t.value for t in street_types)))


def read_link_types(path: str, network) -> np.ndarray:
    """Each link row's street type, as `classify_network` gives them, from
    a file that names every link of the network once and no other."""
    columns = read_columns(path, "link types", {
        "link_id": INT64, "street_type": one_of({t.value: t for t in StreetType})})
    row = network.link_positions(columns["link_id"])
    with naming_rows(path):
        check_rows(columns, {"duplicate link_id {link_id}": repeats(columns["link_id"])})
        types = np.full(network.n_links, None, dtype=object)
        types[row[row >= 0]] = np.array(columns["street_type"], dtype=object)[row >= 0]
        missing = np.flatnonzero(np.equal(types, None))
        if missing.size:
            raise ValueError(f"{path} has no street type for link {network.link_ids[missing[0]]}")
        check_rows(columns, {"unknown link_id {link_id}": row < 0})
    return types
