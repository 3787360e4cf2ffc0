"""Street typology: functional class x adjacent land use -> street type."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from . import geo
from .network import INT64, check_rows, naming_rows, one_of, read_columns, repeats, write_csv


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


@dataclass(frozen=True)
class Parcel:
    """A land parcel polygon with a coarse use code; area is the polygon's."""

    id: int
    polygon: tuple[tuple[float, float], ...]
    land_use: LandUse
    area: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.polygon) < 3:
            raise ValueError(f"parcel {self.id} polygon needs >= 3 points")
        object.__setattr__(self, "area", geo.polygon_area(self.polygon))
        if self.area <= 0:
            raise ValueError(f"parcel {self.id} has zero area")


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


def _dominant_land_uses(geometries, parcels, adjacency_buffer_m) -> list[LandUse]:
    """Per link geometry, the land use of the largest parcel within the buffer of it.

    Ties go to the smaller parcel id; no parcel in range means OTHER.
    """
    b = adjacency_buffer_m
    if not 0 <= b < math.inf:  # NaN fails too
        raise ValueError("adjacency buffer must be finite and nonnegative")
    lines = geo._Shapes(geometries, False)
    rings = geo._Shapes([p.polygon for p in parcels], True)
    pair_link, pair_parcel = geo._candidates(geo._padded(lines.boxes(), b), rings.boxes())
    within = geo.polygon_polyline_within(rings, pair_parcel, lines, pair_link, b)
    best = [None] * len(geometries)
    # candidates come in input order, so the strict > keeps the first of equals
    for k, i in zip(pair_link[within].tolist(), pair_parcel[within].tolist()):
        parcel, top = parcels[i], best[k]
        if top is None or (parcel.area, -parcel.id) > (top.area, -top.id):
            best[k] = parcel
    return [LandUse.OTHER if p is None else p.land_use for p in best]


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


def classify_network(network, parcels, adjacency_buffer_m: float = 20.0) -> dict[int, StreetType]:
    contexts = list(map(transport_context, network.fclass.tolist(), network.speed_mph.tolist()))
    # land use cannot change a highway's type, so highways skip the geometry work
    streets = [geometry for geometry, context in zip(network.geometry, contexts)
               if context is not TransportContext.HIGHWAY]
    uses = iter(_dominant_land_uses(streets, parcels, adjacency_buffer_m))
    return {
        link_id: StreetType.HIGHWAY if context is TransportContext.HIGHWAY
        else classify_street(context, next(uses))
        for link_id, context in zip(network.link_ids.tolist(), contexts)
    }


def load_parcels(path: str) -> list[Parcel]:
    """Parcels in file order. `land_use` must be one of the codes R, C, I,
    P, O; errors name the file and the feature."""
    codes = {u.value: u for u in LandUse}
    parcels = []
    features = geo._load_polygon_features(path, "parcel_id")
    for number, (parcel_id, props, ring) in enumerate(features, start=1):
        code = props.get("land_use")
        if not (isinstance(code, str) and code in codes):  # `in` raises TypeError on a list
            raise ValueError(f"{path}: bad land_use {code!r}, want one of R,C,I,P,O "
                             f"(feature {number})")
        try:
            parcels.append(Parcel(id=parcel_id, polygon=ring, land_use=codes[code]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} (feature {number})") from None
    return parcels


def write_link_types(path: str, street_types: dict[int, StreetType], network) -> None:
    write_csv(path, ["link_id", "street_type"],
              ([i, street_types[i].value] for i in network.link_ids.tolist()))


def read_link_types(path: str) -> dict[int, StreetType]:
    """Each link's street type, in file order; a link may appear once."""
    columns = read_columns(path, "link types", {
        "link_id": INT64, "street_type": one_of({t.value: t for t in StreetType})})
    with naming_rows(path):
        check_rows(columns, {"duplicate link_id {link_id}": repeats(columns["link_id"])})
    return dict(zip(columns["link_id"], columns["street_type"]))
