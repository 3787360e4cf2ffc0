"""Street typology: functional class x adjacent land use -> street type."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
    """A land parcel polygon with a coarse use code.

    area defaults to the polygon's own area; a supplied value must agree
    with the geometry within 1%.
    """

    id: int
    polygon: tuple[tuple[float, float], ...]
    land_use: LandUse
    area: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if len(self.polygon) < 3:
            raise ValueError(f"parcel {self.id} polygon needs >= 3 points")
        computed = geo.polygon_area(self.polygon)
        if computed <= 0:
            raise ValueError(f"parcel {self.id} has zero area")
        if self.area is None:
            object.__setattr__(self, "area", computed)
        elif abs(self.area - computed) > 0.01 * computed:
            raise ValueError(
                f"parcel {self.id}: declared area {self.area} is more than 1% "
                f"off the polygon area {computed}"
            )


def transport_context(link) -> TransportContext:
    """Map functional class (and speed, for class 3) to a road context."""
    if link.fclass in (1, 2):
        return TransportContext.HIGHWAY
    if link.fclass == 3:
        if link.speed_mph > 50.0:
            return TransportContext.HIGHWAY
        return TransportContext.THROUGHWAY
    if link.fclass == 4:
        return TransportContext.THROUGHWAY
    return TransportContext.NEIGHBORHOOD_STREET


def dominant_land_use(link, parcels, adjacency_buffer_m: float = 20.0) -> LandUse:
    """Land use of the largest parcel within the buffer of the link.

    Ties go to the smaller parcel id; no parcel in range means OTHER.
    """
    return _dominant_land_uses([link], parcels, adjacency_buffer_m)[0]


def _dominant_land_uses(links, parcels, adjacency_buffer_m) -> list[LandUse]:
    """dominant_land_use of every link, with the exact tests batched."""
    b = adjacency_buffer_m
    if not 0 <= b < math.inf:  # NaN fails too
        raise ValueError("adjacency buffer must be finite and nonnegative")
    boxes = [geo._padded(geo.polyline_bbox(link.geometry), b) for link in links]
    parcel_boxes = [geo.polyline_bbox(p.polygon) for p in parcels]
    pair_link, pair_parcel = (a.tolist() for a in geo._candidates(boxes, parcel_boxes))
    within = geo.polygon_polyline_within(
        [parcels[i].polygon for i in pair_parcel], [links[k].geometry for k in pair_link], b
    )
    best = [None] * len(links)
    # candidates come in input order, so the strict > keeps the first of equals
    for k, i, ok in zip(pair_link, pair_parcel, within.tolist()):
        if ok:
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
    contexts = [transport_context(link) for link in network.links]
    # land use cannot change a highway's type, so highways skip the geometry work
    streets = [
        link for link, context in zip(network.links, contexts) if context is not TransportContext.HIGHWAY
    ]
    uses = iter(_dominant_land_uses(streets, parcels, adjacency_buffer_m))
    return {
        link.id: StreetType.HIGHWAY if context is TransportContext.HIGHWAY
        else classify_street(context, next(uses))
        for link, context in zip(network.links, contexts)
    }


def load_parcels(path: str) -> list[Parcel]:
    codes = {u.value: u for u in LandUse}
    parcels = []
    for parcel_id, props, ring in geo._load_polygon_features(path, "parcel_id"):
        code = props.get("land_use")
        if code not in codes:
            raise ValueError(f"{path}: bad land_use {code!r} (want one of R,C,I,P,O)")
        parcels.append(Parcel(id=parcel_id, polygon=ring, land_use=codes[code]))
    return parcels


def write_link_types(path: str, street_types: dict[int, StreetType], network) -> None:
    write_csv(path, ["link_id", "street_type"],
              ([link.id, street_types[link.id].value] for link in network.links))


def read_link_types(path: str) -> dict[int, StreetType]:
    """Each link's street type, in file order; a link may appear once."""
    columns = read_columns(path, "link types", {
        "link_id": INT64, "street_type": one_of({t.value: t for t in StreetType})})
    with naming_rows(path):
        check_rows(columns, {"duplicate link_id {link_id}": repeats(columns["link_id"])})
    return dict(zip(columns["link_id"], columns["street_type"]))
