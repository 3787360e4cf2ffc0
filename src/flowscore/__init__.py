"""Day-scale traffic assignment with time- and fuel-oriented objectives,
street typology, and city indicator scoring."""
import os
# Before numpy and scipy load OpenBLAS: its helper threads spin after each call,
# and a ddot over 10,000+ elements would round by the machine's core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .charts import ComparisonRow, ComparisonTable, emit_chart, load_comparison, write_comparison
from .costs import (
    DEFAULT_BPR,
    DEFAULT_FUEL,
    BprParams,
    FuelParams,
    spf_accidents,
)
from .geo import Tracts, build_link_index, load_tracts
from .indicators import (
    INDICATOR_META,
    INDICATOR_NAMES,
    ExposureLevel,
    IndicatorReport,
    SchoolExposure,
    Schools,
    build_report,
    daily_stats,
    load_schools,
    school_exposure,
)
from .network import LoadError, Network, load_network
from .qdta import (
    AssignmentResult,
    Departures,
    FlowState,
    Objective,
    SolverConfig,
    TripRecord,
    assign_interval,
    load_trips,
    run_day,
)
from .typology import (
    LandUse,
    Parcels,
    StreetType,
    TransportContext,
    classify_network,
    classify_street,
    load_parcels,
    transport_context,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentResult",
    "BprParams",
    "ComparisonRow",
    "ComparisonTable",
    "DEFAULT_BPR",
    "DEFAULT_FUEL",
    "Departures",
    "ExposureLevel",
    "FlowState",
    "FuelParams",
    "INDICATOR_META",
    "INDICATOR_NAMES",
    "IndicatorReport",
    "LandUse",
    "LoadError",
    "Network",
    "Objective",
    "Parcels",
    "SchoolExposure",
    "Schools",
    "SolverConfig",
    "StreetType",
    "Tracts",
    "TransportContext",
    "TripRecord",
    "assign_interval",
    "build_link_index",
    "build_report",
    "classify_network",
    "classify_street",
    "daily_stats",
    "emit_chart",
    "load_comparison",
    "load_network",
    "load_parcels",
    "load_schools",
    "load_tracts",
    "load_trips",
    "run_day",
    "school_exposure",
    "spf_accidents",
    "transport_context",
    "write_comparison",
    "__version__",
]
