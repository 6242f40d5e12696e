"""Deterministic snapshot-partition and routing analysis for polar-orbit
LEO constellations."""

from .errors import (
    ScenarioError,
    SlotFloorError,
    UnsupportedConfigurationError,
)
from .geometry import (
    ConstellationSpec,
    GroundStation,
    SatId,
    horizontal_survival_latitude_deg,
    max_link_angle_deg,
    orbit_period,
)
from .links import (
    HORIZONTAL,
    INTRA_PLANE,
    OBLIQUE,
    IslEdge,
    TopologyEdgeSet,
    TopologyViolation,
    validate_topology,
)
from .routing import (
    Attachment,
    DelaySample,
    DelaySeries,
    PathResult,
    SendGrid,
    attach_ground,
    delay_experiment,
    shortest_delay,
    utilization,
)
from .scenario import ScenarioConfig, load_scenario
from .report import (
    ComparisonReport,
    ComparisonRow,
    export_topology,
    load_topology,
    run_compare,
)
from .snapshots import (
    METHOD_EQUAL_TIME,
    METHOD_FIXED,
    METHOD_REASSIGNMENT,
    AnalyticSummary,
    PolarCrossing,
    SnapshotSequence,
    TopologySnapshot,
    analytic_summary,
    enumerate_events,
    partition,
    partition_equal_time,
    partition_fixed,
    partition_reassignment,
)

__version__ = "0.1.0"
