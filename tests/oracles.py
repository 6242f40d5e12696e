"""Straightforward constructions kept as oracles for the fast paths.

The package builds a constellation's edge universe with integer arrays and
derives every reassignment snapshot from the first one by rotating phase
classes. The functions here build the same things the slow way, one
``SatId`` and ``IslEdge`` at a time and one row state per event, so the
tests can require equal results from both.
"""
import math

from polarsnap.geometry import (
    ConstellationSpec,
    LsState,
    SatId,
    VisibilityModel,
    build_ls_state,
    orbit_period,
)
from polarsnap.links import (
    HORIZONTAL,
    INTRA_PLANE,
    OBLIQUE,
    TRIGGER_ENTER,
    IslEdge,
    TopologyEdgeSet,
    make_edge,
    reassign_topology,
)
from polarsnap.snapshots import (
    _EVENT_EPS_S,
    EVENT_KIND_ENTER,
    EVENT_KIND_EXIT,
    METHOD_REASSIGNMENT,
    SnapshotSequence,
    TopologySnapshot,
    _resolve_vis,
    enumerate_events,
)


def phase_latitude_deg(u_deg: float) -> float:
    """Latitude an argument-of-latitude value maps to on an ideal polar orbit.

    Folds u into [-90, 90]: the reference used for row ordering and
    polar-border logic.
    """
    u = u_deg % 360.0
    if u < 90.0:
        return u
    if u < 270.0:
        return 180.0 - u
    return u - 360.0


def class_planes(spec: ConstellationSpec, phase_class: int) -> list[int]:
    """Planes populated by a phase class: every other plane, parity-matched."""
    start = 1 if phase_class % 2 == 0 else 2
    return list(range(start, spec.plane_count + 1, 2))


def class_member(spec: ConstellationSpec, phase_class: int, plane: int) -> SatId:
    """The satellite of a phase class sitting in a given plane."""
    if (plane - 1) % 2 != phase_class % 2:
        raise ValueError(f"plane {plane} holds no member of class {phase_class}")
    j = ((phase_class - (plane - 1)) // 2) % spec.sats_per_plane
    return SatId(plane, j + 1)


def row_members(spec: ConstellationSpec, phase_class: int) -> tuple[SatId, ...]:
    """The satellites of one row, one in every plane of its parity."""
    return tuple(class_member(spec, phase_class, p) for p in class_planes(spec, phase_class))


def anchor_index(ls: LsState, polar_border_deg: float) -> int:
    """Index in ``ls.rows`` of the non-polar row that most recently exited
    a polar cap; the simultaneous north/south exit tie is broken toward the
    lower-ordered (ascending-arc) row. -1 when every row is polar."""
    anchor, best_since_exit = -1, math.inf
    for i, row in enumerate(ls.rows):
        if row.in_polar:
            continue
        exit_phase = 360.0 - polar_border_deg if row.ascending else 180.0 - polar_border_deg
        since_exit = (row.u_deg - exit_phase) % 360.0
        if since_exit < best_since_exit - 1e-12:
            best_since_exit, anchor = since_exit, i
    return anchor


def intra_plane_edges(spec: ConstellationSpec) -> TopologyEdgeSet:
    """The N*M permanent ring edges (time-invariant)."""
    m = spec.sats_per_plane
    return TopologyEdgeSet(frozenset(
        make_edge(SatId(p, j), SatId(p, j % m + 1), INTRA_PLANE)
        for p in range(1, spec.plane_count + 1) for j in range(1, m + 1)), 0.0, "intra")


def chain_edges(spec: ConstellationSpec, lower_class: int) -> list[IslEdge]:
    """Zigzag chain between two adjacent phase classes.

    One edge per adjacent plane pair (p, p+1); the two classes alternate
    planes, so the chain visits one satellite in every plane without
    crossing the seam. N-1 edges.
    """
    upper_class = (lower_class + 1) % spec.row_count
    edges = []
    for p in range(1, spec.plane_count):
        c_here = lower_class if (p - 1) % 2 == lower_class % 2 else upper_class
        c_next = upper_class if c_here == lower_class else lower_class
        edges.append(make_edge(class_member(spec, c_here, p),
                               class_member(spec, c_next, p + 1), OBLIQUE))
    return edges


def horizontal_edges(spec: ConstellationSpec, phase_class: int) -> list[IslEdge]:
    """Links between consecutive same-class members, two planes apart."""
    members = row_members(spec, phase_class)
    return [make_edge(x, y, HORIZONTAL) for x, y in zip(members, members[1:])]


def per_event_reassignment(
    spec: ConstellationSpec,
    vis: VisibilityModel | None,
    polar_border_deg: float,
    trigger: str = TRIGGER_ENTER,
) -> SnapshotSequence:
    """``partition_reassignment`` with every snapshot's edges built from the
    row state just after its own event, instead of rotated from the first."""
    vis = _resolve_vis(spec, vis, polar_border_deg)
    period = orbit_period(spec)
    kind = EVENT_KIND_ENTER if trigger == TRIGGER_ENTER else EVENT_KIND_EXIT
    events = enumerate_events(spec, polar_border_deg, period, kinds=(kind,))
    t0 = events[0].time_s
    snapshots = []
    for i, event in enumerate(events):
        start = event.time_s
        end = events[i + 1].time_s if i + 1 < len(events) else t0 + period
        ls = build_ls_state(spec, vis, start + _EVENT_EPS_S)
        topo = reassign_topology(spec, vis, ls, trigger).relabeled(start, METHOD_REASSIGNMENT)
        snapshots.append(TopologySnapshot(start, end, topo, topo.n_inter_plane))
    return SnapshotSequence(METHOD_REASSIGNMENT, tuple(snapshots), period,
                            polar_border_deg, trigger=trigger)
