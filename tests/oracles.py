"""Straightforward constructions kept as oracles for the fast paths.

The package builds a constellation's edge universe with integer arrays and
derives every reassignment snapshot from the first one by rotating phase
classes. The functions here build the same things the slow way, one
``SatId`` and ``IslEdge`` at a time and one row state per event, so the
tests can require equal results from both; ``rolled_ids`` rotates a drawn
set's ids with ``np.roll``. ``reference_ls_rows`` builds the row state as
``LsRow`` objects, one class at a time (``class_phase_deg``,
``is_ascending``), and ``reference_reassign_topology`` pairs them row by
row: the loop forms of ``build_ls_state`` and ``reassign_topology``.
``islice_neighbour_rows`` cuts a set's neighbour rows one at a time.
``dijkstra_shortest_delay`` is
the router that the A* search replaced, for tests that require bitwise
equal routes. ``fixed_per_instant`` and ``equal_time_per_instant`` are the
baseline partitions as they were before they read one table of active
couples: a frozenset of active couples per instant, one instant at a time.
``reference_attach_ground`` attaches one station at one send time, and
``scan_lookup`` finds a send's snapshot by a linear scan.
``reference_validate_sequence`` is the sequence check before it read the
slot identity: every snapshot through ``validate_topology``.
``set_by_set_export_topology`` is the format 3 writer before it worked a
block of sets at a time: the table merged by a sort per distinct set, a mask
per set, and each snapshot line written by ``json.dumps``.

The scalar geometry below (one satellite, one instant, ``math`` functions)
is what the package computed before its array paths; it serves as the
oracle for ``all_positions_km``, ``attach_ground`` and the validator.
``survival_latitude_deg`` is the survival latitude as the validator got
it before ``horizontal_survival_latitude_deg`` returned 0 for an
always-visible geometry itself: a formula that raises, and a mapping.
"""
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polarsnap.geometry import (
    EARTH_RADIUS_KM,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_KM_S,
    TIE_S,
    ConstellationSpec,
    GroundStation,
    SatId,
    all_positions_km,
    ground_position_km,
    in_polar_band,
    instant_blocks,
    is_uniform_row_distribution,
    max_link_angle_deg,
    orbit_period,
    sat_to_index,
    validate_sat_id,
)
from polarsnap.links import (
    HORIZONTAL,
    INDEX_DTYPE,
    INTRA_PLANE,
    KINDS,
    OBLIQUE,
    TRIGGER_ENTER,
    TRIGGER_EXIT,
    IslEdge,
    TopologyEdgeSet,
    _wiring,
    validate_topology,
)
from polarsnap.routing import PathResult
from polarsnap.snapshots import (
    METHOD_EQUAL_TIME,
    METHOD_FIXED,
    METHOD_REASSIGNMENT,
    SnapshotSequence,
    TopologySnapshot,
    enumerate_events,
)


def make_edge(a: SatId, b: SatId, kind: str) -> IslEdge:
    """An edge with its endpoints in canonical (sorted) order."""
    if (b.plane, b.index_in_plane) < (a.plane, a.index_in_plane):
        a, b = b, a
    return IslEdge(a, b, kind)


def index_to_sat(spec: ConstellationSpec, index: int) -> SatId:
    """The satellite at a dense plane-major index (``sat_to_index``)."""
    plane, j = divmod(index, spec.sats_per_plane)
    return SatId(plane + 1, j + 1)


@dataclass(frozen=True)
class SatState:
    """Instantaneous satellite state.

    Position is Earth-centered inertial (km); longitude is the
    Earth-fixed sub-satellite longitude.
    """
    sat: SatId
    time_s: float
    latitude_deg: float
    longitude_deg: float
    position_km: tuple[float, float, float]
    ascending: bool


def initial_phase_deg(spec: ConstellationSpec, sat: SatId) -> float:
    """Argument of latitude of a satellite at t=0."""
    return ((sat.plane - 1) * spec.phase_offset_deg
            + (sat.index_in_plane - 1) * spec.intra_plane_spacing_deg)


def argument_of_latitude_deg(spec: ConstellationSpec, sat: SatId, t: float) -> float:
    period = orbit_period(spec)
    return (initial_phase_deg(spec, sat) + 360.0 * t / period) % 360.0


def true_latitude_deg(spec: ConstellationSpec, u_deg: float) -> float:
    """Latitude for the configured inclination: asin(sin i * sin u)."""
    s = math.sin(math.radians(spec.inclination_deg)) * math.sin(math.radians(u_deg))
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


def _plane_basis(spec: ConstellationSpec, plane: int) -> tuple[float, float]:
    raan = math.radians((plane - 1) * spec.plane_spacing_deg)
    return math.cos(raan), math.sin(raan)


def position_km(spec: ConstellationSpec, sat: SatId, t: float) -> tuple[float, float, float]:
    """ECI position on the circular orbit at time t."""
    u = math.radians(argument_of_latitude_deg(spec, sat, t))
    inc = math.radians(spec.inclination_deg)
    cos_raan, sin_raan = _plane_basis(spec, sat.plane)
    r = spec.orbit_radius_km
    cu, su = math.cos(u), math.sin(u)
    x = r * (cos_raan * cu - sin_raan * su * math.cos(inc))
    y = r * (sin_raan * cu + cos_raan * su * math.cos(inc))
    z = r * su * math.sin(inc)
    return (x, y, z)


def satellite_state(spec: ConstellationSpec, sat: SatId, t: float) -> SatState:
    """Propagate one satellite to time t.

    Args:
        spec: Constellation parameters.
        sat: Satellite identifier (validated).
        t: Time in seconds from epoch (any real value).

    Returns:
        SatState with ECI position, true latitude, Earth-fixed longitude,
        and the ascending/descending flag.

    Raises:
        ValueError: If the satellite id is outside the constellation.
    """
    validate_sat_id(spec, sat)
    u = argument_of_latitude_deg(spec, sat, t)
    pos = position_km(spec, sat, t)
    lat = true_latitude_deg(spec, u)
    lon_inertial = math.degrees(math.atan2(pos[1], pos[0]))
    lon = (lon_inertial - 360.0 * t / SIDEREAL_DAY_S + 180.0) % 360.0 - 180.0
    return SatState(
        sat=sat,
        time_s=t,
        latitude_deg=lat,
        longitude_deg=lon,
        position_km=pos,
        ascending=is_ascending(u),
    )


def geocentric_angle_deg(a, b) -> float:
    """Angle at Earth center between two position vectors, in [0, 180].

    Raises:
        ValueError: If either vector is zero.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("geocentric angle undefined for a zero position vector")
    cosang = float(np.dot(av, bv)) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, cosang))))


class InfeasibleGeometryError(ValueError):
    """Link geometry under which a link class can never be used."""


def raising_survival_latitude_deg(spec: ConstellationSpec, max_angle_deg: float) -> float:
    """sin^2(L) = (cos(theta_max) - cos(2*dOmega)) / (1 - cos(2*dOmega)),
    raising where the right side has no solution in [0, 1]."""
    two_domega = 2.0 * spec.plane_spacing_deg
    denom = 1.0 - math.cos(math.radians(two_domega))
    if denom <= 0.0:
        raise InfeasibleGeometryError("plane spacing too small for a survival latitude")
    arg = (math.cos(math.radians(max_angle_deg)) - math.cos(math.radians(two_domega))) / denom
    if arg < 0.0:
        raise InfeasibleGeometryError("links two planes apart are visible at all latitudes")
    if arg > 1.0:
        raise InfeasibleGeometryError("links two planes apart are never visible")
    return math.degrees(math.asin(math.sqrt(arg)))


def survival_latitude_deg(spec: ConstellationSpec) -> float:
    """The survival latitude at the spec's own link angle, an always-visible
    geometry mapped to 0 and any other raise passed on."""
    theta = max_link_angle_deg(spec)
    try:
        return raising_survival_latitude_deg(spec, theta)
    except InfeasibleGeometryError:
        if math.cos(math.radians(theta)) < math.cos(math.radians(2.0 * spec.plane_spacing_deg)):
            return 0.0
        raise


def propagation_delay_s(a, b) -> float:
    """Straight-line propagation delay between two points, in seconds."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    return float(np.linalg.norm(av - bv)) / SPEED_OF_LIGHT_KM_S


def elevation_angle_deg(
    gs: GroundStation,
    sat_state: SatState,
    t: float,
    earth_radius_km: float = EARTH_RADIUS_KM,
) -> float:
    """Elevation of a satellite above the station's local horizon.

    Negative below the horizon; t drives the station's rotation and should
    match the satellite state's time.
    """
    gpos = ground_position_km(gs, t, earth_radius_km)
    spos = np.asarray(sat_state.position_km)
    los = spos - gpos
    rng = float(np.linalg.norm(los))
    if rng == 0.0:
        return 90.0
    sin_el = float(np.dot(los, gpos)) / (rng * earth_radius_km)
    return math.degrees(math.asin(max(-1.0, min(1.0, sin_el))))


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


def is_ascending(u_deg: float) -> bool:
    """True on the half-orbit running from -90 toward +90 of latitude."""
    u = u_deg % 360.0
    return u < 90.0 or u >= 270.0


def class_phase_deg(spec: ConstellationSpec, phase_class: int, t: float) -> float:
    """Argument of latitude shared by all members of a phase class."""
    period = orbit_period(spec)
    return (phase_class * spec.phase_offset_deg + 360.0 * t / period) % 360.0


@dataclass(frozen=True)
class LsRow:
    """One same-latitude, same-direction row: the members of a phase class."""
    phase_class: int
    u_deg: float
    ascending: bool
    in_polar: bool


def reference_ls_rows(
    spec: ConstellationSpec, polar_border_deg: float, t: float,
) -> tuple[LsRow, ...]:
    """Every row at time t, built one at a time and ordered from the south
    apex in the direction of ascending motion."""
    rows = []
    for c in range(spec.row_count):
        u = class_phase_deg(spec, c, t)
        rows.append(LsRow(c, u, is_ascending(u), in_polar_band(u, polar_border_deg)))
    rows.sort(key=lambda r: (r.u_deg + 90.0) % 360.0)
    return tuple(rows)


def reference_reassign_topology(
    spec: ConstellationSpec, polar_border_deg: float, rows: tuple[LsRow, ...], trigger: str,
) -> TopologyEdgeSet:
    """``reassign_topology`` over ``reference_ls_rows``: per half-orbit the
    non-polar rows in order, the last one dropped after a non-uniform exit,
    zipped into consecutive pairs; an odd leftover gets horizontals. Raises
    AssertionError when a pair is not two consecutive phase classes."""
    uniform = is_uniform_row_distribution(spec, polar_border_deg)
    chains, horizontals = [], []
    for ascending in (True, False):
        band = [r for r in rows if not r.in_polar and r.ascending == ascending]
        if trigger == TRIGGER_EXIT and not uniform and band:
            band = band[:-1]
        for lower, upper in zip(band[0::2], band[1::2]):
            assert upper.phase_class == (lower.phase_class + 1) % spec.row_count, (lower, upper)
            chains.append(lower.phase_class)
        if len(band) % 2 == 1:
            horizontals.append(band[-1].phase_class)
    wiring = _wiring((spec.plane_count, spec.sats_per_plane))
    return wiring.draw(wiring.select(chains, horizontals))


def anchor_index(rows: tuple[LsRow, ...], polar_border_deg: float) -> int:
    """Index in ``rows`` of the non-polar row that most recently exited
    a polar cap; the simultaneous north/south exit tie is broken toward the
    lower-ordered (ascending-arc) row. -1 when every row is polar."""
    anchor, best_since_exit = -1, math.inf
    for i, row in enumerate(rows):
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
    return TopologyEdgeSet.from_edges(spec, (
        make_edge(SatId(p, j), SatId(p, j % m + 1), INTRA_PLANE)
        for p in range(1, spec.plane_count + 1) for j in range(1, m + 1)))


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
    polar_border_deg: float,
    trigger: str = TRIGGER_ENTER,
) -> SnapshotSequence:
    """``partition_reassignment`` with every snapshot's edges built from the
    rows just after its own event (``reference_ls_rows`` and
    ``reference_reassign_topology``), instead of rotated from the first."""
    period = orbit_period(spec)
    events = enumerate_events(spec, polar_border_deg, period, kinds=(trigger,))
    t0 = events[0].time_s
    snapshots = []
    for i, event in enumerate(events):
        start = event.time_s
        end = events[i + 1].time_s if i + 1 < len(events) else t0 + period
        rows = reference_ls_rows(spec, polar_border_deg, start + TIE_S)
        snapshots.append(TopologySnapshot(
            start, end, reference_reassign_topology(spec, polar_border_deg, rows, trigger)))
    return SnapshotSequence(METHOD_REASSIGNMENT, tuple(snapshots), period,
                            polar_border_deg, trigger=trigger)


def rolled_ids(shape: tuple[int, int], ids: np.ndarray, k: int) -> np.ndarray:
    """``_Wiring.rotated`` with one ``np.roll`` per class table: the ids with
    each phase class c's chain and horizontal edges replaced by those of
    class c - k, sorted."""
    wiring = _wiring(shape)
    perm = np.arange(len(wiring.edges.a), dtype=INDEX_DTYPE)
    for table in (wiring.chains, wiring.horizontals):
        perm[table] = np.roll(table, k, axis=0)
    return np.sort(perm[ids])


def islice_neighbour_rows(topo: TopologyEdgeSet) -> tuple[tuple[int, ...], ...]:
    """``routing._routing_graph`` without interning: each node's row cut in
    turn from the neighbour list sorted by node, as many as its degree."""
    ends = np.concatenate([topo.a, topo.b])
    order = np.argsort(ends, kind="stable")
    neighbour = iter(np.concatenate([topo.b, topo.a])[order].tolist())
    degree = np.bincount(ends, minlength=topo.shape[0] * topo.shape[1]).tolist()
    return tuple(tuple(itertools.islice(neighbour, d)) for d in degree)


def dijkstra_shortest_delay(snapshot, t, src, dst, spec, positions=None) -> PathResult:
    """``routing.shortest_delay`` as Dijkstra: every edge weight of the
    snapshot in one array expression, then a heap search ordered by the
    delay from src alone, over the same CSR neighbour order."""
    if not snapshot.covers(t):
        raise ValueError(
            f"t={t} outside snapshot [{snapshot.start_s}, {snapshot.end_s})")
    validate_sat_id(spec, src)
    validate_sat_id(spec, dst)
    if positions is None:
        positions = all_positions_km(spec, t)

    src_i = sat_to_index(spec, src)
    dst_i = sat_to_index(spec, dst)
    if src_i == dst_i:
        return PathResult(True, 0.0, (src,))

    snapshot.edges.check_shape(spec)
    a, b = snapshot.edges.a, snapshot.edges.b
    ends = np.concatenate([a, b])
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(spec.total_satellites + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends, minlength=spec.total_satellites), out=indptr[1:])
    edge_id = np.tile(np.arange(len(a), dtype=np.int32), 2)[order]
    neighbour = np.concatenate([b, a])[order].tolist()
    indptr = indptr.tolist()
    weight = np.sqrt(((positions[a] - positions[b]) ** 2).sum(1))
    weight = (weight / SPEED_OF_LIGHT_KM_S)[edge_id].tolist()

    dist = [math.inf] * spec.total_satellites
    dist[src_i] = 0.0
    prev = [-1] * spec.total_satellites
    visited = bytearray(spec.total_satellites)
    heap = [(0.0, src_i)]
    while heap:
        d, node = heapq.heappop(heap)
        if visited[node]:
            continue
        visited[node] = 1
        if node == dst_i:
            break
        for k in range(indptr[node], indptr[node + 1]):
            nbr = neighbour[k]
            nd = d + weight[k]
            if nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = node
                heapq.heappush(heap, (nd, nbr))

    if not visited[dst_i]:
        return PathResult(False, math.inf, ())
    path = [dst_i]
    while path[-1] != src_i:
        path.append(prev[path[-1]])
    path.reverse()
    return PathResult(True, dist[dst_i], tuple(index_to_sat(spec, i) for i in path))


def crossing_rows(
    spec: ConstellationSpec, polar_border_deg: float, event,
) -> tuple[tuple[int, str], ...]:
    """The (phase_class, hemisphere) rows that cross the border at an event,
    derived from its time and kind and sorted, as ``PolarCrossing.rows``
    held them. The northern row is the class whose phase is the kind's
    northern border phase at that instant; the southern one is M classes,
    half a period, behind it. Raises AssertionError when no class sits on
    the border at that instant."""
    target = polar_border_deg if event.kind == TRIGGER_ENTER else 180.0 - polar_border_deg
    slots = ((target - 360.0 * event.time_s / orbit_period(spec)) % 360.0
             / spec.phase_offset_deg)
    nearest = round(slots)
    assert abs(slots - nearest) < 1e-6, (event, slots)
    north = nearest % spec.row_count
    south = (north + spec.sats_per_plane) % spec.row_count
    return tuple(sorted(((north, "north"), (south, "south"))))


def active_couple_set(spec: ConstellationSpec, polar_border_deg: float, t: float) -> frozenset:
    """The lower classes 2k of the couples active at time t: both rows of
    the couple outside the polar caps."""
    phase = (np.arange(spec.row_count) * spec.phase_offset_deg
             + 360.0 * t / orbit_period(spec)) % 360.0
    outside = ~in_polar_band(phase, polar_border_deg)
    return frozenset((2 * np.flatnonzero(outside[0::2] & outside[1::2])).tolist())


def couple_set_edges(spec: ConstellationSpec, couples: frozenset) -> TopologyEdgeSet:
    """The rings plus the chains of the given lower classes, drawn from the
    edge universe."""
    wiring = _wiring((spec.plane_count, spec.sats_per_plane))
    return wiring.draw(wiring.select(sorted(couples), ()))


def fixed_per_instant(spec: ConstellationSpec, polar_border_deg: float) -> SnapshotSequence:
    """``partition_fixed`` with one frozenset of active couples per event."""
    period = orbit_period(spec)
    events = enumerate_events(spec, polar_border_deg, period)
    states = [active_couple_set(spec, polar_border_deg, e.time_s + TIE_S)
              for e in events]
    starts = [e.time_s for i, e in enumerate(events)
              if states[i] != states[i - 1]] or [0.0]
    snapshots = tuple(
        TopologySnapshot(start, end, couple_set_edges(
            spec, active_couple_set(spec, polar_border_deg, start + TIE_S)))
        for start, end in zip(starts, starts[1:] + [starts[0] + period]))
    return SnapshotSequence(METHOD_FIXED, snapshots, period, polar_border_deg)


def equal_time_per_instant(
    spec: ConstellationSpec, polar_border_deg: float, delta_s: float,
) -> SnapshotSequence:
    """``partition_equal_time`` interval by interval: the couples active
    just after the start, intersected with those active just after every
    event inside the interval, where an event is inside the interval that
    holds it plus ``TIE_S``, wrapped past the period's end to t=0."""
    period = orbit_period(spec)
    n_exact = period / delta_s
    truncated = abs(n_exact - round(n_exact)) > 1e-6 * n_exact
    n_full = int(round(n_exact)) if not truncated else int(math.floor(n_exact))
    event_times = [e.time_s for e in enumerate_events(spec, polar_border_deg, period)]
    starts = [k * delta_s for k in range(n_full + 1 if truncated else n_full)]
    snapshots = []
    for start, end in zip(starts, starts[1:] + [period]):
        couples = active_couple_set(spec, polar_border_deg, start + TIE_S)
        for te in event_times:
            if start <= (te + TIE_S) % period < end:
                couples &= active_couple_set(spec, polar_border_deg, te + TIE_S)
        snapshots.append(TopologySnapshot(start, end, couple_set_edges(spec, couples)))
    return SnapshotSequence(METHOD_EQUAL_TIME, tuple(snapshots), period, polar_border_deg,
                            truncated_final=truncated)


def scan_lookup(seq: SnapshotSequence, t: float) -> tuple[float, int]:
    """The cyclic time of t and the index of the first snapshot covering it,
    else the last one, by a linear scan. A fold that rounds up to the
    period's end takes the float below it, as in ``SnapshotSequence.lookup``."""
    end = seq.start_s + seq.period_s
    tau = min(seq.start_s + (t - seq.start_s) % seq.period_s, math.nextafter(end, -math.inf))
    return tau, next((i for i, snap in enumerate(seq.snapshots) if snap.covers(tau)),
                     len(seq.snapshots) - 1)


def reference_ground_position_km(gs: GroundStation, t: float, earth_radius_km: float):
    """One station at one time, with ``math`` functions."""
    lat = math.radians(gs.latitude_deg)
    lon = math.radians(gs.longitude_deg) + 2.0 * math.pi * t / SIDEREAL_DAY_S
    return np.array([
        earth_radius_km * math.cos(lat) * math.cos(lon),
        earth_radius_km * math.cos(lat) * math.sin(lon),
        earth_radius_km * math.sin(lat),
    ])


def reference_station_elevations(gs, t, spec, positions):
    gpos = reference_ground_position_km(gs, t, spec.earth_radius_km)
    los = positions - gpos
    rng = np.linalg.norm(los, axis=1)
    sin_el = (los @ gpos) / (np.maximum(rng, 1e-12) * spec.earth_radius_km)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def reference_attach_ground(gs, t, spec, positions):
    """One station at one send time, positions of shape (N*M, 3): the
    satellite of highest elevation, or None when it does not clear the
    mask. The attachment as it was before it took blocks of sends."""
    elev = reference_station_elevations(gs, t, spec, positions)
    best = int(np.argmax(elev))
    if elev[best] < gs.min_elevation_deg:
        return None
    return index_to_sat(spec, best)


def reference_validate_sequence(spec: ConstellationSpec, seq: SnapshotSequence) -> list[str]:
    """``validate_sequence`` with every snapshot checked by
    ``validate_topology`` just after its start, in index order."""
    period = orbit_period(spec)
    name = f"{spec.name} {seq.method} {seq.polar_border_deg}"
    failures = ([f"{name}: period_s is {seq.period_s!r}, not the orbit's {period!r} s"]
                if seq.period_s != period else [])
    start, end = seq.start_s, seq.snapshots[-1].end_s
    if end != start + period:
        failures.append(f"{name}: snapshots cover {end - start!r} s of a {period!r} s period")
    failures += [f"{name}: snapshots {i} and {i + 1} are not contiguous" for i, (a, b)
                 in enumerate(zip(seq.snapshots, seq.snapshots[1:])) if a.end_s != b.start_s]
    for block in instant_blocks(len(seq.snapshots), spec.total_satellites):
        snaps = seq.snapshots[block]
        times = [snap.start_s + TIE_S for snap in snaps]
        positions = all_positions_km(spec, np.array(times))
        for i, (snap, t, pos) in enumerate(zip(snaps, times, positions), block.start):
            violations = validate_topology(spec, seq.polar_border_deg, snap.edges, t, pos)
            if violations:
                first = violations[0]
                failures.append(f"{name} snapshot {i}: {len(violations)} violations, "
                                f"first: {first.rule} {first.detail}")
    return failures


def set_by_set_export_topology(seq: SnapshotSequence, spec: ConstellationSpec, path) -> None:
    """``export_topology`` with the table merged set by set: a concatenation,
    sort and diff per distinct set, then a ``searchsorted`` and ``packbits``
    per set for its mask, and a ``json.dumps`` per snapshot line."""
    if not seq.snapshots:
        raise ValueError("refusing to export an empty snapshot sequence")
    head = json.dumps({
        "format": "polarsnap-topology/3",
        "constellation": {
            "name": spec.name,
            "plane_count": spec.plane_count,
            "sats_per_plane": spec.sats_per_plane,
            "inclination_deg": spec.inclination_deg,
            "altitude_km": spec.altitude_km,
            "period_s": orbit_period(spec),
            "inter_plane_spacing_deg": spec.plane_spacing_deg,
            "earth_radius_km": spec.earth_radius_km,
            "grazing_altitude_km": spec.grazing_altitude_km,
        },
        "method": seq.method,
        "polar_border_deg": seq.polar_border_deg,
        "trigger": seq.trigger,
        "period_s": seq.period_s,
        "truncated_final": seq.truncated_final,
        "edges": [],
        "snapshots": [],
    }, indent=1, sort_keys=True)
    n, m = spec.total_satellites, spec.sats_per_plane
    sets = {id(snap.edges): snap.edges for snap in seq.snapshots}

    def keys(topo: TopologyEdgeSet) -> np.ndarray:
        return (topo.kind.astype(np.int64) * n + topo.a) * n + topo.b

    unique = np.empty(0, dtype=np.int64)
    for topo in sets.values():
        topo.check_shape(spec)
        unique = np.sort(np.concatenate([unique, keys(topo)]))
        unique = unique[np.diff(unique, prepend=-1) != 0]
    names = [json.dumps(kind) for kind in KINDS]
    table = [f"[{names[k]}, {a // m + 1}, {a % m + 1}, {b // m + 1}, {b % m + 1}]"
             for k, a, b in zip(*(x.tolist() for x in (unique // (n * n), unique // n % n,
                                                       unique % n)))]
    masks = {}
    for key, topo in sets.items():
        member = np.zeros(len(unique), dtype=bool)
        member[np.searchsorted(unique, keys(topo))] = True
        masks[key] = np.packbits(member).tobytes().hex()
    snapshots = [json.dumps({"edge_mask": masks[id(snap.edges)], "end_s": snap.end_s,
                             "index": i, "start_s": snap.start_s})
                 for i, snap in enumerate(seq.snapshots)]
    for key, lines in (("edges", table), ("snapshots", snapshots)):
        body = "[\n" + ",\n".join(f"  {line}" for line in lines) + "\n ]" if lines else "[]"
        head = head.replace(f'\n "{key}": []', f'\n "{key}": {body}', 1)
    Path(path).write_text(head + "\n")
