"""Per-snapshot shortest-path routing and the ground-to-ground delay study.

Routing runs on a snapshot's frozen edge set with edge weights equal to
the straight-line propagation delay between the endpoint positions at the
packet send time, so latency variation inside a snapshot is captured.
On its first route a snapshot gets a CSR neighbour table built from its
edge set's compiled integer arrays; every route then computes all edge
weights in one array expression and runs Dijkstra over integers.
End-to-end totals include both up/down links; queueing and processing are
out of scope.
"""
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConstellationSpec,
    GroundStation,
    SPEED_OF_LIGHT_KM_S,
    SatId,
    all_positions_km,
    ground_position_km,
    index_to_sat,
    sat_to_index,
)
from .snapshots import SnapshotSequence, TopologySnapshot, partition

# Sends whose satellite positions the delay experiment evaluates in one
# call; bounds the (block, N*M, 3) position array.
_SEND_BLOCK = 128


@dataclass(frozen=True)
class UtilizationReport:
    """Time-weighted fraction of the maximum inter-plane link capacity."""
    method: str
    polar_border_deg: float
    value: float


@dataclass(frozen=True)
class PathResult:
    reachable: bool
    delay_s: float
    path: tuple[SatId, ...]


@dataclass(frozen=True)
class _RoutingGraph:
    """A snapshot's edges as integer arrays, nodes in ``sat_to_index`` order.

    Edge e joins ``a[e]`` and ``b[e]``. Node u's neighbours are
    ``neighbour[indptr[u]:indptr[u + 1]]``, reached over the edges
    ``edge_id`` holds in the same slots.
    """
    a: np.ndarray
    b: np.ndarray
    indptr: np.ndarray
    neighbour: np.ndarray
    edge_id: np.ndarray


def _routing_graph(snapshot: TopologySnapshot, spec: ConstellationSpec) -> _RoutingGraph:
    """The snapshot's compiled graph, built on first use and cached on it."""
    if snapshot.routing_graph is not None:
        return snapshot.routing_graph
    arrays = snapshot.edges.compiled(spec)
    a, b = arrays.a, arrays.b
    ends = np.concatenate([a, b])
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(spec.total_satellites + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends, minlength=spec.total_satellites), out=indptr[1:])
    edge_id = np.tile(np.arange(len(a), dtype=np.int32), 2)[order]
    graph = _RoutingGraph(a, b, indptr, np.concatenate([b, a])[order], edge_id)
    object.__setattr__(snapshot, "routing_graph", graph)
    return graph


@dataclass(frozen=True)
class DelaySample:
    send_time_s: float
    reachable: bool
    delay_s: float
    hops: int


@dataclass(frozen=True)
class DelaySeries:
    source: GroundStation
    destination: GroundStation
    method: str
    polar_border_deg: float
    samples: tuple[DelaySample, ...]

    @property
    def average_delay_s(self) -> float:
        """Mean over reachable samples only; NaN when none are reachable."""
        reachable = [s.delay_s for s in self.samples if s.reachable]
        if not reachable:
            return math.nan
        return sum(reachable) / len(reachable)

    @property
    def unreachable_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if not s.reachable) / len(self.samples)


def utilization(seq: SnapshotSequence, spec: ConstellationSpec) -> UtilizationReport:
    """Sum of inter-plane link count times duration, normalised by the
    all-links-always-on budget (N-1) * M * T.

    Raises:
        ValueError: On an empty sequence.
    """
    if not seq.snapshots:
        raise ValueError("cannot compute utilization of an empty sequence")
    total = sum(s.n_inter_plane * s.duration_s for s in seq.snapshots)
    budget = (spec.plane_count - 1) * spec.sats_per_plane * seq.period_s
    return UtilizationReport(seq.method, seq.polar_border_deg, total / budget)


def _station_elevations(
    gs: GroundStation, t: float, spec: ConstellationSpec, positions: np.ndarray,
) -> np.ndarray:
    gpos = np.asarray(ground_position_km(gs, t, spec.earth_radius_km))
    los = positions - gpos
    rng = np.linalg.norm(los, axis=1)
    sin_el = (los @ gpos) / (np.maximum(rng, 1e-12) * spec.earth_radius_km)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def attach_ground(
    gs: GroundStation,
    t: float,
    spec: ConstellationSpec,
    positions: np.ndarray | None = None,
) -> SatId | None:
    """Satellite with the highest elevation above the station's mask.

    Returns None when no satellite clears the minimum elevation. Exact
    ties resolve to the lower satellite id (plane-major order).
    """
    if positions is None:
        positions = all_positions_km(spec, t)
    elev = _station_elevations(gs, t, spec, positions)
    best = int(np.argmax(elev))
    if elev[best] < gs.min_elevation_deg:
        return None
    return index_to_sat(spec, best)


def shortest_delay(
    snapshot: TopologySnapshot,
    t: float,
    src: SatId,
    dst: SatId,
    spec: ConstellationSpec,
    positions: np.ndarray | None = None,
) -> PathResult:
    """Minimum-propagation-delay path over the snapshot's edges.

    Edge weights are evaluated from satellite positions at time t, which
    must fall inside the snapshot interval. ``positions`` may be those of
    any time congruent to t modulo the orbit period, since positions
    repeat every period; when omitted they are computed at t. The
    snapshot's neighbour table is built from its edge set's compiled
    arrays on the first call and cached on the snapshot.

    Raises:
        ValueError: If t is outside [start, end).
    """
    if not snapshot.covers(t):
        raise ValueError(
            f"t={t} outside snapshot [{snapshot.start_s}, {snapshot.end_s})")
    if positions is None:
        positions = all_positions_km(spec, t)

    src_i = sat_to_index(spec, src)
    dst_i = sat_to_index(spec, dst)
    if src_i == dst_i:
        return PathResult(True, 0.0, (src,))

    graph = _routing_graph(snapshot, spec)
    weight = np.sqrt(((positions[graph.a] - positions[graph.b]) ** 2).sum(1))
    weight = (weight / SPEED_OF_LIGHT_KM_S)[graph.edge_id].tolist()
    indptr = graph.indptr.tolist()
    neighbour = graph.neighbour.tolist()

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


def delay_experiment(
    spec: ConstellationSpec,
    method: str,
    polar_border_deg: float,
    src_gs: GroundStation,
    dst_gs: GroundStation,
    duration_s: float,
    interval_s: float,
    trigger: str = "enter",
    equal_time_delta_s: float | None = None,
    sequence: SnapshotSequence | None = None,
) -> DelaySeries:
    """Sample end-to-end delay between two ground stations.

    For each send time k * interval the governing snapshot is looked up
    (the one-period sequence repeats cyclically), both stations attach to
    their highest-elevation satellites, and the total is up-link + path +
    down-link delay. Samples with no attachment or no path are flagged
    unreachable and excluded from the average. Satellite positions are
    evaluated once per send, for a block of sends per call.

    Raises:
        ValueError: On non-positive duration or interval.
    """
    if duration_s <= 0.0 or interval_s <= 0.0:
        raise ValueError("duration_s and interval_s must be positive")
    if sequence is None:
        sequence = partition(
            spec, method, polar_border_deg,
            trigger=trigger, equal_time_delta_s=equal_time_delta_s,
        )

    samples = []
    n_sends = int(duration_s // interval_s)
    for first in range(0, n_sends, _SEND_BLOCK):
        times = [k * interval_s for k in range(first, min(first + _SEND_BLOCK, n_sends))]
        for t, positions in zip(times, all_positions_km(spec, np.array(times))):
            src_sat = attach_ground(src_gs, t, spec, positions)
            dst_sat = attach_ground(dst_gs, t, spec, positions)
            if src_sat is None or dst_sat is None:
                samples.append(DelaySample(t, False, math.nan, 0))
                continue

            snap = sequence.snapshot_at(t)
            # The snapshot interval check needs the cyclic time; positions
            # repeat every period, so those at t serve for it.
            tau = sequence.start_s + (t - sequence.start_s) % sequence.period_s
            result = shortest_delay(snap, tau, src_sat, dst_sat, spec, positions)
            if not result.reachable:
                samples.append(DelaySample(t, False, math.nan, 0))
                continue

            up = _udl_delay(src_gs, src_sat, t, spec, positions)
            down = _udl_delay(dst_gs, dst_sat, t, spec, positions)
            total = up + result.delay_s + down
            hops = (len(result.path) - 1) + 2
            samples.append(DelaySample(t, True, total, hops))

    return DelaySeries(
        source=src_gs,
        destination=dst_gs,
        method=method,
        polar_border_deg=polar_border_deg,
        samples=tuple(samples),
    )


def _udl_delay(
    gs: GroundStation, sat: SatId, t: float,
    spec: ConstellationSpec, positions: np.ndarray,
) -> float:
    gpos = np.asarray(ground_position_km(gs, t, spec.earth_radius_km))
    spos = positions[sat_to_index(spec, sat)]
    return float(np.linalg.norm(spos - gpos)) / SPEED_OF_LIGHT_KM_S
