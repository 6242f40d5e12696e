"""Per-snapshot shortest-path routing and the ground-to-ground delay study.

Routing runs on a snapshot's frozen edge set with edge weights equal to
the straight-line propagation delay between the endpoint positions at the
packet send time, so latency variation inside a snapshot is captured.
On its first route an edge set gets a neighbour table, one tuple per
satellite (equal rows shared by the tables one routing pass builds), kept
on the set, so every snapshot and sequence that shares the set shares the
table. Each route is an A* search over that table: the heap is ordered by
the delay so far plus the straight-line delay to the destination, a lower
bound on the rest of any path, and an edge's delay is computed only when
the search relaxes it. Delays and paths are bitwise those of Dijkstra over every edge
weight. End-to-end totals include both up/down links; queueing and
processing are out of scope.

The delay experiment is a send grid plus a routing pass. A ``SendGrid``
holds what every sequence shares for one pair of stations: the send times
and both attachments (satellite, mask flag and up- or down-link delay for
every send), evaluated block by block as arrays, and a memo of routes
keyed on (edge set, send). A set is known by a digest of its endpoint
arrays, so drawn, loaded and hand-made sets with the same links share memo
entries, and the memo keeps no set's arrays.
``route_sequences`` routes its sequences together: it looks up each one
once, then block by block of sends gathers the distinct (edge set, send)
pairs not in the memo and evaluates satellite positions in one call for the
sends it routes. Grid and pass take their blocks of sends from
``instant_blocks``. ``send_count`` checks every send count against ``MAX_SENDS``.
"""
import heapq
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    ConstellationSpec,
    GroundStation,
    SPEED_OF_LIGHT_KM_S,
    SatId,
    all_positions_km,
    ground_position_km,
    instant_blocks,
    orbit_period,
    sat_to_index,
    satellite_ids,
    validate_sat_id,
)
from .links import TRIGGER_ENTER, TopologyEdgeSet
from .snapshots import SnapshotSequence, TopologySnapshot, partition

MAX_SENDS = 100_000  # the most sends one delay experiment may make

# The memo value of a send that attaches but finds no path.
_NO_PATH = (math.nan, 0)

# The straight-line bound, shrunk by 1e-9 of itself: any factor below 1
# keeps the search exact, and this one leaves a slack far above the float
# rounding (about 1e-16 relative) of the bound and the path sums, so
# rounding can never make the bound overestimate.
_BOUND_SCALE = (1.0 - 1e-9) / SPEED_OF_LIGHT_KM_S


@dataclass(frozen=True)
class PathResult:
    reachable: bool
    delay_s: float
    path: tuple[SatId, ...]


class Attachment(NamedTuple):
    """Ground attachment for a block of K send times, as (K,) arrays."""
    index: np.ndarray
    """Highest-elevation satellite, in ``sat_to_index`` order."""
    visible: np.ndarray
    """Whether that satellite clears the station's minimum elevation."""
    range_km: np.ndarray
    """Slant range from the station to that satellite."""


def _routing_graph(topo: TopologyEdgeSet,
                   rows: dict | None = None) -> tuple[tuple[int, ...], ...]:
    """Each node's neighbours, nodes in ``sat_to_index`` order, built once per
    set (``TopologyEdgeSet.derived``); equal rows are one tuple, interned in
    ``rows``, a routing pass's table, when one is given. Edge delays depend
    on the send time: none here."""
    ends = np.concatenate([topo.a, topo.b])
    order = np.argsort(ends, kind="stable")
    neighbour = iter(np.concatenate([topo.b, topo.a])[order].tolist())
    degree = np.bincount(ends, minlength=topo.shape[0] * topo.shape[1]).tolist()
    intern = ({} if rows is None else rows).setdefault
    return tuple(intern(row, row) for row in
                 (tuple(itertools.islice(neighbour, d)) for d in degree))


def _digest(topo: TopologyEdgeSet) -> tuple[int, int]:
    """A fixed-size digest of a set's endpoint arrays: their two 64-bit
    keyed hashes. (hashlib would map OpenSSL into the process, 3.6 MB of
    resident memory.)"""
    return hash(topo.a.tobytes()), hash(topo.b.tobytes())


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


def utilization(seq: SnapshotSequence, spec: ConstellationSpec) -> float:
    """Time-weighted fraction of the maximum inter-plane link capacity: the
    sum of inter-plane link count times duration, normalised by the
    all-links-always-on budget (N-1) * M * T.

    Raises:
        ValueError: On an empty sequence.
    """
    if not seq.snapshots:
        raise ValueError("cannot compute utilization of an empty sequence")
    total = sum(s.n_inter_plane * s.duration_s for s in seq.snapshots)
    budget = (spec.plane_count - 1) * spec.sats_per_plane * seq.period_s
    return total / budget


def attach_ground(
    gs: GroundStation,
    t: np.ndarray,
    spec: ConstellationSpec,
    positions: np.ndarray,
) -> Attachment:
    """Satellite with the highest elevation above the station's mask, for
    a block of K send times.

    Takes a (K,) array of times and their (K, N*M, 3) satellite positions
    (``all_positions_km``), and returns each time's satellite index, mask
    flag and slant range. Exact ties resolve to the lower satellite id
    (plane-major order).
    """
    gpos = ground_position_km(gs, t, spec.earth_radius_km)
    los = positions - gpos[:, None, :]
    rng = np.linalg.norm(los, axis=2)
    sin_el = ((los @ gpos[:, :, None])[..., 0]
              / (np.maximum(rng, 1e-12) * spec.earth_radius_km))
    elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    best = np.argmax(elev, axis=1)
    sends = np.arange(len(best))
    return Attachment(best, elev[sends, best] >= gs.min_elevation_deg, rng[sends, best])


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
    neighbour table is built from the edge set's compiled arrays on the
    first route over the set and cached on its edge set.

    The search is A*: the heap is ordered by the delay from src plus the
    straight-line delay to dst, shrunk by 1e-9 of itself. That bound is
    consistent (the triangle inequality, with slack for float rounding),
    so every node leaves the heap with its least delay, as in Dijkstra.
    Each edge's delay is computed only when the search relaxes it, with
    the same float operations as the array expression
    ``sqrt(((pa - pb) ** 2).sum(1)) / c``; a relaxation must strictly
    improve a delay, and delays are summed from src outwards. Where two
    predecessors give exactly equal delays, the one Dijkstra settles
    first (lower delay, then lower index) is kept. So the result, path
    included, is bitwise that of Dijkstra over every edge weight.

    Raises:
        ValueError: If t is outside [start, end), or src or dst is not a
            satellite of the constellation.
    """
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

    neighbours = snapshot.edges.derived(spec, _routing_graph)
    xs, ys, zs = positions.T.tolist()
    tx, ty, tz = xs[dst_i], ys[dst_i], zs[dst_i]
    sqrt, push, pop = math.sqrt, heapq.heappush, heapq.heappop

    dist = [math.inf] * spec.total_satellites
    dist[src_i] = 0.0
    prev = [-1] * spec.total_satellites
    settled = bytearray(spec.total_satellites)
    heap = [(0.0, src_i)]
    while heap:
        node = pop(heap)[1]
        if settled[node]:
            continue
        settled[node] = 1
        if node == dst_i:
            break
        d = dist[node]
        x, y, z = xs[node], ys[node], zs[node]
        for nbr in neighbours[node]:
            if settled[nbr]:
                continue
            nx, ny, nz = xs[nbr], ys[nbr], zs[nbr]
            dx, dy, dz = x - nx, y - ny, z - nz
            nd = d + sqrt(dx * dx + dy * dy + dz * dz) / SPEED_OF_LIGHT_KM_S
            if nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = node
                dx, dy, dz = nx - tx, ny - ty, nz - tz
                push(heap, (nd + sqrt(dx * dx + dy * dy + dz * dz) * _BOUND_SCALE, nbr))
            elif nd == dist[nbr] and (d, node) < (dist[prev[nbr]], prev[nbr]):
                prev[nbr] = node

    if not settled[dst_i]:
        return PathResult(False, math.inf, ())
    path = [dst_i]
    while path[-1] != src_i:
        path.append(prev[path[-1]])
    sats = satellite_ids(spec.plane_count, spec.sats_per_plane)
    return PathResult(True, dist[dst_i], tuple(sats[i] for i in reversed(path)))


def send_count(duration_s: float, interval_s: float) -> int:
    """The sends of a delay experiment, duration_s // interval_s; a ValueError
    unless both are positive and finite and the count in [1, ``MAX_SENDS``]."""
    if not (0.0 < duration_s < math.inf and 0.0 < interval_s < math.inf):
        raise ValueError("duration_s and interval_s must be positive and finite")
    if duration_s < interval_s:
        raise ValueError(f"duration_s {duration_s} is shorter than interval_s {interval_s}, "
                         "which leaves no sends")
    sends = duration_s // interval_s
    if sends > MAX_SENDS:
        raise ValueError(f"duration_s {duration_s} over interval_s {interval_s} makes "
                         f"{sends:.6g} sends, above the limit of {MAX_SENDS}")
    return int(sends)


class SendGrid:
    """The sends of a delay experiment and what every sequence shares.

    For each send k, at k * interval_s: whether both stations attach,
    their satellites' indices in ``sat_to_index`` order and the up- and
    down-link delays, as lists. Attachments are evaluated once, block by
    block. The grid also memoises routes for ``route_sequences``: an edge
    set gets a small integer token from its endpoint arrays (``_token``;
    routes do not depend on edge kinds), and the route of send k over it
    is stored under ``token * n_sends + k`` as (path delay, path hops), or
    ``_NO_PATH``.

    Raises:
        ValueError: On a duration and interval that ``send_count`` rejects.
    """

    def __init__(self, spec: ConstellationSpec, src_gs: GroundStation,
                 dst_gs: GroundStation, duration_s: float, interval_s: float):
        self.times = [k * interval_s for k in range(send_count(duration_s, interval_s))]
        self.spec, self.src_gs, self.dst_gs = spec, src_gs, dst_gs
        self.duration_s, self.interval_s = duration_s, interval_s
        self.attached: list[bool] = []
        self.src_index: list[int] = []
        self.dst_index: list[int] = []
        self.up_s: list[float] = []
        self.down_s: list[float] = []
        for block in instant_blocks(len(self.times), spec.total_satellites):
            times = np.array(self.times[block])
            positions = all_positions_km(spec, times)
            up = attach_ground(src_gs, times, spec, positions)
            down = attach_ground(dst_gs, times, spec, positions)
            self.attached += (up.visible & down.visible).tolist()
            self.src_index += up.index.tolist()
            self.dst_index += down.index.tolist()
            self.up_s += (up.range_km / SPEED_OF_LIGHT_KM_S).tolist()
            self.down_s += (down.range_km / SPEED_OF_LIGHT_KM_S).tolist()
        self.routes: dict[int, tuple[float, int]] = {}
        self._tokens: dict[tuple[int, int], int] = {}  # by endpoint digest
        self._holders = weakref.WeakValueDictionary()  # token -> a live set holding it
        self._issued = itertools.count()

    def _token(self, edges: TopologyEdgeSet) -> int:
        """The memo token of a set: one per distinct pair of endpoint arrays.

        The grid keeps each token under the arrays' ``_digest``, for its
        whole life, and one live set of each token weakly. A set whose
        digest names a token with a live set of other endpoints (a digest
        collision) gets a token of its own.
        """
        digest = _digest(edges)
        token = self._tokens.get(digest)
        holder = None if token is None else self._holders.get(token)
        if token is None or (holder is not None and holder is not edges and not (
                np.array_equal(holder.a, edges.a) and np.array_equal(holder.b, edges.b))):
            token = next(self._issued)
            self._tokens.setdefault(digest, token)
        self._holders.setdefault(token, edges)
        return token


def route_sequences(
    grid: SendGrid, sequences: list[SnapshotSequence],
) -> list[list[tuple[float, int]]]:
    """The routing pass: each sequence's route of every send, as (path
    delay, path hops) or ``_NO_PATH``. Each sequence is looked up once over
    all sends; then, block by block of sends, the distinct (edge set, send)
    pairs missing from the grid's memo are routed, with one position call
    per block that has any. The neighbour tables the pass builds share
    their equal rows; the intern table ends with the pass."""
    spec, times, n_sends, routes = grid.spec, grid.times, len(grid.times), grid.routes
    sats = satellite_ids(spec.plane_count, spec.sats_per_plane)
    sends, attached = np.arange(n_sends), np.array(grid.attached)
    looked_up = []  # per sequence: cyclic send times, snapshot indices, memo keys (-1 unattached)
    for seq in sequences:
        taus, index = seq.lookup(sends * grid.interval_s)  # the send times
        token = np.full(len(seq.snapshots), -1)
        for j in set(index[attached].tolist()):
            token[j] = grid._token(seq.snapshots[j].edges.compiled(spec))
        looked_up.append((seq, taus, index, np.where(attached, token[index] * n_sends + sends, -1)))
    rows, tabled = {}, set()  # this pass's neighbour rows, interned; ids of the sets seen
    for block in instant_blocks(n_sends, spec.total_satellites):
        # Pairs to route, by send; positions repeat, so tau serves only the snapshot check.
        todo: dict[int, dict[int, tuple[TopologySnapshot, float]]] = {}
        for seq, taus, index, keys in looked_up:
            for k, tau, j in zip(*(x[block].tolist() for x in (keys, taus, index))):
                if k >= 0 and k not in routes:
                    todo.setdefault(k % n_sends, {}).setdefault(k, (seq.snapshots[j], tau))
        if not todo:
            continue
        routed = sorted(todo)
        positions = all_positions_km(spec, np.array([times[k] for k in routed]))
        for k, pos in zip(routed, positions):
            src, dst = sats[grid.src_index[k]], sats[grid.dst_index[k]]
            for key, (snap, tau) in todo[k].items():
                if id(snap.edges) not in tabled:  # build its table, if it has none, with rows
                    tabled.add(id(snap.edges))
                    snap.edges.derived(spec, _routing_graph, rows)
                result = shortest_delay(snap, tau, src, dst, spec, pos)
                routes[key] = ((result.delay_s, len(result.path) - 1)
                               if result.reachable else _NO_PATH)
    return [[routes[k] if k >= 0 else _NO_PATH for k in keys.tolist()]
            for *_, keys in looked_up]


def delay_experiment(
    spec: ConstellationSpec,
    method: str,
    polar_border_deg: float,
    src_gs: GroundStation,
    dst_gs: GroundStation,
    duration_s: float,
    interval_s: float,
    trigger: str = TRIGGER_ENTER,
    sequence: SnapshotSequence | None = None,
    grid: SendGrid | None = None,
) -> DelaySeries:
    """Sample end-to-end delay between two ground stations.

    For each send time k * interval the governing snapshot is looked up
    (the one-period sequence repeats cyclically), both stations attach to
    their highest-elevation satellites, and the total is up-link + path +
    down-link delay. Samples with no attachment or no path are flagged
    unreachable and excluded from the average.

    The sends and their attachments come from ``grid``, built here when
    omitted; pass one grid to several calls to share them. The samples come
    from ``route_sequences(grid, [sequence])``: a sequence that a pass over
    the grid has already routed costs one lookup and no routing. Without a
    ``sequence``, ``partition`` cuts one with the trigger and its defaults.

    Raises:
        ValueError: On a duration and interval that ``send_count`` rejects,
            a ``sequence`` whose method, polar border or period does not
            match the other arguments, or a ``grid`` built for another
            constellation, station, duration or interval.
    """
    if grid is None:
        grid = SendGrid(spec, src_gs, dst_gs, duration_s, interval_s)
    for name, want in (("spec", spec), ("src_gs", src_gs), ("dst_gs", dst_gs),
                       ("duration_s", duration_s), ("interval_s", interval_s)):
        if getattr(grid, name) != want:
            raise ValueError(f"grid.{name} is {getattr(grid, name)!r}, expected {want!r}")
    if sequence is None:
        sequence = partition(spec, method, polar_border_deg, trigger=trigger)
    elif sequence.method != method:
        raise ValueError(
            f"sequence.method is {sequence.method!r}, expected {method!r}")
    elif sequence.polar_border_deg != polar_border_deg:
        raise ValueError(f"sequence.polar_border_deg is "
                         f"{sequence.polar_border_deg}, expected {polar_border_deg}")
    elif abs(sequence.period_s - orbit_period(spec)) > 1e-6:
        raise ValueError(f"sequence.period_s is {sequence.period_s}, expected "
                         f"{orbit_period(spec)} for {spec.name}")

    routes = route_sequences(grid, [sequence])[0]
    samples = tuple(DelaySample(t, False, math.nan, 0) if route is _NO_PATH
                    else DelaySample(t, True, up + route[0] + down, route[1] + 2)
                    for t, route, up, down in zip(grid.times, routes, grid.up_s, grid.down_s))
    return DelaySeries(src_gs, dst_gs, method, polar_border_deg, samples)
