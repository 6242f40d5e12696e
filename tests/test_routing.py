import collections
import dataclasses
import gc
import heapq
import itertools
import math
import random
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsnap import geometry, links, report, routing, snapshots
from polarsnap.geometry import (
    POSITION_BLOCK_ROWS,
    ConstellationSpec,
    GroundStation,
    SPEED_OF_LIGHT_KM_S,
    SatId,
    all_positions_km,
    ground_position_km,
    orbit_period,
    sat_to_index,
    satellite_ids,
)
from polarsnap.links import (
    HORIZONTAL,
    INTRA_PLANE,
    OBLIQUE,
    IslEdge,
    TopologyEdgeSet,
    couple_edges,
)
from polarsnap.routing import (
    DelaySample,
    DelaySeries,
    PathResult,
    SendGrid,
    attach_ground,
    delay_experiment,
    route_sequences,
    shortest_delay,
    utilization,
)
from polarsnap.report import export_topology, load_topology, run_compare
from polarsnap.scenario import ScenarioConfig
from polarsnap.snapshots import (
    SnapshotSequence,
    TopologySnapshot,
    partition,
    partition_fixed,
    partition_reassignment,
    validate_sequence,
)
from tests.oracles import (
    dijkstra_shortest_delay,
    equal_time_per_instant,
    fixed_per_instant,
    index_to_sat,
    islice_neighbour_rows,
    reference_attach_ground,
    reference_ground_position_km,
    satellite_state,
    scan_lookup,
)


def brute_force_delay(snapshot, t, src, dst, spec):
    """Exhaustive simple-path enumeration; independent of the router."""
    positions = all_positions_km(spec, t)
    adj = {}
    for edge in snapshot.edges.edges:
        a = sat_to_index(spec, edge.endpoint_a)
        b = sat_to_index(spec, edge.endpoint_b)
        w = float(np.linalg.norm(positions[a] - positions[b])) / SPEED_OF_LIGHT_KM_S
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))

    src_i, dst_i = sat_to_index(spec, src), sat_to_index(spec, dst)
    best = math.inf

    def walk(node, seen, acc):
        nonlocal best
        if acc >= best:
            return
        if node == dst_i:
            best = acc
            return
        for nbr, w in adj.get(node, ()):
            if nbr not in seen:
                walk(nbr, seen | {nbr}, acc + w)

    walk(src_i, {src_i}, 0.0)
    return best


def ring_cut(snapshot, spec):
    """The snapshot with its inter-plane links removed: one ring per plane."""
    rings = frozenset(e for e in snapshot.edges.edges if e.kind == INTRA_PLANE)
    return TopologySnapshot(snapshot.start_s, snapshot.end_s,
                            TopologyEdgeSet.from_edges(spec, rings))


def path_delay(path, positions, spec):
    """A path's delay summed from its source, one edge at a time."""
    delay = 0.0
    for a, b in zip(path, path[1:]):
        pa, pb = positions[sat_to_index(spec, a)], positions[sat_to_index(spec, b)]
        delay += float(np.sqrt(((pa - pb) ** 2).sum())) / SPEED_OF_LIGHT_KM_S
    return delay


def reference_shortest_delay(snapshot, t, src, dst, spec, positions=None):
    """Dijkstra over a dict adjacency rebuilt from the edge set on every
    call, one ``np.linalg.norm`` per edge: the router as it was before
    snapshots were compiled to integer arrays, kept as a reference."""
    if not snapshot.covers(t):
        raise ValueError(
            f"t={t} outside snapshot [{snapshot.start_s}, {snapshot.end_s})")
    if positions is None:
        positions = all_positions_km(spec, t)

    src_i = sat_to_index(spec, src)
    dst_i = sat_to_index(spec, dst)
    if src_i == dst_i:
        return PathResult(True, 0.0, (src,))

    adjacency: dict[int, list[tuple[int, float]]] = {}
    for edge in snapshot.edges.edges:
        a = sat_to_index(spec, edge.endpoint_a)
        b = sat_to_index(spec, edge.endpoint_b)
        w = float(np.linalg.norm(positions[a] - positions[b])) / SPEED_OF_LIGHT_KM_S
        adjacency.setdefault(a, []).append((b, w))
        adjacency.setdefault(b, []).append((a, w))

    dist = {src_i: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, src_i)]
    visited: set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst_i:
            break
        for nbr, w in adjacency.get(node, ()):
            nd = d + w
            if nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                prev[nbr] = node
                heapq.heappush(heap, (nd, nbr))

    if dst_i not in visited:
        return PathResult(False, math.inf, ())
    path = [dst_i]
    while path[-1] != src_i:
        path.append(prev[path[-1]])
    path.reverse()
    return PathResult(True, dist[dst_i], tuple(index_to_sat(spec, i) for i in path))


def attach_one(gs, t, spec, positions=None):
    """``attach_ground`` on a block of one send: the satellite, or None
    when it does not clear the mask."""
    if positions is None:
        positions = all_positions_km(spec, t)
    block = attach_ground(gs, np.array([t]), spec, positions[None])
    return index_to_sat(spec, int(block.index[0])) if block.visible[0] else None


def reference_udl_delay(gs, sat, t, spec, positions):
    gpos = reference_ground_position_km(gs, t, spec.earth_radius_km)
    spos = positions[sat_to_index(spec, sat)]
    return float(np.linalg.norm(spos - gpos)) / SPEED_OF_LIGHT_KM_S


def reference_delay_experiment(spec, seq, src_gs, dst_gs, duration_s, interval_s):
    """One send at a time: fresh positions at t and at the cyclic time tau,
    a linear snapshot scan, scalar attachment and up/down links, and the
    reference router."""
    samples = []
    for k in range(int(duration_s // interval_s)):
        t = k * interval_s
        positions = all_positions_km(spec, t)
        src_sat = reference_attach_ground(src_gs, t, spec, positions)
        dst_sat = reference_attach_ground(dst_gs, t, spec, positions)
        if src_sat is None or dst_sat is None:
            samples.append(DelaySample(t, False, math.nan, 0))
            continue
        tau, i = scan_lookup(seq, t)
        snap = seq.snapshots[i]
        result = reference_shortest_delay(
            snap, tau, src_sat, dst_sat, spec, all_positions_km(spec, tau))
        if not result.reachable:
            samples.append(DelaySample(t, False, math.nan, 0))
            continue
        up = reference_udl_delay(src_gs, src_sat, t, spec, positions)
        down = reference_udl_delay(dst_gs, dst_sat, t, spec, positions)
        samples.append(DelaySample(t, True, up + result.delay_s + down, len(result.path) + 1))
    return samples


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        assert (g.send_time_s, g.reachable, g.hops) == (r.send_time_s, r.reachable, r.hops)
        if r.reachable:
            assert g.delay_s == pytest.approx(r.delay_s, rel=1e-12, abs=0.0)


def assert_routes_like_oracles(snapshot, t, src, dst, spec, positions):
    """The router's result, after requiring it to equal Dijkstra's in every
    field, delay bit for bit, and the dict-adjacency router's within 1e-12."""
    got = shortest_delay(snapshot, t, src, dst, spec, positions)
    assert got == dijkstra_shortest_delay(snapshot, t, src, dst, spec, positions)
    assert_same_route(got, reference_shortest_delay(snapshot, t, src, dst, spec, positions))
    return got


def held_routes(grid):
    """The routes a grid's memo holds, over all its live sets."""
    return sum(map(len, grid.routes.values()))


def assert_same_route(got, want):
    assert got.reachable == want.reachable
    assert len(got.path) == len(want.path)
    if want.reachable:
        assert got.delay_s == pytest.approx(want.delay_s, rel=1e-12, abs=0.0)


class TestUtilization:
    def test_reassignment_closed_form(self, iridium):
        seq = partition_reassignment(iridium, 60.0)
        assert utilization(seq, iridium) == pytest.approx(34.0 / 55.0, abs=1e-9)

    @pytest.mark.parametrize("border,inter", [(60.0, 34), (65.0, 34),
                                              (70.0, 40), (75.0, 44)])
    def test_collapse_to_count_ratio(self, iridium, border, inter):
        seq = partition_reassignment(iridium, border)
        assert abs(utilization(seq, iridium) - inter / 55.0) < 1e-9

    def test_saturated_sequence(self, iridium):
        # every couple's chain: (N-1) * M inter-plane links, the budget
        topo = couple_edges(iridium, np.ones(iridium.sats_per_plane, dtype=bool))
        assert topo.n_inter_plane == (iridium.plane_count - 1) * iridium.sats_per_plane
        snaps = (TopologySnapshot(0.0, 6027.0, topo),)
        seq = SnapshotSequence("synthetic", snaps, 6027.0, 60.0)
        assert utilization(seq, iridium) == pytest.approx(1.0)

    def test_zero_inter_plane(self, iridium):
        snaps = (TopologySnapshot(0.0, 6027.0, TopologyEdgeSet.from_edges(iridium, ())),)
        seq = SnapshotSequence("synthetic", snaps, 6027.0, 60.0)
        assert utilization(seq, iridium) == 0.0

    def test_empty_sequence_rejected(self, iridium):
        seq = SnapshotSequence("synthetic", (), 6027.0, 60.0)
        with pytest.raises(ValueError):
            utilization(seq, iridium)


class TestAttachGround:
    def test_north_pole_gets_near_polar_satellite(self, iridium):
        pole = GroundStation("pole", 90.0, 0.0, 10.0)
        for t in (0.0, 500.0, 1234.5, 3000.0):
            positions = all_positions_km(iridium, t)
            sat = attach_one(pole, t, iridium, positions)
            assert sat is not None
            assert sat == reference_attach_ground(pole, t, iridium, positions)
            state = satellite_state(iridium, sat, t)
            assert abs(state.latitude_deg) > 80.0

    def test_impossible_mask_unreachable(self, iridium):
        gs = GroundStation("strict", 40.0, 10.0, 90.0)
        positions = all_positions_km(iridium, 123.0)
        assert attach_one(gs, 123.0, iridium, positions) is None
        assert reference_attach_ground(gs, 123.0, iridium, positions) is None

    @staticmethod
    def plant_tie(spec, gs, positions):
        """Two identical satellites straight above the station at t = 0."""
        gpos = ground_position_km(gs, 0.0)
        overhead = gpos / np.linalg.norm(gpos) * spec.orbit_radius_km
        positions[sat_to_index(spec, SatId(2, 3))] = overhead
        positions[sat_to_index(spec, SatId(5, 1))] = overhead

    def test_exact_tie_breaks_to_lower_id(self, iridium):
        gs = GroundStation("gs", 23.0, 47.0, 0.0)
        positions = all_positions_km(iridium, 0.0)
        self.plant_tie(iridium, gs, positions)
        assert attach_one(gs, 0.0, iridium, positions) == SatId(2, 3)
        assert reference_attach_ground(gs, 0.0, iridium, positions) == SatId(2, 3)

    def test_block_matches_one_send_calls(self, iridium, beijing):
        tie = GroundStation("gs", 23.0, 47.0, 0.0)
        stations = (tie, beijing, GroundStation("Longyearbyen", 78.2, 15.6, 10.0),
                    GroundStation("strict", -33.9, 18.4, 40.0))
        times = np.arange(0.0, 6027.0, 37.0)
        positions = all_positions_km(iridium, times)
        self.plant_tie(iridium, tie, positions[0])
        visible = []
        for gs in stations:
            block = attach_ground(gs, times, iridium, positions)
            assert all(a.shape == times.shape for a in block)
            for k, t in enumerate(times.tolist()):
                want = reference_attach_ground(gs, t, iridium, positions[k])
                assert attach_one(gs, t, iridium, positions[k]) == want
                assert bool(block.visible[k]) == (want is not None)
                visible.append(want is not None)
                if want is None:
                    continue
                assert index_to_sat(iridium, int(block.index[k])) == want
                assert block.range_km[k] / SPEED_OF_LIGHT_KM_S == pytest.approx(
                    reference_udl_delay(gs, want, t, iridium, positions[k]),
                    rel=1e-12, abs=0.0)
        assert index_to_sat(iridium, int(attach_ground(tie, times, iridium, positions)
                                         .index[0])) == SatId(2, 3)
        assert any(visible) and not all(visible)


class TestShortestDelay:
    def test_src_equals_dst(self, iridium):
        seq = partition_reassignment(iridium, 60.0)
        snap = seq.snapshots[0]
        res = shortest_delay(snap, snap.start_s + 1.0, SatId(3, 3), SatId(3, 3), iridium)
        assert res.delay_s == 0.0
        assert res.path == (SatId(3, 3),)

    def test_adjacent_intra_plane_hop(self, iridium):
        seq = partition_reassignment(iridium, 60.0)
        snap = seq.snapshots[0]
        t = snap.start_s + 1.0
        res = shortest_delay(snap, t, SatId(1, 1), SatId(1, 2), iridium)
        chord = 2.0 * iridium.orbit_radius_km * math.sin(math.radians(180.0 / 11))
        assert res.delay_s == pytest.approx(chord / SPEED_OF_LIGHT_KM_S, rel=1e-9)

    @pytest.mark.parametrize("bad", [SatId(1, 12), SatId(0, 0), SatId(7, 1), SatId(6, 12)])
    def test_satellite_outside_constellation_rejected(self, iridium, bad):
        snap = partition_reassignment(iridium, 60.0).snapshots[0]
        t = snap.start_s + 1.0
        for src, dst in ((bad, SatId(3, 3)), (SatId(3, 3), bad)):
            with pytest.raises(ValueError, match="outside 6x11 constellation"):
                shortest_delay(snap, t, src, dst, iridium)

    @pytest.mark.parametrize("bad, field", [
        (SatId(1.5, 2), "plane"), (SatId(1, 2.0), "index_in_plane"),
        (SatId(True, 2), "plane"), (SatId(2, False), "index_in_plane")])
    def test_satellite_fields_must_be_int(self, iridium, bad, field):
        # a ValueError, not a TypeError from list indexing, and True is not plane 1
        snap = partition_reassignment(iridium, 60.0).snapshots[0]
        t = snap.start_s + 1.0
        for src, dst in ((bad, SatId(3, 3)), (SatId(3, 3), bad)):
            with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer")):
                shortest_delay(snap, t, src, dst, iridium)

    def test_time_outside_snapshot_rejected(self, iridium):
        seq = partition_reassignment(iridium, 60.0)
        snap = seq.snapshots[0]
        with pytest.raises(ValueError):
            shortest_delay(snap, snap.end_s + 1.0, SatId(1, 1), SatId(2, 1), iridium)

    def test_matches_brute_force_on_toy(self, toy):
        seq = partition(toy, "reassignment", 60.0)
        snap = seq.snapshots[2]
        t = snap.start_s + 5.0
        sats = [SatId(p, j) for p in (1, 2) for j in range(1, 5)]
        for src, dst in itertools.combinations(sats, 2):
            expected = brute_force_delay(snap, t, src, dst, toy)
            got = shortest_delay(snap, t, src, dst, toy)
            if math.isinf(expected):
                assert not got.reachable
            else:
                assert got.reachable
                assert got.delay_s == pytest.approx(expected, rel=1e-12)

    def test_path_uses_snapshot_edges_only(self, iridium):
        seq = partition_reassignment(iridium, 75.0)
        snap = seq.snapshots[0]
        t = snap.start_s + 10.0
        pairs = {frozenset((e.endpoint_a, e.endpoint_b)) for e in snap.edges.edges}
        res = shortest_delay(snap, t, SatId(1, 1), SatId(6, 7), iridium)
        assert res.reachable
        for a, b in zip(res.path, res.path[1:]):
            assert frozenset((a, b)) in pairs

    def test_triangle_inequality(self, iridium):
        seq = partition_reassignment(iridium, 60.0)
        snap = seq.snapshots[0]
        t = snap.start_s + 1.0
        src, dst = SatId(1, 1), SatId(4, 6)
        direct = shortest_delay(snap, t, src, dst, iridium).delay_s
        for relay in (SatId(2, 2), SatId(3, 8), SatId(5, 5)):
            a = shortest_delay(snap, t, src, relay, iridium).delay_s
            b = shortest_delay(snap, t, relay, dst, iridium).delay_s
            assert direct <= a + b + 1e-15

    def test_horizontal_links_used_at_75(self, iridium, beijing, london):
        # with an odd non-polar row count the leftover row's two-planes-apart
        # links shorten at least some east-west paths
        seq = partition_reassignment(iridium, 75.0)
        used = False
        for k in range(120):
            t = 60.0 * k
            pos = all_positions_km(iridium, t)
            a = attach_one(beijing, t, iridium, pos)
            b = attach_one(london, t, iridium, pos)
            if a is None or b is None:
                continue
            tau, i = scan_lookup(seq, t)
            snap = seq.snapshots[i]
            res = shortest_delay(snap, tau, a, b, iridium, all_positions_km(iridium, tau))
            if not res.reachable:
                continue
            kinds = {}
            for e in snap.edges.edges:
                kinds[frozenset((e.endpoint_a, e.endpoint_b))] = e.kind
            if any(kinds[frozenset((x, y))] == HORIZONTAL
                   for x, y in zip(res.path, res.path[1:])):
                used = True
                break
        assert used


class TestReferenceRouter:
    PAIRS_PER_SNAPSHOT = 5

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    @pytest.mark.parametrize("border", [60.0, 75.0])
    @pytest.mark.parametrize("method", ["reassignment", "fixed", "equal_time"])
    def test_matches_reference_on_every_snapshot(self, system, border, method, request):
        spec = request.getfixturevalue(system)
        seq = partition(spec, method, border)
        rng = random.Random(f"{system}:{border}:{method}")
        sats = [index_to_sat(spec, i) for i in range(spec.total_satellites)]
        for snap in seq.snapshots:
            t = snap.start_s + rng.uniform(0.01, 0.99) * snap.duration_s
            positions = all_positions_km(spec, t)
            for _ in range(self.PAIRS_PER_SNAPSHOT):
                src, dst = rng.sample(sats, 2)
                assert_routes_like_oracles(snap, t, src, dst, spec, positions)

        # without its inter-plane links a snapshot splits into one ring per plane
        snap = seq.snapshots[0]
        cut = ring_cut(snap, spec)
        t = snap.start_s + 0.5 * snap.duration_s
        positions = all_positions_km(spec, t)
        src = SatId(1, 1)
        for dst in sats[1:]:
            if dst.plane == 1 or dst.index_in_plane == 1:
                got = assert_routes_like_oracles(cut, t, src, dst, spec, positions)
                assert got.reachable == (dst.plane == 1)

    def test_neighbour_rows_match_the_islice_oracle(self, iridium):
        # rows sliced at the cumulative degrees are the rows cut one by one:
        # on a drawn set, the empty set, a set that leaves satellites
        # isolated and one with a satellite of degree 6
        hub = SatId(3, 1)
        sets = [partition_reassignment(iridium, 60.0).snapshots[0].edges,
                TopologyEdgeSet.from_edges(iridium, ()),
                TopologyEdgeSet.from_edges(iridium, [
                    IslEdge(SatId(1, 1), SatId(1, 2), INTRA_PLANE),
                    IslEdge(SatId(1, 2), SatId(2, 2), OBLIQUE)]),
                TopologyEdgeSet.from_edges(iridium, [
                    IslEdge(hub, SatId(p, j), INTRA_PLANE if p == 3 else OBLIQUE)
                    for p, j in ((3, 2), (3, 11), (2, 1), (2, 2), (4, 1), (4, 2))])]
        for topo in sets:
            want = islice_neighbour_rows(topo)
            assert routing._routing_graph(topo) == want
            assert routing._routing_graph(topo, {}) == want
        degrees = [[len(row) for row in routing._routing_graph(topo)] for topo in sets]
        assert degrees[1] == [0] * 66 and 0 in degrees[2] and max(degrees[3]) == 6

    def test_empty_edge_set(self, iridium):
        snap = TopologySnapshot(0.0, 6027.0, TopologyEdgeSet.from_edges(iridium, ()))
        res = shortest_delay(snap, 10.0, SatId(1, 1), SatId(1, 2), iridium)
        assert not res.reachable
        assert res.path == ()

    def test_compiled_graph_is_cached_outside_equality(self, iridium, monkeypatch):
        # the neighbour table is kept on the edge set, built once per
        # distinct set; twin partitions draw the same set objects and share
        # it, and snapshots still compare, hash and print by value
        built = collections.Counter()
        build = routing._routing_graph

        def counted(arrays):
            built[id(arrays)] += 1
            return build(arrays)

        monkeypatch.setattr(routing, "_routing_graph", counted)
        seq = partition_reassignment(iridium, 60.0)
        twin = partition_reassignment(iridium, 60.0)
        for snap in seq.snapshots + twin.snapshots:
            t = snap.start_s + 1.0
            for src, dst in ((SatId(1, 1), SatId(4, 6)), (SatId(2, 2), SatId(5, 5))):
                got = shortest_delay(snap, t, src, dst, iridium)
                assert got == dijkstra_shortest_delay(snap, t, src, dst, iridium)
        assert all(a.edges is b.edges for a, b in zip(seq.snapshots, twin.snapshots))
        distinct = {id(s.edges) for s in seq.snapshots}
        assert len(distinct) < len(seq.snapshots)
        assert built == dict.fromkeys(distinct, 1)
        snap = seq.snapshots[0]
        graph = snap.edges.derived(iridium, counted)
        assert twin.snapshots[0].edges.derived(iridium, counted) is graph
        assert [f.name for f in dataclasses.fields(TopologySnapshot)] == [
            "start_s", "end_s", "edges"]
        # a set with the same links built from objects is another object
        rebuilt = TopologySnapshot(snap.start_s, snap.end_s,
                                   TopologyEdgeSet.from_edges(iridium, snap.edges.edges))
        for other in (twin.snapshots[0], rebuilt):
            assert snap == other and hash(snap) == hash(other)
            assert repr(snap) == repr(other)
        assert rebuilt.edges.derived(iridium, counted) is not graph
        assert rebuilt.edges.derived(iridium, counted) == graph
        # tables built with one intern table (a routing pass's) share equal rows
        rows = {}
        first, *others = (build(s.edges, rows)
                          for s in (snap, rebuilt, seq.snapshots[1]))
        assert first == graph
        for other in others:
            assert all((a is b) == (a == b) for a, b in zip(other, first))


class TestDijkstraParity:
    """Cases where the A* search could part from the Dijkstra it replaced."""

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    def test_ring_neighbours(self, system, request):
        # one hop along the straight line itself: the bound is at its tightest
        spec = request.getfixturevalue(system)
        snap = partition(spec, "reassignment", 60.0).snapshots[0]
        t = snap.start_s + 0.5 * snap.duration_s
        positions = all_positions_km(spec, t)
        m = spec.sats_per_plane
        for p in range(1, spec.plane_count + 1):
            for j in range(1, m + 1):
                a, b = SatId(p, j), SatId(p, j % m + 1)
                for src, dst in ((a, b), (b, a)):
                    got = shortest_delay(snap, t, src, dst, spec, positions)
                    assert got.path == (src, dst)
                    assert got == dijkstra_shortest_delay(snap, t, src, dst, spec, positions)

    def test_exact_ties_keep_dijkstra_path(self, iridium):
        # At the start of an equal_time snapshot many pairs have two mirrored
        # routes of bitwise equal delay, e.g. (1,1) to (2,6) via plane 2 from
        # (1,2) or via plane 1 up to (1,5). Dijkstra takes the predecessor
        # it settles first, and the router must take the same one.
        snap = partition(iridium, "equal_time", 75.0).snapshots[0]
        t = snap.start_s
        positions = all_positions_km(iridium, t)
        src, dst = SatId(1, 1), SatId(2, 6)
        want = dijkstra_shortest_delay(snap, t, src, dst, iridium, positions)
        mirror = (src, *(SatId(1, j) for j in range(2, 6)), SatId(2, 5), dst)
        assert want.path != mirror
        assert path_delay(mirror, positions, iridium) == want.delay_s
        for src, dst in itertools.permutations(
                satellite_ids(iridium.plane_count, iridium.sats_per_plane), 2):
            assert (shortest_delay(snap, t, src, dst, iridium, positions)
                    == dijkstra_shortest_delay(snap, t, src, dst, iridium, positions))


class TestDelayExperiment:
    def test_sample_count(self, iridium, beijing, london):
        series = delay_experiment(
            iridium, "reassignment", 60.0, beijing, london, 3600.0, 60.0)
        assert len(series.samples) == 60

    def test_average_excludes_unreachable(self, beijing, london):
        samples = (
            DelaySample(0.0, True, 0.05, 5),
            DelaySample(60.0, False, math.nan, 0),
            DelaySample(120.0, True, 0.07, 6),
        )
        series = DelaySeries(beijing, london, "reassignment", 60.0, samples)
        assert series.average_delay_s == pytest.approx(0.06)
        assert series.unreachable_fraction == pytest.approx(1.0 / 3.0)

    def test_rejects_bad_parameters(self, iridium, beijing, london):
        with pytest.raises(ValueError):
            delay_experiment(iridium, "reassignment", 60.0, beijing, london, 0.0, 60.0)
        with pytest.raises(ValueError):
            delay_experiment(iridium, "reassignment", 60.0, beijing, london, 600.0, -1.0)

    def test_deterministic(self, iridium, beijing, london):
        a = delay_experiment(iridium, "fixed", 65.0, beijing, london, 1800.0, 60.0)
        b = delay_experiment(iridium, "fixed", 65.0, beijing, london, 1800.0, 60.0)
        assert a.samples == b.samples

    @pytest.mark.parametrize("method", ["reassignment", "fixed", "equal_time"])
    def test_matches_per_send_reference(self, iridium, teledesic, beijing, london, method):
        # sends every 20 s over one period: three send blocks, the last partial
        for spec, n_sends in ((iridium, 301), (teledesic, 339)):
            period = orbit_period(spec)
            seq = partition(spec, method, 60.0)
            series = delay_experiment(spec, method, 60.0, beijing, london,
                                      period, 20.0, sequence=seq)
            want = reference_delay_experiment(spec, seq, beijing, london, period, 20.0)
            assert len(want) == n_sends
            assert_same_samples(series.samples, want)

    @pytest.mark.parametrize("n_sends", [1, 128, 129])
    def test_block_boundaries(self, iridium, beijing, london, n_sends):
        seq = partition(iridium, "reassignment", 60.0)
        series = delay_experiment(iridium, "reassignment", 60.0, beijing, london,
                                  n_sends * 47.0, 47.0, sequence=seq)
        assert_same_samples(series.samples, reference_delay_experiment(
            iridium, seq, beijing, london, n_sends * 47.0, 47.0))

    def test_co_located_pair_shares_a_satellite(self, iridium, beijing):
        twin = GroundStation("Beijing-2", beijing.latitude_deg, beijing.longitude_deg,
                             beijing.min_elevation_deg)
        seq = partition(iridium, "fixed", 60.0)
        series = delay_experiment(iridium, "fixed", 60.0, beijing, twin,
                                  6027.0, 30.0, sequence=seq)
        assert all(s.reachable and s.hops == 2 for s in series.samples)
        assert_same_samples(series.samples, reference_delay_experiment(
            iridium, seq, beijing, twin, 6027.0, 30.0))

    def test_mask_leaves_sends_without_uplink(self, iridium, london):
        strict = GroundStation("strict", -33.9, 18.4, 40.0)
        seq = partition(iridium, "equal_time", 60.0)
        series = delay_experiment(iridium, "equal_time", 60.0, strict, london,
                                  6027.0, 30.0, sequence=seq)
        reachable = [s.reachable for s in series.samples]
        assert any(reachable) and not all(reachable)
        assert_same_samples(series.samples, reference_delay_experiment(
            iridium, seq, strict, london, 6027.0, 30.0))

    def test_cut_snapshots_leave_sends_without_path(self, iridium, beijing, london):
        # every other snapshot keeps only its rings, so planes are disconnected
        seq = partition(iridium, "reassignment", 60.0)
        snaps = list(seq.snapshots)
        for i in range(0, len(snaps), 2):
            snaps[i] = ring_cut(snaps[i], iridium)
        cut = SnapshotSequence(seq.method, tuple(snaps), seq.period_s, seq.polar_border_deg)
        series = delay_experiment(iridium, "reassignment", 60.0, beijing, london,
                                  6027.0, 30.0, sequence=cut)
        reachable = [s.reachable for s in series.samples]
        assert any(reachable) and not all(reachable)
        assert_same_samples(series.samples, reference_delay_experiment(
            iridium, cut, beijing, london, 6027.0, 30.0))

    def test_rejects_sequence_of_other_arguments(self, iridium, teledesic, beijing, london):
        seq = partition(iridium, "reassignment", 60.0)
        with pytest.raises(ValueError, match="sequence.method"):
            delay_experiment(iridium, "fixed", 60.0, beijing, london, 600.0, 60.0,
                             sequence=seq)
        with pytest.raises(ValueError, match="sequence.polar_border_deg"):
            delay_experiment(iridium, "reassignment", 65.0, beijing, london, 600.0, 60.0,
                             sequence=seq)
        with pytest.raises(ValueError, match="sequence.period_s"):
            delay_experiment(teledesic, "reassignment", 60.0, beijing, london, 600.0,
                             60.0, sequence=seq)
        off = dataclasses.replace(seq, period_s=math.nextafter(6027.0, 0.0))
        with pytest.raises(ValueError, match="sequence.period_s is 6026.999999999999"):
            delay_experiment(iridium, "reassignment", 60.0, beijing, london, 600.0,
                             60.0, sequence=off)


class TestSendGrid:
    # 180 sends every 10 s: two blocks, the second partial, inside one period
    DURATION_S, INTERVAL_S = 1800.0, 10.0

    def compare_series(self, spec, stations, borders, tmp_path, monkeypatch):
        """run_compare's delay series in call order, with the grids it passed."""
        calls = []
        experiment = report.delay_experiment

        def record(*args, **kwargs):
            series = experiment(*args, **kwargs)
            calls.append((series, kwargs["grid"]))
            return series

        monkeypatch.setattr(report, "delay_experiment", record)
        config = ScenarioConfig(spec, list(borders), ["reassignment", "fixed", "equal_time"],
                                source=stations[0], destination=stations[1],
                                duration_s=self.DURATION_S, interval_s=self.INTERVAL_S,
                                output_dir=tmp_path)
        assert run_compare(config).ok
        return calls

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    def test_compare_matches_independent_experiments(self, system, request, beijing,
                                                     london, tmp_path, monkeypatch):
        spec = request.getfixturevalue(system)
        borders = (60.0, 65.0)
        calls = self.compare_series(spec, (beijing, london), borders, tmp_path, monkeypatch)
        assert len(calls) == 6
        assert all(grid is calls[0][1] for _, grid in calls)
        i = 0
        for border in borders:
            for method in ("reassignment", "fixed", "equal_time"):
                want = delay_experiment(spec, method, border, beijing, london,
                                        self.DURATION_S, self.INTERVAL_S,
                                        sequence=partition(spec, method, border))
                assert (calls[i][0].method, calls[i][0].polar_border_deg) == (method, border)
                assert calls[i][0].samples == want.samples
                i += 1

    def test_teledesic_fixed_and_equal_time_share_routes(self, teledesic, beijing,
                                                         london):
        grid = SendGrid(teledesic, beijing, london, self.DURATION_S, self.INTERVAL_S)
        seqs = {method: partition(teledesic, method, 60.0) for method in ("fixed", "equal_time")}
        for method, seq in seqs.items():
            series = delay_experiment(teledesic, method, 60.0, beijing, london,
                                      self.DURATION_S, self.INTERVAL_S, sequence=seq, grid=grid)
            if method == "fixed":
                routed = held_routes(grid)
        # equal_time at 60 degrees draws edge sets that fixed drew too, and
        # fixed's sequence still holds them
        assert held_routes(grid) < 2 * routed
        assert series.samples == delay_experiment(
            teledesic, "equal_time", 60.0, beijing, london,
            self.DURATION_S, self.INTERVAL_S).samples

    def test_memo_ends_with_its_sets(self, teledesic, beijing, london):
        # the memo holds its sets weakly: once the sequence that routed them
        # is gone, so are their entries, and the grid keeps no arrays
        grid = SendGrid(teledesic, beijing, london, self.DURATION_S, self.INTERVAL_S)
        seq = partition(teledesic, "fixed", 60.0)
        first = delay_experiment(teledesic, "fixed", 60.0, beijing, london,
                                 self.DURATION_S, self.INTERVAL_S, sequence=seq, grid=grid)
        assert len(grid.routes) > 0 and held_routes(grid) == sum(grid.attached)
        del seq
        gc.collect()
        assert len(grid.routes) == 0
        again = delay_experiment(teledesic, "fixed", 60.0, beijing, london,
                                 self.DURATION_S, self.INTERVAL_S, grid=grid)
        gc.collect()
        assert again.samples == first.samples and len(grid.routes) == 0

    def test_hash_collision_keeps_unequal_sets_apart(self, iridium, beijing, london,
                                                     monkeypatch):
        # with every set's hash equal, each distinct set still gets an entry
        # of its own, and the routes are those of a fresh grid
        seqs = [partition(iridium, method, 60.0) for method in METHODS]
        want = route_sequences(SendGrid(iridium, beijing, london, self.DURATION_S,
                                        self.INTERVAL_S), seqs)
        monkeypatch.setattr(TopologyEdgeSet, "__hash__", lambda topo: 0)
        grid = SendGrid(iridium, beijing, london, self.DURATION_S, self.INTERVAL_S)
        assert route_sequences(grid, seqs) == want
        distinct = {seq.snapshots[j].edges for seq in seqs for j in
                    set(seq.lookup(np.array(grid.times))[1][np.array(grid.attached)].tolist())}
        assert {hash(topo) for topo in distinct} == {0}
        assert len(grid.routes) == len(distinct) > 1

    def test_compare_leaves_nothing_routed_on_the_universe(self, teledesic, beijing, london,
                                                           tmp_path, monkeypatch):
        # neighbour rows are interned per routing pass: equal rows are one
        # tuple across the pass's tables, and once the run returns nothing
        # routing built is reachable from the shape's edge universe
        tables, build = [], routing._routing_graph

        def record(topo, *args):
            tables.append(build(topo, *args))
            return tables[-1]

        monkeypatch.setattr(routing, "_routing_graph", record)
        self.compare_series(teledesic, (beijing, london), (60.0, 65.0), tmp_path, monkeypatch)
        rows = [row for table in tables for row in table]
        interned = {}
        assert len(tables) > 1 and all(interned.setdefault(row, row) is row for row in rows)
        seen, todo = set(), [links._wiring((12, 24))]
        skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
                types.MethodType)
        while todo:
            obj = todo.pop()
            if id(obj) not in seen and not isinstance(obj, skip):
                seen.add(id(obj))
                todo += gc.get_referents(obj)
        assert len(seen) > 10
        assert not seen & {id(x) for x in (*tables, *rows)}

    def test_finished_sequence_released_before_the_next_partition(
            self, iridium, beijing, london, tmp_path, monkeypatch):
        # each sequence routed alone: when the next one is partitioned, no
        # set of a finished one is live, so the sets live fall back to
        # where they were before the run
        live, cut = [], report.partition

        def record(*args, **kwargs):
            gc.collect()
            live.append(len(links._wiring((6, 11)).drawn))
            return cut(*args, **kwargs)

        monkeypatch.setattr(report, "partition", record)
        monkeypatch.setattr(report, "_ROUTING_EDGES", 0)
        self.compare_series(iridium, (beijing, london), (60.0, 65.0), tmp_path, monkeypatch)
        assert live == live[:1] * 6

    def test_routes_each_distinct_pair_once(self, teledesic, beijing, london, tmp_path,
                                            monkeypatch):
        # a send is named by its position array, unique inside one period
        routed = []
        route = routing.shortest_delay

        def record(snapshot, t, src, dst, spec, positions):
            routed.append((snapshot.edges._ids.tobytes(), positions.tobytes()))
            return route(snapshot, t, src, dst, spec, positions)

        monkeypatch.setattr(routing, "shortest_delay", record)
        borders = (60.0, 65.0)
        self.compare_series(teledesic, (beijing, london), borders, tmp_path, monkeypatch)
        times = [k * self.INTERVAL_S for k in range(int(self.DURATION_S // self.INTERVAL_S))]
        attached = [k for k, t in enumerate(times)
                    if attach_one(beijing, t, teledesic) is not None
                    and attach_one(london, t, teledesic) is not None]
        pairs = set()
        for border in borders:
            for method in ("reassignment", "fixed", "equal_time"):
                seq = partition(teledesic, method, border)
                index = seq.lookup(np.array(times))[1]
                pairs.update((seq.snapshots[index[k]].edges._ids.tobytes(), k)
                             for k in attached)
        assert len(routed) == len(set(routed)) == len(pairs)
        assert len(pairs) < len(borders) * 3 * len(attached)

    def test_loaded_sequence_routes_without_memo(self, iridium, beijing, london,
                                                 tmp_path):
        seq = partition(iridium, "fixed", 60.0)
        export_topology(seq, iridium, tmp_path / "fixed.json")
        loaded = load_topology(tmp_path / "fixed.json")[1]
        assert all(snap.edges._ids is None for snap in loaded.snapshots)
        grid = SendGrid(iridium, beijing, london, self.DURATION_S, self.INTERVAL_S)
        drawn = delay_experiment(iridium, "fixed", 60.0, beijing, london,
                                 self.DURATION_S, self.INTERVAL_S, sequence=seq, grid=grid)
        routed = held_routes(grid)
        with_grid = delay_experiment(iridium, "fixed", 60.0, beijing, london,
                                     self.DURATION_S, self.INTERVAL_S, sequence=loaded,
                                     grid=grid)
        without = delay_experiment(iridium, "fixed", 60.0, beijing, london,
                                   self.DURATION_S, self.INTERVAL_S, sequence=loaded)
        assert held_routes(grid) == routed
        assert with_grid.samples == without.samples == drawn.samples

    def test_positions_only_for_routed_sends(self, iridium, beijing, london, tmp_path,
                                             monkeypatch):
        seq = partition(iridium, "reassignment", 60.0)
        export_topology(seq, iridium, tmp_path / "topo.json")
        loaded = load_topology(tmp_path / "topo.json")[1]
        # a 30 degree mask leaves some sends unattached
        strict = GroundStation("strict", beijing.latitude_deg, beijing.longitude_deg, 30.0)
        grid = SendGrid(iridium, strict, london, self.DURATION_S, self.INTERVAL_S)
        counts = {"instants": 0, "routes": 0}
        positions, route = routing.all_positions_km, routing.shortest_delay

        def count_positions(spec, t):
            counts["instants"] += np.size(t)
            return positions(spec, t)

        def count_routes(*args):
            counts["routes"] += 1
            return route(*args)

        monkeypatch.setattr(routing, "all_positions_km", count_positions)
        monkeypatch.setattr(routing, "shortest_delay", count_routes)

        def run(sequence):
            counts.update(instants=0, routes=0)
            series = delay_experiment(iridium, "reassignment", 60.0, strict, london,
                                      self.DURATION_S, self.INTERVAL_S, sequence=sequence,
                                      grid=grid)
            return series.samples, counts["instants"], counts["routes"]

        attached = sum(grid.attached)
        assert 0 < attached < len(grid.times)
        first = run(seq)
        assert first[1:] == (attached, attached)
        assert run(seq) == (first[0], 0, 0)
        # a loaded set has the drawn set's endpoints, so it hits the same memo
        # entries, whichever of the two routes first
        assert run(loaded) == (first[0], 0, 0)
        grid = SendGrid(iridium, strict, london, self.DURATION_S, self.INTERVAL_S)
        assert run(loaded) == (first[0], attached, attached)
        assert run(seq) == (first[0], 0, 0)

    def test_position_calls_within_bound(self, teledesic, beijing, london, monkeypatch):
        # 120 sends over 288 satellites: blocks of 14 sends, one position
        # call each for the attachments and one for a block's routed sends;
        # a block whose sends are all in the memo makes none, while the
        # sequence holds the sets
        calls = []
        monkeypatch.setattr(routing, "all_positions_km",
                            lambda spec, t: calls.append(np.size(t)) or all_positions_km(spec, t))
        grid = SendGrid(teledesic, beijing, london, 7200.0, 60.0)
        block = POSITION_BLOCK_ROWS // teledesic.total_satellites
        assert block == 14 and calls == [block] * 8 + [120 - 8 * block]
        attached = [sum(grid.attached[first:first + block]) for first in range(0, 120, block)]
        seq = partition(teledesic, "reassignment", 60.0)
        for want in ([n for n in attached if n], []):
            calls.clear()
            delay_experiment(teledesic, "reassignment", 60.0, beijing, london, 7200.0, 60.0,
                             sequence=seq, grid=grid)
            assert calls == want

    def test_cut_snapshots_route_without_memo(self, iridium, beijing, london, monkeypatch):
        # hand-made sets use the memo too: every cut snapshot has the same
        # rings, so one entry, and a send without a path is stored as such
        # and not routed again
        seq = partition(iridium, "reassignment", 60.0)
        cut = SnapshotSequence(seq.method, tuple(ring_cut(s, iridium) for s in seq.snapshots),
                               seq.period_s, seq.polar_border_deg)
        grid = SendGrid(iridium, beijing, london, self.DURATION_S, self.INTERVAL_S)
        routed, route = [], routing.shortest_delay
        monkeypatch.setattr(routing, "shortest_delay",
                            lambda *args: routed.append(args) or route(*args))
        first, second = (delay_experiment(iridium, "reassignment", 60.0, beijing, london,
                                          self.DURATION_S, self.INTERVAL_S, sequence=cut,
                                          grid=grid) for _ in range(2))
        assert 0 < len(routed) == held_routes(grid) == sum(grid.attached)
        [memo] = grid.routes.values()
        assert set(memo.values()) == {routing._NO_PATH}
        assert first.samples == second.samples
        assert not any(s.reachable for s in first.samples)

    def test_routed_sequence_reads_the_memo(self, iridium, beijing, london, monkeypatch):
        # once a batch pass has routed a sequence, its experiment neither
        # routes nor evaluates positions, and reads the routes the pass returned
        seqs = [partition(iridium, method, 60.0) for method in METHODS]
        grid = SendGrid(iridium, beijing, london, self.DURATION_S, self.INTERVAL_S)
        batch = route_sequences(grid, seqs)
        calls = []
        monkeypatch.setattr(routing, "shortest_delay", lambda *args: calls.append(args))
        monkeypatch.setattr(routing, "all_positions_km", lambda *args: calls.append(args))
        for seq, routes in zip(seqs, batch):
            series = delay_experiment(iridium, seq.method, 60.0, beijing, london,
                                      self.DURATION_S, self.INTERVAL_S, sequence=seq, grid=grid)
            assert [s.reachable for s in series.samples] == [r is not routing._NO_PATH
                                                             for r in routes]
            assert any(s.reachable for s in series.samples)
        assert calls == []

    def test_compare_looks_up_each_sequence_once_per_pass(self, iridium, beijing, london,
                                                           tmp_path, monkeypatch):
        # 6 h of sends every 60 s are six position blocks; the batch pass
        # looks each sequence up once over all 360 sends, not once per block,
        # and each experiment looks it up once more to read the memo
        assert 360 > POSITION_BLOCK_ROWS // iridium.total_satellites * 5
        lookups, lookup = [], SnapshotSequence.lookup
        monkeypatch.setattr(SnapshotSequence, "lookup",
                            lambda seq, t: lookups.append((id(seq), np.size(t))) or lookup(seq, t))
        passes, route = [], report.route_sequences

        def record(grid, sequences):
            lookups.clear()
            routes = route(grid, sequences)
            passes.append((len(sequences), sorted(lookups)))
            lookups.clear()
            return routes

        monkeypatch.setattr(report, "route_sequences", record)
        config = ScenarioConfig(iridium, [60.0, 70.0], list(METHODS), source=beijing,
                                destination=london, duration_s=21600.0, interval_s=60.0,
                                output_dir=tmp_path)
        assert run_compare(config).ok
        assert len(passes) == 1 and passes[0][0] == 6
        assert passes[0][1] == sorted(lookups) and len(set(lookups)) == 6
        assert {size for _, size in lookups} == {360}

    def test_rejects_grid_of_other_arguments(self, iridium, teledesic, beijing, london):
        grid = SendGrid(iridium, beijing, london, 600.0, 60.0)
        seq = partition(iridium, "fixed", 60.0)
        for args, field in (
            ((iridium, beijing, beijing, 600.0, 60.0), "grid.dst_gs"),
            ((iridium, london, london, 600.0, 60.0), "grid.src_gs"),
            ((iridium, beijing, london, 1200.0, 60.0), "grid.duration_s"),
            ((iridium, beijing, london, 600.0, 30.0), "grid.interval_s"),
        ):
            spec, src, dst, duration, interval = args
            with pytest.raises(ValueError, match=field):
                delay_experiment(spec, "fixed", 60.0, src, dst, duration, interval,
                                 sequence=seq, grid=grid)
        with pytest.raises(ValueError, match="grid.spec"):
            delay_experiment(teledesic, "fixed", 60.0, beijing, london, 600.0, 60.0,
                             grid=grid)

    def test_rejects_zero_sends(self, iridium, beijing, london):
        with pytest.raises(ValueError, match="no sends"):
            SendGrid(iridium, beijing, london, 30.0, 60.0)
        with pytest.raises(ValueError, match="no sends"):
            delay_experiment(iridium, "fixed", 60.0, beijing, london, 30.0, 60.0)
        assert len(SendGrid(iridium, beijing, london, 60.0, 60.0).times) == 1

    @pytest.mark.parametrize("duration, interval, match", [
        (math.inf, 60.0, "must be positive and finite"),
        (600.0, math.inf, "must be positive and finite"),
        (math.nan, 60.0, "must be positive and finite"),
        (600.0, math.nan, "must be positive and finite"),
        (-600.0, 60.0, "must be positive and finite"),
        (1e300, 1e-300, "makes inf sends, above the limit of 100000"),
        (routing.MAX_SENDS * 60.0 + 60.0, 60.0, "makes 100001 sends, above the limit"),
    ])
    def test_rejects_send_counts_out_of_range(self, iridium, beijing, london, monkeypatch,
                                               duration, interval, match):
        # every out-of-range count is a ValueError raised before any send is
        # made, from the grid and from an experiment that builds its own
        monkeypatch.setattr(routing, "all_positions_km", None)
        with pytest.raises(ValueError, match=match):
            SendGrid(iridium, beijing, london, duration, interval)
        with pytest.raises(ValueError, match=match):
            delay_experiment(iridium, "fixed", 60.0, beijing, london, duration, interval)
        assert routing.send_count(routing.MAX_SENDS * 60.0, 60.0) == routing.MAX_SENDS

    def test_compare_builds_set_caches_once(self, teledesic, beijing, london, tmp_path,
                                            monkeypatch):
        # every sequence of a compare lives until the routing pass, so a set
        # drawn by several sequences is one object: its validator rules and
        # its neighbour table are built once per distinct set. Every
        # sequence repeats every slot and passes, so the validator reads
        # the sets of its first n/M snapshots alone
        built = {"rules": collections.Counter(), "graph": collections.Counter()}
        for module, name, counter in ((links, "_set_rules", built["rules"]),
                                      (routing, "_routing_graph", built["graph"])):
            def counted(arrays, *args, build=getattr(module, name), counter=counter):
                counter[arrays.shape, arrays.kind.tobytes(), arrays.a.tobytes(),
                        arrays.b.tobytes()] += 1
                return build(arrays, *args)

            monkeypatch.setattr(module, name, counted)
        borders = (60.0, 65.0, 70.0, 75.0)
        self.compare_series(teledesic, (beijing, london), borders, tmp_path, monkeypatch)
        distinct, slot = set(), set()
        for border in borders:
            for method in ("reassignment", "fixed", "equal_time"):
                snaps = partition(teledesic, method, border).snapshots
                for i, snap in enumerate(snaps):
                    key = (snap.edges.shape, snap.edges.kind.tobytes(), snap.edges.a.tobytes(),
                           snap.edges.b.tobytes())
                    distinct.add(key)
                    if i < len(snaps) // teledesic.sats_per_plane:
                        slot.add(key)
        assert set(built["rules"]) == slot and len(slot) < len(distinct)
        assert set(built["graph"]) <= distinct and len(built["graph"]) > 1
        assert set(built["rules"].values()) == set(built["graph"].values()) == {1}


METHODS = ("reassignment", "fixed", "equal_time")


class TestRoutingPass:
    """One send-major pass over several sequences gives each the samples of
    its own fresh grid, and the routes Dijkstra finds."""
    STATION = st.builds(GroundStation, st.sampled_from(["A", "B"]),
                        st.floats(-80.0, 80.0), st.floats(-180.0, 180.0),
                        st.sampled_from([0.0, 10.0, 30.0]))
    IRIDIUM_33 = ConstellationSpec(6, 33, 86.4, 780.0, period_s=6027.0,
                                   inter_plane_spacing_deg=31.6, name="iridium")
    STRICT = GroundStation("strict", -33.9, 18.4, 40.0)
    LONDON = GroundStation("London", 51.507, -0.128, 10.0)

    @staticmethod
    def check(spec, borders, src, dst, duration_s, interval_s, left_out=0):
        """Route every (border, method) sequence but the last ``left_out``
        in one ``route_sequences`` pass over one grid, read each one's
        samples, and check them against the pass, against a fresh grid per
        sequence and, on a sample of sends, against Dijkstra; returns the
        grid and the sequences, which hold its memo's sets."""
        seqs = [partition(spec, method, border) for border in borders for method in METHODS]
        grid = SendGrid(spec, src, dst, duration_s, interval_s)
        batch = route_sequences(grid, seqs[:len(seqs) - left_out])
        assert len(batch) == len(seqs) - left_out
        got = [delay_experiment(spec, seq.method, seq.polar_border_deg, src, dst,
                                duration_s, interval_s, sequence=seq, grid=grid)
               for seq in seqs]
        for routes, series in zip(batch, got):
            assert len(routes) == len(series.samples) == len(grid.times)
            for k, (route, sample) in enumerate(zip(routes, series.samples)):
                assert sample.reachable == (route is not routing._NO_PATH)
                if sample.reachable:
                    assert sample.delay_s == grid.up_s[k] + route[0] + grid.down_s[k]
                    assert sample.hops == route[1] + 2
        sats = satellite_ids(spec.plane_count, spec.sats_per_plane)
        rng = random.Random(f"{spec}:{borders}:{src}:{dst}")
        for seq, series in zip(seqs, got):
            fresh = delay_experiment(spec, seq.method, seq.polar_border_deg, src, dst,
                                     duration_s, interval_s, sequence=seq)
            assert series.samples == fresh.samples
            for k in rng.sample(range(len(grid.times)), min(5, len(grid.times))):
                sample, t = series.samples[k], grid.times[k]
                if not grid.attached[k]:
                    assert not sample.reachable
                    continue
                tau, j = scan_lookup(seq, t)
                want = dijkstra_shortest_delay(seq.snapshots[j], tau, sats[grid.src_index[k]],
                                               sats[grid.dst_index[k]], spec,
                                               all_positions_km(spec, t))
                assert sample.reachable == want.reachable
                if want.reachable:
                    assert sample.delay_s == grid.up_s[k] + want.delay_s + grid.down_s[k]
                    assert sample.hops == len(want.path) + 1
        return grid, seqs

    @settings(max_examples=20, deadline=None)
    @given(planes=st.sampled_from([2, 4, 6]), sats=st.integers(3, 12),
           borders=st.lists(st.sampled_from([55.0, 60.0, 70.0, 80.0]), min_size=1,
                            max_size=2, unique=True),
           src=STATION, dst=STATION, left_out=st.integers(0, 2),
           rows=st.sampled_from([1, 100, POSITION_BLOCK_ROWS]))
    def test_matches_fresh_grids_and_dijkstra(self, planes, sats, borders, src, dst,
                                              left_out, rows):
        # 140 sends every 29 s, in blocks (one position call each) of one
        # send, of a few, or of dozens up to all 140; under the same bound
        # the baselines still equal their per-instant oracles, with at most
        # max(1, rows // 2M) instants per call of their couple table, and
        # the sequence check gives the lines it gives at the default bound
        spec = ConstellationSpec(planes, sats, 86.0, 1000.0, name="small")
        seqs = [partition(spec, method, border) for border in borders for method in METHODS]
        lines = [validate_sequence(spec, seq) for seq in seqs]
        sizes, table = [], snapshots.active_couples
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "POSITION_BLOCK_ROWS", rows)
            patch.setattr(snapshots, "active_couples",
                          lambda spec, border, t: sizes.append(np.size(t)) or table(spec, border, t))
            self.check(spec, borders, src, dst, 140 * 29.0, 29.0, left_out)
            slot = orbit_period(spec) / spec.row_count
            for border in borders:
                assert partition_fixed(spec, border) == fixed_per_instant(spec, border)
                assert (partition(spec, "equal_time", border)
                        == equal_time_per_instant(spec, border, slot))
            assert [validate_sequence(spec, seq) for seq in seqs] == lines
        assert sizes and max(sizes) <= max(1, rows // spec.row_count)

    def test_period_end_fold(self):
        # the sequences start at about 1e-13 s, so the send at 0 folds to
        # the float below the period's end
        grid, seqs = self.check(self.IRIDIUM_33, (60.0,),
                                GroundStation("Beijing", 39.904, 116.407, 10.0), self.LONDON,
                                600.0, 60.0)
        # ten sends take the memo entries of the sets they hit, not of every
        # snapshot's set
        drawn = {snap.edges for seq in seqs for snap in seq.snapshots}
        assert 0 < len(grid.routes) <= 3 * len(grid.times) < len(drawn)

    def test_satellite_limit_routed(self, forty_by_fifty, beijing):
        # 40 x 50 at 60 degrees: as many satellites as a scenario may hold,
        # with planes close enough to route over; every method's sequence
        # validates, every send reaches, and a seeded sample of sends routes
        # as Dijkstra routes it, bitwise in delay and hops
        grid, seqs = self.check(forty_by_fifty, (60.0,), beijing, self.LONDON, 7200.0, 60.0)
        assert [validate_sequence(forty_by_fifty, seq) for seq in seqs] == [[], [], []]
        series = [delay_experiment(forty_by_fifty, seq.method, 60.0, beijing, self.LONDON,
                                   7200.0, 60.0, sequence=seq, grid=grid) for seq in seqs]
        assert [s.unreachable_fraction for s in series] == [0.0] * 3

    def test_strict_mask_leaves_sends_unattached(self, iridium):
        grid, _ = self.check(iridium, (60.0,), self.STRICT, self.LONDON, 3000.0, 20.0)
        assert 0 < sum(grid.attached) < len(grid.times)

    def test_sequences_left_out_of_batch_pass(self, iridium, beijing):
        grid, seqs = self.check(iridium, (60.0, 75.0), beijing, self.LONDON, 1800.0,
                                10.0, left_out=2)
        assert 0 < len(grid.routes) <= len({snap.edges for seq in seqs for snap in seq.snapshots})

    @pytest.mark.parametrize("sequences", [0.5, 2.5])
    def test_flush_bound(self, iridium, beijing, london, tmp_path, monkeypatch, sequences):
        # with a bound of half a sequence most sequences are routed alone;
        # with two and a half, in groups; the samples are those of one pass,
        # and each batch is the sequences held within the bound plus the one
        # that crossed it
        batches, route = [], report.route_sequences

        def record(grid, sequences):
            batches.append([sum(len(snap.edges) for snap in seq.snapshots) for seq in sequences])
            return route(grid, sequences)

        def run(out):
            batches.clear()
            calls = []
            monkeypatch.setattr(report, "delay_experiment",
                                lambda *args, **kwargs: calls.append(
                                    delay_experiment(*args, **kwargs)) or calls[-1])
            config = ScenarioConfig(iridium, [60.0, 65.0, 70.0, 75.0], list(METHODS),
                                    source=beijing, destination=london, duration_s=1800.0,
                                    interval_s=60.0, output_dir=tmp_path / out)
            assert run_compare(config).ok
            return calls

        monkeypatch.setattr(report, "route_sequences", record)
        one_pass = run("one")
        assert [len(batch) for batch in batches] == [12]
        edges = sum(len(s.edges) for s in partition(iridium, "fixed", 60.0).snapshots)
        bound = int(sequences * edges)
        monkeypatch.setattr(report, "_ROUTING_EDGES", bound)
        bounded = run("bounded")
        assert [s.samples for s in bounded] == [s.samples for s in one_pass]
        assert sum(map(len, batches)) == 12
        assert all(sum(batch[:-1]) <= bound < sum(batch) for batch in batches[:-1])
        assert sum(batches[-1][:-1]) <= bound
        assert (len(batches) > 6) if sequences < 1 else (1 < len(batches) < 6)
