import collections
import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsnap.geometry import (
    POSITION_BLOCK_ROWS,
    ConstellationSpec,
    SatId,
    all_positions_km,
    build_ls_state,
    class_phase_deg,
    horizontal_survival_latitude_deg,
    in_polar_band,
    max_link_angle_deg,
    orbit_period,
    sat_to_index,
)
from polarsnap import snapshots
from polarsnap.links import (
    HORIZONTAL,
    INDEX_DTYPE,
    INTRA_PLANE,
    KINDS,
    OBLIQUE,
    IslEdge,
    TopologyEdgeSet,
    TopologyViolation,
    _set_rules,
    _wiring,
    active_couples,
    fixed_topology,
    reassign_topology,
    validate_topology,
)
from polarsnap.report import export_topology, load_topology
from polarsnap.routing import _NO_PATH, SendGrid, route_sequences
from polarsnap.snapshots import SnapshotSequence, TopologySnapshot, partition, validate_sequence
from tests.oracles import (
    active_couple_set,
    argument_of_latitude_deg,
    chain_edges,
    class_member,
    couple_set_edges,
    geocentric_angle_deg,
    horizontal_edges,
    intra_plane_edges,
    make_edge,
    rolled_ids,
    row_members,
    survival_latitude_deg,
    true_latitude_deg,
)


def first_event_time(spec, border, kind):
    """Independent closed-form event-time oracle.

    A row at phase class c crosses a border phase B when
    c * phase_offset + 360 t / T = B (mod 360).
    """
    wf = spec.phase_offset_deg
    period = orbit_period(spec)
    target = border if kind == "enter" else 360.0 - border
    return min(((target - c * wf) % 360.0) / 360.0 * period
               for c in range(spec.row_count))


def _structural_violations(spec: ConstellationSpec, edge: IslEdge) -> list[TopologyViolation]:
    a, b = edge.endpoint_a, edge.endpoint_b
    found = []
    dplane = abs(a.plane - b.plane)
    if edge.kind == INTRA_PLANE:
        dj = abs(a.index_in_plane - b.index_in_plane)
        ring_adjacent = dj == 1 or dj == spec.sats_per_plane - 1
        if dplane != 0 or not ring_adjacent:
            found.append(TopologyViolation(
                "structure", edge, "intra-plane edge must join ring neighbours"))
    elif edge.kind == OBLIQUE:
        if dplane != 1:
            found.append(TopologyViolation(
                "structure", edge,
                f"oblique edge spans {dplane} planes (seam crossing or bad kind)"))
    elif dplane != 2:
        found.append(TopologyViolation(
            "structure", edge,
            f"horizontal edge spans {dplane} planes (seam crossing or bad kind)"))
    return found


def reference_validate_topology(
    spec: ConstellationSpec,
    polar_border_deg: float,
    topo: TopologyEdgeSet,
    t: float,
) -> list[TopologyViolation]:
    """Per-edge validator kept as the oracle for ``validate_topology``.

    Check an edge set against the link rules at time t.

    Reported violations: inter-plane edges with an endpoint inside a polar
    cap, edges longer than the visibility limit, satellites with more than
    two inter-plane edges, horizontal edges below the survival latitude,
    and structurally invalid edges (seam crossings, wrong plane spans).
    An empty list means the topology is valid. The limits come from spec.
    """
    max_angle, min_latitude = max_link_angle_deg(spec), survival_latitude_deg(spec)
    positions = all_positions_km(spec, t)
    violations: list[TopologyViolation] = []
    inter_degree: dict[SatId, int] = {}

    for edge in sorted(topo.edges, key=lambda e: (e.kind, (e.endpoint_a.plane,
                       e.endpoint_a.index_in_plane, e.endpoint_b.plane,
                       e.endpoint_b.index_in_plane))):
        violations.extend(_structural_violations(spec, edge))
        a, b = edge.endpoint_a, edge.endpoint_b
        pa = positions[sat_to_index(spec, a)]
        pb = positions[sat_to_index(spec, b)]

        angle = geocentric_angle_deg(pa, pb)
        if angle > max_angle + 1e-9:
            violations.append(TopologyViolation(
                "visibility", edge,
                f"geocentric angle {angle:.3f} exceeds {max_angle:.3f}"))

        if edge.kind == INTRA_PLANE:
            continue
        inter_degree[a] = inter_degree.get(a, 0) + 1
        inter_degree[b] = inter_degree.get(b, 0) + 1

        for sat in (a, b):
            u = argument_of_latitude_deg(spec, sat, t)
            if in_polar_band(u, polar_border_deg):
                violations.append(TopologyViolation(
                    "polar", edge, f"{sat} is inside a polar cap"))

        if edge.kind == HORIZONTAL:
            ua = argument_of_latitude_deg(spec, a, t)
            ub = argument_of_latitude_deg(spec, b, t)
            if abs(((ua - ub) + 180.0) % 360.0 - 180.0) > 1e-6:
                violations.append(TopologyViolation(
                    "structure", edge, "horizontal endpoints are not in the same row"))
            for sat, u in ((a, ua), (b, ub)):
                lat = true_latitude_deg(spec, u)
                if abs(lat) < min_latitude - 1e-9:
                    violations.append(TopologyViolation(
                        "horizontal_range", edge,
                        f"{sat} at latitude {lat:.3f} below survival latitude "
                        f"{min_latitude:.3f}"))

    for sat, deg in sorted(inter_degree.items(),
                           key=lambda kv: (kv[0].plane, kv[0].index_in_plane)):
        if deg > 2:
            violations.append(TopologyViolation(
                "degree", None, f"{sat} carries {deg} inter-plane edges (max 2)"))
    return violations


def inter_plane_degrees(topo: TopologyEdgeSet) -> dict:
    deg = collections.Counter()
    for e in topo.edges:
        if e.kind == INTRA_PLANE:
            continue
        deg[e.endpoint_a] += 1
        deg[e.endpoint_b] += 1
    return deg


class TestIntraPlaneEdges:
    @pytest.mark.parametrize("fixture,count", [("iridium", 66), ("teledesic", 288)])
    def test_ring_counts(self, fixture, count, request):
        spec = request.getfixturevalue(fixture)
        topo = intra_plane_edges(spec)
        assert len(topo.edges) == count
        assert all(e.kind == INTRA_PLANE for e in topo.edges)

    def test_toy_ring_degree(self):
        from polarsnap.geometry import ConstellationSpec
        spec = ConstellationSpec(2, 3, 90.0, 780.0)
        topo = intra_plane_edges(spec)
        assert len(topo.edges) == 6
        deg = collections.Counter()
        for e in topo.edges:
            deg[e.endpoint_a] += 1
            deg[e.endpoint_b] += 1
        assert set(deg.values()) == {2}

    def test_canonical_edge_order(self):
        e = make_edge(SatId(3, 2), SatId(1, 5), OBLIQUE)
        assert e.endpoint_a == SatId(1, 5)


class TestFixedTopology:
    def test_full_visibility_count(self, toy):
        # all couples active: (N-1) * M inter-plane edges
        period = orbit_period(toy)
        for t in np.linspace(0, period, 50, endpoint=False):
            topo = fixed_topology(toy, 89.0, float(t))
            if not any(
                r.in_polar for r in build_ls_state(toy, 89.0, float(t)).rows
            ):
                assert topo.n_inter_plane == (toy.plane_count - 1) * toy.sats_per_plane
                break
        else:
            pytest.fail("no full-visibility instant found")

    def test_iridium_60_value_set(self, iridium):
        period = orbit_period(iridium)
        counts = {
            fixed_topology(iridium, 60.0, float(t)).n_inter_plane
            for t in np.linspace(0.0, period, 900, endpoint=False)
        }
        assert counts == {30, 35}

    def test_polar_rows_lose_exactly_their_edges(self, iridium):
        # dropped edges relative to the never-shutdown wiring are exactly
        # the ones incident to satellites inside a cap
        t = 1000.0
        full = {e for k in range(iridium.sats_per_plane)
                for e in _couple_chain(iridium, k)}
        active = {e for e in fixed_topology(iridium, 60.0, t).edges if e.kind != INTRA_PLANE}
        dropped = full - active
        ls = build_ls_state(iridium, 60.0, t)
        polar_sats = {m for r in ls.rows if r.in_polar
                      for m in row_members(iridium, r.phase_class)}
        assert dropped == {e for e in full
                           if e.endpoint_a in polar_sats or e.endpoint_b in polar_sats}

    def test_deterministic(self, iridium):
        assert fixed_topology(iridium, 65.0, 321.0).edges == \
            fixed_topology(iridium, 65.0, 321.0).edges

    @pytest.mark.parametrize("fixture", ["iridium", "teledesic", "toy"])
    def test_active_couple_table_matches_frozensets(self, fixture, request):
        # one row per instant, in the shape of the times, one column per couple
        spec = request.getfixturevalue(fixture)
        times = np.linspace(0.0, 2.0 * orbit_period(spec), 60).reshape(3, 4, 5)
        table = active_couples(spec, 65.0, times)
        assert table.shape == (3, 4, 5, spec.sats_per_plane) and table.dtype == bool
        for t, row in zip(times.ravel().tolist(), table.reshape(-1, spec.sats_per_plane)):
            couples = active_couple_set(spec, 65.0, t)
            assert set((2 * np.flatnonzero(row)).tolist()) == couples
            assert np.array_equal(active_couples(spec, 65.0, t), row)
            assert fixed_topology(spec, 65.0, t) == couple_set_edges(spec, couples)


def _couple_chain(spec, k):
    return chain_edges(spec, 2 * k)


class TestReassignTopology:
    CASES = [
        ("iridium", 60.0, 30, 4), ("iridium", 65.0, 30, 4),
        ("iridium", 70.0, 40, 0), ("iridium", 75.0, 40, 4),
        ("teledesic", 60.0, 176, 0), ("teledesic", 65.0, 176, 10),
        ("teledesic", 70.0, 198, 0), ("teledesic", 75.0, 220, 0),
    ]

    @pytest.mark.parametrize("fixture,border,n_oblique,n_horizontal", CASES)
    @pytest.mark.parametrize("trigger", ["enter", "exit"])
    def test_link_counts(self, fixture, border, n_oblique, n_horizontal,
                         trigger, request):
        spec = request.getfixturevalue(fixture)
        t = first_event_time(spec, border, trigger) + 1e-3
        ls = build_ls_state(spec, border, t)
        topo = reassign_topology(spec, border, ls, trigger)
        assert topo.count(OBLIQUE) == n_oblique
        assert topo.count(HORIZONTAL) == n_horizontal

    @pytest.mark.parametrize("fixture,border,n_oblique,n_horizontal", CASES)
    def test_degree_bounds_and_chain_shape(self, fixture, border, n_oblique,
                                           n_horizontal, request):
        spec = request.getfixturevalue(fixture)
        t = first_event_time(spec, border, "enter") + 1e-3
        topo = reassign_topology(spec, border, build_ls_state(spec, border, t), "enter")
        deg = inter_plane_degrees(topo)
        assert all(d <= 2 for d in deg.values())
        # each oblique chain spans all planes: its two degree-1 nodes sit in
        # the first and last planes
        chain_nodes = collections.Counter()
        for e in topo.edges:
            if e.kind == OBLIQUE:
                chain_nodes[e.endpoint_a] += 1
                chain_nodes[e.endpoint_b] += 1
        ends = [s for s, d in chain_nodes.items() if d == 1]
        assert {s.plane for s in ends} <= {1, spec.plane_count}

    def test_no_seam_edges(self, iridium):
        t = first_event_time(iridium, 60.0, "enter") + 1e-3
        topo = reassign_topology(iridium, 60.0, build_ls_state(iridium, 60.0, t), "enter")
        for e in topo.edges:
            assert {e.endpoint_a.plane, e.endpoint_b.plane} != {1, iridium.plane_count}

    def test_deterministic(self, iridium):
        t = first_event_time(iridium, 75.0, "exit") + 1e-3
        ls = build_ls_state(iridium, 75.0, t)
        assert reassign_topology(iridium, 75.0, ls, "exit").edges == \
            reassign_topology(iridium, 75.0, ls, "exit").edges

    def test_bad_trigger_rejected(self, iridium):
        ls = build_ls_state(iridium, 60.0, 0.0)
        with pytest.raises(ValueError):
            reassign_topology(iridium, 60.0, ls, "both")

    def test_validator_clean_at_generation(self, iridium):
        for trigger in ("enter", "exit"):
            t = first_event_time(iridium, 75.0, trigger) + 1e-3
            topo = reassign_topology(
                iridium, 75.0, build_ls_state(iridium, 75.0, t), trigger)
            assert validate_topology(iridium, 75.0, topo, t) == []


class TestValidator:
    def test_seam_edge_flagged(self, iridium):
        seam = make_edge(SatId(1, 1), SatId(6, 1), OBLIQUE)
        topo = TopologyEdgeSet.from_edges(iridium, {seam})
        violations = validate_topology(iridium, 60.0, topo, 0.0)
        assert any(v.rule == "structure" for v in violations)

    def test_equatorial_horizontal_flagged(self, iridium):
        # same row, planes 1 and 3, but at latitude 0 where such links
        # are Earth-blocked
        edge = make_edge(class_member(iridium, 0, 1),
                         class_member(iridium, 0, 3), HORIZONTAL)
        topo = TopologyEdgeSet.from_edges(iridium, {edge})
        violations = validate_topology(iridium, 60.0, topo, 0.0)
        assert any(v.rule == "horizontal_range" for v in violations)

    def test_polar_endpoint_flagged(self, iridium):
        # quarter period in, satellite (1,1) is at the apex, inside a cap
        t = orbit_period(iridium) / 4.0
        edge = make_edge(SatId(1, 1), SatId(2, 1), OBLIQUE)
        topo = TopologyEdgeSet.from_edges(iridium, {edge})
        violations = validate_topology(iridium, 60.0, topo, t)
        assert any(v.rule == "polar" for v in violations)

    def test_over_degree_flagged(self, iridium):
        centre = SatId(3, 1)
        edges = {
            make_edge(centre, SatId(2, 1), OBLIQUE),
            make_edge(centre, SatId(2, 2), OBLIQUE),
            make_edge(centre, SatId(4, 1), OBLIQUE),
        }
        topo = TopologyEdgeSet.from_edges(iridium, edges)
        violations = validate_topology(iridium, 60.0, topo, 0.0)
        assert any(v.rule == "degree" for v in violations)

    def test_long_link_flagged(self, teledesic):
        # same plane, opposite sides of the orbit: far beyond visibility
        edge = IslEdge(SatId(1, 1), SatId(1, 13), INTRA_PLANE)
        topo = TopologyEdgeSet.from_edges(teledesic, {edge})
        violations = validate_topology(teledesic, 60.0, topo, 0.0)
        assert any(v.rule == "visibility" for v in violations)
        assert any(v.rule == "structure" for v in violations)

    def test_non_finite_angle_flagged(self, iridium):
        # positions whose squares overflow give NaN angles, which fail visibility
        edges = partition(iridium, "reassignment", 60.0).snapshots[0].edges
        positions = all_positions_km(iridium, 100.0) * 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            violations = validate_topology(iridium, 60.0, edges, 100.0, positions)
        assert [v.rule for v in violations] == ["visibility"] * len(edges)
        assert all("angle nan" in v.detail for v in violations)

    def test_endpoint_outside_constellation_rejected(self, iridium):
        # at construction, before any rule reads the set
        edge = make_edge(SatId(1, 1), SatId(1, 12), INTRA_PLANE)
        with pytest.raises(ValueError, match="outside the 6x11 constellation"):
            TopologyEdgeSet.from_edges(iridium, {edge})
        with pytest.raises(ValueError, match="outside"):
            TopologyEdgeSet.from_edges(iridium, {make_edge(SatId(0, 1), SatId(1, 1), OBLIQUE)})

    @pytest.mark.parametrize("border", [95.0, 90.0, 0.0, -5.0, math.nan])
    def test_border_outside_open_interval_rejected(self, iridium, border):
        topo = partition(iridium, "reassignment", 60.0).snapshots[0].edges
        with pytest.raises(ValueError, match=re.escape(
                f"polar_border_deg must be in (0, 90), got {border}")):
            validate_topology(iridium, border, topo, 0.0)


# One validator rule firing, with none beside it: (case, constellation,
# edges as (endpoint, endpoint, kind), border, phase of satellite (1, 1) at
# t in degrees, want as (rule, detail prefix) pairs). A NaN angle, visibility
# alone, is test_non_finite_angle_flagged.
# Teledesic's horizontal links clear the Earth at every latitude; iridium's
# survival latitude is 32.8 degrees. The endpoints of a horizontal link in
# one row share a latitude, so the survival rule fires at one endpoint only
# beside the same-row rule: one endpoint below it, the other in the next
# row, above it. At both endpoints it fires alone in
# test_survival_latitude_alone.
_SAME_ROW = "horizontal endpoints are not in the same row"
ONE_RULE = [
    ("structure_intra_plane", "teledesic", [(SatId(1, 1), SatId(1, 3), INTRA_PLANE)], 60.0,
     0.0, [("structure", "intra-plane edge must join ring neighbours")]),
    ("structure_span", "teledesic", [(SatId(1, 1), SatId(3, 1), OBLIQUE)], 60.0, 0.0,
     [("structure", "oblique edge spans 2 planes")]),
    ("visibility", "teledesic", [(SatId(1, 1), SatId(2, 13), OBLIQUE)], 60.0, 0.0,
     [("visibility", "geocentric angle")]),
    ("polar_a", "teledesic", [(SatId(1, 5), SatId(2, 4), OBLIQUE)], 60.0, 0.0,
     [("polar", str(SatId(1, 5)))]),
    ("polar_b", "teledesic", [(SatId(1, 4), SatId(2, 5), OBLIQUE)], 60.0, 0.0,
     [("polar", str(SatId(2, 5)))]),
    ("same_row", "teledesic", [(SatId(1, 2), SatId(3, 2), HORIZONTAL)], 60.0, 0.0,
     [("structure", _SAME_ROW)]),
    ("survival_latitude_a", "iridium", [(SatId(1, 1), SatId(3, 1), HORIZONTAL)], 75.0, 32.5,
     [("structure", _SAME_ROW), ("horizontal_range", str(SatId(1, 1)))]),
    ("survival_latitude_b", "iridium", [(SatId(1, 1), SatId(3, 1), HORIZONTAL)], 75.0, 114.75,
     [("structure", _SAME_ROW), ("horizontal_range", str(SatId(3, 1)))]),
    ("degree", "iridium", [(SatId(3, 1), SatId(2, 1), OBLIQUE),
                           (SatId(3, 1), SatId(2, 2), OBLIQUE),
                           (SatId(3, 1), SatId(4, 1), OBLIQUE)], 60.0, 0.0,
     [("degree", str(SatId(3, 1)))]),
]


class TestOneRuleAtATime:
    """Each rule fires alone (at one endpoint, the survival latitude only
    beside the same-row rule, see ``ONE_RULE``), so a validator whose check
    for a clean set leaves out any one rule returns [] on its case. The
    survival latitude fires alone only at both endpoints of a link, so
    only a check that leaves out both of its terms fails here."""

    @pytest.mark.parametrize("system, edges, border, phase, want",
                             [pytest.param(*case[1:], id=case[0]) for case in ONE_RULE])
    def test_rule_fires_alone(self, system, edges, border, phase, want, request):
        spec = request.getfixturevalue(system)
        topo = TopologyEdgeSet.from_edges(spec, [make_edge(*edge) for edge in edges])
        t = phase / 360.0 * orbit_period(spec)
        got = validate_topology(spec, border, topo, t)
        assert got == reference_validate_topology(spec, border, topo, t)
        assert len(got) == len(want)
        for violation, (rule, detail) in zip(got, want):
            assert violation.rule == rule and violation.detail.startswith(detail), violation

    def test_survival_latitude_alone(self):
        # a link in one row below the survival latitude is out of sight, but
        # in a polar constellation the survival latitude is exact: 3e-9
        # degrees below it, the angle here exceeds the limit by 5e-10 degrees
        # (it grows 0.18 times as fast as the latitude falls), inside the
        # visibility rule's 1e-9 slack
        spec = ConstellationSpec(4, 12, 90.0, 250.0, inter_plane_spacing_deg=15.0)
        topo = TopologyEdgeSet.from_edges(spec, [make_edge(SatId(1, 1), SatId(3, 12), HORIZONTAL)])
        t = (horizontal_survival_latitude_deg(spec) - 3e-9) / 360.0 * orbit_period(spec)
        got = validate_topology(spec, 60.0, topo, t)
        assert got == reference_validate_topology(spec, 60.0, topo, t)
        assert [(v.rule, v.detail.split(" at ")[0]) for v in got] == [
            ("horizontal_range", str(SatId(1, 1))), ("horizontal_range", str(SatId(3, 12)))]


def corrupted(spec, polar_border_deg, topo, t, rng):
    """The edge set plus a seam edge, a horizontal edge one plane wide (its
    endpoints out of canonical order), a non-ring intra-plane edge, a
    satellite of degree 3, an equatorial horizontal edge and an edge inside
    a cap."""
    n, m = spec.plane_count, spec.sats_per_plane
    p, j = rng.randint(2, n - 1), rng.randint(1, m)
    y1, y2 = rng.sample(range(1, m + 1), 2)
    hub = SatId(p, j)
    # the class nearest the equator at t, between its members in planes 1 and 3
    c = min(range(spec.row_count),
            key=lambda c: abs((class_phase_deg(spec, c, t) + 90.0) % 180.0 - 90.0))
    capped = rng.choice([
        SatId(q, k) for q in range(1, n + 1) for k in range(1, m + 1)
        if in_polar_band(argument_of_latitude_deg(spec, SatId(q, k), t),
                         polar_border_deg)])
    q = capped.plane + 1 if capped.plane < n else capped.plane - 1
    bad = {
        make_edge(SatId(1, rng.randint(1, m)), SatId(n, rng.randint(1, m)), OBLIQUE),
        IslEdge(SatId(p + 1, j), SatId(p, j), HORIZONTAL),
        make_edge(SatId(p, j), SatId(p, (j + 1) % m + 1), INTRA_PLANE),
        make_edge(hub, SatId(p - 1, rng.randint(1, m)), OBLIQUE),
        make_edge(hub, SatId(p + 1, y1), OBLIQUE),
        make_edge(hub, SatId(p + 1, y2), OBLIQUE),
        make_edge(class_member(spec, c, 1 + c % 2), class_member(spec, c, 3 + c % 2),
                  HORIZONTAL),
        make_edge(capped, SatId(q, rng.randint(1, m)), OBLIQUE),
    }
    return TopologyEdgeSet.from_edges(spec, topo.edges | bad)


class TestReferenceValidator:
    """``validate_topology`` lists the per-edge oracle's violations, in order."""

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    @pytest.mark.parametrize("border", [60.0, 75.0])
    def test_every_snapshot(self, system, border, request):
        spec = request.getfixturevalue(system)
        period = orbit_period(spec)
        rules = collections.Counter()
        for method in ("reassignment", "fixed", "equal_time"):
            for snap in partition(spec, method, border).snapshots:
                # just past the set's interval, and far from it (the set
                # stays valid inside it: test_snapshots)
                for t in (snap.end_s + 1e-3, snap.start_s + period / 3.0):
                    got = validate_topology(spec, border, snap.edges, t)
                    assert got == reference_validate_topology(spec, border, snap.edges, t)
                    rules.update(v.rule for v in got)
        assert rules["polar"] > 0

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    def test_corrupted_edge_sets(self, system, request):
        spec = request.getfixturevalue(system)
        rng = random.Random(system)
        rules = collections.Counter()
        for border in (60.0, 75.0):
            for snap in partition(spec, "reassignment", border).snapshots:
                t = snap.start_s + rng.uniform(0.0, snap.duration_s)
                topo = corrupted(spec, border, snap.edges, t, rng)
                got = validate_topology(spec, border, topo, t)
                assert got == reference_validate_topology(spec, border, topo, t)
                rules.update(v.rule for v in got)
        # teledesic's horizontal links clear the Earth at every latitude
        ranged = {"horizontal_range"} if horizontal_survival_latitude_deg(spec) > 0.0 else set()
        assert set(rules) == {"structure", "visibility", "polar", "degree"} | ranged
        empty = TopologyEdgeSet.from_edges(spec, ())
        assert validate_topology(spec, border, empty, 0.0) == []

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_sweep(self, n):
        # every method's sets at borders from 30 to 85 degrees, just past
        # their interval and a third of a period on; drawn sets are shared
        # across snapshots and methods, so most are validated many times
        rules = collections.Counter()
        for m in (3, 5, 11):
            spec = ConstellationSpec(n, m, 86.0, 1000.0)
            period = orbit_period(spec)
            for border in (30.0, 60.0, 85.0):
                for method in ("reassignment", "fixed", "equal_time"):
                    for snap in partition(spec, method, border).snapshots:
                        for t in (snap.end_s + 1e-3, snap.start_s + period / 3.0):
                            got = validate_topology(spec, border, snap.edges, t)
                            assert got == reference_validate_topology(spec, border,
                                                                      snap.edges, t)
                            rules.update(v.rule for v in got)
        assert {"polar", "visibility"} <= set(rules)

    def test_one_set_under_two_specs(self, iridium):
        # the same drawn set under specs of one shape: the set's own rules
        # are shared, the limits are each spec's own
        lower = dataclasses.replace(iridium, altitude_km=500.0)
        tilted = dataclasses.replace(iridium, inclination_deg=45.0)
        seq = partition(iridium, "reassignment", 60.0)
        topo = seq.snapshots[0].edges
        assert partition(lower, "reassignment", 60.0).snapshots[0].edges is topo
        for t in (seq.snapshots[0].start_s + 1e-3, seq.snapshots[0].start_s + seq.period_s / 4):
            got = {}
            for spec in (iridium, lower, tilted, iridium):
                got[spec] = validate_topology(spec, 60.0, topo, t)
                assert got[spec] == reference_validate_topology(spec, 60.0, topo, t)
            assert len({repr(v) for v in got.values()}) == 3
            assert {v.rule for v in got[lower]} - {v.rule for v in got[iridium]} \
                == {"visibility", "horizontal_range"}
            assert {v.rule for v in got[tilted]} - {v.rule for v in got[iridium]} \
                == {"visibility", "horizontal_range"}


def sweep_case(rule, spec, border):
    """(edge set, instant) pairs of one sweep constellation at one border on
    which the rule fires. No generated set carries a satellite of degree 3,
    so that case joins consecutive reassignment sets; structure adds a seam
    edge and an intra-plane edge between planes to each set."""
    method = "fixed" if rule == "polar" else "reassignment"
    snaps = partition(spec, method, border).snapshots
    if rule == "degree":
        return [(TopologyEdgeSet.from_edges(spec, s.edges.edges | n.edges.edges),
                 s.start_s + 1e-3) for s, n in zip(snaps, snaps[1:])]
    if rule == "structure":
        n = spec.plane_count
        bad = {make_edge(SatId(1, 1), SatId(n, 1), OBLIQUE),
               make_edge(SatId(1, 2), SatId(2, 2), INTRA_PLANE)}
        return [(TopologyEdgeSet.from_edges(spec, s.edges.edges | bad), s.start_s + 1e-3)
                for s in snaps]
    # the polar caps catch fixed links just past their interval
    return [(s.edges, (s.end_s if rule == "polar" else s.start_s) + 1e-3) for s in snaps]


class TestValidatorPositions:
    """Given a row of one ``all_positions_km`` call over many instants,
    ``validate_topology`` lists what it lists without positions, and what
    the per-edge oracle lists, on sweep constellations where each rule
    fires."""

    @pytest.mark.parametrize("rule,shape,border", [
        ("structure", (4, 5), 60.0),
        ("visibility", (2, 3), 30.0),
        ("polar", (4, 8), 60.0),
        ("horizontal_range", (4, 5), 30.0),
        ("degree", (6, 8), 60.0),
    ])
    def test_positions_row_matches_oracle(self, rule, shape, border):
        spec = ConstellationSpec(*shape, 86.0, 1000.0)
        case = sweep_case(rule, spec, border)
        positions = all_positions_km(spec, np.array([t for _, t in case]))
        fired = collections.Counter()
        for (topo, t), row in zip(case, positions):
            got = validate_topology(spec, border, topo, t, row)
            assert got == validate_topology(spec, border, topo, t)
            assert got == reference_validate_topology(spec, border, topo, t)
            fired.update(v.rule for v in got)
        assert fired[rule] > 0

    def test_sequence_positions_in_bounded_blocks(self, monkeypatch):
        # 600 snapshots of 600 satellites: the sequence check evaluates
        # positions in several calls, each within the row bound, and lists
        # what one call over all instants gives
        spec = ConstellationSpec(2, 300, 86.0, 1000.0, name="wide")
        seq = partition(spec, "reassignment", 60.0)
        rows = []

        def recording(spec, t):
            rows.append(np.size(t) * spec.total_satellites)
            return all_positions_km(spec, t)

        monkeypatch.setattr(snapshots, "all_positions_km", recording)
        failures = validate_sequence(spec, seq)
        assert len(rows) > 1 and max(rows) <= POSITION_BLOCK_ROWS
        assert sum(rows) == len(seq.snapshots) * spec.total_satellites
        times = [snap.start_s + 1e-3 for snap in seq.snapshots]
        want = []
        for i, (snap, t, row) in enumerate(zip(seq.snapshots, times,
                                               all_positions_km(spec, np.array(times)))):
            got = validate_topology(spec, 60.0, snap.edges, t, row)
            if got:
                want.append(f"wide reassignment 60.0 snapshot {i}: {len(got)} violations, "
                            f"first: {got[0].rule} {got[0].detail}")
        assert failures == want and len(want) == len(seq.snapshots)


class TestCompiledEdges:
    def test_canonical_order_and_cache(self, iridium):
        topo = partition(iridium, "reassignment", 75.0).snapshots[0].edges
        twin = partition(iridium, "reassignment", 75.0).snapshots[0].edges
        assert topo.compiled(iridium) is topo
        assert topo == twin and hash(topo) == hash(twin) and repr(topo) == repr(twin)
        listed = [(KINDS[k], a, b) for k, a, b in
                  zip(topo.kind.tolist(), topo.a.tolist(), topo.b.tolist())]
        want = sorted(topo.edges, key=lambda e: (e.kind, e.endpoint_a, e.endpoint_b))
        assert listed == [(e.kind, sat_to_index(iridium, e.endpoint_a),
                           sat_to_index(iridium, e.endpoint_b)) for e in want]
        assert topo.of_kind(HORIZONTAL).sum() == topo.count(HORIZONTAL) == 4
        # a kind outside KINDS names no edge of any set
        for read in (topo.of_kind, topo.count):
            with pytest.raises(ValueError):
                read("laser")

    def test_shared_arrays_are_read_only(self, iridium, tmp_path):
        # drawn sets are shared by snapshots, sequences and partitions
        seq = partition(iridium, "reassignment", 75.0)
        snap = seq.snapshots[0]
        arrays = snap.edges.compiled(iridium)
        with pytest.raises(ValueError):
            snap.edges.compiled(iridium).a[0] = 1
        validate_topology(iridium, 75.0, snap.edges, snap.start_s)
        structure, inter, horizontal, dplane, _ = snap.edges.derived(iridium, _set_rules)
        export_topology(seq, iridium, tmp_path / "topology.json")
        _, loaded = load_topology(tmp_path / "topology.json")
        built = TopologyEdgeSet.from_edges(iridium, snap.edges.edges)
        for x in (arrays.kind, arrays.b, structure, inter, horizontal, dplane,
                  loaded.snapshots[0].edges.compiled(iridium).a, built.compiled(iridium).b):
            with pytest.raises(ValueError):
                x[0] = x[1]
        assert built == snap.edges == loaded.snapshots[0].edges
        # the loader, too, builds one object per distinct set
        objects = {id(s.edges): s.edges for s in loaded.snapshots}
        drawn = {id(s.edges) for s in seq.snapshots}
        assert len(objects) == len(set(objects.values())) == len(drawn) < len(seq.snapshots)

    def test_another_shape_rejected(self, iridium):
        # a set's arrays index its own shape's satellites
        topo = intra_plane_edges(iridium)
        longer = ConstellationSpec(6, 12, 86.4, 780.0)
        assert topo.compiled(iridium) is topo.compiled(iridium)
        with pytest.raises(ValueError, match="6x11 constellation used with a 6x12"):
            topo.compiled(longer)
        with pytest.raises(ValueError, match="6x11 constellation used with a 6x12"):
            validate_topology(longer, 60.0, topo, 0.0)


SHAPES = [(2, 4), (4, 5), (6, 8), (6, 11), (8, 11), (12, 24)]


def drawn_ids(shape, ids):
    return _wiring(shape).draw(np.asarray(ids))


def same_arrays(x, y) -> bool:
    """Same shape and identical kind, a and b arrays."""
    return x.shape == y.shape and all(np.array_equal(getattr(x, name), getattr(y, name))
                                      for name in ("kind", "a", "b"))


class TestEdgeUniverse:
    """The integer edge universe and the sets drawn from it, against the
    wiring built edge by edge."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_object_wiring(self, shape):
        spec = ConstellationSpec(*shape, 86.4, 780.0)
        n, m = shape
        wiring = _wiring(shape)
        chains = [chain_edges(spec, c) for c in range(2 * m)]
        horizontals = [horizontal_edges(spec, c) for c in range(2 * m)]
        rings = intra_plane_edges(spec).edges
        universe = drawn_ids(shape, np.arange(len(wiring.edges.a)))
        assert len(universe) == n * m + 2 * m * (n - 1) + 2 * m * (n // 2 - 1)
        assert universe.edges == rings.union(*chains, *horizontals)
        objects = TopologyEdgeSet.from_edges(spec, universe.edges)
        assert same_arrays(universe.compiled(spec), objects.compiled(spec))
        assert drawn_ids(shape, wiring.rings).edges == rings
        for table, oracle in ((wiring.chains, chains), (wiring.horizontals, horizontals)):
            for c, edges in enumerate(oracle):
                assert drawn_ids(shape, np.sort(table[c])).edges == frozenset(edges)

    def test_drawn_set_counts_compare_and_hash_like_objects(self, iridium):
        t = first_event_time(iridium, 75.0, "enter") + 1e-3
        topo = reassign_topology(iridium, 75.0, build_ls_state(iridium, 75.0, t), "enter")
        twin = TopologyEdgeSet.from_edges(iridium, topo.edges)
        assert topo == twin and twin == topo and hash(topo) == hash(twin)
        assert same_arrays(topo.compiled(iridium), twin.compiled(iridium))
        for kind in KINDS:
            assert topo.count(kind) == twin.count(kind) == sum(
                e.kind == kind for e in topo.edges)
        assert topo.n_inter_plane == twin.n_inter_plane == 44 == len(topo) - 66
        assert topo != topo.rotated(1)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rotation_is_a_cyclic_class_shift(self, shape):
        spec = ConstellationSpec(*shape, 86.4, 780.0)
        wiring = _wiring(shape)
        topo = drawn_ids(shape, wiring.select([0, 3], [2]))
        row_count = 2 * shape[1]
        assert topo.rotated(row_count) == topo
        assert topo.rotated(2).rotated(row_count - 2) == topo
        want = intra_plane_edges(spec).edges.union(
            chain_edges(spec, row_count - 1), chain_edges(spec, 2),
            horizontal_edges(spec, 1))
        assert topo.rotated(1).edges == want

    @pytest.mark.parametrize("shape", [(6, 11), (12, 24), (2, 1000)])
    def test_rotation_matches_the_roll_oracle(self, shape):
        # every shift of a set with chains and horizontals (2 x 1000 has no
        # horizontal class) is the one np.roll per class table gives
        wiring, rows = _wiring(shape), 2 * shape[1]
        ids = wiring.select(range(0, rows, 2), [1, rows - 2] if shape[0] > 2 else [])
        for k in range(rows):
            got = wiring.rotated(ids, k)
            assert got.dtype == INDEX_DTYPE and np.array_equal(got, rolled_ids(shape, ids, k))


class TestEdgeSetIdentity:
    """A set is its links: drawn, loaded from an export or built from
    ``IslEdge`` objects, sets with the same links are equal and hash equal."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_links_equal_however_built(self, shape, tmp_path):
        spec = ConstellationSpec(*shape, 86.4, 780.0)
        wiring = _wiring(shape)
        drawn = [wiring.draw(wiring.select((), ())), wiring.draw(wiring.select([0, 3], [1])),
                 drawn_ids(shape, np.arange(len(wiring.edges.a)))]
        seq = SnapshotSequence("drawn", tuple(
            TopologySnapshot(float(i), i + 1.0, topo) for i, topo in enumerate(drawn)),
            3.0, 60.0)
        export_topology(seq, spec, tmp_path / "topology.json")
        _, loaded = load_topology(tmp_path / "topology.json")
        for topo, snap in zip(drawn, loaded.snapshots):
            built = TopologyEdgeSet.from_edges(spec, topo.edges)
            for twin in (snap.edges, built, TopologyEdgeSet.from_edges(spec, built.edges)):
                assert topo == twin and twin == topo and hash(topo) == hash(twin)
                assert twin.edges == topo.edges and len(twin) == len(topo)
                assert twin.n_inter_plane == topo.n_inter_plane
        assert len({*drawn, *(s.edges for s in loaded.snapshots)}) == 3
        assert drawn[0] != drawn[1] != drawn[2]

    def test_kinds_are_fixed_codes(self, iridium):
        # one link under two kinds: the same endpoint arrays, different codes and sets
        a, b = class_member(iridium, 0, 1), class_member(iridium, 0, 3)
        oblique = TopologyEdgeSet.from_edges(iridium, [make_edge(a, b, OBLIQUE)])
        horizontal = TopologyEdgeSet.from_edges(iridium, [make_edge(a, b, HORIZONTAL)])
        assert oblique.kind.tolist() == [KINDS.index(OBLIQUE)] == [2]
        assert horizontal.kind.tolist() == [KINDS.index(HORIZONTAL)] == [0]
        assert oblique.a.tolist() == horizontal.a.tolist() and oblique != horizontal
        # a built set that lacks some kinds holds the codes a drawn set holds
        rings = intra_plane_edges(iridium)
        wiring = _wiring((6, 11))
        drawn = wiring.draw(wiring.select((), ()))
        assert same_arrays(rings, drawn) and set(rings.kind.tolist()) == {1}
        assert rings == drawn and hash(rings) == hash(drawn)
        assert KINDS == tuple(sorted(KINDS)) == (HORIZONTAL, INTRA_PLANE, OBLIQUE)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.sampled_from([2, 4, 6]), st.integers(3, 12)), data=st.data())
    def test_drawn_built_and_loaded_hold_identical_arrays(self, shape, data, tmp_path_factory):
        # a random subset of the universe, drawn by its ids, built from its
        # IslEdge objects and exported then loaded: one set, three times
        spec = ConstellationSpec(*shape, 86.4, 780.0)
        size = len(_wiring(shape).edges)
        ids = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1)))), dtype=np.int64)
        drawn = drawn_ids(shape, ids)
        built = TopologyEdgeSet.from_edges(spec, drawn.edges)
        path = tmp_path_factory.mktemp("identity") / "topology.json"
        export_topology(SnapshotSequence("drawn", (TopologySnapshot(0.0, 1.0, drawn),),
                                         1.0, 60.0), spec, path)
        loaded = load_topology(path)[1].snapshots[0].edges
        for twin in (built, loaded):
            assert same_arrays(twin, drawn) and twin == drawn and hash(twin) == hash(drawn)
            assert twin.edges == drawn.edges
        # a kind outside KINDS is rejected by both builders; the loader names the file
        name = data.draw(st.text(max_size=6).filter(lambda text: text not in KINDS))
        unknown = re.escape(f"unknown link kind {name!r}, expected one of {KINDS}")
        with pytest.raises(ValueError, match=unknown):
            TopologyEdgeSet.from_edges(spec, [*drawn.edges, IslEdge(SatId(1, 1),
                                                                     SatId(1, 2), name)])
        doc = json.loads(path.read_text())
        doc["edges"].append([name, 1, 1, 1, 2])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: edges table: ") + unknown):
            load_topology(path)

    def test_stored_widths_however_built(self, iridium, beijing, london, tmp_path):
        # drawn, built from objects, loaded, and built directly from arrays of
        # other widths: one set, stored at one width, one hash and one memo token
        drawn = partition(iridium, "reassignment", 60.0).snapshots[3].edges
        path = tmp_path / "topology.json"
        export_topology(SnapshotSequence("drawn", (TopologySnapshot(0.0, 1.0, drawn),),
                                         1.0, 60.0), iridium, path)
        twins = [TopologyEdgeSet.from_edges(iridium, drawn.edges),
                 load_topology(path)[1].snapshots[0].edges]
        for dtype in (np.int64, np.int32, np.uint16):
            twins.append(TopologyEdgeSet(drawn.shape, *(x.astype(dtype)
                                                         for x in (drawn.kind, drawn.a, drawn.b))))
        for topo in (drawn, *twins):
            assert (topo.kind.dtype, topo.a.dtype, topo.b.dtype) == (np.int8, np.int16, np.int16)
            assert topo == drawn and hash(topo) == hash(drawn) and same_arrays(topo, drawn)
        assert drawn._ids.dtype == np.int16
        assert len({drawn, *twins}) == 1
        period = orbit_period(iridium)
        grid = SendGrid(iridium, beijing, london, 1200.0, 60.0)
        routes = route_sequences(grid, [
            SnapshotSequence("one", (TopologySnapshot(0.0, period, topo),), period, 60.0)
            for topo in (drawn, *twins)])
        assert len(grid._tokens) == 1 and all(r == routes[0] for r in routes)
        assert any(r is not _NO_PATH for r in routes[0])

    @pytest.mark.parametrize("kind,a,b", [
        ([128], [0], [1]),  # a kind code past int8
        ([1], [0], [1 << 15]),  # an endpoint past int16
        ([1], [(1 << 16) + 1], [2]),  # one that int16 would wrap to 1
        ([1], [-(1 << 15) - 1], [2]),
        ([1.0], [0.0], [1.0]),  # not integers
    ])
    def test_values_that_do_not_fit_are_rejected(self, kind, a, b):
        with pytest.raises(ValueError, match="does not fit"):
            TopologyEdgeSet((6, 11), *map(np.array, (kind, a, b)))
        with pytest.raises(ValueError, match="does not fit"):
            _wiring((6, 11)).draw(np.array([(1 << 16) + 1]))

    def test_round_trip_near_the_satellite_limit(self, tmp_path):
        # 1980 satellites: an edge table key, (kind * n + a) * n + b, needs
        # 24 bits, so one computed in the stored int16 would wrap
        shape = (44, 45)
        spec = ConstellationSpec(*shape, 86.4, 780.0)
        wiring = _wiring(shape)
        drawn = [wiring.draw(np.arange(len(wiring.edges), dtype=np.int64)),
                 wiring.draw(wiring.select(range(0, 90, 2), [1, 50])),
                 wiring.draw(wiring.select(range(0, 90, 2), [1, 50])).rotated(7)]
        seq = SnapshotSequence("drawn", tuple(
            TopologySnapshot(float(i), i + 1.0, topo) for i, topo in enumerate(drawn)), 3.0, 60.0)
        path = tmp_path / "topology.json"
        export_topology(seq, spec, path)
        loaded = load_topology(path)[1]
        for topo, snap in zip(drawn, loaded.snapshots):
            assert same_arrays(snap.edges, topo) and snap.edges == topo
        n, m = spec.total_satellites, shape[1]
        rows = np.array([[KINDS.index(k), *ends] for k, *ends in json.loads(
            path.read_text())["edges"]], dtype=np.int64)
        table = (rows[:, 0] * n + (rows[:, 1] - 1) * m + rows[:, 2] - 1) * n \
            + (rows[:, 3] - 1) * m + rows[:, 4] - 1
        want = np.unique(np.concatenate([(t.kind.astype(np.int64) * n + t.a) * n + t.b
                                         for t in drawn]))
        assert want.max() >= 1 << 15 and np.array_equal(table, want)

    def test_duplicates_dropped(self, iridium):
        edge = make_edge(SatId(1, 1), SatId(2, 1), OBLIQUE)
        twice = TopologyEdgeSet.from_edges(iridium, [edge, edge])
        assert len(twice) == 1 and twice == TopologyEdgeSet.from_edges(iridium, {edge})

    def test_either_direction_is_one_link(self, iridium):
        ends = (SatId(1, 1), SatId(2, 1))
        forward, reverse = (TopologyEdgeSet.from_edges(iridium, [IslEdge(*pair, OBLIQUE)])
                            for pair in (ends, ends[::-1]))
        for topo in (forward, reverse):
            assert (topo.a.tolist(), topo.b.tolist()) == ([0], [11])
            assert topo.edges == {IslEdge(*ends, OBLIQUE)}
        assert forward == reverse and hash(forward) == hash(reverse)
        both = TopologyEdgeSet.from_edges(iridium, [IslEdge(*ends, OBLIQUE),
                                                    IslEdge(*ends[::-1], OBLIQUE)])
        assert len(both) == 1 and both == forward
