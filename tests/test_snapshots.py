import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarsnap.geometry import ConstellationSpec, class_phase_deg, orbit_period
from polarsnap.links import INTRA_PLANE, TopologyEdgeSet, validate_topology
from polarsnap.routing import delay_experiment
from polarsnap.snapshots import (
    MAX_EQUAL_TIME_SNAPSHOTS,
    METHOD_EQUAL_TIME,
    METHOD_FIXED,
    METHOD_REASSIGNMENT,
    SnapshotSequence,
    TopologySnapshot,
    analytic_summary,
    enumerate_events,
    partition,
    partition_equal_time,
    partition_fixed,
    partition_reassignment,
    validate_sequence,
)
from polarsnap.scenario import load_scenario
from tests.oracles import (
    crossing_rows,
    equal_time_per_instant,
    fixed_per_instant,
    per_event_reassignment,
    phase_latitude_deg,
    scan_lookup,
)

# Reassignment columns: (system, border) -> (count, inter-plane links)
TABLE_REASSIGNMENT = {
    ("iridium", 60.0): (22, 34),
    ("iridium", 65.0): (22, 34),
    ("iridium", 70.0): (22, 40),
    ("iridium", 75.0): (22, 44),
    ("teledesic", 60.0): (48, 176),
    ("teledesic", 65.0): (48, 186),
    ("teledesic", 70.0): (48, 198),
    ("teledesic", 75.0): (48, 220),
}


def fixed_duration_oracle(spec, border):
    """Alternating fixed-method durations from the border phase offsets.

    With M odd every row slot carries one deactivation (phase border mod
    slot) and one activation (phase -border); with M even only every
    other slot does, and the chain-leading row is offset half a slot.
    The two snapshot durations are the deactivation-to-activation phase
    gap and its complement, scaled by the rotation rate.
    """
    wf = spec.phase_offset_deg
    period = orbit_period(spec)
    if spec.sats_per_plane % 2 == 1:
        slot = wf
        gap = (-2.0 * border) % slot
    else:
        slot = 2.0 * wf
        gap = (wf - 2.0 * border) % slot
    if gap < 1e-9 or slot - gap < 1e-9:
        return {period / 360.0 * slot}
    return {period / 360.0 * gap, period / 360.0 * (slot - gap)}


def fixed_nisl_oracle(spec, border):
    """Active-couple counts: lattice points in the both-ends-outside window."""
    wf = spec.phase_offset_deg
    window = 2.0 * border - wf
    n1 = spec.plane_count - 1
    if spec.sats_per_plane % 2 == 1:
        q = math.floor(window / wf + 1e-9)
        return {n1 * q, n1 * (q + 1)}
    q = math.floor(window / (2.0 * wf) + 1e-9)
    return {n1 * 2 * q, n1 * (2 * q + 2)}


_ROOT_TOL_S = 1e-6


def sampled_row_crossings(spec, phase_class, polar_border_deg, horizon_s):
    """Crossing times of one row against the +-border reference latitudes.

    Samples the border-distance function |lat_ref(u(t))| - L_pa on a grid
    of T / (200*M) and bisects each sign change to 1e-6 s.
    """
    period = orbit_period(spec)

    def dist(t: float) -> float:
        u = class_phase_deg(spec, phase_class, t)
        return abs(phase_latitude_deg(u)) - polar_border_deg

    step = period / (200.0 * spec.sats_per_plane)
    n_steps = int(math.ceil(horizon_s / step))
    crossings = []
    prev_t, prev_d = 0.0, dist(0.0)
    if abs(prev_d) < 1e-12:
        crossings.append(0.0)
    for k in range(1, n_steps + 1):
        t = min(k * step, horizon_s)
        d = dist(t)
        if abs(d) < 1e-12:
            crossings.append(t)
        elif prev_d * d < 0.0:
            lo, hi = prev_t, t
            dlo = prev_d
            while hi - lo > _ROOT_TOL_S:
                mid = 0.5 * (lo + hi)
                dm = dist(mid)
                if dm == 0.0:
                    lo = hi = mid
                    break
                if dlo * dm < 0.0:
                    hi = mid
                else:
                    lo, dlo = mid, dm
            crossings.append(0.5 * (lo + hi))
        prev_t, prev_d = t, d

    out = []
    for tc in crossings:
        if not 0.0 <= tc < horizon_s:
            continue
        after = dist(tc + 10.0 * _ROOT_TOL_S)
        kind = "enter" if after > 0.0 else "exit"
        u = class_phase_deg(spec, phase_class, tc + 10.0 * _ROOT_TOL_S)
        hemisphere = "north" if phase_latitude_deg(u) > 0.0 else "south"
        out.append((tc, kind, hemisphere))
    return out


def sampled_events(spec, polar_border_deg, horizon_s, kinds):
    """Independent oracle for ``enumerate_events``: every row's crossings
    root-solved on a sampled grid, simultaneous same-kind crossings merged
    into one (time_s, kind, rows) record."""
    raw = []
    for c in range(spec.row_count):
        for tc, kind, hemisphere in sampled_row_crossings(
                spec, c, polar_border_deg, horizon_s):
            if kind in kinds:
                raw.append((tc, kind, c, hemisphere))
    raw.sort(key=lambda r: (r[0], r[1], r[2]))

    merged = []
    merge_tol = 1e-4
    for tc, kind, c, hemisphere in raw:
        if merged and kind == merged[-1][1] and abs(tc - merged[-1][0]) < merge_tol:
            merged[-1] = (merged[-1][0], kind, merged[-1][2] + ((c, hemisphere),))
        else:
            merged.append((tc, kind, ((c, hemisphere),)))
    return merged


def validate_topology_over(spec, polar_border_deg, topo, start_s, end_s, step_s=1.0):
    """Validate a frozen edge set at sampled instants of [start, end).

    Returns the violations of the first offending instant (empty when the
    set stays valid over the whole interval).
    """
    t = start_s
    while t < end_s:
        violations = validate_topology(spec, polar_border_deg, topo, t)
        if violations:
            return violations
        t += step_s
    return []


def inter_plane(snap):
    return {e for e in snap.edges.edges if e.kind != INTRA_PLANE}


class TestAnalyticSummary:
    @pytest.mark.parametrize("fixture,border", [
        (s, b) for s in ("iridium", "teledesic") for b in (60.0, 65.0, 70.0, 75.0)])
    def test_matches_reference_table(self, fixture, border, request):
        spec = request.getfixturevalue(fixture)
        count, inter = TABLE_REASSIGNMENT[(fixture, border)]
        a = analytic_summary(spec, border)
        assert a.snapshot_count == count
        assert a.n_inter_plane == inter
        assert a.snapshot_duration_s == pytest.approx(orbit_period(spec) / count)
        assert a.n_inter_plane == a.n_oblique + a.n_horizontal

    def test_oblique_and_horizontal_split(self, iridium, teledesic):
        # odd non-polar row count brings N-2 horizontal links, else none
        assert analytic_summary(iridium, 75.0).n_horizontal == 4
        assert analytic_summary(iridium, 70.0).n_horizontal == 0
        assert analytic_summary(teledesic, 65.0).n_horizontal == 10

    def test_duration_irrelevant_to_border(self, iridium):
        durations = {analytic_summary(iridium, b).snapshot_duration_s
                     for b in (60.0, 65.0, 70.0, 75.0)}
        assert len(durations) == 1


class TestEnumerateEvents:
    def test_iridium_enter_events_uniformly_spaced(self, iridium):
        period = orbit_period(iridium)
        events = enumerate_events(iridium, 60.0, period, kinds=("enter",))
        assert len(events) == 22
        gaps = np.diff([e.time_s for e in events])
        assert np.all(np.abs(gaps - period / 22.0) < 1e-3)

    def test_uniform_case_enter_exit_coincide(self, teledesic):
        period = orbit_period(teledesic)
        events = enumerate_events(teledesic, 60.0, period)
        enters = [e for e in events if e.kind == "enter"]
        exits = [e for e in events if e.kind == "exit"]
        assert len(enters) == len(exits) == 48
        for en in enters:
            assert min(abs(en.time_s - ex.time_s) for ex in exits) < 1e-3

    def test_zero_horizon(self, iridium):
        assert enumerate_events(iridium, 60.0, 0.0) == []

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_horizon(self, iridium, horizon):
        # NaN used to give no events and inf to append events without end
        with pytest.raises(ValueError, match=f"horizon_s must be finite, got {horizon}"):
            enumerate_events(iridium, 60.0, horizon)

    def test_events_pair_a_north_and_a_south_row(self, iridium):
        # at each event one row sits on the kind's northern border phase and
        # the row half a period behind it on the southern one
        events = enumerate_events(iridium, 65.0, orbit_period(iridium))
        for e in events:
            (c, hemi_c), (d, hemi_d) = crossing_rows(iridium, 65.0, e)
            assert {hemi_c, hemi_d} == {"north", "south"}
            north, south = (c, d) if hemi_c == "north" else (d, c)
            target = 65.0 if e.kind == "enter" else 115.0
            for row, phase in ((north, target), (south, target + 180.0)):
                u = class_phase_deg(iridium, row, e.time_s)
                assert abs((u - phase + 180.0) % 360.0 - 180.0) < 1e-9

    @pytest.mark.parametrize("fixture", ["iridium", "teledesic", "toy"])
    @pytest.mark.parametrize("border", [60.0, 62.5, 65.0, 70.0, 75.0])
    @pytest.mark.parametrize("kind", ["enter", "exit"])
    def test_matches_sampled_oracle(self, fixture, border, kind, request):
        spec = request.getfixturevalue(fixture)
        horizon = 1.5 * orbit_period(spec)
        events = enumerate_events(spec, border, horizon, kinds=(kind,))
        oracle = sampled_events(spec, border, horizon, kinds=(kind,))
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert all(e.kind == kind for e in events)

        # crossing times of each (row, hemisphere) set, in order
        got, want = {}, {}
        for e in events:
            got.setdefault(frozenset(crossing_rows(spec, border, e)), []).append(e.time_s)
        for time_s, _, rows in oracle:
            want.setdefault(frozenset(rows), []).append(time_s)
        assert got.keys() == want.keys()
        for rows, t_want in want.items():
            assert got[rows] == pytest.approx(t_want, abs=1e-6)

class TestPartitionReassignment:
    @pytest.mark.parametrize("fixture,border", [
        (s, b) for s in ("iridium", "teledesic") for b in (60.0, 65.0, 70.0, 75.0)])
    @pytest.mark.parametrize("trigger", ["enter", "exit"])
    def test_agrees_with_analytic(self, fixture, border, trigger, request):
        spec = request.getfixturevalue(fixture)
        a = analytic_summary(spec, border)
        seq = partition_reassignment(spec, border, trigger)
        assert seq.count == a.snapshot_count
        assert {s.n_inter_plane for s in seq.snapshots} == {a.n_inter_plane}
        for snap in seq.snapshots:
            assert snap.duration_s == pytest.approx(a.snapshot_duration_s, rel=5e-3)

    def test_constant_duration_property(self, iridium):
        seq = partition_reassignment(iridium, 65.0)
        durations = [s.duration_s for s in seq.snapshots]
        assert max(durations) - min(durations) < 1e-3

    def test_duration_same_across_borders(self, iridium):
        values = []
        for border in (60.0, 65.0, 70.0, 75.0):
            seq = partition_reassignment(iridium, border)
            values.append(seq.snapshots[0].duration_s)
        assert max(values) - min(values) < 1e-3

    def test_tiles_period(self, teledesic):
        seq = partition_reassignment(teledesic, 65.0)
        assert sum(s.duration_s for s in seq.snapshots) == pytest.approx(
            orbit_period(teledesic), abs=1e-6)
        for a, b in zip(seq.snapshots, seq.snapshots[1:]):
            assert a.end_s == b.start_s

    @pytest.mark.parametrize("fixture,border", [("iridium", 75.0), ("teledesic", 65.0)])
    def test_per_snapshot_kind_split(self, fixture, border, request):
        # every snapshot carries 2*floor(rows/2)*(N-1) chain links and,
        # with an odd row count, N-2 horizontal ones
        spec = request.getfixturevalue(fixture)
        a = analytic_summary(spec, border)
        seq = partition_reassignment(spec, border)
        for snap in seq.snapshots:
            assert snap.edges.count("oblique") == a.n_oblique
            assert snap.edges.count("horizontal") == a.n_horizontal

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(6, 11, 86.4, 780.0, 6027.0, 31.6),
                                  (12, 24, 84.7, 1375.0, 6793.8, 15.36),
                                  (4, 5, 86.4, 780.0, None, None),
                                  (6, 8, 86.4, 780.0, None, None),
                                  (8, 11, 86.4, 780.0, None, None)]),
           border=st.floats(55.0, 80.0),
           trigger=st.sampled_from(["enter", "exit"]))
    def test_rotation_matches_per_event_construction(self, shape, border, trigger):
        # every snapshot is the first one with its phase classes shifted by
        # the snapshot index: the same edges and bounds as building each
        # snapshot from its own row state
        spec = ConstellationSpec(*shape)
        want = per_event_reassignment(spec, border, trigger)
        got = partition_reassignment(spec, border, trigger)
        assert got == want
        assert [s.edges.edges for s in got.snapshots] == [s.edges.edges for s in want.snapshots]

    def test_snapshots_stay_valid_until_next_event(self, iridium, teledesic):
        # each frozen edge set stays valid over its whole interval, not only
        # where it was generated
        for spec in (iridium, teledesic):
            for border in (60.0, 75.0):
                for method in (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME):
                    for snap in partition(spec, method, border).snapshots:
                        assert validate_topology_over(
                            spec, border, snap.edges, snap.start_s + 1e-3, snap.end_s,
                            step_s=10.0) == [], (spec.name, border, method, snap.start_s)


class TestPartitionFixed:
    @pytest.mark.parametrize("fixture,expected", [("iridium", 44), ("teledesic", 48)])
    @pytest.mark.parametrize("border", [60.0, 65.0, 70.0, 75.0])
    def test_snapshot_counts(self, fixture, expected, border, request):
        spec = request.getfixturevalue(fixture)
        seq = partition_fixed(spec, border)
        assert seq.count == expected

    @pytest.mark.parametrize("fixture", ["iridium", "teledesic"])
    @pytest.mark.parametrize("border", [60.0, 65.0, 70.0, 75.0])
    def test_durations_and_counts_match_oracles(self, fixture, border, request):
        spec = request.getfixturevalue(fixture)
        seq = partition_fixed(spec, border)
        durations = sorted({round(s.duration_s, 6) for s in seq.snapshots})
        expected = sorted(round(d, 6) for d in fixed_duration_oracle(spec, border))
        assert durations == pytest.approx(expected, abs=1e-4)
        assert {s.n_inter_plane for s in seq.snapshots} == fixed_nisl_oracle(spec, border)

    def test_iridium_60_reference_extremes(self, iridium):
        # reference extremes 179.90 / 92.10 within 2 percent
        seq = partition_fixed(iridium, 60.0)
        durations = [s.duration_s for s in seq.snapshots]
        assert max(durations) == pytest.approx(179.90, rel=0.02)
        assert min(durations) == pytest.approx(92.10, rel=0.02)
        assert {s.n_inter_plane for s in seq.snapshots} == {30, 35}

    def test_tiles_period(self, iridium):
        seq = partition_fixed(iridium, 70.0)
        assert sum(s.duration_s for s in seq.snapshots) == pytest.approx(
            6027.0, abs=1e-6)


class TestPartitionEqualTime:
    def test_snapshot_count_at_reassignment_delta(self, iridium):
        seq = partition_equal_time(iridium, 60.0, 6027.0 / 22.0)
        assert seq.count == 22
        assert not seq.truncated_final

    def test_full_period_interval_eliminates_everything(self, iridium):
        seq = partition_equal_time(iridium, 60.0, 6027.0)
        assert seq.count == 1
        assert seq.snapshots[0].n_inter_plane == 0

    def test_alternating_count_set(self, iridium):
        # soft reference target: counts drawn from {25, 30}
        seq = partition_equal_time(iridium, 60.0, 6027.0 / 22.0)
        assert {s.n_inter_plane for s in seq.snapshots} <= {25, 30}

    def test_subset_of_overlapping_fixed_sets(self, iridium):
        fixed = partition_fixed(iridium, 60.0)
        equal = partition_equal_time(iridium, 60.0, 6027.0 / 22.0)
        for es in equal.snapshots:
            for fs in fixed.snapshots:
                lo = max(es.start_s, fs.start_s % 6027.0)
                hi = min(es.end_s, (fs.start_s % 6027.0) + fs.duration_s)
                if hi - lo > 1e-6:
                    assert inter_plane(es) <= inter_plane(fs)

    def test_truncation_flag(self, iridium):
        seq = partition_equal_time(iridium, 60.0, 1000.0)
        assert seq.truncated_final
        assert seq.snapshots[-1].end_s == pytest.approx(6027.0)
        assert sum(s.duration_s for s in seq.snapshots) == pytest.approx(6027.0, abs=1e-6)

    @pytest.mark.parametrize("nudge", [0.0005, -0.0005])
    def test_near_divisor_delta_ends_at_period(self, iridium, beijing, london, nudge):
        # 7 * delta misses the period by 0.0035 s, inside the 1e-6 tolerance
        seq = partition_equal_time(iridium, 60.0, 6027.0 / 7 + nudge)
        assert (seq.count, seq.truncated_final) == (7, False)
        assert seq.snapshots[-1].end_s == 6027.0
        assert sum(s.duration_s for s in seq.snapshots) == pytest.approx(6027.0, abs=1e-9)
        assert seq.snapshots[int(seq.lookup(6026.999)[1])].covers(6026.999)
        series = delay_experiment(iridium, METHOD_EQUAL_TIME, 60.0, beijing, london,
                                  18081.0, 6026.999, sequence=seq)
        assert len(series.samples) == 3

    def test_rejects_nonpositive_delta(self, iridium):
        with pytest.raises(ValueError):
            partition_equal_time(iridium, 60.0, 0.0)

    @pytest.mark.parametrize("delta,match", [
        (-1.0, "positive and finite, got -1.0 s"),
        (math.inf, "positive and finite, got inf s"),
        (math.nan, "positive and finite, got nan s"),
        (5e-324, "into inf snapshots"),
        (1e-9, "into 6.027e[+]12 snapshots"),
        (6027.0 / (MAX_EQUAL_TIME_SNAPSHOTS + 1), "into 10001 snapshots"),
    ])
    def test_rejects_degenerate_delta_before_allocating(self, iridium, delta, match):
        with pytest.raises(ValueError, match=match):
            partition_equal_time(iridium, 60.0, delta)

    def test_snapshot_limit_itself_accepted(self, iridium):
        seq = partition_equal_time(iridium, 60.0, 6027.0 / MAX_EQUAL_TIME_SNAPSHOTS)
        assert seq.count == MAX_EQUAL_TIME_SNAPSHOTS and not seq.truncated_final

    def test_default_delta_underflow_rejected(self):
        # a period for which T / (2M) underflows to 0 is rejected with the
        # spec; the shortest accepted one over 2 * 10**306 rows leaves a
        # subnormal delta, which the snapshot limit rejects
        spec = ConstellationSpec(6, 10**306, 86.4, 780.0, period_s=1e-3)
        with pytest.raises(ValueError, match="into 2e\\+306 snapshots"):
            partition(spec, METHOD_EQUAL_TIME, 60.0)
        with pytest.raises(ValueError, match=re.escape("period (5e-324 s) in [0.001, 1e+12]")):
            ConstellationSpec(6, 11, 86.4, 780.0, period_s=5e-324)


class TestDispatch:
    def test_partition_by_name(self, iridium):
        for method, count in ((METHOD_REASSIGNMENT, 22), (METHOD_FIXED, 44),
                              (METHOD_EQUAL_TIME, 22)):
            seq = partition(iridium, method, 60.0)
            assert seq.method == method
            assert seq.count == count

    def test_unknown_method(self, iridium):
        with pytest.raises(ValueError):
            partition(iridium, "adaptive", 60.0)

    def test_unknown_trigger(self, iridium):
        # rejected before the events of that kind, of which there are none,
        # are enumerated
        with pytest.raises(ValueError, match=re.escape("unknown trigger 'bogus'")):
            partition(iridium, METHOD_REASSIGNMENT, 60.0, trigger="bogus")

    @pytest.mark.parametrize("method", [METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME])
    @pytest.mark.parametrize("border", [95.0, 90.0, 0.0, -5.0, math.nan])
    def test_border_outside_0_90_rejected(self, iridium, method, border):
        # equal_time builds no visibility model; the event enumeration that
        # every partition calls checks the border
        with pytest.raises(ValueError, match=re.escape(
                f"polar_border_deg must be in (0, 90), got {border}")):
            partition(iridium, method, border)
        with pytest.raises(ValueError, match="polar_border_deg must be in"):
            enumerate_events(iridium, border, 6027.0)

    def test_snapshot_lookup_is_cyclic(self, iridium):
        seq = partition(iridium, METHOD_REASSIGNMENT, 60.0)
        snap = seq.snapshots[int(seq.lookup(seq.start_s + 3.5 * 6027.0)[1])]
        assert snap.covers(seq.start_s + 0.5 * 6027.0)

    @pytest.mark.parametrize("method", [METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME])
    def test_array_lookup_matches_linear_scan(self, iridium, method):
        seq = partition(iridium, method, 60.0)
        # a sequence without one of its middle snapshots has a gap, where
        # the lookup falls back to the last snapshot
        mid = len(seq.snapshots) // 2
        gapped = SnapshotSequence(seq.method, seq.snapshots[:mid] + seq.snapshots[mid + 1:],
                                  seq.period_s, seq.polar_border_deg)
        for s in (seq, gapped):
            bounds = [x for snap in seq.snapshots for x in (snap.start_s, snap.end_s)]
            times = np.array([b + d + k * s.period_s for b in bounds
                              for d in (-1e-9, 0.0, 1e-9) for k in (0, 2)])
            taus, index = s.lookup(times)
            for t, tau, i in zip(times.tolist(), taus.tolist(), index.tolist()):
                assert (tau, i) == scan_lookup(s, t)
                assert (tau, i) == tuple(x.item() for x in s.lookup(t))

    # Two snapshots tiling one period from a start time that may be tiny.
    @settings(max_examples=300, deadline=None)
    @given(start=st.one_of(st.just(5e-324), st.floats(5e-324, 1e-6), st.floats(5e-324, 1e4)),
           period=st.one_of(st.just(6027.0), st.floats(1e-3, 1e6)),
           k=st.integers(-3, 3), frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    @example(start=1.189566963451701e-13, period=6027.0, k=0, frac=0.0)  # 6 x 33 at 60
    def test_cyclic_time_stays_in_period(self, start, period, k, frac):
        empty = TopologyEdgeSet.from_edges(ConstellationSpec(2, 3, 86.4, 780.0), ())
        mid, end = start + 0.5 * period, start + period
        seq = SnapshotSequence("synthetic", (TopologySnapshot(start, mid, empty),
                                             TopologySnapshot(mid, end, empty)), period, 60.0)
        times = np.array([0.0, k * period, start + k * period, (k + frac) * period])
        taus, index = seq.lookup(times)
        assert ((start <= taus) & (taus < end)).all(), (taus, end)
        for tau, i in zip(taus.tolist(), index.tolist()):
            assert seq.snapshots[i].covers(tau)


class TestBaselineTable:
    """Both baseline partitions read one table of active couples; they must
    equal the per-instant constructions, bounds bit for bit and edge ids
    exactly, over a sweep of shapes, borders and deltas (truncated final
    snapshots included)."""

    @staticmethod
    def assert_same(got, want):
        assert got == want
        assert [(s.start_s, s.end_s) for s in got.snapshots] == [
            (s.start_s, s.end_s) for s in want.snapshots]
        for g, w in zip(got.snapshots, want.snapshots):
            assert np.array_equal(g.edges._ids, w.edges._ids)

    @pytest.mark.parametrize("planes", [2, 4, 6, 8, 12])
    def test_matches_per_instant_partitions(self, planes):
        truncated = 0
        for m in (3, 5, 8, 11, 16, 24):
            spec = ConstellationSpec(planes, m, 86.4, 780.0)
            slot = orbit_period(spec) / spec.row_count
            for border in np.arange(30.0, 86.0, 5.0).tolist():
                self.assert_same(partition_fixed(spec, border), fixed_per_instant(spec, border))
                self.assert_same(partition(spec, METHOD_EQUAL_TIME, border),
                                 equal_time_per_instant(spec, border, slot))
                for scale in (0.37, 1.0, 1.7):
                    got = partition_equal_time(spec, border, scale * slot)
                    self.assert_same(got, equal_time_per_instant(spec, border, scale * slot))
                    truncated += got.truncated_final
        assert truncated > 0


class TestValidateSequence:
    # sha256 of the 600 failure lines, newline-terminated, that ``simulate``
    # reports for the 2 x 300 reassignment-only file at 60 degrees
    WIDE_SHA256 = "a90846aae328e10b3ce194c59dacb97fb6aeb9dc3dcc9f2a5cf8c19ffc40fae5"

    def test_shipped_sequences_pass(self):
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        for name in ("iridium", "teledesic"):
            config = load_scenario(scenarios / f"{name}.scenario")
            for border in config.polar_borders_deg:
                for method in config.methods:
                    seq = partition(config.constellation, method, border,
                                    trigger=config.trigger,
                                    equal_time_delta_s=config.equal_time_delta_s)
                    assert validate_sequence(config.constellation, seq) == []

    def test_wide_reassignment_lines(self, tmp_path):
        path = tmp_path / "wide.scenario"
        path.write_text("[constellation]\nname = wide\nplanes = 2\nsats_per_plane = 300\n"
                        "inclination_deg = 86\naltitude_km = 1000\n[partition]\n"
                        "polar_border_deg = 60\nmethods = reassignment\n")
        config = load_scenario(path)
        seq = partition(config.constellation, "reassignment", 60.0, trigger=config.trigger)
        lines = validate_sequence(config.constellation, seq)
        assert len(lines) == 600
        assert lines[0] == ("wide reassignment 60.0 snapshot 0: 154 violations, "
                            "first: visibility geocentric angle 90.042 exceeds 58.825")
        text = "".join(f"{line}\n" for line in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == self.WIDE_SHA256
