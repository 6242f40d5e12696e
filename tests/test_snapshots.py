import collections
import hashlib
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarsnap import snapshots
from polarsnap.errors import SlotFloorError
from polarsnap.geometry import (
    TIE_S,
    ConstellationSpec,
    is_uniform_row_distribution,
    orbit_period,
)
from polarsnap.links import (
    INTRA_PLANE,
    TRIGGER_ENTER,
    TRIGGER_EXIT,
    TopologyEdgeSet,
    validate_topology,
)
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
    equal_time_count,
    partition,
    partition_equal_time,
    partition_fixed,
    partition_reassignment,
    validate_sequence,
)
from polarsnap.report import export_topology, load_topology
from polarsnap.scenario import load_scenario
from tests.oracles import (
    class_phase_deg,
    crossing_rows,
    equal_time_per_instant,
    fixed_per_instant,
    per_event_reassignment,
    phase_latitude_deg,
    reference_validate_sequence,
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

    def test_event_a_roundoff_before_a_start_is_at_that_start(self):
        # 2 * 45 degrees is 8 row spacings, so crossings fall on interval
        # starts; two are computed one ulp before snapshot 31's start and
        # belong to it, not to snapshot 30
        seq = partition(ConstellationSpec(4, 16, 86.0, 1000.0), METHOD_EQUAL_TIME, 45.0)
        assert [s.n_inter_plane for s in seq.snapshots] == [24, 18] * 16

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
        # a default delta T / (2M) that underflows, as the shortest period
        # over 2 * 10**306 rows gives, is below the slot floor, so the spec
        # is rejected, as is a count past any float; so is a period that
        # underflows itself
        with pytest.raises(SlotFloorError, match="= 5e-310 s must exceed 0.002 s"):
            ConstellationSpec(6, 10**306, 86.4, 780.0, period_s=1e-3)
        with pytest.raises(SlotFloorError):
            ConstellationSpec(6, 10**400, 86.4, 780.0, period_s=6027.0)
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


class TestFixedByRotation:
    """``partition_fixed`` builds the sets of its first S = n/M snapshots and
    rotates them into the rest: every sequence equals the per-instant
    construction, bounds bit for bit and edge ids exactly, with S
    ``fixed_topology`` calls (one for a baseline that never changes)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = collections.Counter()
        build = snapshots.fixed_topology

        def counted(*args):
            counter["fixed_topology"] += 1
            return build(*args)

        monkeypatch.setattr(snapshots, "fixed_topology", counted)
        return counter

    @staticmethod
    def assert_rotated(spec, border, calls) -> SnapshotSequence:
        calls.clear()
        seq = partition_fixed(spec, border)
        TestBaselineTable.assert_same(seq, fixed_per_instant(spec, border))
        m = spec.sats_per_plane
        assert seq.count == 1 or seq.count % m == 0, (spec, border)
        assert calls["fixed_topology"] == max(1, seq.count // m), (spec, border)
        return seq

    def test_sweep(self, calls):
        rotated = 0
        for n, m, border in itertools.product((2, 4, 6, 8), (3, 5, 8, 11, 16), range(30, 90, 5)):
            seq = self.assert_rotated(ConstellationSpec(n, m, 86.0, 1000.0), border, calls)
            rotated += seq.count > calls["fixed_topology"]
        assert rotated == 240 - 4  # the four single-snapshot sequences (M = 3, L = 30)

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    @pytest.mark.parametrize("border", [60.0, 65.0, 70.0, 75.0])
    def test_shipped(self, system, border, calls, request):
        spec = request.getfixturevalue(system)
        seq = self.assert_rotated(spec, border, calls)
        if system == "teledesic":
            assert (seq.count, calls["fixed_topology"]) == (48, 2)

    def test_two_by_thousand(self, two_by_thousand, calls):
        seq = self.assert_rotated(two_by_thousand, 60.0, calls)
        assert (seq.count, calls["fixed_topology"]) == (2000, 2)


class TestSlotIdentity:
    def test_one_slot_later_is_two_classes_on(self):
        # after P/M every satellite stands where its in-plane successor
        # stood, so snapshot i + n/M holds snapshot i's set moved by two
        # phase classes; a single-snapshot sequence never changes
        checked = 0
        for n, m, border in itertools.product((2, 4, 6, 8), (3, 5, 8, 11, 16), range(30, 90, 5)):
            spec = ConstellationSpec(n, m, 86.0, 1000.0)
            for method in (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME):
                sets = [snap.edges for snap in partition(spec, method, border).snapshots]
                if len(sets) == 1:
                    assert (m, border, method) == (3, 30, METHOD_FIXED)
                    continue
                assert len(sets) % m == 0, (n, m, border, method)
                slot = len(sets) // m
                for i, edges in enumerate(sets):
                    assert sets[(i + slot) % len(sets)] == edges.rotated(2), (
                        n, m, border, method, i)
                checked += 1
        assert checked == 716


class TestTieRule:
    """Instants less than ``TIE_S`` apart are one instant, for the closed
    form, the partitions and the validator alike."""

    @staticmethod
    def assert_consistent(spec, border):
        # analytic equals simulated under both triggers, fixed and
        # equal_time keep the slot identity, and every sequence validates
        summary = analytic_summary(spec, border)
        for trigger in (TRIGGER_ENTER, TRIGGER_EXIT):
            seq = partition_reassignment(spec, border, trigger)
            assert seq.count == summary.snapshot_count
            assert {s.n_inter_plane for s in seq.snapshots} == {summary.n_inter_plane}, (
                spec, border, trigger)
            assert validate_sequence(spec, seq) == reference_validate_sequence(spec, seq) == []
        TestBaselineTable.assert_same(partition_fixed(spec, border),
                                      fixed_per_instant(spec, border))
        for seq in (partition_fixed(spec, border), partition(spec, METHOD_EQUAL_TIME, border)):
            sets = [snap.edges for snap in seq.snapshots]
            step = len(sets) // spec.sats_per_plane
            assert len(sets) == 1 or all(sets[(i + step) % len(sets)] == edges.rotated(2)
                                         for i, edges in enumerate(sets)), (border, seq.method)
            assert validate_sequence(spec, seq) == reference_validate_sequence(spec, seq) == []

    @pytest.mark.parametrize("planes", [2, 4, 6])
    def test_near_uniform_borders(self, planes):
        # every uniform border moved so that each crossing shifts by x: an
        # enter and an exit crossing 2x apart, one instant when 2x < TIE_S;
        # at 8000 km every link of these shapes validates
        checked = 0
        for m in (5, 8, 11, 16):
            spec = ConstellationSpec(planes, m, 86.0, 8000.0)
            period = orbit_period(spec)
            shifts = itertools.product((1e-5, 2.5e-4, 7.5e-4, 2e-3), (-1, 1))
            for k, (x, sign) in itertools.product(range(1, m), shifts):
                border = 90.0 * k / m + sign * 360.0 * x / period
                assert is_uniform_row_distribution(spec, border) == (2.0 * x < TIE_S)
                self.assert_consistent(spec, border)
                checked += 1
        assert checked == 288

    @pytest.mark.parametrize("border, links", [(81.818181, 50), (89.999999, 54)])
    def test_iridium_near_uniform(self, iridium, border, links):
        # both borders are a tie or less from uniform; the closed form used
        # to count one row less than the enter-triggered partition drew
        assert analytic_summary(iridium, border).n_inter_plane == links
        self.assert_consistent(iridium, border)
        slot = orbit_period(iridium) / iridium.row_count
        assert partition(iridium, METHOD_EQUAL_TIME, border) == equal_time_per_instant(
            iridium, border, slot)

    def test_event_before_period_end_wraps(self):
        # a crossing less than a tie before the period's end is at t = 0, so
        # the last snapshot keeps its 18 links instead of the first's 12
        spec = ConstellationSpec(4, 8, 86.0, 1000.0)
        border = 67.50000057078356
        seq = partition(spec, METHOD_EQUAL_TIME, border)
        assert [snap.n_inter_plane for snap in seq.snapshots] == [12, 18] * 8
        assert seq == equal_time_per_instant(spec, border, orbit_period(spec) / spec.row_count)

    def test_long_period_tiles_exactly(self):
        # at 1e12 s the durations no longer sum to the period, but the last
        # end is still the first start plus the period
        spec = ConstellationSpec(6, 11, 86.4, 780.0, period_s=1e12, name="iridium")
        for border in (60.0, 65.0, 70.0, 75.0):
            for method in (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME):
                assert validate_sequence(spec, partition(spec, method, border)) == []

    @pytest.mark.parametrize("m", range(3, 12))
    def test_short_period_analytic_equals_simulated(self, m):
        # at 0.05 s a tie is up to 0.44 of a slot (M = 11)
        for planes in (2, 4, 6):
            spec = ConstellationSpec(planes, m, 86.4, 780.0, period_s=0.05)
            for border in range(5, 90, 5):
                summary = analytic_summary(spec, border)
                for trigger in (TRIGGER_ENTER, TRIGGER_EXIT):
                    seq = partition_reassignment(spec, border, trigger)
                    assert {s.n_inter_plane for s in seq.snapshots} == {summary.n_inter_plane}, (
                        planes, m, border, trigger)

    @settings(max_examples=200, deadline=None)
    @given(period=st.floats(1e-3, 10.0), m=st.integers(3, 3000),
           delta=st.floats(1e-4, 1e-2))
    @example(period=0.044, m=11, delta=2 * TIE_S)
    def test_slot_floor(self, period, m, delta):
        # a slot T / (2M) or an equal_time delta of at most two ties is rejected
        if period / (2 * m) <= 2 * TIE_S:
            with pytest.raises(SlotFloorError, match="must exceed 0.002 s, two 0.001 s ties"):
                ConstellationSpec(2, m, 86.4, 780.0, period_s=period)
        else:
            ConstellationSpec(2, m, 86.4, 780.0, period_s=period)
        if delta <= 2 * TIE_S:
            with pytest.raises(SlotFloorError, match=f"delta {delta} s must exceed 0.002 s"):
                equal_time_count(1.0, delta)
        else:
            assert equal_time_count(1.0, delta) == 1.0 / delta

    def test_tiling_compared_exactly(self, iridium):
        # a one-ulp gap, or a period one ulp off the orbit's, is a failure
        seq = partition(iridium, METHOD_REASSIGNMENT, 60.0)
        snaps = list(seq.snapshots)
        snaps[3] = TopologySnapshot(math.nextafter(snaps[3].start_s, math.inf),
                                    snaps[3].end_s, snaps[3].edges)
        gap = SnapshotSequence(seq.method, tuple(snaps), seq.period_s, 60.0)
        assert validate_sequence(iridium, gap) == [
            "iridium reassignment 60.0: snapshots 2 and 3 are not contiguous"]
        off = SnapshotSequence(seq.method, seq.snapshots, math.nextafter(6027.0, 0.0), 60.0)
        assert validate_sequence(iridium, off) == [
            "iridium reassignment 60.0: period_s is 6026.999999999999, not the orbit's 6027.0 s"]
        short = SnapshotSequence(seq.method, seq.snapshots[:-1], seq.period_s, 60.0)
        covered = seq.snapshots[-1].start_s - seq.start_s
        assert validate_sequence(iridium, short) == [
            f"iridium reassignment 60.0: snapshots cover {covered!r} s of a 6027.0 s period"]


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


class TestSlotPeriodValidation:
    """``validate_sequence`` checks the first n/M snapshots of a sequence
    that repeats every slot, and gives exactly the lines of checking every
    snapshot (``reference_validate_sequence``)."""

    @staticmethod
    def counted(monkeypatch):
        """Per ``validate_sequence`` run: validate_topology calls and position rows."""
        work = collections.Counter()
        check, positions = snapshots.validate_topology, snapshots.all_positions_km

        def counted_check(spec, *args):
            work["calls"] += 1
            return check(spec, *args)

        def counted_positions(spec, t):
            work["rows"] += np.size(t) * spec.total_satellites
            return positions(spec, t)

        monkeypatch.setattr(snapshots, "validate_topology", counted_check)
        monkeypatch.setattr(snapshots, "all_positions_km", counted_positions)
        return work

    def test_sweep_lines_match_reference(self, monkeypatch):
        # the geometry sweep: 406 of 720 sequences fail, and every one that
        # passes and has more than one snapshot is checked one slot deep
        work = self.counted(monkeypatch)
        failing = fast = 0
        for n, m, border in itertools.product((2, 4, 6, 8), (3, 5, 8, 11, 16), range(30, 90, 5)):
            spec = ConstellationSpec(n, m, 86.0, 1000.0)
            for method in (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME):
                seq = partition(spec, method, border)
                work.clear()
                lines = validate_sequence(spec, seq)
                assert lines == reference_validate_sequence(spec, seq), (n, m, border, method)
                failing += bool(lines)
                want = seq.count if lines or seq.count == 1 else seq.count // m
                assert work["calls"] == want and work["rows"] == want * n * m
                fast += work["calls"] < seq.count
        assert failing == 406 and fast == 720 - 406

    def test_loaded_exports_checked_in_full(self, tmp_path, monkeypatch):
        # a loaded set holds no universe ids, so every snapshot is checked
        work = self.counted(monkeypatch)
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        for name in ("iridium", "teledesic"):
            config = load_scenario(scenarios / f"{name}.scenario")
            spec = config.constellation
            for border, method in itertools.product(config.polar_borders_deg, config.methods):
                path = tmp_path / f"{name}_{method}_{border}.json"
                export_topology(partition(spec, method, border, trigger=config.trigger,
                                          equal_time_delta_s=config.equal_time_delta_s),
                                spec, path)
                loaded = load_topology(path)[1]
                work.clear()
                assert validate_sequence(spec, loaded) == []
                assert work["calls"] == loaded.count
                assert reference_validate_sequence(spec, loaded) == []

    @staticmethod
    def mutated(seq, index, start=None, edges=None):
        snaps = list(seq.snapshots)
        snap = snaps[index]
        snaps[index] = TopologySnapshot(snap.start_s if start is None else start, snap.end_s,
                                        snap.edges if edges is None else edges)
        return SnapshotSequence(seq.method, tuple(snaps), seq.period_s, seq.polar_border_deg,
                                seq.trigger, seq.truncated_final)

    @pytest.mark.parametrize("method", [METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME])
    def test_mutated_sequences_match_reference(self, iridium, method, monkeypatch):
        # a swapped set, a start moved by more than a tie, or a count that
        # is not a multiple of M breaks the slot identity: every snapshot is
        # checked, and a failure past the first slot period is found. A
        # move of exactly one tie is left to roundoff, as every tie is
        work = self.counted(monkeypatch)
        seq = partition(iridium, method, 60.0)
        n, slot = seq.count, seq.count // iridium.sats_per_plane
        starts = [snap.start_s for snap in seq.snapshots]
        cases = [self.mutated(seq, i, edges=seq.snapshots[j].edges)
                 for i, j in ((n - 1, 0), (slot, 0), (n - 1, n - 2))]
        cases += [self.mutated(seq, i, start=starts[i] + shift)
                  for i in (1, n - 1)
                  for shift in (1.5 * TIE_S, -1.5 * TIE_S, 0.4 * (starts[1] - starts[0]))]
        cases += [SnapshotSequence(seq.method, seq.snapshots[:-1], seq.period_s, 60.0),
                  partition_equal_time(iridium, 60.0, orbit_period(iridium) / 23)]
        failing = 0
        for case in cases:
            work.clear()
            lines = validate_sequence(iridium, case)
            assert lines == reference_validate_sequence(iridium, case)
            assert work["calls"] == case.count
            failing += any("violations" in line for line in lines)
        assert failing >= 2
        work.clear()
        assert validate_sequence(iridium, seq) == [] and work["calls"] == slot

    def test_two_by_thousand_checks_one_slot_period(self, tmp_path, monkeypatch):
        # the 2 x 1000 file at 60 degrees: each sequence passes with at most
        # n/M validator calls, and positions for those snapshots alone
        text = (Path(__file__).resolve().parents[1] / "scenarios" / "iridium.scenario").read_text()
        path = tmp_path / "big.scenario"
        path.write_text(text.replace("\nplanes = 6\n", "\nplanes = 2\n")
                        .replace("\nsats_per_plane = 11\n", "\nsats_per_plane = 1000\n"))
        spec = load_scenario(path).constellation
        assert spec.total_satellites == 2000
        work = self.counted(monkeypatch)
        for method in (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME):
            seq = partition(spec, method, 60.0)
            work.clear()
            assert validate_sequence(spec, seq) == []
            slot = seq.count // spec.sats_per_plane
            assert work["calls"] <= slot and work["rows"] == work["calls"] * 2000
