"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The delay-ordering criterion runs the full 24-hour experiment
for every configuration and dominates the runtime (a few minutes).
"""
import dataclasses
import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from polarsnap.geometry import (
    horizontal_survival_latitude_deg,
    orbit_period,
    SatId,
)
from polarsnap.links import validate_topology
from polarsnap.routing import delay_experiment, shortest_delay, utilization
from polarsnap.scenario import load_scenario
from polarsnap.report import run_compare
from polarsnap.snapshots import analytic_summary, partition
from tests.oracles import per_event_reassignment
from tests.test_routing import brute_force_delay

BORDERS = (60.0, 65.0, 70.0, 75.0)

TABLE_REASSIGNMENT = {
    ("iridium", 60.0): (22, 34), ("iridium", 65.0): (22, 34),
    ("iridium", 70.0): (22, 40), ("iridium", 75.0): (22, 44),
    ("teledesic", 60.0): (48, 176), ("teledesic", 65.0): (48, 186),
    ("teledesic", 70.0): (48, 198), ("teledesic", 75.0): (48, 220),
}

NEAR_TIE_REL = 0.02


def _report(n: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {n}: {text}"


@pytest.fixture(scope="module")
def systems(iridium, teledesic):
    return {"iridium": iridium, "teledesic": teledesic}


@pytest.fixture(scope="module")
def sequences(systems):
    """All (system, border, method) snapshot sequences, built once."""
    out = {}
    for name, spec in systems.items():
        for border in BORDERS:
            for method in ("reassignment", "fixed", "equal_time"):
                out[(name, border, method)] = partition(spec, method, border)
    return out


def test_criterion_1_closed_form_table(systems):
    start = time.perf_counter()
    failures = []
    for (name, border), (count, inter) in TABLE_REASSIGNMENT.items():
        a = analytic_summary(systems[name], border)
        if (a.snapshot_count, a.n_inter_plane) != (count, inter):
            failures.append(f"{name}@{border}: got ({a.snapshot_count}, "
                            f"{a.n_inter_plane}), want ({count}, {inter})")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(1, not failures,
            f"closed-form snapshot table exact for 8 configurations "
            f"in {elapsed * 1000:.1f} ms" if not failures else "; ".join(failures))


def test_criterion_2_simulation_matches_analytic(systems, sequences):
    start = time.perf_counter()
    failures = []
    for name, spec in systems.items():
        nominal = orbit_period(spec) / spec.row_count
        for border in BORDERS:
            a = analytic_summary(spec, border)
            # each snapshot built from the row state after its own event,
            # which the rotated sequence must equal
            seq = per_event_reassignment(spec, border)
            if seq != sequences[(name, border, "reassignment")]:
                failures.append(f"{name}@{border}: rotated sequence differs from "
                                "the per-event construction")
            if seq.count != a.snapshot_count:
                failures.append(f"{name}@{border}: S {seq.count} != {a.snapshot_count}")
            bad_nisl = {s.n_inter_plane for s in seq.snapshots} - {a.n_inter_plane}
            if bad_nisl:
                failures.append(f"{name}@{border}: stray link counts {bad_nisl}")
            for snap in seq.snapshots:
                if abs(snap.duration_s - nominal) > 0.005 * nominal:
                    failures.append(f"{name}@{border}: duration {snap.duration_s}")
                    break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    _report(2, not failures,
            "event-driven sequences reproduce S and per-snapshot link counts "
            f"exactly, durations within 0.5% (checked in {elapsed:.2f} s)"
            if not failures else "; ".join(failures))


def test_criterion_3_survival_latitude(iridium):
    failures = []
    value = horizontal_survival_latitude_deg(iridium)
    if abs(value - 32.81) > 0.3:
        failures.append(f"survival latitude {value:.3f} not within 0.3 of 32.81")

    thetas = np.linspace(40.0, 62.0, 50)
    seq = [horizontal_survival_latitude_deg(iridium, float(th)) for th in thetas]
    if not all(b < a for a, b in zip(seq, seq[1:])):
        failures.append("not strictly monotone over the visibility-angle sweep")
    spacings = np.linspace(27.0, 40.0, 50)
    seq2 = [horizontal_survival_latitude_deg(
        dataclasses.replace(iridium, inter_plane_spacing_deg=float(s)), 52.0)
        for s in spacings]
    if not all(b > a for a, b in zip(seq2, seq2[1:])):
        failures.append("not strictly monotone over the plane-spacing sweep")
    _report(3, not failures,
            f"survival latitude {value:.2f} deg within 0.3 of 32.81; "
            "strictly monotone over both 50-point sweeps"
            if not failures else "; ".join(failures))


def test_criterion_4_fixed_baseline(systems, sequences):
    failures = []
    for name, expected_count in (("iridium", 44), ("teledesic", 48)):
        for border in BORDERS:
            seq = sequences[(name, border, "fixed")]
            if seq.count != expected_count:
                failures.append(f"{name}@{border}: S_fixed {seq.count} != {expected_count}")

    seq60 = sequences[("iridium", 60.0, "fixed")]
    durations = [s.duration_s for s in seq60.snapshots]
    for got, want in ((max(durations), 179.90), (min(durations), 92.10)):
        if abs(got - want) > 0.02 * want:
            failures.append(
                f"iridium@60 duration extreme {got:.2f} outside 2% of {want}; "
                "the static baseline wiring is underdetermined by the reference "
                "data, see the baseline-wiring note in README")
    counts = {s.n_inter_plane for s in seq60.snapshots}
    if counts != {30, 35}:
        failures.append(f"iridium@60 link-count set {counts} != {{30, 35}}")
    _report(4, not failures,
            "fixed baseline: S=44/48 exact, duration extremes within 2% of "
            "179.90/92.10, link-count set {30, 35}"
            if not failures else "; ".join(failures))


def test_criterion_5_utilization(systems, sequences):
    failures = []
    for name, spec in systems.items():
        budget = (spec.plane_count - 1) * spec.sats_per_plane
        for border in BORDERS:
            a = analytic_summary(spec, border)
            u_re = utilization(sequences[(name, border, "reassignment")], spec)
            if abs(u_re - a.n_inter_plane / budget) > 1e-9:
                failures.append(f"{name}@{border}: U {u_re} vs closed form "
                                f"{a.n_inter_plane / budget}")
            u_fx = utilization(sequences[(name, border, "fixed")], spec)
            if u_re < u_fx and not (name == "iridium" and border == 65.0):
                failures.append(
                    f"{name}@{border}: U_reassign {u_re:.4f} < U_fixed {u_fx:.4f}")
    _report(5, not failures,
            "utilization equals count/((N-1)M) to 1e-9; reassignment >= fixed "
            "everywhere except the allowed iridium@65 case"
            if not failures else "; ".join(failures))


def test_criterion_6_delay_orderings(systems, sequences, beijing, london):
    start = time.perf_counter()
    failures = []
    near_ties = []
    for name, spec in systems.items():
        for border in BORDERS:
            avg = {}
            for method in ("reassignment", "fixed", "equal_time"):
                series = delay_experiment(
                    spec, method, border, beijing, london, 86400.0, 60.0,
                    sequence=sequences[(name, border, method)])
                avg[method] = series.average_delay_s
            re, fx, eq = avg["reassignment"], avg["fixed"], avg["equal_time"]
            if not re < eq:
                failures.append(f"{name}@{border}: reassignment {re:.6f} not "
                                f"below equal-time {eq:.6f}")
            if re > fx:
                if (re - fx) / fx <= NEAR_TIE_REL:
                    near_ties.append(f"{name}@{border}")
                else:
                    failures.append(f"{name}@{border}: reassignment {re:.6f} "
                                    f"above fixed {fx:.6f} beyond near-tie")
    if len(near_ties) > 1:
        failures.append(f"more than one fixed-method near-tie: {near_ties}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f} s >= 300 s")
    tie_txt = f" (near-ties: {near_ties})" if near_ties else ""
    _report(6, not failures,
            "24 h Beijing-London: reassignment below equal-time for all 8 "
            f"configurations and never above fixed beyond a near-tie{tie_txt}; "
            f"ran in {elapsed:.0f} s" if not failures else "; ".join(failures))


def test_criterion_7_oracle_suites(systems, sequences, toy):
    failures = []
    # (a) validator clean for every generated snapshot
    for (name, border, method), seq in sequences.items():
        spec = systems[name]
        for i, snap in enumerate(seq.snapshots):
            violations = validate_topology(spec, border, snap.edges, snap.start_s + 1e-3)
            if violations:
                failures.append(f"{name} {method}@{border} snapshot {i}: "
                                f"{violations[0].rule}")
                break

    # (b) router equals exhaustive enumeration on the toy constellation
    seq = partition(toy, "reassignment", 60.0)
    snap = seq.snapshots[1]
    t = snap.start_s + 2.0
    sats = [SatId(p, j) for p in (1, 2) for j in range(1, 5)]
    for src, dst in itertools.combinations(sats, 2):
        expected = brute_force_delay(snap, t, src, dst, toy)
        got = shortest_delay(snap, t, src, dst, toy)
        if math.isinf(expected) != (not got.reachable):
            failures.append(f"toy {src}->{dst}: reachability mismatch")
        elif got.reachable and abs(got.delay_s - expected) > 1e-12:
            failures.append(f"toy {src}->{dst}: {got.delay_s} vs {expected}")

    # (c) exact tiling for every sequence
    for (name, border, method), seq in sequences.items():
        total = sum(s.duration_s for s in seq.snapshots)
        if abs(total - seq.period_s) > 1e-6:
            failures.append(f"{name} {method}@{border}: tiling off by "
                            f"{abs(total - seq.period_s):.2e} s")
    _report(7, not failures,
            "topology validator clean on every snapshot; router matches "
            "exhaustive search on the toy system; all sequences tile the "
            "period to 1e-6 s" if not failures else "; ".join(failures[:4]))


def test_criterion_8_compare_determinism(tmp_path):
    from pathlib import Path
    scenario_path = Path(__file__).resolve().parents[1] / "scenarios" / "iridium.scenario"
    config = load_scenario(scenario_path)
    config.duration_s = 1800.0
    digests = []
    for run in ("a", "b"):
        config.output_dir = tmp_path / run
        report = run_compare(config)
        if not report.ok:
            _report(8, False, f"validation failures: {report.validation_failures[:2]}")
        tree = {
            p.relative_to(config.output_dir).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(config.output_dir.rglob("*")) if p.is_file()
        }
        digests.append(tree)
    ok = digests[0] == digests[1] and len(digests[0]) > 0
    _report(8, ok,
            f"two compare runs produced byte-identical artifacts "
            f"({len(digests[0])} files)" if ok else "artifact trees differ")
