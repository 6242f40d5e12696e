"""Output checks owned by the benchmark; their failures feed ``failed_fraction``.

* ``compare`` exits 0 and reports no validation failure.
* The reassignment rows of the comparison CSV equal ``analytic_summary``:
  counts exactly, durations within 1e-6 s.
* Every topology export round-trips through ``load_topology`` to the
  sequence the run produced. ``partition`` is deterministic, so the checks
  rebuild each sequence with the arguments the run passed, after the run,
  instead of holding on to the run's own while it is measured.
* Every delay CSV has one row per send on the send grid. A seeded sample of
  about 1 in 50 sends, plus every send the program marked unreachable, is
  recomputed by an independent Bellman-Ford over the snapshot's edges; the
  reachable flag must agree and the delay be within 1e-9 relative.

Unreachable sends are physics, not failures; they fail only when they
disagree with the oracle. All comparisons use tolerances, not digests, so
last-ulp changes in the CSVs pass.

A run makes every check on its first repetition. Later repetitions of the
same code and inputs make only the cheap ones: the exit status and
validation, the number of exports and delay CSVs, and the send grid of
every delay CSV.
"""
import csv
import math
import random
from pathlib import Path

import numpy as np

from workloads import SINGLE_BORDER_DEG

SAMPLE_RATE = 1.0 / 50.0
DELAY_REL_TOL = 1e-9
DURATION_TOL_S = 1e-6
BOUNDS_TOL_S = 1e-9
MAX_MESSAGES = 20


class Checker:
    """Counts checks attempted and failed, and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)
        return ok


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _same_float(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def same_spec(ps, a, b) -> bool:
    return (a.name == b.name and a.plane_count == b.plane_count
            and a.sats_per_plane == b.sats_per_plane
            and all(_same_float(getattr(a, f), getattr(b, f)) for f in (
                "inclination_deg", "altitude_km", "earth_radius_km",
                "grazing_altitude_km", "plane_spacing_deg"))
            and _same_float(ps.orbit_period(a), ps.orbit_period(b)))


def same_sequence(a, b) -> bool:
    """Edge sets equal and bounds within 1e-9 s, snapshot by snapshot."""
    if (a.method, a.trigger, a.truncated_final, a.count) != (
            b.method, b.trigger, b.truncated_final, b.count):
        return False
    if not (_same_float(a.polar_border_deg, b.polar_border_deg)
            and _same_float(a.period_s, b.period_s)):
        return False
    return all(
        abs(x.start_s - y.start_s) <= BOUNDS_TOL_S
        and abs(x.end_s - y.end_s) <= BOUNDS_TOL_S
        and x.edges.edges == y.edges.edges
        for x, y in zip(a.snapshots, b.snapshots))


class DelayOracle:
    """Ground attachment plus a vectorised Bellman-Ford, written apart from
    ``polarsnap.routing``; only satellite and station positions come from
    ``polarsnap.geometry``."""

    def __init__(self, ps, spec):
        self.geometry = ps.geometry
        self.spec = spec
        self.n = spec.plane_count * spec.sats_per_plane
        self._edges: dict = {}

    def _index(self, sat) -> int:
        return (sat.plane - 1) * self.spec.sats_per_plane + sat.index_in_plane - 1

    def _attach(self, station, t, positions):
        g = np.array(self.geometry.ground_position_km(
            station, t, self.spec.earth_radius_km))
        los = positions - g
        sin_el = (los @ g) / (np.linalg.norm(los, axis=1) * self.spec.earth_radius_km)
        elevation = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
        best = int(np.argmax(elevation))
        if elevation[best] < station.min_elevation_deg:
            return None, g
        return best, g

    def _snapshot(self, seq, t):
        tau = seq.start_s + (t - seq.start_s) % seq.period_s
        for snap in seq.snapshots:
            if snap.start_s <= tau < snap.end_s:
                return snap, tau
        return seq.snapshots[-1], tau

    def _edge_arrays(self, snap):
        key = id(snap)
        if key not in self._edges:
            pairs = [(self._index(e.endpoint_a), self._index(e.endpoint_b))
                     for e in snap.edges.edges]
            a, b = (np.array(side, dtype=np.int64) for side in zip(*pairs))
            self._edges[key] = (snap, a, b)
        return self._edges[key][1:]

    def _bellman_ford(self, a, b, weights, source) -> np.ndarray:
        dist = np.full(self.n, np.inf)
        dist[source] = 0.0
        for _ in range(self.n):
            new = dist.copy()
            np.minimum.at(new, a, dist[b] + weights)
            np.minimum.at(new, b, dist[a] + weights)
            if np.array_equal(new, dist):
                break
            dist = new
        return dist

    def send(self, seq, src, dst, t):
        """(reachable, delay_s) for one send at time t."""
        c = self.geometry.SPEED_OF_LIGHT_KM_S
        positions = self.geometry.all_positions_km(self.spec, t)
        s, g_src = self._attach(src, t, positions)
        d, g_dst = self._attach(dst, t, positions)
        if s is None or d is None:
            return False, math.nan
        snap, tau = self._snapshot(seq, t)
        a, b = self._edge_arrays(snap)
        at_tau = self.geometry.all_positions_km(self.spec, tau)
        weights = np.linalg.norm(at_tau[a] - at_tau[b], axis=1) / c
        path = self._bellman_ford(a, b, weights, s)[d]
        if not math.isfinite(path):
            return False, math.nan
        up = float(np.linalg.norm(positions[s] - g_src)) / c
        down = float(np.linalg.norm(positions[d] - g_dst)) / c
        return True, up + path + down


def check_grid(chk, path: Path, duration_s, interval_s) -> list:
    """One row per send, every ``interval_s``; returns the rows."""
    rows = _rows(path)
    n_sends = int(duration_s // interval_s)
    grid = len(rows) == n_sends and all(
        float(r["send_time_s"]) == k * interval_s for k, r in enumerate(rows))
    chk.expect(grid, f"{path.name}: {len(rows)} rows, expected {n_sends} "
                     f"sends every {interval_s} s")
    return rows


def check_sends(chk, oracle, seq, src, dst, path: Path, duration_s, interval_s, seed):
    rows = check_grid(chk, path, duration_s, interval_s)
    rng = random.Random(f"{seed}:{path.name}")
    for row in rows:
        picked = rng.random() < SAMPLE_RATE
        reachable = row["reachable"] == "true"
        if not (picked or not reachable):
            continue
        t = float(row["send_time_s"])
        want_reachable, want = oracle.send(seq, src, dst, t)
        got = float(row["delay_s"])
        chk.expect(reachable == want_reachable
                   and (not reachable or abs(got - want) <= DELAY_REL_TOL * want),
                   f"{path.name} t={t}: reachable={reachable} delay {got!r}, "
                   f"oracle reachable={want_reachable} delay {want!r}")


def _run_compare_sequences(ps, config, borders) -> dict:
    """What ``run_compare`` partitions, keyed by (method, border), built with
    the same arguments: its equal_time delta for ``match_reassignment`` is
    the one ``partition`` picks for None."""
    delta = config.equal_time_delta
    delta = None if delta == ps.scenario.MATCH_REASSIGNMENT else float(delta)
    return {(method, border): ps.partition(config.constellation, method, border,
                                           trigger=config.trigger,
                                           equal_time_delta_s=delta)
            for border in borders for method in config.methods}


def check_compare(ps, chk, inputs, state, full=True):
    out = Path(inputs["out"])
    config = ps.load_scenario(inputs["scenario"])
    spec = config.constellation
    chk.expect(state["code"] == 0 and "VALIDATION FAILURES" not in state["stdout"],
               f"compare exited {state['code']}: {state['stdout'][-500:]}")

    borders = [SINGLE_BORDER_DEG] if inputs["tiny"] else config.polar_borders_deg
    if not full:
        n_runs = len(borders) * len(config.methods)
        for pattern in ("*_topology.json", "*_delay.csv"):
            found = len(list(out.glob(pattern)))
            chk.expect(found == n_runs, f"{found} {pattern} files for {n_runs} partitions")
        for path in sorted(out.glob("*_delay.csv")):
            check_grid(chk, path, inputs["duration_s"], config.interval_s)
        return
    reassignment = [r for r in _rows(out / f"comparison_{spec.name}.csv")
                    if r["method"] == "reassignment"]
    chk.expect(sorted(float(r["polar_border_deg"]) for r in reassignment)
               == sorted(borders), f"reassignment rows {len(reassignment)} "
                                   f"for borders {borders}")
    for row in reassignment:
        border = float(row["polar_border_deg"])
        a = ps.analytic_summary(spec, border)
        chk.expect(
            int(row["snapshot_count"]) == a.snapshot_count
            and int(row["n_inter_min"]) == a.n_inter_plane
            and int(row["n_inter_max"]) == a.n_inter_plane
            and abs(float(row["duration_min_s"]) - a.snapshot_duration_s) <= DURATION_TOL_S
            and abs(float(row["duration_max_s"]) - a.snapshot_duration_s) <= DURATION_TOL_S
            and int(row["analytic_snapshot_count"]) == a.snapshot_count
            and int(row["analytic_n_inter"]) == a.n_inter_plane
            and abs(float(row["analytic_duration_s"]) - a.snapshot_duration_s) <= DURATION_TOL_S,
            f"reassignment row at {border}: {dict(row)} != {a}")

    sequences = _run_compare_sequences(ps, config, borders)
    exports = sorted(out.glob("*_topology.json"))
    chk.expect(len(exports) == len(sequences),
               f"{len(exports)} exports for {len(sequences)} partitions")
    seen = set()
    for path in exports:
        lspec, lseq = ps.load_topology(path)
        key = (lseq.method, lseq.polar_border_deg)
        mem = None if key in seen else sequences.get(key)
        seen.add(key)
        chk.expect(mem is not None and same_spec(ps, spec, lspec)
                   and same_sequence(mem, lseq),
                   f"{path.name} does not round-trip to the partition {key}")

    oracle = DelayOracle(ps, spec)
    delays = sorted(out.glob("*_delay.csv"))
    chk.expect(len(delays) == len(sequences),
               f"{len(delays)} delay CSVs for {len(sequences)} partitions")
    for path in delays:
        first = _rows(path)[0]
        seq = sequences.get((first["method"], float(first["polar_border_deg"])))
        if not chk.expect(seq is not None, f"{path.name}: no such partition"):
            continue
        check_sends(chk, oracle, seq, config.source, config.destination, path,
                    inputs["duration_s"], config.interval_s, inputs["seed"])


def check_route(ps, chk, inputs, state, full=True):
    out = Path(inputs["out"])
    config = ps.load_scenario(inputs["scenario"])
    spec = config.constellation
    if not full:
        for method in config.methods:
            for i in range(len(state["stations"])):
                check_grid(chk, out / f"{method}_pair{i}_delay.csv",
                           inputs["duration_s"], config.interval_s)
        return
    oracle = DelayOracle(ps, spec)
    for method in config.methods:
        # The call ``run_body`` makes.
        seq = ps.partition(spec, method, SINGLE_BORDER_DEG, trigger=config.trigger)
        for i, (src, dst) in enumerate(state["stations"]):
            check_sends(chk, oracle, seq, src, dst, out / f"{method}_pair{i}_delay.csv",
                        inputs["duration_s"], config.interval_s, inputs["seed"])
