"""Snapshot sequences over one orbit period.

Three partition methods produce a sequence of time intervals, each with a
frozen edge set. A snapshot holds only its bounds and its set; its
inter-plane link count is the set's.

* ``partition_reassignment``: one snapshot per polar-cap crossing event of
  the chosen kind; edges re-paired at every boundary. All durations equal
  T / (2*M) and the inter-plane link count is the same in every snapshot.
* ``partition_fixed``: boundaries wherever the static baseline's set of
  active couples changes.
* ``partition_equal_time``: fixed-width intervals anchored at t=0,
  keeping only baseline links that stay active through the whole interval.

One slot P/M later every row stands where the row two phase classes above
it stood, so every method ends alike (``_tiled``): its starts, the sets of
its first S snapshots, and each later set the one S before it
``rotated(2)``, with S = n/M when the sequence repeats every slot
(``_slot_of``), else n. Reassignment's first slot is its first event's set
and that set rotated by one. Both baselines read one table of active
couples, a row per instant and a column per couple (``_couple_rows``);
reassignment, the non-polar bands at its first event (``build_ls_state``).

Every row's phase grows linearly with time, so the border-crossing
instants have a closed form (``enumerate_events``). Topology states are
evaluated ``TIE_S`` after each boundary. ``analytic_summary`` computes the
reassignment numbers in closed form; the event-driven sequences count
rows and edges independently, so the two act as cross-checking oracles.
The tests check the crossing times against a sampled root-solver and each
reassignment snapshot against one built from its own event's row state.
``validate_sequence`` is the per-sequence validation oracle; it positions a
block of snapshots per call (``instant_blocks``).
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import SlotFloorError
from .geometry import (
    TIE_S,
    ConstellationSpec,
    all_positions_km,
    build_ls_state,
    check_polar_border,
    instant_blocks,
    nonpolar_row_count,
    orbit_period,
)
from .links import (
    TRIGGER_ENTER,
    TRIGGER_EXIT,
    TopologyEdgeSet,
    active_couples,
    couple_edges,
    fixed_topology,
    reassign_topology,
    validate_topology,
)

METHOD_REASSIGNMENT = "reassignment"
METHOD_FIXED = "fixed"
METHOD_EQUAL_TIME = "equal_time"

# The most snapshots an equal_time partition may cut one period into.
MAX_EQUAL_TIME_SNAPSHOTS = 10_000


@dataclass(frozen=True)
class PolarCrossing:
    """A border-crossing event: two rows, half a period apart, cross the
    border of one kind (``TRIGGER_ENTER`` or ``TRIGGER_EXIT``) in opposite
    hemispheres at the same instant."""
    time_s: float
    kind: str


@dataclass(frozen=True)
class TopologySnapshot:
    start_s: float
    end_s: float
    edges: TopologyEdgeSet

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def n_inter_plane(self) -> int:
        return self.edges.n_inter_plane

    def covers(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class SnapshotSequence:
    method: str
    snapshots: tuple[TopologySnapshot, ...]
    period_s: float
    polar_border_deg: float
    trigger: str | None = None
    truncated_final: bool = False

    @property
    def count(self) -> int:
        return len(self.snapshots)

    @property
    def start_s(self) -> float:
        return self.snapshots[0].start_s

    def lookup(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Cyclic times and governing snapshot indices for a time or an
        array of times.

        The cyclic time is t folded into [start_s, start_s + period_s); a
        fold that rounds up to the end takes the float below it. Its
        snapshot is the one whose interval holds it, or the last one when
        none does. Snapshots must be in time order and must not overlap,
        as every partition builds them.
        """
        tau = np.minimum(self.start_s + np.mod(np.asarray(t, dtype=float) - self.start_s,
                                               self.period_s),
                         np.nextafter(self.start_s + self.period_s, -np.inf))
        starts = np.array([s.start_s for s in self.snapshots])
        ends = np.array([s.end_s for s in self.snapshots])
        last = len(self.snapshots) - 1
        index = np.minimum(np.searchsorted(ends, tau, side="right"), last)
        covered = (starts[index] <= tau) & (tau < ends[index])
        return tau, np.where(covered, index, last)


@dataclass(frozen=True)
class AnalyticSummary:
    """Closed-form reassignment-method summary for one polar border."""
    snapshot_duration_s: float
    snapshot_count: int
    n_inter_plane: int
    n_oblique: int
    n_horizontal: int


def analytic_summary(spec: ConstellationSpec, polar_border_deg: float) -> AnalyticSummary:
    """Closed-form snapshot duration, count, and link numbers.

    duration = T / (2*M); count = 2*M; oblique links
    2 * floor(rows/2) * (N-1); horizontal links N-2 only when the
    per-arc row count is odd.
    """
    period = orbit_period(spec)
    n_rows = nonpolar_row_count(spec, polar_border_deg)
    n_oblique = 2 * (n_rows // 2) * (spec.plane_count - 1)
    n_horizontal = spec.plane_count - 2 if n_rows % 2 == 1 else 0
    return AnalyticSummary(
        snapshot_duration_s=period / spec.row_count, snapshot_count=spec.row_count,
        n_inter_plane=n_oblique + n_horizontal, n_oblique=n_oblique,
        n_horizontal=n_horizontal)


def enumerate_events(
    spec: ConstellationSpec,
    polar_border_deg: float,
    horizon_s: float,
    kinds: tuple[str, ...] = (TRIGGER_ENTER, TRIGGER_EXIT),
) -> list[PolarCrossing]:
    """Chronological polar-border crossings over [0, horizon).

    Row c has phase u_c(t) = c * 180/M + 360 t / T, so it reaches a border
    phase at ((target - c * 180/M) mod 360) * T / 360 and again every
    period. It enters at phase L and exits at 180 - L in the north; row
    c + M, 180 degrees behind, crosses 180 + L and 360 - L in the south at
    the same instants. In uniform configurations an enter and an exit
    event share the same instant but stay separate records.

    Raises:
        ValueError: If the border is not in (0, 90) or the horizon is not finite.
    """
    check_polar_border(polar_border_deg)
    if not math.isfinite(horizon_s):
        raise ValueError(f"horizon_s must be finite, got {horizon_s}")
    period = orbit_period(spec)
    targets = {TRIGGER_ENTER: polar_border_deg, TRIGGER_EXIT: 180.0 - polar_border_deg}
    events = []
    for kind, target in targets.items():
        if kind not in kinds:
            continue
        for c in range(spec.row_count):
            first = ((target - c * spec.phase_offset_deg) % 360.0) * period / 360.0
            k = 0
            while first + k * period < horizon_s:
                events.append(PolarCrossing(first + k * period, kind))
                k += 1
    events.sort(key=lambda e: (e.time_s, e.kind))
    return events


def partition_reassignment(
    spec: ConstellationSpec,
    polar_border_deg: float,
    trigger: str = TRIGGER_ENTER,
) -> SnapshotSequence:
    """One snapshot per trigger event over one period, re-paired edges.

    The sequence starts at the first trigger event at or after t=0 and
    tiles exactly one period. Between consecutive events every row moves
    into the place of the row one phase class above it, so only the first
    event's edges are built from its row state. An unknown trigger is a
    ValueError.
    """
    if trigger not in (TRIGGER_ENTER, TRIGGER_EXIT):
        raise ValueError(f"unknown trigger {trigger!r}")
    period = orbit_period(spec)
    starts = [e.time_s for e in enumerate_events(spec, polar_border_deg, period, kinds=(trigger,))]
    rows = build_ls_state(spec, polar_border_deg, starts[0] + TIE_S)
    first = reassign_topology(spec, polar_border_deg, rows, trigger)
    return _tiled(spec, METHOD_REASSIGNMENT, polar_border_deg, starts,
                  [first, first.rotated(1)], trigger=trigger)


def partition_fixed(
    spec: ConstellationSpec,
    polar_border_deg: float,
) -> SnapshotSequence:
    """Snapshot boundaries wherever the static baseline's set of active
    couples changes; the first slot's sets are built (``fixed_topology``,
    just after their starts) and the rest rotated from them."""
    period = orbit_period(spec)
    times = np.array([e.time_s for e in enumerate_events(spec, polar_border_deg, period)])
    active = _couple_rows(spec, polar_border_deg, times + TIE_S)
    # The state before the first event is the one after the last, a period
    # earlier. A baseline that never changes is one snapshot from t=0.
    starts = times[(active != np.roll(active, 1, axis=0)).any(axis=1)].tolist() or [0.0]
    first = [fixed_topology(spec, polar_border_deg, start + TIE_S)
             for start in starts[:_slot_of(spec, starts)]]
    return _tiled(spec, METHOD_FIXED, polar_border_deg, starts, first)


def equal_time_count(period_s: float, delta_s: float) -> float:
    """period_s / delta_s; a ValueError unless delta_s is finite and over two
    ties (a ``SlotFloorError``) and the count in (0, ``MAX_EQUAL_TIME_SNAPSHOTS``]."""
    if not (delta_s > 0.0 and math.isfinite(delta_s)):
        raise ValueError(f"equal_time delta must be positive and finite, got {delta_s} s")
    count = period_s / delta_s
    if not 0.0 < count <= MAX_EQUAL_TIME_SNAPSHOTS:
        raise ValueError(f"equal_time delta {delta_s} s cuts the {period_s} s period into "
                         f"{count:.6g} snapshots, outside (0, {MAX_EQUAL_TIME_SNAPSHOTS}]")
    if delta_s <= 2.0 * TIE_S:
        raise SlotFloorError(f"equal_time delta {delta_s} s must exceed {2.0 * TIE_S} s, "
                             f"two {TIE_S} s ties")
    return count


def partition_equal_time(
    spec: ConstellationSpec,
    polar_border_deg: float,
    delta_s: float,
) -> SnapshotSequence:
    """Fixed-width snapshots keeping only links active through each interval.

    Intervals are anchored at t=0. When delta does not divide the period
    to within one part in 1e6 the final snapshot is truncated and the
    sequence flagged; otherwise the final snapshot still ends at exactly
    the period, so the sequence tiles [0, T) either way. A couple is kept
    when it is active just after the interval's start and just after every
    event that falls in the interval one ``TIE_S`` later, an instant past
    the period's end falling in the first.

    Raises:
        ValueError: As ``equal_time_count``, or if the border is not in (0, 90).
    """
    period = orbit_period(spec)
    n_exact = equal_time_count(period, delta_s)
    truncated = abs(n_exact - round(n_exact)) > 1e-6 * n_exact
    n = int(math.floor(n_exact)) + 1 if truncated else int(round(n_exact))
    starts = np.arange(n) * delta_s
    times = np.array([e.time_s for e in enumerate_events(spec, polar_border_deg, period)])
    wrapped = (times + TIE_S) % period
    # The intervals repeat every slot when n of them drift less than a tie in
    # all, and moving every start onto whole slots passes no event +- a tie.
    s = _slot_of(spec, starts) if abs(n * delta_s - period) < TIE_S else n
    ideal = (starts[:s] + period / spec.sats_per_plane * np.arange(n // s)[:, None]).ravel()
    near = np.append(wrapped, (times - TIE_S) % period)
    s = s if (np.searchsorted(starts, near) == np.searchsorted(ideal, near)).all() else n
    inside = wrapped < (starts[s] if s < n else period)
    active = _couple_rows(spec, polar_border_deg,
                          np.concatenate([starts[:s], times[inside]]) + TIE_S)
    couples = active[:s]
    # Each event's row is ANDed into the interval holding it a tie later, mod
    # the period. An event at an interval's start changes nothing: its row is the start's own.
    np.logical_and.at(couples, np.searchsorted(starts, wrapped[inside], side="right") - 1,
                      active[s:])
    return _tiled(spec, METHOD_EQUAL_TIME, polar_border_deg, starts.tolist(),
                  [couple_edges(spec, row) for row in couples], truncated_final=truncated)


def _couple_rows(spec: ConstellationSpec, polar_border_deg: float, instants) -> np.ndarray:
    """``active_couples`` at each instant, a block of instants per call."""
    return np.concatenate([active_couples(spec, polar_border_deg, instants[block])
                           for block in instant_blocks(len(instants), spec.row_count)])


def _slot_of(spec: ConstellationSpec, starts) -> int:
    """S = n/M when the n starts repeat every slot: n is a multiple of M
    and each start lies P/M after the one S before it, to within
    ``TIE_S``; otherwise n."""
    n, m = len(starts), spec.sats_per_plane
    s, starts = n if n % m else n // m, np.asarray(starts)
    return s if (np.abs(starts[s:] - starts[:-s] - orbit_period(spec) / m) < TIE_S).all() else n


def _tiled(spec: ConstellationSpec, method: str, polar_border_deg: float, starts: list[float],
           first: list[TopologyEdgeSet], **flags) -> SnapshotSequence:
    """Snapshots from each start to the next, the last ending a period after
    the first: snapshot i holds ``first[i]``, and snapshot i + len(first)
    snapshot i's set ``rotated(2)``, what the same rule draws a slot later."""
    sets = list(first)
    for i in range(len(first), len(starts)):
        sets.append(sets[i - len(first)].rotated(2))
    snapshots = tuple(TopologySnapshot(start, end, topo) for start, end, topo
                      in zip(starts, starts[1:] + [starts[0] + orbit_period(spec)], sets))
    return SnapshotSequence(method, snapshots, orbit_period(spec), polar_border_deg, **flags)


def _slot_count(spec: ConstellationSpec, seq: SnapshotSequence) -> int:
    """S when the sequence repeats every slot: its starts do (``_slot_of``)
    and snapshot i + S holds snapshot i's drawn set ``rotates_to`` 2 on,
    checked once per distinct pair of set objects; otherwise n, the count."""
    snaps = seq.snapshots
    s = _slot_of(spec, [snap.start_s for snap in snaps])
    pairs = {(id(a.edges), id(b.edges)): (a.edges, b.edges) for a, b in zip(snaps, snaps[s:])}
    return s if all(a.rotates_to(b, 2) for a, b in pairs.values()) else len(snaps)


def _snapshot_failures(spec: ConstellationSpec, seq: SnapshotSequence, name: str,
                       start: int, stop: int) -> list[str]:
    """A line for each of snapshots start..stop-1 whose links fail
    ``validate_topology`` just after its start, positions a block of
    snapshots per call."""
    failures, snaps = [], seq.snapshots[start:stop]
    for block in instant_blocks(len(snaps), spec.total_satellites):
        times = [snap.start_s + TIE_S for snap in snaps[block]]
        positions = all_positions_km(spec, np.array(times))
        for i, (snap, t, pos) in enumerate(zip(snaps[block], times, positions),
                                           start + block.start):
            violations = validate_topology(spec, seq.polar_border_deg, snap.edges, t, pos)
            if violations:
                first = violations[0]
                failures.append(f"{name} snapshot {i}: {len(violations)} violations, "
                                f"first: {first.rule} {first.detail}")
    return failures


def validate_sequence(spec: ConstellationSpec, seq: SnapshotSequence) -> list[str]:
    """Failure lines: a period other than the spec's or one the snapshots do
    not tile, bounds compared exactly, each gap, and each snapshot whose
    links fail ``validate_topology`` just after its start.

    When the sequence repeats every slot (``_slot_count``), its first S
    snapshots hold all it has to check: when they pass, the sequence does.
    When one fails, the rest are checked too, so the lines are those of
    checking every snapshot.
    """
    period = orbit_period(spec)
    name = f"{spec.name} {seq.method} {seq.polar_border_deg}"
    failures = ([f"{name}: period_s is {seq.period_s!r}, not the orbit's {period!r} s"]
                if seq.period_s != period else [])
    start, end = seq.start_s, seq.snapshots[-1].end_s
    if end != start + period:
        failures.append(f"{name}: snapshots cover {end - start!r} s of a {period!r} s period")
    failures += [f"{name}: snapshots {i} and {i + 1} are not contiguous" for i, (a, b)
                 in enumerate(zip(seq.snapshots, seq.snapshots[1:])) if a.end_s != b.start_s]
    slot = _slot_count(spec, seq)
    lines = _snapshot_failures(spec, seq, name, 0, slot)
    if lines:
        lines += _snapshot_failures(spec, seq, name, slot, seq.count)
    return failures + lines


def partition(
    spec: ConstellationSpec,
    method: str,
    polar_border_deg: float,
    trigger: str = TRIGGER_ENTER,
    equal_time_delta_s: float | None = None,
) -> SnapshotSequence:
    """Dispatch to the partition method by name."""
    if method == METHOD_REASSIGNMENT:
        return partition_reassignment(spec, polar_border_deg, trigger)
    if method == METHOD_FIXED:
        return partition_fixed(spec, polar_border_deg)
    if method == METHOD_EQUAL_TIME:
        if equal_time_delta_s is None:
            equal_time_delta_s = orbit_period(spec) / spec.row_count
        return partition_equal_time(spec, polar_border_deg, equal_time_delta_s)
    raise ValueError(f"unknown partition method {method!r}")
