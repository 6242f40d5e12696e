"""Report assembly, CSV/JSON artifacts, and the full comparison pipeline.

All outputs are deterministic: edges are sorted canonically, floats are
serialised with repr round-tripping, and nothing depends on wall-clock
time, so identical scenarios produce byte-identical files.
"""
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .geometry import ConstellationSpec, make_visibility_model, orbit_period
from .links import TopologyEdgeSet, canonical_arrays, validate_topology
from .routing import DelaySeries, delay_experiment, utilization
from .scenario import ScenarioConfig
from .snapshots import (
    METHOD_REASSIGNMENT,
    AnalyticSummary,
    SnapshotSequence,
    TopologySnapshot,
    analytic_summary,
    partition,
)

_EXPORT_FORMAT = "polarsnap-topology/1"


@dataclass(frozen=True)
class ComparisonRow:
    """One (method, polar border) line of the comparison report."""
    method: str
    polar_border_deg: float
    snapshot_count: int
    duration_min_s: float
    duration_max_s: float
    n_inter_min: int
    n_inter_max: int
    utilization: float
    average_delay_s: float | None
    unreachable_fraction: float | None
    analytic: AnalyticSummary | None


@dataclass
class ComparisonReport:
    scenario_name: str
    rows: list[ComparisonRow]
    validation_failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.validation_failures


def write_snapshot_csv(seq: SnapshotSequence, path: Path) -> None:
    """One row per snapshot: bounds, duration, and edge counts by kind."""
    lines = ["method,index,start_s,end_s,duration_s,n_intra,n_oblique,"
             "n_horizontal,n_inter_total"]
    for i, snap in enumerate(seq.snapshots):
        n_intra = snap.edges.count("intra_plane")
        n_obl = snap.edges.count("oblique")
        n_hor = snap.edges.count("horizontal")
        lines.append(
            f"{seq.method},{i},{snap.start_s!r},{snap.end_s!r},"
            f"{snap.duration_s!r},{n_intra},{n_obl},{n_hor},{snap.n_inter_plane}")
    path.write_text("\n".join(lines) + "\n")


def write_delay_csv(series: DelaySeries, path: Path) -> None:
    lines = ["send_time_s,method,polar_border_deg,delay_s,hops,reachable"]
    for s in series.samples:
        delay = repr(s.delay_s) if s.reachable else "nan"
        lines.append(
            f"{s.send_time_s!r},{series.method},{series.polar_border_deg!r},"
            f"{delay},{s.hops},{str(s.reachable).lower()}")
    path.write_text("\n".join(lines) + "\n")


def export_topology(
    seq: SnapshotSequence, spec: ConstellationSpec, path: Path,
) -> None:
    """Write a sequence as a single JSON document.

    The layout is that of ``json.dumps(doc, indent=1, sort_keys=True)``
    plus a newline, edges listed in canonical order. The snapshots are
    written from their edge sets' compiled arrays, each distinct edge's
    text made once per export. Byte-stable for identical inputs;
    round-trips through ``load_topology``.

    Raises:
        ValueError: On an empty sequence.
    """
    if not seq.snapshots:
        raise ValueError("refusing to export an empty snapshot sequence")
    head = json.dumps({
        "format": _EXPORT_FORMAT,
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
        "snapshots": [],
    }, indent=1, sort_keys=True)
    # The snapshots go where json.dumps put an empty list, written with the
    # indentation it uses at that depth.
    before, _, after = head.partition('\n "snapshots": []')

    # One text per distinct (kind, a, b) key; each snapshot joins its edges'.
    n, m = spec.total_satellites, spec.sats_per_plane
    arrays = [snap.edges.compiled(spec) for snap in seq.snapshots]
    kinds = sorted(set().union(*(arr.kinds for arr in arrays)))
    keys = np.concatenate([(np.array([kinds.index(k) for k in arr.kinds], dtype=np.int64)
                            [arr.kind] * n + arr.a) * n + arr.b for arr in arrays])
    unique = np.sort(keys)
    unique = unique[np.diff(unique, prepend=-1) != 0]
    inverse = np.searchsorted(unique, keys)
    kind_text = [json.dumps(k) for k in kinds]
    texts = np.array([
        f'    {{\n     "a": [\n      {a // m + 1},\n      {a % m + 1}\n     ],\n'
        f'     "b": [\n      {b // m + 1},\n      {b % m + 1}\n     ],\n'
        f'     "kind": {kind_text[k]}\n    }}'
        for k, a, b in zip(*(x.tolist() for x in (unique // (n * n), unique // n % n,
                                                   unique % n)))], dtype=object)
    bounds = np.cumsum([0] + [len(arr.a) for arr in arrays]).tolist()
    snapshots = []
    for i, snap in enumerate(seq.snapshots):
        edges = ",\n".join(texts[inverse[bounds[i]:bounds[i + 1]]].tolist())
        edges = f"[\n{edges}\n   ]" if edges else "[]"
        snapshots.append(
            f'  {{\n   "edges": {edges},\n   "end_s": {json.dumps(snap.end_s)},\n'
            f'   "index": {i},\n   "start_s": {json.dumps(snap.start_s)}\n  }}')
    path.write_text(f'{before}\n "snapshots": [\n' + ",\n".join(snapshots)
                    + f"\n ]{after}\n")


def load_topology(path: Path) -> tuple[ConstellationSpec, SnapshotSequence]:
    """Parse a topology export back into a snapshot sequence.

    The edges of all snapshots are read into one integer array in a single
    pass, and each snapshot's set holds its slice as compiled arrays.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != _EXPORT_FORMAT:
        raise ValueError(f"unrecognised topology format in {path}")
    spec = ConstellationSpec(**doc["constellation"])
    entries = doc["snapshots"]
    edges = list(chain.from_iterable(entry["edges"] for entry in entries))
    kind = list(map(itemgetter("kind"), edges))
    kinds = tuple(sorted(set(kind)))
    code = {k: i for i, k in enumerate(kinds)}
    rows = np.empty((len(edges), 5), dtype=np.int64)
    rows[:, 0] = np.fromiter(map(code.__getitem__, kind), np.int64, len(edges))
    rows[:, 1:] = np.fromiter(chain.from_iterable(chain.from_iterable(
        map(itemgetter("a", "b"), edges))), np.int64, 4 * len(edges)).reshape(-1, 4)
    bounds = np.cumsum([0] + [len(entry["edges"]) for entry in entries]).tolist()
    snapshots = []
    for i, entry in enumerate(entries):
        arrays = canonical_arrays((spec.plane_count, spec.sats_per_plane), kinds,
                                  rows[bounds[i]:bounds[i + 1]])
        topo = TopologyEdgeSet(arrays, entry["start_s"], doc["method"])
        snapshots.append(TopologySnapshot(
            entry["start_s"], entry["end_s"], topo, topo.n_inter_plane))
    seq = SnapshotSequence(
        method=doc["method"],
        snapshots=tuple(snapshots),
        period_s=doc["period_s"],
        polar_border_deg=doc["polar_border_deg"],
        trigger=doc["trigger"],
        truncated_final=doc["truncated_final"],
    )
    return spec, seq


def _check_sequence(
    spec: ConstellationSpec, seq: SnapshotSequence, failures: list[str],
) -> None:
    """Internal oracles: tiling and per-snapshot link validity."""
    period = orbit_period(spec)
    total = sum(s.duration_s for s in seq.snapshots)
    if abs(total - period) > 1e-6:
        failures.append(
            f"{spec.name} {seq.method} {seq.polar_border_deg}: snapshots cover "
            f"{total!r} s of a {period!r} s period")
    for i in range(len(seq.snapshots) - 1):
        if abs(seq.snapshots[i].end_s - seq.snapshots[i + 1].start_s) > 1e-9:
            failures.append(
                f"{spec.name} {seq.method} {seq.polar_border_deg}: snapshots "
                f"{i} and {i + 1} are not contiguous")
    vis = make_visibility_model(spec, seq.polar_border_deg)
    for i, snap in enumerate(seq.snapshots):
        violations = validate_topology(spec, vis, snap.edges, snap.start_s + 1e-3)
        if violations:
            first = violations[0]
            failures.append(
                f"{spec.name} {seq.method} {seq.polar_border_deg} snapshot {i}: "
                f"{len(violations)} violations, first: {first.rule} {first.detail}")


def run_compare(config: ScenarioConfig) -> ComparisonReport:
    """Execute the full pipeline for a scenario.

    For every (method, polar border): build the snapshot sequence, run the
    internal validation oracles, compute utilization, optionally run the
    ground-pair delay experiment, and write snapshot CSVs plus topology
    exports under the configured output directory. A summary table and a
    comparison CSV are written at the end.
    """
    spec = config.constellation
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)

    rows: list[ComparisonRow] = []
    failures: list[str] = []
    for border in config.polar_borders_deg:
        analytic = analytic_summary(spec, border)
        for method in config.methods:
            seq = partition(
                spec, method, border,
                trigger=config.trigger,
                equal_time_delta_s=config.equal_time_delta_s,
            )
            _check_sequence(spec, seq, failures)
            util = utilization(seq, spec)

            series = None
            if config.source is not None and config.destination is not None:
                series = delay_experiment(
                    spec, method, border, config.source, config.destination,
                    config.duration_s, config.interval_s,
                    trigger=config.trigger, sequence=seq,
                )
                write_delay_csv(series, outdir / _name(spec, method, border, "delay.csv"))

            write_snapshot_csv(seq, outdir / _name(spec, method, border, "snapshots.csv"))
            export_topology(seq, spec, outdir / _name(spec, method, border, "topology.json"))

            durations = [s.duration_s for s in seq.snapshots]
            inters = [s.n_inter_plane for s in seq.snapshots]
            rows.append(ComparisonRow(
                method=method,
                polar_border_deg=border,
                snapshot_count=seq.count,
                duration_min_s=min(durations),
                duration_max_s=max(durations),
                n_inter_min=min(inters),
                n_inter_max=max(inters),
                utilization=util.value,
                average_delay_s=series.average_delay_s if series else None,
                unreachable_fraction=series.unreachable_fraction if series else None,
                analytic=analytic if method == METHOD_REASSIGNMENT else None,
            ))

    report = ComparisonReport(spec.name, rows, failures)
    (outdir / f"summary_{spec.name}.txt").write_text(format_summary(spec, report))
    _write_comparison_csv(report, outdir / f"comparison_{spec.name}.csv")
    return report


def _name(spec: ConstellationSpec, method: str, border: float, suffix: str) -> str:
    return f"{spec.name}_{method}_{border:g}_{suffix}"


def format_summary(spec: ConstellationSpec, report: ComparisonReport) -> str:
    """Fixed-point summary table; analytic and simulated reassignment
    figures are printed side by side as calc/sim."""
    lines = [
        f"snapshot partition summary: {spec.name} "
        f"({spec.plane_count}x{spec.sats_per_plane}, period "
        f"{orbit_period(spec):.2f} s)",
        "calc/sim columns pair the closed-form value with the simulated one",
        "",
        f"{'method':<14}{'L_pa':>6}{'S':>9}{'dur_min_s':>16}{'dur_max_s':>16}"
        f"{'n_inter':>12}{'util':>9}{'avg_delay_ms':>14}",
    ]
    for row in report.rows:
        if row.analytic is not None:
            s_txt = f"{row.analytic.snapshot_count}/{row.snapshot_count}"
            inter_txt = (f"{row.analytic.n_inter_plane}/"
                         f"{row.n_inter_min}" if row.n_inter_min == row.n_inter_max
                         else f"{row.analytic.n_inter_plane}/"
                              f"{row.n_inter_min}-{row.n_inter_max}")
            dmin = f"{row.analytic.snapshot_duration_s:.2f}/{row.duration_min_s:.2f}"
            dmax = f"{row.analytic.snapshot_duration_s:.2f}/{row.duration_max_s:.2f}"
        else:
            s_txt = str(row.snapshot_count)
            inter_txt = (str(row.n_inter_min) if row.n_inter_min == row.n_inter_max
                         else f"{row.n_inter_min}-{row.n_inter_max}")
            dmin = f"{row.duration_min_s:.2f}"
            dmax = f"{row.duration_max_s:.2f}"
        delay_txt = ("-" if row.average_delay_s is None
                     or math.isnan(row.average_delay_s)
                     else f"{1000.0 * row.average_delay_s:.3f}")
        lines.append(
            f"{row.method:<14}{row.polar_border_deg:>6g}{s_txt:>9}{dmin:>16}"
            f"{dmax:>16}{inter_txt:>12}{row.utilization:>9.4f}{delay_txt:>14}")
    if report.validation_failures:
        lines.append("")
        lines.append("VALIDATION FAILURES:")
        lines.extend(f"  {f}" for f in report.validation_failures)
    return "\n".join(lines) + "\n"


def _write_comparison_csv(report: ComparisonReport, path: Path) -> None:
    lines = ["method,polar_border_deg,snapshot_count,duration_min_s,duration_max_s,"
             "n_inter_min,n_inter_max,utilization,average_delay_s,"
             "unreachable_fraction,analytic_duration_s,analytic_n_inter,"
             "analytic_snapshot_count"]
    for row in report.rows:
        delay = "" if row.average_delay_s is None else repr(row.average_delay_s)
        unreach = ("" if row.unreachable_fraction is None
                   else repr(row.unreachable_fraction))
        if row.analytic is not None:
            extra = (f"{row.analytic.snapshot_duration_s!r},"
                     f"{row.analytic.n_inter_plane},{row.analytic.snapshot_count}")
        else:
            extra = ",,"
        lines.append(
            f"{row.method},{row.polar_border_deg!r},{row.snapshot_count},"
            f"{row.duration_min_s!r},{row.duration_max_s!r},{row.n_inter_min},"
            f"{row.n_inter_max},{row.utilization!r},{delay},{unreach},{extra}")
    path.write_text("\n".join(lines) + "\n")
