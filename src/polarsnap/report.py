"""Report assembly, CSV/JSON artifacts, and the full comparison pipeline.

All outputs are deterministic: edges are sorted canonically, floats are
serialised with repr round-tripping, and nothing depends on wall-clock
time, so identical scenarios produce byte-identical files. Topology
exports are written and read in format 3 (``polarsnap-topology/3``) only:
an edge table, and each snapshot's rows of it as a hex bit mask.
"""
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .geometry import (
    ConstellationSpec,
    check_polar_border,
    instant_blocks,
    is_finite,
    orbit_period,
)
from .links import (
    HORIZONTAL,
    INDEX_DTYPE,
    INTRA_PLANE,
    KIND_DTYPE,
    KINDS,
    OBLIQUE,
    TRIGGER_ENTER,
    TRIGGER_EXIT,
    TopologyEdgeSet,
    edge_columns,
)
from .routing import DelaySeries, SendGrid, delay_experiment, route_sequences, utilization
from .scenario import MAX_SATELLITES, ScenarioConfig
from .snapshots import (
    METHOD_REASSIGNMENT,
    AnalyticSummary,
    SnapshotSequence,
    TopologySnapshot,
    analytic_summary,
    partition,
    validate_sequence,
)

_EXPORT_FORMAT = "polarsnap-topology/3"
_ROUTING_EDGES = 1 << 20  # most snapshot edges run_compare holds for one routing pass
_HEAD_KEYS = ("constellation", "method", "polar_border_deg", "trigger", "period_s",
              "truncated_final", "snapshots", "edges")


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


def write_snapshot_csv(seq: SnapshotSequence, path: str | Path) -> None:
    """One row per snapshot: bounds, duration, and edge counts by kind."""
    lines = ["method,index,start_s,end_s,duration_s,n_intra,n_oblique,"
             "n_horizontal,n_inter_total"]
    for i, snap in enumerate(seq.snapshots):
        counts = ",".join(str(snap.edges.count(k)) for k in (INTRA_PLANE, OBLIQUE, HORIZONTAL))
        lines.append(f"{seq.method},{i},{snap.start_s!r},{snap.end_s!r},{snap.duration_s!r},"
                     f"{counts},{snap.n_inter_plane}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_delay_csv(series: DelaySeries, path: str | Path) -> None:
    lines = ["send_time_s,method,polar_border_deg,delay_s,hops,reachable"]
    for s in series.samples:
        delay = repr(s.delay_s) if s.reachable else "nan"
        lines.append(
            f"{s.send_time_s!r},{series.method},{series.polar_border_deg!r},"
            f"{delay},{s.hops},{str(s.reachable).lower()}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_topology(
    seq: SnapshotSequence, spec: ConstellationSpec, path: str | Path,
) -> None:
    """Write a sequence as a single ``polarsnap-topology/3`` JSON document.

    The top-level ``edges`` table lists each distinct edge of the sequence
    once, in canonical order, as ``[kind, plane_a, index_a, plane_b,
    index_b]``. Each snapshot holds its rows of that R-row table as
    ``edge_mask``: 2 * ceil(R / 8) lowercase hex digits whose bit i
    (``np.packbits`` order, most significant bit first) is set exactly
    when row i is in the snapshot; the padding bits are zero. The document
    is indented as by ``json.dumps(doc, indent=1, sort_keys=True)``, except
    that each table row and each snapshot takes one line. Byte-stable for
    identical inputs; round-trips through ``load_topology``.

    Every set, drawn, loaded or built by ``from_edges``, takes one path.
    The distinct sets go in blocks (``instant_blocks``): each block marks
    its canonical keys in one boolean array over the shape's
    ``len(KINDS) * n * n`` keys (12 MB at ``MAX_SATELLITES``), whose set
    entries are the table. Then each block's masks are one (sets x rows)
    membership table, filled by one ``searchsorted`` and packed along its
    rows.

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
        "edges": [],
        "snapshots": [],
    }, indent=1, sort_keys=True)

    # The table is the sorted distinct (kind, a, b) keys; no array spans every
    # snapshot's edges.
    n, m = spec.total_satellites, spec.sats_per_plane
    sets = list({id(snap.edges): snap.edges for snap in seq.snapshots}.values())
    for topo in sets:
        topo.check_shape(spec)

    def keys(block: list[TopologyEdgeSet]) -> np.ndarray:
        kind, a, b = (np.concatenate([getattr(t, x) for t in block]) for x in ("kind", "a", "b"))
        return (kind.astype(np.int64) * n + a) * n + b

    space = np.zeros(len(KINDS) * n * n, dtype=bool)
    for block in instant_blocks(len(sets), max(1, *map(len, sets))):
        space[keys(sets[block])] = True
    unique = np.flatnonzero(space)
    del space
    names = [json.dumps(kind) for kind in KINDS]
    labels = [f"{s // m + 1}, {s % m + 1}" for s in range(n)]
    table = [f"[{names[k]}, {labels[a]}, {labels[b]}]"
             for k, a, b in zip(*(x.tolist() for x in (unique // (n * n), unique // n % n,
                                                       unique % n)))]
    masks, rows = {}, len(unique)
    for block in instant_blocks(len(sets), max(1, rows)):
        part = sets[block]
        member = np.zeros((len(part), rows), dtype=bool)
        member[np.repeat(np.arange(len(part)), [len(t) for t in part]),
               np.searchsorted(unique, keys(part))] = True
        masks.update(zip(map(id, part), (row.tobytes().hex()
                                         for row in np.packbits(member, axis=1))))
    snapshots = [f'{{"edge_mask": "{masks[id(snap.edges)]}", "end_s": {_number(snap.end_s)}, '
                 f'"index": {i}, "start_s": {_number(snap.start_s)}}}'
                 for i, snap in enumerate(seq.snapshots)]
    for key, lines in (("edges", table), ("snapshots", snapshots)):
        body = "[\n" + ",\n".join(f"  {line}" for line in lines) + "\n ]" if lines else "[]"
        head = head.replace(f'\n "{key}": []', f'\n "{key}": {body}', 1)
    Path(path).write_text(head + "\n")


def load_topology(path: str | Path) -> tuple[ConstellationSpec, SnapshotSequence]:
    """Parse a topology export back into a snapshot sequence.

    Only format 3 is read. After the header, a file costs a fixed handful of
    array passes. The edge table is flattened once into a kind column and
    four integer columns, and accepted when each row's endpoints are in
    order and the (kind, a, b) keys strictly increase: then row i is edge i
    of the canonical set. All snapshot entries are checked at once and
    their masks decoded by one ``bytes.fromhex``; only when that check
    fails does a loop over the entries run, to name the first bad snapshot.
    One set is built per distinct mask text, from one gather of the table.

    Raises:
        ValueError: If the file is not a well-formed topology export, holds
            a header value the writer never writes, or names a kind outside
            ``KINDS`` or more than ``MAX_SATELLITES`` satellites. The message
            names the file and the key or snapshot.
    """
    try:
        return _parse_topology(json.loads(Path(path).read_text()))
    except (ValueError, RecursionError) as exc:  # JSON nested past the recursion limit
        raise ValueError(f"{path}: {exc}") from exc


def _parse_head(doc) -> tuple[ConstellationSpec, tuple[int, int]]:
    """The export's constellation and shape, once every header value and
    the presence of a non-empty snapshot list are checked."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != _EXPORT_FORMAT:
        raise ValueError(f"unrecognised topology format {fmt!r}")
    _require_keys(doc, _HEAD_KEYS, "")
    head = doc["constellation"]
    _require_keys(head, ("plane_count", "sats_per_plane"), "constellation: ")
    shape = (head["plane_count"], head["sats_per_plane"])
    if not all(type(x) is int for x in shape):
        raise ValueError(f"plane_count and sats_per_plane must be integers, got {shape}")
    try:
        spec = ConstellationSpec(**head)
    except TypeError as exc:
        raise ValueError(f"bad constellation: {exc}") from exc
    period, entries = doc["period_s"], doc["snapshots"]
    if shape[0] * shape[1] > MAX_SATELLITES:
        raise ValueError(f"plane_count x sats_per_plane = {shape[0]} x {shape[1]} satellites, "
                         f"above the limit of {MAX_SATELLITES}")
    if not (_is_number(period) and period > 0):
        raise ValueError(f"period_s must be a positive number, got {period!r}")
    if not _is_number(doc["polar_border_deg"]):
        raise ValueError(f"polar_border_deg must be a number, got {doc['polar_border_deg']!r}")
    check_polar_border(doc["polar_border_deg"])
    if type(doc["method"]) is not str:
        raise ValueError(f"method must be a string, got {doc['method']!r}")
    if doc["trigger"] not in (TRIGGER_ENTER, TRIGGER_EXIT, None):
        raise ValueError(f"trigger must be 'enter', 'exit' or null, got {doc['trigger']!r}")
    if type(doc["truncated_final"]) is not bool:
        raise ValueError(f"truncated_final must be true or false, got {doc['truncated_final']!r}")
    if type(entries) is not list or not entries:
        raise ValueError("snapshots must be a non-empty list")
    return spec, shape


def _parse_topology(doc) -> tuple[ConstellationSpec, SnapshotSequence]:
    spec, shape = _parse_head(doc)
    entries = doc["snapshots"]
    table = _edge_table(shape, doc["edges"])
    rows = len(table)
    width = (rows + 7) // 8
    bulk = _read_entries(entries, width)
    if bulk is None:
        _name_bad_entry(entries, rows, width)
    texts, times, packed = bulk
    spare = (1 << (8 * width - rows)) - 1  # the last byte's bits past the table
    if spare and (padded := packed[:, -1] & spare).any():
        raise ValueError(f"snapshot {int(padded.argmax())}: edge_mask sets a bit past the "
                         f"{rows}-row edges table")

    bad = times[0] > times[1]
    bad[1:] |= times[0, 1:] < times[1, :-1]
    if bad.any():
        i = int(bad.argmax())
        start, end = times[:, i].tolist()
        raise ValueError(f"snapshot {i}: ends at {end!r}, before its start {start!r}"
                         if start > end else f"snapshot {i}: starts at {start!r}, before "
                         f"snapshot {i - 1} ends at {times[1, i - 1].item()!r}")

    # One set per distinct mask text, from its first snapshot's row: one gather
    # of the table's columns over every distinct mask's rows, cut per set, so
    # the file's sets are slices of three arrays.
    first = dict(zip(reversed(texts), range(len(texts) - 1, -1, -1)))
    member = np.unpackbits(packed[list(first.values())], axis=1, count=rows).view(bool)
    counts = np.count_nonzero(member, axis=1)
    picked = np.flatnonzero(member) - np.repeat(np.arange(len(first)) * rows, counts)
    kind, a, b = (x.take(picked) for x in (table.kind, table.a, table.b))
    cuts = np.cumsum(counts).tolist()
    sets = {text: TopologyEdgeSet(shape, kind[lo:hi], a[lo:hi], b[lo:hi])
            for text, lo, hi in zip(first, [0] + cuts, cuts)}
    snapshots = tuple(map(TopologySnapshot, *times.tolist(), map(sets.__getitem__, texts)))
    seq = SnapshotSequence(doc["method"], snapshots, doc["period_s"], doc["polar_border_deg"],
                           trigger=doc["trigger"], truncated_final=doc["truncated_final"])
    return spec, seq


_ENTRY_KEYS = itemgetter("index", "start_s", "end_s", "edge_mask")


def _read_entries(entries: list, width: int) -> tuple[tuple, np.ndarray, np.ndarray] | None:
    """Every snapshot's mask text, its (2, snapshots) bounds and its decoded
    (snapshots x width) mask bytes, checked in bulk; None when some entry
    fails a check that ``_name_bad_entry`` makes."""
    n = len(entries)
    try:
        index, start, end, texts = zip(*map(_ENTRY_KEYS, entries))
        if not ({*map(type, start), *map(type, end)} <= {int, float}
                and set(map(type, index)) == {int} and index == tuple(range(n))
                and set(map(len, texts)) == {2 * width}):
            return None
        times = np.array((start, end), dtype=float)
        packed = bytes.fromhex("".join(texts))  # skips whitespace: the length shows it
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if len(packed) != n * width or not np.isfinite(times).all():
        return None
    return texts, times, np.frombuffer(packed, np.uint8).reshape(n, width)


def _name_bad_entry(entries: list, rows: int, width: int) -> None:
    """Raise ValueError naming the first snapshot entry that fails a check."""
    for i, entry in enumerate(entries):
        where = f"snapshot {i}: "
        _require_keys(entry, ("index", "start_s", "end_s", "edge_mask"), where)
        if type(entry["index"]) is not int or entry["index"] != i:
            raise ValueError(f"{where}index {entry['index']!r}, expected {i}")
        if not (_is_number(entry["start_s"]) and _is_number(entry["end_s"])):
            raise ValueError(f"{where}bounds must be finite numbers, got "
                             f"{entry['start_s']!r} and {entry['end_s']!r}")
        text = entry["edge_mask"]
        try:  # fromhex skips whitespace, so the decoded length is checked too
            mask = bytes.fromhex(text) if type(text) is str and len(text) == 2 * width else None
        except ValueError:
            mask = None
        if mask is None or len(mask) != width:
            raise ValueError(f"{where}edge_mask must be {2 * width} hex digits for the "
                             f"{rows}-row edges table")
    raise AssertionError("the bulk entry check rejected entries that each pass")


def _require_keys(obj, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{where}missing key {missing[0]!r}")


def _number(x) -> str:
    """x as ``json.dumps`` writes it: a finite float as its repr."""
    return repr(x) if type(x) is float and math.isfinite(x) else json.dumps(x)


def _is_number(x) -> bool:
    """A finite JSON number: an int or float, not a bool, and an int only
    within float range."""
    return type(x) in (int, float) and is_finite(x)


def _edge_table(shape: tuple[int, int], table) -> TopologyEdgeSet:
    """The export's edge table as an edge set whose edge i is row i: each
    row's endpoints in order and the rows' (kind, a, b) keys strictly
    increasing, which is canonical order without duplicates."""
    if not (type(table) is list and set(map(type, table)) <= {list}
            and set(map(len, table)) <= {5}):
        raise ValueError("edges table rows must be [kind, plane_a, index_a, plane_b, index_b]")
    values = list(chain.from_iterable(table))
    names = values[0::5]
    del values[0::5]
    if not (set(map(type, names)) <= {str} and set(map(type, values)) <= {int}):
        raise ValueError("edges table: kinds must be strings and endpoints integers")
    try:
        kind, a, b = edge_columns(shape, names,
                                  np.fromiter(values, np.int64, len(values)).reshape(-1, 4))
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"edges table: {exc}") from exc
    n = shape[0] * shape[1]
    if not ((a <= b).all() and (np.diff((kind * n + a) * n + b) > 0).all()):
        raise ValueError("edges table: rows must be distinct and in canonical order")
    return TopologyEdgeSet(shape, kind.astype(KIND_DTYPE), a.astype(INDEX_DTYPE),
                           b.astype(INDEX_DTYPE))


def run_compare(config: ScenarioConfig) -> ComparisonReport:
    """Execute the full pipeline for a scenario: the one behind the
    ``simulate``, ``route`` and ``compare`` commands.

    For every (method, polar border): build the snapshot sequence, run the
    internal validation oracles, compute utilization, run the ground-pair
    delay experiment when the scenario names both stations, and write
    snapshot CSVs plus topology exports under the configured output
    directory. A summary table and a comparison CSV are written at the end.
    All delay experiments share one ``SendGrid``: the stations attach once
    per send. Sequences are held until their edges exceed ``_ROUTING_EDGES``,
    routed in one ``route_sequences`` pass, then read from its memo and
    released, before the next sequence is partitioned.

    Raises:
        ScenarioError: If the output directory cannot be created, for
            instance because its path names an existing file.
    """
    spec = config.constellation
    outdir = config.output_dir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {outdir}: {exc.strerror}") from None

    rows: list[ComparisonRow] = []
    failures: list[str] = []
    grid = None
    if config.source is not None and config.destination is not None:
        grid = SendGrid(spec, config.source, config.destination,
                        config.duration_s, config.interval_s)
    waiting, held = [], 0  # sequences still to route, and their snapshots' edges

    def finish() -> None:
        if grid is not None and waiting:
            route_sequences(grid, [seq for _, _, seq, _ in waiting])
        for method, border, seq, analytic in waiting:
            series = None
            if grid is not None:
                series = delay_experiment(spec, method, border, config.source,
                                          config.destination, config.duration_s,
                                          config.interval_s, trigger=config.trigger,
                                          sequence=seq, grid=grid)
                write_delay_csv(series, outdir / _name(spec, method, border, "delay.csv"))
            durations = [s.duration_s for s in seq.snapshots]
            inters = [s.n_inter_plane for s in seq.snapshots]
            rows.append(ComparisonRow(
                method=method, polar_border_deg=border, snapshot_count=seq.count,
                duration_min_s=min(durations), duration_max_s=max(durations),
                n_inter_min=min(inters), n_inter_max=max(inters),
                utilization=utilization(seq, spec),
                average_delay_s=series.average_delay_s if series else None,
                unreachable_fraction=series.unreachable_fraction if series else None,
                analytic=analytic if method == METHOD_REASSIGNMENT else None))
        waiting.clear()

    for border in config.polar_borders_deg:
        analytic = analytic_summary(spec, border)
        for method in config.methods:
            seq = partition(spec, method, border, trigger=config.trigger,
                            equal_time_delta_s=config.equal_time_delta_s)
            failures += validate_sequence(spec, seq)
            write_snapshot_csv(seq, outdir / _name(spec, method, border, "snapshots.csv"))
            export_topology(seq, spec, outdir / _name(spec, method, border, "topology.json"))
            waiting.append((method, border, seq, analytic))
            held += sum(len(snap.edges) for snap in seq.snapshots)
            del seq  # held by waiting alone, so finish() releases it before the next partition
            if grid is None or held > _ROUTING_EDGES:
                finish()
                held = 0
    finish()

    report = ComparisonReport(spec.name, rows, failures)
    (outdir / f"summary_{spec.name}.txt").write_text(format_summary(spec, report))
    _write_comparison_csv(report, outdir / f"comparison_{spec.name}.csv")
    return report


def border_name(border: float) -> str:
    """A border as printed and in file names: ``f"{border:g}"`` when that
    reads back as the same float, else ``repr(border)``, so distinct
    borders get distinct names."""
    name = f"{border:g}"
    return name if float(name) == border else repr(border)


def _name(spec: ConstellationSpec, method: str, border: float, suffix: str) -> str:
    return f"{spec.name}_{method}_{border_name(border)}_{suffix}"


def delay_ms(delay_s: float | None) -> str:
    """A mean delay as the summary and ``route`` print it: milliseconds to
    three places, or ``-`` when nothing was routed or no send reached."""
    return "-" if delay_s is None or math.isnan(delay_s) else f"{1000.0 * delay_s:.3f}"


def format_summary(spec: ConstellationSpec, report: ComparisonReport) -> str:
    """Fixed-point summary table; analytic and simulated reassignment figures are
    printed side by side as calc/sim. Cells stay a space apart, however wide."""
    widths = (6, 9, 16, 16, 12, 9, 14)  # of the columns after the method

    def line(method: str, *cells: str) -> str:
        return f"{method:<14}" + "".join(f" {c:>{w - 1}}" for c, w in zip(cells, widths))

    lines = [
        f"snapshot partition summary: {spec.name} "
        f"({spec.plane_count}x{spec.sats_per_plane}, period "
        f"{orbit_period(spec):.2f} s)",
        "calc/sim columns pair the closed-form value with the simulated one",
        "",
        line(*"method L_pa S dur_min_s dur_max_s n_inter util avg_delay_ms".split()),
    ]
    for row in report.rows:
        inter = (str(row.n_inter_min) if row.n_inter_min == row.n_inter_max
                 else f"{row.n_inter_min}-{row.n_inter_max}")
        cells = [str(row.snapshot_count), f"{row.duration_min_s:.2f}",
                 f"{row.duration_max_s:.2f}", inter]
        if row.analytic is not None:
            a = row.analytic
            calc = (a.snapshot_count, f"{a.snapshot_duration_s:.2f}",
                    f"{a.snapshot_duration_s:.2f}", a.n_inter_plane)
            cells = [f"{c}/{sim}" for c, sim in zip(calc, cells)]
        lines.append(line(row.method, border_name(row.polar_border_deg), *cells,
                          f"{row.utilization:.4f}", delay_ms(row.average_delay_s)))
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
        a = row.analytic
        analytic = (a.snapshot_duration_s, a.n_inter_plane, a.snapshot_count) if a else (None,) * 3
        cells = (row.polar_border_deg, row.snapshot_count, row.duration_min_s, row.duration_max_s,
                 row.n_inter_min, row.n_inter_max, row.utilization, row.average_delay_s,
                 row.unreachable_fraction, *analytic)
        lines.append(",".join([row.method] + ["" if x is None else repr(x) for x in cells]))
    path.write_text("\n".join(lines) + "\n")
