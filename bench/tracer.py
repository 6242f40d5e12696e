"""Span tracer that wraps polarsnap's public functions from outside the package.

polarsnap modules import functions by name (``routing`` binds
``all_positions_km``, ``report`` binds ``delay_experiment``), so a wrapper
replaces the name in every ``polarsnap`` module that binds the function, not
only in the defining module. Spans nest through a stack and stay in memory;
``metrics`` reduces them to the per-layer figures once the run is over.

Small helpers called once per edge or per sample (``sat_to_index``,
``phase_latitude_deg``, ...) are not wrapped: a wrapper per call would cost
more than the work it measures.
"""
import functools
import statistics
import sys
import time
from pathlib import Path


def _path_bytes(position):
    def extract(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[position]
        return {"bytes": Path(path).stat().st_size}
    return extract


def _events(args, kwargs, result):
    return {"events": len(result)}


def _snapshots(args, kwargs, result):
    return {"snapshots": len(result.snapshots)}


def _violations(args, kwargs, result):
    return {"violations": len(result)}


def _sends(args, kwargs, result):
    return {"sends": len(result.samples),
            "unreachable": sum(1 for s in result.samples if not s.reachable)}


def _path(args, kwargs, result):
    return {"reachable": int(result.reachable),
            "hops": len(result.path) - 1 if result.reachable else 0}


# module -> {function: extractor of per-call counters from (args, kwargs, result)}
TRACED = {
    "scenario": {"load_scenario": None},
    "geometry": {"all_positions_km": None, "build_ls_state": None},
    "snapshots": {
        "enumerate_events": _events,
        "partition_reassignment": _snapshots,
        "partition_fixed": _snapshots,
        "partition_equal_time": _snapshots,
    },
    "links": {"fixed_topology": None, "reassign_topology": None,
              "validate_topology": _violations},
    "routing": {"delay_experiment": _sends, "attach_ground": None,
                "shortest_delay": _path},
    "report": {
        "export_topology": _path_bytes(2),
        "write_snapshot_csv": _path_bytes(1),
        "write_delay_csv": _path_bytes(1),
        "load_topology": None,
        "run_compare": None,
    },
    "cli": {"main": None},
}

# Counters summed over calls, by function, with their unit and direction.
_SUMMED = {
    "snapshots.enumerate_events": {"events": ("count", "lower")},
    "snapshots.partition_reassignment": {"snapshots": ("count", "lower")},
    "snapshots.partition_fixed": {"snapshots": ("count", "lower")},
    "snapshots.partition_equal_time": {"snapshots": ("count", "lower")},
    "links.validate_topology": {"violations": ("count", "lower")},
    "routing.delay_experiment": {"sends": ("count", "higher"),
                                 "unreachable": ("count", "lower")},
    "report.export_topology": {"bytes": ("B", "lower")},
    "report.write_snapshot_csv": {"bytes": ("B", "lower")},
    "report.write_delay_csv": {"bytes": ("B", "lower")},
}

# Figures derived from a function's spans rather than summed.
_DERIVED = {
    "routing.delay_experiment": {"sends_per_s": ("1/s", "higher")},
    "routing.shortest_delay": {
        "p50_ms": ("ms", "lower"), "p99_ms": ("ms", "lower"),
        "reachable_ratio": ("ratio", "higher"), "mean_hops": ("hops", "lower"),
    },
}

OVERHEAD = "trace.overhead_s"


def traced_names() -> list:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in print order."""
    specs = []
    for name in traced_names():
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
        for table in (_SUMMED, _DERIVED):
            specs += [(f"{name}.{stat}", unit, better)
                      for stat, (unit, better) in table.get(name, {}).items()]
    specs.append((OVERHEAD, "s", "lower"))
    return specs


def rebind(original, replacement) -> list:
    """Point every ``polarsnap`` module's binding of ``original`` at
    ``replacement``; return the undo list for ``restore``."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "polarsnap" and not module_name.startswith("polarsnap."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Wraps the functions in ``TRACED`` and records one span per call."""

    def __init__(self):
        # [name, start, end, parent index, counters]
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def install(self) -> None:
        for module, fns in TRACED.items():
            mod = sys.modules[f"polarsnap.{module}"]
            for fn, extract in fns.items():
                original = getattr(mod, fn)
                self._undo += rebind(original, self._wrap(f"{module}.{fn}", original, extract))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, result)
            return result
        return wrapper

    def metrics(self) -> dict:
        """Per-layer figures: calls, inclusive and self time, counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {name: [] for name in traced_names()}
        for i, (name, start, end, _, counters) in enumerate(self.spans):
            by_name[name].append((end - start, end - start - child[i], counters or {}))

        out = {}
        for name, calls in by_name.items():
            total = sum(c[0] for c in calls)
            out[f"{name}.calls"] = len(calls)
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = sum(c[1] for c in calls)
            for stat in _SUMMED.get(name, {}):
                out[f"{name}.{stat}"] = sum(c[2][stat] for c in calls)
        sends = out["routing.delay_experiment.sends"]
        seconds = out["routing.delay_experiment.s"]
        out["routing.delay_experiment.sends_per_s"] = sends / seconds if seconds else 0.0

        paths = by_name["routing.shortest_delay"]
        durations_ms = sorted(1000.0 * c[0] for c in paths)
        reached = [c[2]["hops"] for c in paths if c[2]["reachable"]]
        out["routing.shortest_delay.p50_ms"] = _percentile(durations_ms, 0.50)
        out["routing.shortest_delay.p99_ms"] = _percentile(durations_ms, 0.99)
        out["routing.shortest_delay.reachable_ratio"] = (
            len(reached) / len(paths) if paths else 0.0)
        out["routing.shortest_delay.mean_hops"] = (
            statistics.fmean(reached) if reached else 0.0)
        return out


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]
