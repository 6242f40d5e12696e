"""One repetition of a workload in a fresh interpreter.

    python3 bench/rep.py --work DIR --result FILE [--trace] [--check]

Reads ``DIR/inputs.json`` (written by ``run.py``), runs the timed body, times
the read-back of what it wrote, checks the outputs and writes one JSON
record to FILE. Untraced, the body and the read-back each run under a speed
probe (``speed.py``) and their times are also given at the reference speed.
With ``--trace`` the polarsnap functions are wrapped by the tracer for the
body and the read-back instead, and the per-layer figures are added.
``--check`` runs every output check; without it only the cheap ones run
(exit status, validation, file counts, the send grid).
"""
import argparse
import csv
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from check import Checker, check_compare, check_route
from speed import Probe
from tracer import Tracer
from workloads import SRC, WORKLOADS, run_body


def _import_polarsnap():
    sys.path.insert(0, str(SRC))
    import polarsnap
    import polarsnap.cli  # noqa: F401  (the package does not import it)
    if SRC not in Path(polarsnap.__file__).resolve().parents:
        raise SystemExit(f"polarsnap imported from {polarsnap.__file__}, not {SRC}")
    return polarsnap


def _steal_s() -> float:
    """CPU time the hypervisor has given to others, summed over this VM's
    CPUs; 0.0 where ``/proc/stat`` cannot be read."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _read_delay_csvs(paths: list) -> None:
    for path in paths:
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                float(row["send_time_s"]), float(row["delay_s"]), int(row["hops"])


def _reload(ps, workload, out: Path) -> None:
    """Passes over the read side of the artifacts: ``load_topology`` on every
    export, or for the route workload the delay CSVs. Each result is dropped
    at once, as a reader would, so only one is alive at a time."""
    exports = sorted(out.glob("*_topology.json"))
    delays = sorted(out.glob("*_delay.csv"))
    for _ in range(workload.reload_passes):
        if workload.kind == "compare":
            for path in exports:
                ps.load_topology(path)
        else:
            _read_delay_csvs(delays)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    inputs = json.loads((args.work / "inputs.json").read_text())
    workload = WORKLOADS[inputs["workload"]]
    out = Path(inputs["out"])
    shutil.rmtree(out, ignore_errors=True)
    ps = _import_polarsnap()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    steal, cpu = _steal_s(), time.process_time()
    with Probe() if not tracer else nullcontext() as body:
        start = time.perf_counter()
        state = run_body(ps, workload, inputs)
        run_wall_s = time.perf_counter() - start
    steal, cpu = _steal_s() - steal, time.process_time() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    with Probe() if not tracer else nullcontext() as reload:
        start = time.perf_counter()
        _reload(ps, workload, out)
        reload_wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()

    start = time.perf_counter()
    chk = Checker()
    if workload.kind == "compare":
        check_compare(ps, chk, inputs, state, full=args.check)
    else:
        check_route(ps, chk, inputs, state, full=args.check)

    record = {
        # Wall time without the probe's own chunks; traced, plain wall time.
        "run_wall_s": body.net_s if body else run_wall_s,
        "reload_wall_s": (reload.net_s if reload else reload_wall_s) / workload.reload_passes,
        # For explaining outliers: CPU time of the body, probe included, and
        # the VM's steal time while it ran.
        "run_cpu_s": cpu,
        "run_steal_s": steal,
        "peak_rss_mb": peak_rss_mb,
        "artifact_bytes": artifact_bytes,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "messages": chk.messages,
        "check_s": time.perf_counter() - start,
        "per_layer": tracer.metrics() if tracer else None,
    }
    if not tracer:
        record.update({
            "run_s": body.scaled_s,
            "run_chunk_s": body.chunk_s,
            "reload_s": reload.scaled_s / workload.reload_passes,
            "reload_chunk_s": reload.chunk_s,
        })
    args.result.write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
