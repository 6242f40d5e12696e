"""polarsnap benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed picks the ground-station pairs;
the workload's inputs are written under ``bench/.work/``. Each repetition of
the timed body runs in a fresh interpreter (``rep.py``), one at a time, and
repetitions continue while another one still fits in S seconds (there is
always at least one). The first repetition makes every output check, later
ones the cheap checks. Timings are given at the reference speed of
``speed.py``. With ``--trace 0`` the
last line of standard output is a JSON object carrying every end-to-end
metric; with ``--trace 1`` each repetition is paired with a traced one and
the object carries the per-layer metrics instead. ``--save FILE`` also
writes the full record, with per-repetition figures and provenance.
"""
import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import at_reference_speed, chunk_mean_s
from tracer import OVERHEAD, metric_specs
from workloads import BENCH, ROOT, SCENARIOS, SRC, WORK_ROOT, WORKLOADS, write_inputs

SETUP_REPEATS = 3  # before the first repetition and after each one
SETUP_PROBE_S = 0.1  # chunks timed before and after each set-up
DEADLINE_S = 170.0
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import polarsnap; "
              "polarsnap.load_scenario(sys.argv[2])")


def _loadavg() -> list:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_state() -> dict:
    """HEAD and whether src/ or scenarios/ differ from it; nulls outside git."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = git("status", "--porcelain", "--", "src", "scenarios")
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        **_git_state(),
        "seed": seed,
        "loadavg_start": _loadavg(),
    }


class Runner:
    """Starts child interpreters one at a time, single-threaded, each bounded
    by the deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def _run(self, argv: list) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("benchmark deadline passed")
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL,
                                env=self.env)
        # A timer kills an overrunning child, so wait() can block in waitpid:
        # wait(timeout=...) polls and would add up to 50 ms to setup_s.
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")

    def setups(self, scenario: str) -> list:
        """``SETUP_REPEATS`` timings of a fresh import plus ``load_scenario``,
        each with the mean chunk time of the probe runs on either side of it.
        The set-up runs in another process, so the probe cannot run inside it."""
        times = []
        chunk_s = chunk_mean_s(SETUP_PROBE_S)
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self._run(["-c", SETUP_CODE, str(SRC), scenario])
            wall_s = time.perf_counter() - start
            before, chunk_s = chunk_s, chunk_mean_s(SETUP_PROBE_S)
            mean_chunk_s = (before + chunk_s) / 2
            times.append({"wall_s": wall_s, "chunk_s": mean_chunk_s,
                          "s": at_reference_speed(wall_s, mean_chunk_s)})
        return times

    def rep(self, traced: bool, check: bool) -> dict:
        result = self.work / "rep.json"
        result.unlink(missing_ok=True)
        self._run([str(BENCH / "rep.py"), "--work", str(self.work), "--result", str(result)]
                  + (["--trace"] if traced else []) + (["--check"] if check else []))
        return json.loads(result.read_text())


def _median(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list, setup: list) -> dict:
    return {
        "run_s": (_median(reps, "run_s"), "s"),
        "setup_s": (_median(setup, "s"), "s"),
        "reload_s": (_median(reps, "reload_s"), "s"),
        "peak_rss_mb": (_median(reps, "peak_rss_mb"), "MB"),
        "artifact_mb": (_median(reps, "artifact_bytes") / 1e6, "MB"),
    }


def per_layer(reps: list, traced: list) -> dict:
    units = {name: unit for name, unit, _ in metric_specs()}
    metrics = {name: (statistics.median(t["per_layer"][name] for t in traced), unit)
               for name, unit in units.items() if name != OVERHEAD}
    # Each traced repetition runs right after its untraced one: pairing them
    # keeps the machine's slow drift out of the difference.
    metrics[OVERHEAD] = (statistics.median(t["run_wall_s"] - r["run_wall_s"]
                                           for r, t in zip(reps, traced)), "s")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="polarsnap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a seconds-long smoke run")
    parser.add_argument("--save", type=Path, help="also write the full record here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = [p for p in (SRC / "polarsnap" / "__init__.py",
                           SCENARIOS / f"{workload.scenario}.scenario") if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(map(str, missing))}; run from a full "
              f"checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prov = provenance(args.seed)
    inputs = write_inputs(workload, args.seed, work, args.tiny)
    runner = Runner(work)

    setup, reps, traced = [], [], []
    start = time.monotonic()
    try:
        if not args.trace:
            setup += runner.setups(inputs["scenario"])
        while True:
            cycle = time.monotonic()
            reps.append(runner.rep(traced=False, check=not reps))
            if args.trace:
                traced.append(runner.rep(traced=True, check=False))
            else:
                setup += runner.setups(inputs["scenario"])
            now = time.monotonic()
            # The next cycle makes only the cheap checks.
            next_cycle = now - cycle - reps[-1]["check_s"]
            if now - start + next_cycle > args.seconds:
                break  # another cycle would overrun the measuring time
    except RuntimeError as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    prov["loadavg_end"] = _loadavg()

    every = reps + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    metrics = per_layer(reps, traced) if args.trace else end_to_end(reps, setup)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "tiny": args.tiny,
        "trace": args.trace,
        "provenance": prov,
        "setup_s": setup,
        "reps": reps,
        "traced": traced,
        "failed_fraction": failed / attempted,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {workload.name} seed {args.seed}: {len(reps)} repetitions"
          + (f", {len(traced)} traced" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_fraction {failed / attempted!r} ratio ({failed} of {attempted} checks)")
    for message in [m for r in every for m in r["messages"]][:10]:
        print(f"# check failed: {message}")
    print(f"# provenance {json.dumps(prov)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
