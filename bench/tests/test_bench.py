"""Guards for the benchmark itself.

    python3 -m pytest -q bench/tests

Runs every workload at ``--tiny`` size: untraced once, traced twice. Checks
that each wrapped function is called on the workloads that exercise it and
not on the others, that every count repeats exactly between traced runs,
and that the output oracle rejects a quietly dropped send.
"""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from check import Checker, DelayOracle, check_sends  # noqa: E402
from run import end_to_end  # noqa: E402
from speed import INTERVAL_S, Probe  # noqa: E402
from tracer import OVERHEAD, metric_specs, traced_names  # noqa: E402
from workloads import ROOT, SRC, WORK_ROOT, WORKLOADS  # noqa: E402

COMPARE = {name for name, w in WORKLOADS.items() if w.kind == "compare"}

# Workloads on which each wrapped function must be called; on the others it
# must not be.
EXERCISED = {name: set(WORKLOADS) for name in traced_names()}
EXERCISED.update({name: COMPARE for name in (
    "links.validate_topology", "report.export_topology", "report.load_topology",
    "report.run_compare", "cli.main")})

COUNT_STATS = (".calls", ".sends", ".unreachable", ".events", ".snapshots",
               ".bytes", ".violations")
SMOKE_LIMIT_S = 60.0


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # BENCHMARK.json lists the workloads the gate measures; run.py runs more.
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    fake = {"run_s": 1.0, "reload_s": 1.0, "peak_rss_mb": 1.0, "artifact_bytes": 1}
    assert ({n: u for n, (_, u) in end_to_end([fake], [{"s": 1.0}]).items()}
            == {m["name"]: m["unit"] for m in spec["end_to_end"]})


def test_probe_samples_inside_the_region_and_subtracts_itself():
    with Probe() as probe:
        end = time.perf_counter() + 20 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 10
    assert probe.net_s == pytest.approx(probe.wall_s - sum(probe.samples))
    assert 0 < probe.net_s < probe.wall_s and probe.scaled_s > 0
    with Probe() as empty:  # shorter than one interval: one sample, taken after
        pass
    assert len(empty.samples) == 1 and empty.net_s == empty.wall_s


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    assert result["elapsed_s"] < SMOKE_LIMIT_S


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_coverage_and_counts_repeat(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    metrics = first["metrics"]
    assert set(metrics) == {name for name, _, _ in metric_specs()}
    assert OVERHEAD in metrics
    for name, workloads in EXERCISED.items():
        calls = metrics[f"{name}.calls"]["value"]
        assert (calls > 0) == (workload in workloads), (name, calls)
    counts = {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_STATS)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}


@pytest.fixture(scope="module")
def iridium_delay_csv():
    """A 30-minute iridium delay series at 60 degrees, written by polarsnap."""
    sys.path.insert(0, str(SRC))
    import polarsnap
    config = polarsnap.load_scenario(ROOT / "scenarios" / "iridium.scenario")
    spec = config.constellation
    seq = polarsnap.partition(spec, "reassignment", 60.0)
    series = polarsnap.delay_experiment(
        spec, "reassignment", 60.0, config.source, config.destination,
        1800.0, 60.0, sequence=seq)
    path = WORK_ROOT / "tests" / "delay.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    polarsnap.report.write_delay_csv(series, path)
    return polarsnap, config, seq, path


def _check(iridium_delay_csv, lines):
    ps, config, seq, path = iridium_delay_csv
    mutated = path.with_name("mutated.csv")
    mutated.write_text("\n".join(lines) + "\n")
    chk = Checker()
    check_sends(chk, DelayOracle(ps, config.constellation), seq, config.source,
                config.destination, mutated, 1800.0, 60.0, seed=0)
    return chk


def test_oracle_accepts_last_ulp_changes(iridium_delay_csv, monkeypatch):
    monkeypatch.setattr(check, "SAMPLE_RATE", 1.0)
    lines = iridium_delay_csv[3].read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[3] != "nan":
            fields[3] = repr(math.nextafter(float(fields[3]), math.inf))
            lines[i] = ",".join(fields)
    chk = _check(iridium_delay_csv, lines)
    assert chk.failed == 0 and chk.attempted == len(lines)


def test_oracle_rejects_a_dropped_send(iridium_delay_csv):
    """At the default 1-in-50 sample: every unreachable send is re-checked."""
    lines = iridium_delay_csv[3].read_text().splitlines()
    assert _check(iridium_delay_csv, lines[:-1]).failed == 1
    row = next(i for i, line in enumerate(lines) if line.endswith("true"))
    fields = lines[row].split(",")
    fields[3:] = ["nan", "0", "false"]
    lines[row] = ",".join(fields)
    assert _check(iridium_delay_csv, lines).failed == 1
