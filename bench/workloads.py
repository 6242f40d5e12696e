"""Benchmark workloads: their definitions, seeded inputs and timed bodies.

The parent process (``run.py``) calls ``write_inputs`` to turn a seed into a
scenario file plus ``inputs.json`` under the workload's work directory. Each
repetition (``rep.py``) then calls ``run_body`` in a fresh interpreter with
polarsnap imported from ``src/``.
"""
import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK_ROOT = BENCH / ".work"

# The one polar border of the route workload and of every tiny run.
SINGLE_BORDER_DEG = 60.0
MIN_ELEVATION_DEG = 10.0
STATION_LAT_DEG = (-60.0, 60.0)
STATION_LON_DEG = (-180.0, 180.0)
SHIPPED_PAIR = (("Beijing", 39.904, 116.407), ("London", 51.507, -0.128))
EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str         # stem of the shipped scenario file
    kind: str             # "compare": the CLI; "route": library calls
    separations_km: tuple  # one ground-station pair per great-circle distance
    duration_s: float     # experiment length at full size
    tiny_duration_s: float
    reload_passes: int    # read-back passes per repetition; fixed, so traced counts repeat
    why: str


def _separation_km(a, b) -> float:
    """Great-circle distance between two (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (*a, *b))
    h = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def _destination(lat, lon, bearing, distance_km):
    """Point at a great-circle distance and initial bearing from (lat, lon)."""
    lat1, lon1, brg = map(math.radians, (lat, lon, bearing))
    d = distance_km / EARTH_RADIUS_KM
    lat2 = math.asin(math.sin(lat1) * math.cos(d)
                     + math.cos(lat1) * math.sin(d) * math.cos(brg))
    lon2 = lon1 + math.atan2(math.sin(brg) * math.sin(d) * math.cos(lat1),
                             math.cos(d) - math.sin(lat1) * math.sin(lat2))
    return math.degrees(lat2), (math.degrees(lon2) + 180.0) % 360.0 - 180.0


SHIPPED_SEPARATION_KM = _separation_km(SHIPPED_PAIR[0][1:], SHIPPED_PAIR[1][1:])


WORKLOADS = {w.name: w for w in (
    Workload(
        "iridium-compare-24h", "iridium", "compare", (SHIPPED_SEPARATION_KM,),
        86400.0, 1800.0, 16,
        "polarsnap compare on iridium, 24 h of sends: the run users name; "
        "66-satellite graph, routing about 80% of the time"),
    Workload(
        "teledesic-compare-2h", "teledesic", "compare", (SHIPPED_SEPARATION_KM,),
        7200.0, 600.0, 3,
        "polarsnap compare on teledesic, 2 h of sends: partitioning, validation "
        "and 31 MB of topology export dominate; routing is small"),
    Workload(
        "teledesic-route-pairs", "teledesic", "route",
        (SHIPPED_SEPARATION_KM, 6000.0, 10000.0, 14000.0), 21600.0, 1800.0, 150,
        "library partition plus delay_experiment for 4 seeded pairs over 6 h on "
        "288 satellites: routing about 80%, partitioning about 18%, no validation "
        "or export"),
)}


def station_pairs(seed: int, separations_km: tuple) -> list:
    """Seeded ((name, lat, lon), (name, lat, lon)) pairs, one per separation.

    The first station of a pair is uniform in the latitude and longitude
    bands; the second lies at the given great-circle distance on a uniform
    bearing, redrawn until it is inside the latitude band too. Fixing the
    distance keeps the routing work per send about the same for every seed.
    Seed 0 keeps the shipped pair first.
    """
    rng = random.Random(seed)
    pairs = []
    for i, separation in enumerate(separations_km):
        if seed == 0 and i == 0:
            pairs.append(SHIPPED_PAIR)
            continue
        while True:
            lat, lon = rng.uniform(*STATION_LAT_DEG), rng.uniform(*STATION_LON_DEG)
            lat2, lon2 = _destination(lat, lon, rng.uniform(0.0, 360.0), separation)
            if STATION_LAT_DEG[0] <= lat2 <= STATION_LAT_DEG[1]:
                break
        pairs.append(((f"s{seed}p{i}a", lat, lon), (f"s{seed}p{i}b", lat2, lon2)))
    return pairs


def _station_line(station) -> str:
    name, lat, lon = station
    return f"{name}, {lat!r}, {lon!r}"


def write_inputs(workload: Workload, seed: int, work: Path, tiny: bool) -> dict:
    """Write the scenario file and ``inputs.json`` for one seed; return the inputs."""
    pairs = station_pairs(seed, workload.separations_km)
    out = work / "out"
    replace = {
        "source": _station_line(pairs[0][0]),
        "destination": _station_line(pairs[0][1]),
        "min_elevation_deg": repr(MIN_ELEVATION_DEG),
        "directory": str(out),
    }
    lines = []
    for line in (SCENARIOS / f"{workload.scenario}.scenario").read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {replace[key]}" if "=" in line and key in replace else line)
    scenario = work / f"{workload.scenario}.scenario"
    scenario.write_text("\n".join(lines) + "\n")

    duration = workload.tiny_duration_s if tiny else workload.duration_s
    argv = ["compare", str(scenario), "--output-dir", str(out),
            "--duration", repr(duration)]
    if tiny:
        argv += ["--polar-border", repr(SINGLE_BORDER_DEG)]
    inputs = {
        "workload": workload.name,
        "seed": seed,
        "tiny": tiny,
        "scenario": str(scenario),
        "out": str(out),
        "duration_s": duration,
        "pairs": pairs,
        "argv": argv,
    }
    (work / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    return inputs


def run_body(ps, workload: Workload, inputs: dict) -> dict:
    """The timed body. Every polarsnap name is looked up on the package at
    call time, so the tracer's wrappers are seen."""
    if workload.kind == "compare":
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            try:
                code = ps.cli.main(inputs["argv"])
            except SystemExit as exc:
                code = exc.code
        return {"code": code, "stdout": stdout.getvalue()}

    config = ps.load_scenario(inputs["scenario"])
    spec = config.constellation
    out = Path(inputs["out"])
    out.mkdir(parents=True, exist_ok=True)
    stations = [
        tuple(ps.GroundStation(name, lat, lon, MIN_ELEVATION_DEG)
              for name, lat, lon in pair)
        for pair in inputs["pairs"]
    ]
    for method in config.methods:
        seq = ps.partition(spec, method, SINGLE_BORDER_DEG, trigger=config.trigger)
        ps.report.write_snapshot_csv(seq, out / f"{method}_snapshots.csv")
        for i, (src, dst) in enumerate(stations):
            series = ps.delay_experiment(
                spec, method, SINGLE_BORDER_DEG, src, dst,
                inputs["duration_s"], config.interval_s,
                trigger=config.trigger, sequence=seq)
            ps.report.write_delay_csv(series, out / f"{method}_pair{i}_delay.csv")
    return {"stations": stations}
