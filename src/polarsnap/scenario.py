"""Scenario files: flat key-value text with section headers.

Example::

    [constellation]
    name = iridium
    planes = 6
    sats_per_plane = 11
    inclination_deg = 86.4
    altitude_km = 780
    period_s = 6027

    [partition]
    polar_border_deg = 60, 65, 70, 75
    methods = reassignment, fixed, equal_time
    trigger = enter
    equal_time_delta = match_reassignment

    [experiment]
    source = Beijing, 39.904, 116.407
    destination = London, 51.507, -0.128
    min_elevation_deg = 10
    duration_s = 86400
    interval_s = 60

    [output]
    directory = out

Unknown sections or keys are rejected with their line number. Comments
start with '#'. Command-line overrides (``apply_overrides``) go through the
same per-field checks.
"""
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .errors import ScenarioError
from .geometry import ConstellationSpec, GroundStation, orbit_period
from .snapshots import METHOD_EQUAL_TIME, METHOD_FIXED, METHOD_REASSIGNMENT

MATCH_REASSIGNMENT = "match_reassignment"

_VALID_METHODS = (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME)

_KNOWN_KEYS = {
    "constellation": {
        "name", "planes", "sats_per_plane", "inclination_deg", "altitude_km",
        "period_s", "inter_plane_spacing_deg", "earth_radius_km",
        "grazing_altitude_km",
    },
    "partition": {
        "polar_border_deg", "methods", "trigger", "equal_time_delta",
    },
    "experiment": {
        "source", "destination", "min_elevation_deg", "duration_s",
        "interval_s",
    },
    "output": {"directory"},
}


@dataclass
class ScenarioConfig:
    """Validated scenario: constellation plus run parameters."""
    constellation: ConstellationSpec
    polar_borders_deg: list[float]
    methods: list[str]
    trigger: str = "enter"
    equal_time_delta: str | float = MATCH_REASSIGNMENT
    source: GroundStation | None = None
    destination: GroundStation | None = None
    duration_s: float = 86400.0
    interval_s: float = 60.0
    output_dir: Path = field(default_factory=lambda: Path("out"))

    @property
    def equal_time_delta_s(self) -> float:
        """The equal_time interval in seconds; ``match_reassignment`` means
        the reassignment snapshot duration T / (2*M)."""
        if self.equal_time_delta == MATCH_REASSIGNMENT:
            spec = self.constellation
            return orbit_period(spec) / spec.row_count
        return float(self.equal_time_delta)


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KNOWN_KEYS:
                raise ScenarioError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[current]:
            raise ScenarioError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _need(section: dict, key: str, section_name: str) -> tuple[str, int]:
    if key not in section:
        raise ScenarioError(f"missing required key {key!r} in [{section_name}]")
    return section[key]


def _number(value: str, lineno: int, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {value!r}", lineno) from None


def _whole(value: str, lineno: int, key: str) -> int:
    number = _number(value, lineno, key)
    if not (math.isfinite(number) and number == int(number)):
        raise ScenarioError(f"{key} must be a whole number, got {value!r}", lineno)
    return int(number)


def _station(value: str, lineno: int, key: str, min_elevation: float) -> GroundStation:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise ScenarioError(
            f"{key} must be 'name, latitude, longitude', got {value!r}", lineno)
    try:
        return GroundStation(parts[0], float(parts[1]), float(parts[2]), min_elevation)
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}", lineno) from None


def _borders(borders: list[float], lineno: int | None = None) -> list[float]:
    # Artifact file names hold a border as f"{border:g}", so two borders
    # with the same such name would write to the same files.
    names: dict[str, float] = {}
    for border in borders:
        if not 0.0 < border < 90.0:
            raise ScenarioError(
                f"polar_border_deg must be in (0, 90), got {border}", lineno)
        name = f"{border:g}"
        if name in names:
            raise ScenarioError(f"polar_border_deg values {names[name]!r} and {border!r} "
                                f"share the file name part {name}", lineno)
        names[name] = border
    if not borders:
        raise ScenarioError("polar_border_deg lists no values", lineno)
    return borders


def _methods(value: str, lineno: int | None = None) -> list[str]:
    methods = [m.strip() for m in value.split(",") if m.strip()]
    for m in methods:
        if m not in _VALID_METHODS:
            raise ScenarioError(
                f"methods must be among {_VALID_METHODS}, got {m!r}", lineno)
    if len(set(methods)) < len(methods):
        raise ScenarioError(f"methods lists a method twice: {value!r}", lineno)
    if not methods:
        raise ScenarioError("methods lists no values", lineno)
    return methods


def _trigger(value: str, lineno: int | None = None) -> str:
    if value not in ("enter", "exit"):
        raise ScenarioError(f"trigger must be enter or exit, got {value!r}", lineno)
    return value


def _positive(key: str, value: float, lineno: int | None = None) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise ScenarioError(f"{key} must be positive and finite, got {value}", lineno)
    return value


def _sends(duration_s: float, interval_s: float, lineno: int | None = None) -> None:
    if duration_s < interval_s:
        raise ScenarioError(f"duration_s {duration_s} is shorter than interval_s "
                            f"{interval_s}, which leaves no sends", lineno)


# Per-field checks shared by scenario files and command-line overrides.
_CHECKS = {
    "polar_borders_deg": _borders,
    "methods": _methods,
    "trigger": _trigger,
    "duration_s": partial(_positive, "duration_s"),
    "interval_s": partial(_positive, "interval_s"),
}


def apply_overrides(config: ScenarioConfig, **overrides) -> None:
    """Replace fields of a loaded scenario, checked as in a scenario file.

    ``methods`` takes the file's comma-separated form. A value of None
    keeps the scenario's own.

    Raises:
        ScenarioError: A value outside its field's valid range, or a
            duration shorter than the interval once all are applied.
    """
    for name, value in overrides.items():
        if value is not None:
            check = _CHECKS.get(name)
            setattr(config, name, check(value) if check else value)
    _sends(config.duration_s, config.interval_s)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file.

    Raises:
        ScenarioError: Missing or unreadable file, text that is not UTF-8,
            malformed line, unknown key, or a field value outside its valid
            range (reported with the line number where available).
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8 text: byte "
                            f"{exc.start} is {exc.object[exc.start]:#04x}") from None
    sections = _parse_sections(text)

    if "constellation" not in sections:
        raise ScenarioError("missing [constellation] section")
    con = sections["constellation"]

    def con_num(key: str, required: bool = False, default: float | None = None,
                parse=_number):
        if key not in con:
            if required:
                _need(con, key, "constellation")
            return default
        value, lineno = con[key]
        return parse(value, lineno, key)

    kwargs = dict(
        plane_count=con_num("planes", required=True, parse=_whole),
        sats_per_plane=con_num("sats_per_plane", required=True, parse=_whole),
        inclination_deg=con_num("inclination_deg", required=True),
        altitude_km=con_num("altitude_km", required=True),
        period_s=con_num("period_s"),
        inter_plane_spacing_deg=con_num("inter_plane_spacing_deg"),
        name=con.get("name", ("constellation", 0))[0],
    )
    if "earth_radius_km" in con:
        kwargs["earth_radius_km"] = con_num("earth_radius_km")
    if "grazing_altitude_km" in con:
        kwargs["grazing_altitude_km"] = con_num("grazing_altitude_km")
    try:
        spec = ConstellationSpec(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"[constellation]: {exc}") from None

    part = sections.get("partition", {})
    borders = [60.0, 65.0, 70.0, 75.0]
    if "polar_border_deg" in part:
        value, lineno = part["polar_border_deg"]
        borders = _borders([_number(v.strip(), lineno, "polar_border_deg")
                            for v in value.split(",") if v.strip()], lineno)

    methods = list(_VALID_METHODS)
    if "methods" in part:
        methods = _methods(*part["methods"])

    trigger = "enter"
    if "trigger" in part:
        trigger = _trigger(*part["trigger"])

    equal_delta: str | float = MATCH_REASSIGNMENT
    if "equal_time_delta" in part:
        value, lineno = part["equal_time_delta"]
        if value != MATCH_REASSIGNMENT:
            equal_delta = _positive(
                "equal_time_delta", _number(value, lineno, "equal_time_delta"), lineno)

    exp = sections.get("experiment", {})
    min_el = 10.0
    if "min_elevation_deg" in exp:
        value, lineno = exp["min_elevation_deg"]
        min_el = _number(value, lineno, "min_elevation_deg")
        if not math.isfinite(min_el):
            raise ScenarioError(f"min_elevation_deg must be finite, got {min_el}", lineno)
        if not 0.0 <= min_el <= 90.0:
            raise ScenarioError(f"min_elevation_deg must be in [0, 90], got {min_el}", lineno)
    source = destination = None
    if "source" in exp:
        source = _station(*exp["source"], key="source", min_elevation=min_el)
    if "destination" in exp:
        destination = _station(*exp["destination"], key="destination",
                               min_elevation=min_el)
    duration_s, interval_s = 86400.0, 60.0
    send_line = None
    if "duration_s" in exp:
        value, send_line = exp["duration_s"]
        duration_s = _positive("duration_s", _number(value, send_line, "duration_s"),
                               send_line)
    if "interval_s" in exp:
        value, send_line = exp["interval_s"]
        interval_s = _positive("interval_s", _number(value, send_line, "interval_s"),
                               send_line)
    _sends(duration_s, interval_s, send_line)

    out = sections.get("output", {})
    output_dir = Path(out["directory"][0]) if "directory" in out else Path("out")

    return ScenarioConfig(
        constellation=spec,
        polar_borders_deg=borders,
        methods=methods,
        trigger=trigger,
        equal_time_delta=equal_delta,
        source=source,
        destination=destination,
        duration_s=duration_s,
        interval_s=interval_s,
        output_dir=output_dir,
    )
