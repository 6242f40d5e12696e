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

Every key is one entry of ``_KEYS``: the field it sets and the parser that
reads and checks its text. Unknown sections or keys are rejected with
their line number, and the ``ConstellationSpec`` fields without a default
are required keys. Defaults are those of ``ScenarioConfig``,
``ConstellationSpec`` and ``GroundStation``. Command-line overrides
(``apply_overrides``) pass their text to the same parsers, so a bad value
gives the same message, without a line number. The constellation ``name``
starts every artifact's file name, so it may not be empty, ``.`` or ``..``,
or hold ``/``, ``\\`` or NUL, and ``directory`` may not hold NUL either.
Comments start with '#'.
"""
import math
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path

from .errors import ScenarioError, SlotFloorError
from .geometry import ConstellationSpec, GroundStation, orbit_period
from .links import TRIGGER_ENTER, TRIGGER_EXIT
from .routing import send_count
from .snapshots import METHOD_EQUAL_TIME, METHOD_FIXED, METHOD_REASSIGNMENT, equal_time_count

MATCH_REASSIGNMENT = "match_reassignment"

# The most satellites, planes * sats_per_plane: arrays grow with satellites
# times snapshots (2 * sats_per_plane). Iridium has 66, OneWeb 648.
MAX_SATELLITES = 2_000

_VALID_METHODS = (METHOD_REASSIGNMENT, METHOD_FIXED, METHOD_EQUAL_TIME)


@dataclass
class ScenarioConfig:
    """Validated scenario: constellation plus run parameters."""
    constellation: ConstellationSpec
    polar_borders_deg: list[float] = field(default_factory=lambda: [60.0, 65.0, 70.0, 75.0])
    methods: list[str] = field(default_factory=lambda: list(_VALID_METHODS))
    trigger: str = TRIGGER_ENTER
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
            return orbit_period(self.constellation) / self.constellation.row_count
        return float(self.equal_time_delta)


# The parsers below take (key, text, line), with line None for a
# command-line flag, and return the field value or raise ScenarioError.

def _number(key: str, text: str, lineno: int | None) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {text!r}", lineno) from None


def _whole(key: str, text: str, lineno: int | None) -> int:
    number = _number(key, text, lineno)
    if not (math.isfinite(number) and number == int(number)):
        raise ScenarioError(f"{key} must be a whole number, got {text!r}", lineno)
    return int(number)


def _positive(key: str, text: str, lineno: int | None) -> float:
    number = _number(key, text, lineno)
    if not (number > 0 and math.isfinite(number)):
        raise ScenarioError(f"{key} must be positive and finite, got {number}", lineno)
    return number


def _delta(key: str, text: str, lineno: int | None) -> str | float:
    return text if text == MATCH_REASSIGNMENT else _positive(key, text, lineno)


def _elevation(key: str, text: str, lineno: int | None) -> float:
    number = _number(key, text, lineno)
    if not 0.0 <= number <= 90.0:
        rule = "in [0, 90]" if math.isfinite(number) else "finite"
        raise ScenarioError(f"{key} must be {rule}, got {number}", lineno)
    return number


def _name(key: str, text: str, lineno: int | None) -> str:
    # Artifact file names start with the name, so it must stay one path part.
    if text in ("", ".", "..") or "/" in text or "\\" in text:
        raise ScenarioError(f"{key} must be a file name part: not empty, '.' or '..', "
                            f"and without '/' or '\\', got {text!r}", lineno)
    _path(key, text, lineno)  # rejects NUL
    return text


def _station(key: str, text: str, lineno: int | None) -> GroundStation:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ScenarioError(
            f"{key} must be 'name, latitude, longitude', got {text!r}", lineno)
    try:
        return GroundStation(parts[0], float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}", lineno) from None


def _borders(key: str, text: str, lineno: int | None) -> list[float]:
    borders = [_number(key, v.strip(), lineno) for v in text.split(",") if v.strip()]
    for border in borders:
        if not 0.0 < border < 90.0:
            raise ScenarioError(f"{key} must be in (0, 90), got {border}", lineno)
    if len(set(borders)) < len(borders):
        raise ScenarioError(f"{key} lists a border twice: {text!r}", lineno)
    if not borders:
        raise ScenarioError(f"{key} lists no values", lineno)
    return borders


def _methods(key: str, text: str, lineno: int | None) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in _VALID_METHODS:
            raise ScenarioError(f"{key} must be among {_VALID_METHODS}, got {m!r}", lineno)
    if len(set(methods)) < len(methods):
        raise ScenarioError(f"{key} lists a method twice: {text!r}", lineno)
    if not methods:
        raise ScenarioError(f"{key} lists no values", lineno)
    return methods


def _trigger(key: str, text: str, lineno: int | None) -> str:
    if text not in (TRIGGER_ENTER, TRIGGER_EXIT):
        raise ScenarioError(f"{key} must be enter or exit, got {text!r}", lineno)
    return text


def _path(key: str, text: str, lineno: int | None) -> Path:
    # No file system call takes a path with a NUL character.
    if "\0" in text:
        raise ScenarioError(f"{key} must not hold a NUL character, got {text!r}", lineno)
    return Path(text)


# Every scenario key, by (section, key): the field it sets and its parser.
# [constellation] keys set ConstellationSpec fields; the others set
# ScenarioConfig fields, except min_elevation_deg, which sets both
# stations' field of that name.
_KEYS = {
    ("constellation", "name"): ("name", _name),
    ("constellation", "planes"): ("plane_count", _whole),
    ("constellation", "sats_per_plane"): ("sats_per_plane", _whole),
    ("constellation", "inclination_deg"): ("inclination_deg", _number),
    ("constellation", "altitude_km"): ("altitude_km", _number),
    ("constellation", "period_s"): ("period_s", _number),
    ("constellation", "inter_plane_spacing_deg"): ("inter_plane_spacing_deg", _number),
    ("constellation", "earth_radius_km"): ("earth_radius_km", _number),
    ("constellation", "grazing_altitude_km"): ("grazing_altitude_km", _number),
    ("partition", "polar_border_deg"): ("polar_borders_deg", _borders),
    ("partition", "methods"): ("methods", _methods),
    ("partition", "trigger"): ("trigger", _trigger),
    ("partition", "equal_time_delta"): ("equal_time_delta", _delta),
    ("experiment", "source"): ("source", _station),
    ("experiment", "destination"): ("destination", _station),
    ("experiment", "min_elevation_deg"): ("min_elevation_deg", _elevation),
    ("experiment", "duration_s"): ("duration_s", _positive),
    ("experiment", "interval_s"): ("interval_s", _positive),
    ("output", "directory"): ("output_dir", _path),
}

_REQUIRED = [key for (section, key), (name, _) in _KEYS.items() if section == "constellation"
             and ConstellationSpec.__dataclass_fields__[name].default is MISSING]

# The ScenarioConfig fields that apply_overrides sets: name -> (key, parser).
_OVERRIDES = {name: (key, parse) for (_, key), (name, parse) in _KEYS.items()
              if name in ScenarioConfig.__dataclass_fields__}


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in {section for section, _ in _KEYS}:
                raise ScenarioError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if (current, key) not in _KEYS:
            raise ScenarioError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _sends(config: ScenarioConfig, lineno: int | None = None) -> None:
    try:
        send_count(config.duration_s, config.interval_s)
    except ValueError as exc:
        raise ScenarioError(str(exc), lineno) from None


def apply_overrides(config: ScenarioConfig, **overrides: str | None) -> None:
    """Replace fields of a loaded scenario from the text of command-line
    flags, through the parser of the field's scenario key.

    ``polar_borders_deg`` and ``methods`` take the file's comma-separated
    form. A value of None keeps the scenario's own.

    Raises:
        ScenarioError: A value its key's parser rejects, or a duration and
            interval that ``routing.send_count`` rejects.
    """
    for name, text in overrides.items():
        if text is not None:
            key, parse = _OVERRIDES[name]
            setattr(config, name, parse(key, text, None))
    _sends(config)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file.

    Raises:
        ScenarioError: Missing or unreadable file, text that is not UTF-8,
            malformed line, unknown key, a field value outside its valid
            range, or a satellite count, an equal_time delta or a send count
            outside its limits (reported with the line number where available).
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
    for key in _REQUIRED:
        if key not in sections.get("constellation", {}):
            raise ScenarioError(f"missing required key {key!r} in [constellation]")

    spec_args, config_args = {}, {}
    for section, entries in sections.items():
        for key, (value, lineno) in entries.items():
            name, parse = _KEYS[section, key]
            args = spec_args if section == "constellation" else config_args
            args[name] = parse(key, value, lineno)

    n, m = spec_args["plane_count"], spec_args["sats_per_plane"]
    lines = sections["constellation"]
    if n * m > MAX_SATELLITES:
        raise ScenarioError(f"planes x sats_per_plane = {n:g} x {m:g} satellites, above the "
                            f"limit of {MAX_SATELLITES}", lines["sats_per_plane"][1])
    try:
        spec = ConstellationSpec(**spec_args)
    except ValueError as exc:  # a slot floor names the period's line, or else M's
        floor = isinstance(exc, SlotFloorError) and lines.get("period_s", lines["sats_per_plane"])
        raise ScenarioError(f"[constellation]: {exc}", floor[1] if floor else None) from None
    elevation = config_args.pop("min_elevation_deg", None)
    for station in ("source", "destination"):
        if elevation is not None and station in config_args:
            config_args[station] = replace(config_args[station], min_elevation_deg=elevation)
    config = ScenarioConfig(spec, **config_args)
    try:
        equal_time_count(orbit_period(spec), config.equal_time_delta_s)
    except ValueError as exc:
        line = sections.get("partition", {}).get("equal_time_delta", ("", None))[1]
        raise ScenarioError(f"equal_time_delta: {exc}", line) from None
    exp = sections.get("experiment", {})
    _sends(config, exp.get("interval_s", exp.get("duration_s", ("", None)))[1])
    return config
