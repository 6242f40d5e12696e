"""Orbital geometry of an idealized circular polar-orbit constellation.

Satellites are propagated on circular orbits around a spherical Earth.
Plane p (1-based) has its ascending node at longitude (p-1) * plane
spacing, and satellite (p, j) starts at argument of latitude
(p-1) * phase_offset + (j-1) * intra-plane spacing, so adjacent planes
are staggered by half an intra-plane slot.

All satellites sharing one argument-of-latitude value (mod 360) form a
"row": they sit at the same latitude and move in the same direction,
occupying every other plane. There are 2*M such rows (phase classes,
their phases ``row_phase_deg``) and each holds N/2 satellites. Row
bookkeeping (polar-cap membership, crossing events, the non-polar bands
of ``build_ls_state``) is done on the ideal-polar reference where the
argument of latitude maps directly to latitude; true latitudes from the
configured inclination are used for positions, elevations, and link lengths.

Link limits depend on the constellation alone (``max_link_angle_deg``,
``horizontal_survival_latitude_deg``). The polar border is a plain number
that each function reading it takes; ``check_polar_border`` bounds it.

Epoch convention: at t=0 the ascending node of plane 1 and the Greenwich
meridian are both at longitude 0; ground stations rotate at the sidereal
rate.
"""
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SlotFloorError, UnsupportedConfigurationError

EARTH_RADIUS_KM = 6378.137
MU_EARTH_KM3_S2 = 398600.4418
SPEED_OF_LIGHT_KM_S = 299792.458
SIDEREAL_DAY_S = 86164.0905

# Grazing altitude (km) below which an inter-satellite ray is considered
# blocked by Earth and atmosphere.
DEFAULT_GRAZING_ALTITUDE_KM = 49.0

# Bounds on the orbit radius (km) and period (s), given or derived: link
# lengths sum squared position differences, up to 12 * r**2, and phases
# are 360 * t / period; both must stay finite floats.
MAX_ORBIT_RADIUS_KM = 1e150
ORBIT_PERIOD_RANGE_S = (1e-3, 1e12)

# The tie: instants less than this apart are one, and a state is evaluated this
# long after its boundary, clear of the roundoff at the closed-form instant.
TIE_S = 1e-3

# Bound on the rows (instants x rows per instant) of one per-instant array call.
POSITION_BLOCK_ROWS = 1 << 12


@dataclass(frozen=True)
class ConstellationSpec:
    """Static parameters of a polar-orbit Walker-star constellation.

    Args:
        plane_count: Number of orbital planes N (must be even, >= 2).
        sats_per_plane: Satellites per plane M (>= 3).
        inclination_deg: Orbital inclination in degrees, in (0, 180).
        altitude_km: Circular-orbit altitude above the surface.
        period_s: Orbit period in seconds; derived from Kepler's third
            law when omitted.
        inter_plane_spacing_deg: Ascending-node spacing between adjacent
            planes; defaults to 180/N (planes spread over a half circle).
        earth_radius_km: Spherical Earth radius.
        grazing_altitude_km: Minimum ray altitude for inter-satellite
            visibility.
        name: Label used in reports and exports.
    """
    plane_count: int
    sats_per_plane: int
    inclination_deg: float
    altitude_km: float
    period_s: float | None = None
    inter_plane_spacing_deg: float | None = None
    earth_radius_km: float = EARTH_RADIUS_KM
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM
    name: str = "constellation"

    def __post_init__(self):
        _require_finite(self, "inclination_deg", "altitude_km", "earth_radius_km",
                        "grazing_altitude_km")
        _require_finite(self, "period_s", "inter_plane_spacing_deg", optional=True)
        _require_int(self, "plane_count", "sats_per_plane")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.plane_count < 2:
            raise UnsupportedConfigurationError(
                f"plane_count must be >= 2, got {self.plane_count}")
        if self.plane_count % 2 != 0:
            raise UnsupportedConfigurationError(
                "plane_count must be even: rows alternate plane parity, which "
                f"has no consistent pairing for {self.plane_count} planes")
        if self.sats_per_plane < 3:
            raise UnsupportedConfigurationError(
                f"sats_per_plane must be >= 3, got {self.sats_per_plane}")
        if not 0.0 < self.inclination_deg < 180.0:
            raise ValueError(
                f"inclination_deg must be in (0, 180), got {self.inclination_deg}")
        if self.altitude_km <= 0.0:
            raise ValueError(f"altitude_km must be positive, got {self.altitude_km}")
        if self.inter_plane_spacing_deg is not None and not (
                0.0 < self.inter_plane_spacing_deg <= 180.0):
            raise ValueError(
                "inter_plane_spacing_deg must be in (0, 180], got "
                f"{self.inter_plane_spacing_deg}")
        if self.grazing_altitude_km >= self.altitude_km:
            raise ValueError("grazing_altitude_km must be below altitude_km")
        if self.earth_radius_km <= 0.0:
            raise ValueError(f"earth_radius_km must be positive, got {self.earth_radius_km}")
        try:
            period = orbit_period(self)
        except OverflowError:  # the derived period cubes the orbit radius
            period = math.inf
        low, high = ORBIT_PERIOD_RANGE_S
        if not (0.0 < self.orbit_radius_km <= MAX_ORBIT_RADIUS_KM and low <= period <= high):
            raise ValueError(f"orbit radius ({self.orbit_radius_km} km) must be positive and at "
                             f"most {MAX_ORBIT_RADIUS_KM:g}, and period ({period} s) in "
                             f"[{low:g}, {high:g}]")
        if (slot := period / min(self.row_count, 1 << 1023)) <= 2.0 * TIE_S:  # big ints overflow
            raise SlotFloorError(f"slot period / (2 * sats_per_plane) = {slot} s must exceed "
                                 f"{2.0 * TIE_S} s, two {TIE_S} s ties")

    @property
    def intra_plane_spacing_deg(self) -> float:
        return 360.0 / self.sats_per_plane

    @property
    def phase_offset_deg(self) -> float:
        """Phase stagger between adjacent planes (half an intra-plane slot)."""
        return 180.0 / self.sats_per_plane

    @property
    def plane_spacing_deg(self) -> float:
        if self.inter_plane_spacing_deg is not None:
            return self.inter_plane_spacing_deg
        return 180.0 / self.plane_count

    @property
    def orbit_radius_km(self) -> float:
        return self.earth_radius_km + self.altitude_km

    @property
    def total_satellites(self) -> int:
        return self.plane_count * self.sats_per_plane

    @property
    def row_count(self) -> int:
        """Number of distinct same-latitude, same-direction satellite rows."""
        return 2 * self.sats_per_plane


@dataclass(frozen=True, order=True)
class SatId:
    """Identifies satellite j in plane p, both 1-based."""
    plane: int
    index_in_plane: int


@dataclass(frozen=True, eq=False)
class LsState:
    """The non-polar rows at one instant: per half-orbit, the phase classes
    of its band outside the polar caps, most recently exited first, so each
    class is one above the one before it (mod ``n_rows``). Just after an
    exit in non-uniform configurations a band holds one extra row."""
    ascending: np.ndarray
    descending: np.ndarray
    n_rows: int


@dataclass(frozen=True)
class GroundStation:
    name: str
    latitude_deg: float
    longitude_deg: float
    min_elevation_deg: float = 10.0

    def __post_init__(self):
        _require_finite(self, "latitude_deg", "longitude_deg", "min_elevation_deg")
        if abs(self.latitude_deg) > 90.0:
            raise ValueError(f"latitude_deg out of range: {self.latitude_deg}")
        if not 0.0 <= self.min_elevation_deg <= 90.0:
            raise ValueError(
                f"min_elevation_deg must be in [0, 90], got {self.min_elevation_deg}")


def is_finite(value) -> bool:
    """``math.isfinite``, except that an int too large for a float is not
    finite rather than an ``OverflowError``."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_finite(obj, *names: str, optional: bool = False) -> None:
    """Raise ValueError naming the first given field that is not a finite
    real number (a ``bool`` is not one here), or None where ``optional``.
    An int beyond float range is named without its digits."""
    for name, value in ((name, getattr(obj, name)) for name in names):
        if value is None and optional:
            continue
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not is_finite(value):
            shown = "an int beyond float range" if isinstance(value, int) else value
            raise ValueError(f"{name} must be finite, got {shown}")


def _require_int(obj, *names: str) -> None:
    """Raise ValueError naming the first given field that is not an ``int``
    (a ``bool`` is not one here)."""
    for name, value in ((name, getattr(obj, name)) for name in names):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def orbit_period(spec: ConstellationSpec) -> float:
    """Configured orbit period, or the Keplerian period for the altitude."""
    if spec.period_s is not None:
        return spec.period_s
    a = spec.orbit_radius_km
    return 2.0 * math.pi * math.sqrt(a ** 3 / MU_EARTH_KM3_S2)


def validate_sat_id(spec: ConstellationSpec, sat: SatId) -> None:
    """Raise ValueError unless both fields are integers that name a satellite of spec."""
    if type(sat.plane) is not int or type(sat.index_in_plane) is not int:  # cheap: every route
        _require_int(sat, "plane", "index_in_plane")
    if not (1 <= sat.plane <= spec.plane_count
            and 1 <= sat.index_in_plane <= spec.sats_per_plane):
        raise ValueError(f"satellite {sat} outside {spec.plane_count}x"
                         f"{spec.sats_per_plane} constellation")


def sat_to_index(spec: ConstellationSpec, sat: SatId) -> int:
    """Dense 0-based index, plane-major."""
    return (sat.plane - 1) * spec.sats_per_plane + (sat.index_in_plane - 1)


@functools.lru_cache(maxsize=8)
def satellite_ids(plane_count: int, sats_per_plane: int) -> tuple[SatId, ...]:
    """Every ``SatId`` of an N x M constellation, in ``sat_to_index`` order;
    built once per shape, so callers index it instead of making ids."""
    return tuple(SatId(p, j) for p in range(1, plane_count + 1)
                 for j in range(1, sats_per_plane + 1))


def in_polar_band(
    u_deg: float | np.ndarray, polar_border_deg: float,
) -> bool | np.ndarray:
    """Polar-cap membership of a phase position, on the ideal reference.

    The caps are half-open along the direction of motion: a row exactly on
    the entry border is inside, a row exactly on the exit border is
    outside. Takes a float or an array of them, and returns a bool or a
    boolean array.
    """
    u = u_deg % 360.0
    return (((polar_border_deg <= u) & (u < 180.0 - polar_border_deg))
            | ((180.0 + polar_border_deg <= u) & (u < 360.0 - polar_border_deg)))


def all_positions_km(spec: ConstellationSpec, t) -> np.ndarray:
    """ECI positions of every satellite at time t, plane-major order.

    Returns an (N*M, 3) array indexed by ``sat_to_index``. For an array of
    times of shape S the result has shape S + (N*M, 3).
    """
    t = np.asarray(t, dtype=float)
    period = orbit_period(spec)
    planes = np.arange(spec.plane_count)
    slots = np.arange(spec.sats_per_plane)
    u0 = (planes[:, None] * spec.phase_offset_deg
          + slots[None, :] * spec.intra_plane_spacing_deg)
    u = np.radians(u0 + 360.0 * t[..., None, None] / period)
    raan = np.radians(planes * spec.plane_spacing_deg)[:, None]
    inc = math.radians(spec.inclination_deg)
    r = spec.orbit_radius_km
    cu, su = np.cos(u), np.sin(u)
    x = r * (np.cos(raan) * cu - np.sin(raan) * su * math.cos(inc))
    y = r * (np.sin(raan) * cu + np.cos(raan) * su * math.cos(inc))
    z = r * su * math.sin(inc)
    return np.stack([x, y, z], axis=-1).reshape(t.shape + (-1, 3))


def instant_blocks(n: int, rows_per_instant: int) -> list[slice]:
    """n instants in slices of max(1, ``POSITION_BLOCK_ROWS`` // rows_per_instant)."""
    size = max(1, POSITION_BLOCK_ROWS // rows_per_instant)
    return [slice(first, first + size) for first in range(0, n, size)]


def max_link_angle_deg(spec: ConstellationSpec) -> float:
    """Largest geocentric angle at which two satellites still see each other.

    Derived from the grazing geometry: the ray between two satellites at
    orbit radius touches the grazing shell when the angle reaches
    2*acos((R + h_graze) / (R + h)).
    """
    ratio = (spec.earth_radius_km + spec.grazing_altitude_km) / spec.orbit_radius_km
    return 2.0 * math.degrees(math.acos(max(-1.0, min(1.0, ratio))))


def horizontal_survival_latitude_deg(
    spec: ConstellationSpec, max_angle_deg: float | None = None,
) -> float:
    """Lowest latitude at which two-planes-apart links clear the Earth.

    Solves sin^2(L) = (cos(theta_max) - cos(2*dOmega)) / (1 - cos(2*dOmega))
    for the configured plane spacing. Where the right side is negative, or
    the two planes coincide (a 180 degree spacing), such links are visible
    at every latitude and the result is 0. It never exceeds 1, since
    cos(theta_max) <= 1, so the result is in [0, 90].
    """
    theta = max_angle_deg if max_angle_deg is not None else max_link_angle_deg(spec)
    cos_two_domega = math.cos(math.radians(2.0 * spec.plane_spacing_deg))
    if cos_two_domega == 1.0:
        return 0.0
    arg = (math.cos(math.radians(theta)) - cos_two_domega) / (1.0 - cos_two_domega)
    return math.degrees(math.asin(math.sqrt(max(arg, 0.0))))


def check_polar_border(polar_border_deg: float) -> None:
    """Raise ValueError unless the polar border is in (0, 90)."""
    if not 0.0 < polar_border_deg < 90.0:
        raise ValueError(f"polar_border_deg must be in (0, 90), got {polar_border_deg}")


def nonpolar_row_count(spec: ConstellationSpec, polar_border_deg: float) -> int:
    """Nominal rows per non-polar arc: 2*L_pa / phase_offset, rounded if uniform, else floored."""
    slots = 2.0 * polar_border_deg / spec.phase_offset_deg
    return round(slots) if is_uniform_row_distribution(spec, polar_border_deg) else int(slots)


def is_uniform_row_distribution(spec: ConstellationSpec, polar_border_deg: float) -> bool:
    """True when every row entering a polar cap crosses less than ``TIE_S``
    from one exiting: 2*L_pa is a row-spacing multiple to within TIE_S * 2M / T."""
    slots = 2.0 * polar_border_deg / spec.phase_offset_deg
    return abs(slots - round(slots)) < TIE_S * spec.row_count / orbit_period(spec)


def row_phase_deg(spec: ConstellationSpec, t) -> np.ndarray:
    """Argument of latitude of every phase class c, c * 180/M ahead of class 0,
    at time t: a (2M,) array in [0, 360), or S + (2M,) for times of shape S."""
    return (np.arange(spec.row_count) * spec.phase_offset_deg
            + 360.0 * np.asarray(t, dtype=float)[..., None] / orbit_period(spec)) % 360.0


def build_ls_state(spec: ConstellationSpec, polar_border_deg: float, t: float) -> LsState:
    """The non-polar bands at time t: the classes from the south apex in
    the direction of ascending motion, consecutive, split by half-orbit."""
    phase = row_phase_deg(spec, t)
    order = (np.argmin((phase + 90.0) % 360.0) + np.arange(spec.row_count)) % spec.row_count
    u = phase[order]
    band = ~in_polar_band(u, polar_border_deg)
    ascending = band & ((u < 90.0) | (u >= 270.0))
    return LsState(order[ascending], order[band & ~ascending], spec.row_count)


def ground_position_km(
    gs: GroundStation, t, earth_radius_km: float = EARTH_RADIUS_KM,
) -> np.ndarray:
    """ECI position of a ground station, rotating at the sidereal rate.

    Returns a (3,) array. For an array of times of shape S the result has
    shape S + (3,).
    """
    lat = math.radians(gs.latitude_deg)
    lon = (math.radians(gs.longitude_deg)
           + 2.0 * math.pi * np.asarray(t, dtype=float) / SIDEREAL_DAY_S)
    ring = earth_radius_km * math.cos(lat)
    z = np.full_like(lon, earth_radius_km * math.sin(lat))
    return np.stack([ring * np.cos(lon), ring * np.sin(lon), z], axis=-1)
