import pytest

from polarsnap.geometry import ConstellationSpec, GroundStation


@pytest.fixture(scope="session")
def iridium() -> ConstellationSpec:
    return ConstellationSpec(
        plane_count=6,
        sats_per_plane=11,
        inclination_deg=86.4,
        altitude_km=780.0,
        period_s=6027.0,
        inter_plane_spacing_deg=31.6,
        name="iridium",
    )


@pytest.fixture(scope="session")
def teledesic() -> ConstellationSpec:
    return ConstellationSpec(
        plane_count=12,
        sats_per_plane=24,
        inclination_deg=84.7,
        altitude_km=1375.0,
        period_s=6793.8,
        inter_plane_spacing_deg=15.36,
        name="teledesic",
    )


@pytest.fixture(scope="session")
def two_by_thousand() -> ConstellationSpec:
    """The iridium file at the satellite limit: 2 planes of 1000."""
    return ConstellationSpec(
        plane_count=2,
        sats_per_plane=1000,
        inclination_deg=86.4,
        altitude_km=780.0,
        period_s=6027.0,
        inter_plane_spacing_deg=31.6,
        name="iridium",
    )


@pytest.fixture(scope="session")
def toy() -> ConstellationSpec:
    """Smallest constellation the model supports: 2 planes of 4."""
    return ConstellationSpec(
        plane_count=2,
        sats_per_plane=4,
        inclination_deg=90.0,
        altitude_km=780.0,
        name="toy",
    )


@pytest.fixture(scope="session")
def beijing() -> GroundStation:
    return GroundStation("Beijing", 39.904, 116.407, 10.0)


@pytest.fixture(scope="session")
def london() -> GroundStation:
    return GroundStation("London", 51.507, -0.128, 10.0)
