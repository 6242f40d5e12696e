import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarsnap.errors import UnsupportedConfigurationError
from polarsnap.geometry import (
    ConstellationSpec,
    GroundStation,
    SatId,
    all_positions_km,
    build_ls_state,
    ground_position_km,
    horizontal_survival_latitude_deg,
    max_link_angle_deg,
    nonpolar_row_count,
    orbit_period,
    row_phase_deg,
    sat_to_index,
    satellite_ids,
    MAX_ORBIT_RADIUS_KM,
    MU_EARTH_KM3_S2,
    SPEED_OF_LIGHT_KM_S,
)
from tests.oracles import (
    InfeasibleGeometryError,
    SatState,
    anchor_index,
    class_phase_deg,
    elevation_angle_deg,
    geocentric_angle_deg,
    index_to_sat,
    is_ascending,
    position_km,
    propagation_delay_s,
    raising_survival_latitude_deg,
    reference_ls_rows,
    row_members,
    satellite_state,
    survival_latitude_deg,
    true_latitude_deg,
)


class TestConstellationSpec:
    def test_rejects_odd_plane_count(self):
        with pytest.raises(UnsupportedConfigurationError):
            ConstellationSpec(5, 11, 86.4, 780.0)

    def test_rejects_tiny_plane(self):
        with pytest.raises(UnsupportedConfigurationError):
            ConstellationSpec(6, 2, 86.4, 780.0)

    @pytest.mark.parametrize("field", ["plane_count", "sats_per_plane"])
    @pytest.mark.parametrize("value", [11.5, 6.0, True, "6", None])
    def test_rejects_counts_that_are_not_int(self, iridium, field, value):
        # a float count used to pass and fail later, in partition or _narrow
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be an integer, got {value!r}")):
            dataclasses.replace(iridium, **{field: value})

    def test_phase_offset_is_half_slot(self, iridium):
        assert iridium.phase_offset_deg == pytest.approx(180.0 / 11, abs=0)
        assert iridium.intra_plane_spacing_deg == pytest.approx(2 * iridium.phase_offset_deg)

    @pytest.mark.parametrize("field", ["altitude_km", "period_s", "inter_plane_spacing_deg",
                                       "earth_radius_km", "grazing_altitude_km"])
    # an int beyond float range is not finite either: a ValueError, not the
    # OverflowError of math.isfinite
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400])
    def test_rejects_non_finite(self, iridium, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(iridium, **{field: value})

    @pytest.mark.parametrize("field", ["latitude_deg", "longitude_deg", "min_elevation_deg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400])
    def test_station_rejects_non_finite(self, beijing, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(beijing, **{field: value})

    @pytest.mark.parametrize("field", ["inclination_deg", "altitude_km", "period_s",
                                       "inter_plane_spacing_deg", "earth_radius_km",
                                       "grazing_altitude_km"])
    @pytest.mark.parametrize("value", [True, False, "86", [86.0]])
    def test_rejects_float_fields_that_are_not_numbers(self, iridium, field, value):
        # True used to pass as 1 (a 1 degree inclination), and "86" failed
        # with a TypeError from a comparison
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be a number, got {value!r}")):
            dataclasses.replace(iridium, **{field: value})

    @pytest.mark.parametrize("field", ["inclination_deg", "altitude_km", "earth_radius_km",
                                       "grazing_altitude_km"])
    def test_rejects_none_where_a_number_is_required(self, iridium, field):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a number, got None")):
            dataclasses.replace(iridium, **{field: None})

    @pytest.mark.parametrize("value", [5, None, True, b"iridium"])
    def test_rejects_name_that_is_not_a_string(self, iridium, value):
        with pytest.raises(ValueError, match=re.escape(f"name must be a string, got {value!r}")):
            dataclasses.replace(iridium, name=value)

    @pytest.mark.parametrize("field", ["latitude_deg", "longitude_deg", "min_elevation_deg"])
    @pytest.mark.parametrize("value", [True, False, "10", None])
    def test_station_rejects_fields_that_are_not_numbers(self, beijing, field, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be a number, got {value!r}")):
            dataclasses.replace(beijing, **{field: value})

    @pytest.mark.parametrize("value", [10**400, 10**5000, -10**5000],
                             ids=["1e400", "1e5000", "-1e5000"])
    def test_huge_int_named_without_its_digits(self, value):
        # str() of an int past 4,300 digits raises, and 401 digits say nothing
        with pytest.raises(ValueError) as info:
            GroundStation("a", value, 0.0)
        assert str(info.value) == "latitude_deg must be finite, got an int beyond float range"

    @pytest.mark.parametrize("value", [-0.5, 90.5, 95.0])
    def test_station_rejects_elevation_outside_0_90(self, beijing, value):
        with pytest.raises(ValueError, match=r"min_elevation_deg must be in \[0, 90\]"):
            dataclasses.replace(beijing, min_elevation_deg=value)

    def test_station_accepts_elevation_bounds(self, beijing):
        for value in (0.0, 90.0):
            assert dataclasses.replace(beijing, min_elevation_deg=value).min_elevation_deg == value

    def test_default_plane_spacing(self):
        spec = ConstellationSpec(6, 11, 86.4, 780.0)
        assert spec.plane_spacing_deg == pytest.approx(30.0)

    @pytest.mark.parametrize("value", [0.0, -6378.137, -1e300])
    def test_rejects_non_positive_earth_radius(self, iridium, value):
        with pytest.raises(ValueError, match=re.escape(f"earth_radius_km must be positive, got {value}")):
            dataclasses.replace(iridium, earth_radius_km=value)

    @pytest.mark.parametrize("fields,match", [
        # the radius overflows
        (dict(altitude_km=1e308, earth_radius_km=1e308), r"orbit radius \(inf km\)"),
        # the derived period overflows, or underflows to 0
        (dict(altitude_km=1e200), r"period \(inf s\)"),
        (dict(altitude_km=1e-120, earth_radius_km=1e-120, grazing_altitude_km=1e-121),
         r"period \(0.0 s\)"),
    ])
    def test_rejects_non_finite_orbit(self, fields, match):
        with pytest.raises(ValueError, match=match):
            ConstellationSpec(6, 11, 86.4, **{"altitude_km": 780.0, **fields})

    def test_configured_period_needs_no_derivation(self):
        # a radius whose Keplerian period would overflow, with a period given
        spec = ConstellationSpec(6, 11, 86.4, 1e120, period_s=6027.0)
        assert orbit_period(spec) == 6027.0

    @pytest.mark.parametrize("altitude", [1e300, 2 * MAX_ORBIT_RADIUS_KM])
    def test_rejects_radius_past_bound(self, altitude):
        # with a period given nothing overflows here, but squared positions would
        with pytest.raises(ValueError, match=re.escape(f"at most {MAX_ORBIT_RADIUS_KM:g}")):
            ConstellationSpec(6, 11, 86.4, altitude, period_s=6027.0)


class TestOrbitPeriod:
    def test_configured_period_iridium(self, iridium):
        assert orbit_period(iridium) == 6027.0

    def test_configured_period_teledesic(self, teledesic):
        assert orbit_period(teledesic) == pytest.approx(6793.8)

    def test_kepler_fallback(self):
        spec = ConstellationSpec(6, 11, 86.4, 780.0)
        a = spec.earth_radius_km + 780.0
        expected = 2.0 * math.pi * math.sqrt(a ** 3 / MU_EARTH_KM3_S2)
        assert orbit_period(spec) == pytest.approx(expected, rel=1e-12)
        assert orbit_period(spec) == pytest.approx(6027.6, abs=1.0)


class TestSatelliteState:
    def test_equator_crossing(self, iridium):
        # satellite (1,1) starts at argument of latitude 0
        st0 = satellite_state(iridium, SatId(1, 1), 0.0)
        assert st0.latitude_deg == pytest.approx(0.0, abs=1e-12)
        assert st0.ascending

    def test_ideal_polar_apex(self):
        spec = ConstellationSpec(6, 12, 90.0, 780.0)
        # (1,4) starts at u = 3 * 30 = 90 degrees
        st0 = satellite_state(spec, SatId(1, 4), 0.0)
        assert st0.latitude_deg == pytest.approx(90.0, abs=1e-9)

    def test_inclined_apex_latitude(self, iridium):
        # oracle: asin(sin(i) * sin(90)) = i
        period = orbit_period(iridium)
        t_apex = period / 4.0  # (1,1) reaches u=90 a quarter period in
        st0 = satellite_state(iridium, SatId(1, 1), t_apex)
        assert st0.latitude_deg == pytest.approx(86.4, abs=1e-9)

    def test_invalid_sat_rejected(self, iridium):
        with pytest.raises(ValueError):
            satellite_state(iridium, SatId(7, 1), 0.0)
        with pytest.raises(ValueError):
            satellite_state(iridium, SatId(1, 12), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-20000.0, 20000.0), plane=st.integers(1, 6),
           idx=st.integers(1, 11))
    def test_circular_radius_invariant(self, iridium, t, plane, idx):
        pos = position_km(iridium, SatId(plane, idx), t)
        r = math.sqrt(sum(c * c for c in pos))
        assert r == pytest.approx(iridium.orbit_radius_km, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.0, 12000.0), plane=st.integers(1, 6), idx=st.integers(1, 11))
    def test_period_consistency(self, iridium, t, plane, idx):
        sat = SatId(plane, idx)
        p0 = np.array(position_km(iridium, sat, t))
        p1 = np.array(position_km(iridium, sat, t + orbit_period(iridium)))
        assert np.linalg.norm(p0 - p1) <= 1e-9 * iridium.orbit_radius_km + 1e-6


class TestLsState:
    @pytest.mark.parametrize("border,n_npa,n_pa", [(60.0, 7, 4), (70.0, 8, 3)])
    def test_iridium_row_counts(self, iridium, border, n_npa, n_pa):
        # Eq-style arithmetic: floor(2 * border / (180/11)) non-polar rows per
        # arc; each band holds that many, or one more just after an exit
        assert nonpolar_row_count(iridium, border) == n_npa
        assert iridium.sats_per_plane - n_npa == n_pa
        for t in (0.0, 137.5, 2718.0, 6000.0):
            ls = build_ls_state(iridium, border, t)
            assert ls.n_rows == 22
            for band in (ls.ascending, ls.descending):
                assert len(band) in (n_npa, n_npa + 1)

    def test_teledesic_row_counts(self, teledesic):
        ls = build_ls_state(teledesic, 75.0, 1234.0)
        assert ls.n_rows == 48
        assert nonpolar_row_count(teledesic, 75.0) == 20
        assert len(ls.ascending) + len(ls.descending) in (40, 41, 42)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(0.0, 6027.0))
    def test_rows_partition_constellation(self, iridium, t):
        rows = reference_ls_rows(iridium, 60.0, t)
        assert sorted(r.phase_class for r in rows) == list(range(22))
        seen = set()
        for row in rows:
            members = row_members(iridium, row.phase_class)
            assert len(members) == iridium.plane_count // 2
            seen.update(members)
        assert len(seen) == iridium.total_satellites

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(0.0, 6027.0))
    def test_row_members_share_latitude_and_direction(self, iridium, t):
        phases = row_phase_deg(iridium, t)
        assert phases.shape == (22,)
        for c, u in enumerate(phases.tolist()):
            assert u == class_phase_deg(iridium, c, t)
            latitude = true_latitude_deg(iridium, u)
            for sat in row_members(iridium, c):
                stt = satellite_state(iridium, sat, t)
                assert stt.latitude_deg == pytest.approx(latitude, abs=1e-6)
                assert stt.ascending == is_ascending(u)

    @settings(max_examples=40, deadline=None)
    @given(border=st.floats(1.0, 89.0))
    def test_row_count_identity(self, iridium, border):
        # each arc holds the nominal non-polar rows, or one more just after
        # an exit, and the polar ones; together M rows. The bands are the
        # reference's non-polar rows of each arc, in its order
        rows = reference_ls_rows(iridium, border, 0.0)
        ls = build_ls_state(iridium, border, 0.0)
        n_npa = nonpolar_row_count(iridium, border)
        for ascending, band in ((True, ls.ascending), (False, ls.descending)):
            arc = [r for r in rows if r.ascending == ascending]
            assert len(arc) == iridium.sats_per_plane
            assert [r.phase_class for r in arc if not r.in_polar] == band.tolist()
            assert len(band) in (n_npa, n_npa + 1)

    def test_anchor_is_most_recently_exited(self, iridium):
        period = orbit_period(iridium)
        # just after the first exit event the anchor sits at the south exit border
        t_exit = min(((300.0 - c * iridium.phase_offset_deg) % 360.0) / 360.0 * period
                     for c in range(22))
        rows = reference_ls_rows(iridium, 60.0, t_exit + 1e-3)
        anchor = rows[anchor_index(rows, 60.0)]
        assert anchor.ascending
        assert not anchor.in_polar
        assert true_latitude_deg(iridium, anchor.u_deg) == pytest.approx(-59.9, abs=0.5)
        # the ascending band starts from it, and every band runs up one class at a time
        ls = build_ls_state(iridium, 60.0, t_exit + 1e-3)
        assert ls.ascending[0] == anchor.phase_class
        for band in (ls.ascending, ls.descending):
            assert (np.diff(band) % 22 == 1).all()


class TestGeocentricAngle:
    def test_identical_positions(self):
        assert geocentric_angle_deg((7000, 0, 0), (7000, 0, 0)) == 0.0

    def test_antipodal(self):
        assert geocentric_angle_deg((7000, 0, 0), (-7000, 0, 0)) == pytest.approx(180.0)

    def test_adjacent_same_plane(self, iridium):
        # oracle: the intra-plane slot angle 360/11
        a = position_km(iridium, SatId(1, 1), 0.0)
        b = position_km(iridium, SatId(1, 2), 0.0)
        assert geocentric_angle_deg(a, b) == pytest.approx(360.0 / 11, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            geocentric_angle_deg((0, 0, 0), (7000, 0, 0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=6, max_size=6))
    def test_symmetry(self, coords):
        a, b = coords[:3], coords[3:]
        if all(abs(c) < 1e-3 for c in a) or all(abs(c) < 1e-3 for c in b):
            return
        assert geocentric_angle_deg(a, b) == pytest.approx(
            geocentric_angle_deg(b, a), abs=1e-12)


class TestHorizontalSurvivalLatitude:
    def test_iridium_value(self, iridium):
        assert horizontal_survival_latitude_deg(iridium) == pytest.approx(32.81, abs=0.3)

    def test_zero_at_grazing_equality(self, iridium):
        # max angle exactly twice the plane spacing puts the sqrt argument at 0
        assert horizontal_survival_latitude_deg(
            iridium, max_angle_deg=2 * 31.6) == pytest.approx(0.0, abs=1e-12)

    def test_teledesic_always_visible(self, teledesic):
        # cos(68.0 deg) < cos(30.72 deg): the argument is negative, and such
        # links clear the Earth at every latitude
        with pytest.raises(InfeasibleGeometryError, match="visible at all latitudes"):
            raising_survival_latitude_deg(teledesic, max_link_angle_deg(teledesic))
        assert horizontal_survival_latitude_deg(teledesic) == 0.0
        assert survival_latitude_deg(teledesic) == 0.0

    def test_coinciding_planes_always_visible(self, iridium):
        # a 180 degree spacing puts the planes two apart in one plane
        spec = dataclasses.replace(iridium, inter_plane_spacing_deg=180.0)
        with pytest.raises(InfeasibleGeometryError, match="spacing"):
            raising_survival_latitude_deg(spec, max_link_angle_deg(spec))
        assert horizontal_survival_latitude_deg(spec) == survival_latitude_deg(spec) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(altitude=st.floats(200.0, 40000.0),
           grazing=st.floats(0.0, 1.0),
           spacing=st.floats(0.0, 180.0, exclude_min=True))
    @example(altitude=780.0, grazing=49.0 / 779.0, spacing=180.0)
    @example(altitude=780.0, grazing=49.0 / 779.0, spacing=1e-300)
    @example(altitude=780.0, grazing=49.0 / 779.0, spacing=31.6)
    @example(altitude=1375.0, grazing=49.0 / 1374.0, spacing=15.36)
    def test_matches_raising_formula_and_mapping(self, altitude, grazing, spacing):
        # the grazing altitude, a fraction of [0, altitude - 1 km], stays
        # 1 km or more below the orbit, so the link angle is not rounded to 0
        spec = ConstellationSpec(6, 11, 86.4, altitude, inter_plane_spacing_deg=spacing,
                                 grazing_altitude_km=grazing * (altitude - 1.0))
        value = horizontal_survival_latitude_deg(spec)
        assert value == survival_latitude_deg(spec)
        assert math.isfinite(value) and 0.0 <= value < 90.0

    def test_monotonicity_sweep(self, iridium):
        # larger visibility angle -> lower survival latitude;
        # larger plane spacing -> higher survival latitude
        import dataclasses
        thetas = np.linspace(40.0, 62.0, 50)
        values = [horizontal_survival_latitude_deg(iridium, th) for th in thetas]
        assert all(b < a for a, b in zip(values, values[1:]))

        spacings = np.linspace(27.0, 40.0, 50)
        vals = []
        for s in spacings:
            spec = dataclasses.replace(iridium, inter_plane_spacing_deg=float(s))
            vals.append(horizontal_survival_latitude_deg(spec, 52.0))
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAllPositions:
    def test_time_array_stacks_scalar_calls(self, iridium):
        times = [0.0, 60.0, 1234.5, 6026.999, 86340.0]
        batch = all_positions_km(iridium, np.array(times))
        assert batch.shape == (5, 66, 3)
        stacked = np.stack([all_positions_km(iridium, t) for t in times])
        assert np.max(np.abs(batch - stacked)) <= 1e-9

    def test_scalar_matches_position_km(self, iridium):
        positions = all_positions_km(iridium, 777.0)
        assert positions.shape == (66, 3)
        assert positions[13] == pytest.approx(position_km(iridium, SatId(2, 3), 777.0),
                                              abs=1e-9)

    def test_times_keep_their_shape(self, teledesic):
        assert all_positions_km(teledesic, np.zeros((2, 3))).shape == (2, 3, 288, 3)


class TestSatelliteIds:
    def test_one_table_in_index_order(self, iridium, teledesic):
        for spec in (iridium, teledesic):
            table = satellite_ids(spec.plane_count, spec.sats_per_plane)
            assert table == tuple(index_to_sat(spec, i) for i in range(spec.total_satellites))
            assert [sat_to_index(spec, s) for s in table] == list(range(len(table)))
            assert satellite_ids(spec.plane_count, spec.sats_per_plane) is table


class TestPropagationDelay:
    def test_coincident(self):
        assert propagation_delay_s((1, 2, 3), (1, 2, 3)) == 0.0

    def test_light_second_scaling(self):
        assert propagation_delay_s((0, 0, 0), (2997.92458, 0, 0)) == pytest.approx(0.01)

    def test_adjacent_intra_plane_chord(self, iridium):
        # oracle: chord = 2 (R+h) sin(slot/2)
        a = position_km(iridium, SatId(1, 1), 0.0)
        b = position_km(iridium, SatId(1, 2), 0.0)
        chord = 2.0 * iridium.orbit_radius_km * math.sin(math.radians(180.0 / 11))
        assert propagation_delay_s(a, b) == pytest.approx(
            chord / SPEED_OF_LIGHT_KM_S, rel=1e-12)
        assert propagation_delay_s(a, b) == pytest.approx(0.01346, abs=2e-5)


class TestElevation:
    def test_zenith(self, iridium):
        gs = GroundStation("gs", 30.0, 40.0)
        gpos = np.array(ground_position_km(gs, 0.0))
        zenith = tuple(gpos / np.linalg.norm(gpos) * iridium.orbit_radius_km)
        state = SatState(SatId(1, 1), 0.0, 30.0, 40.0, zenith, True)
        assert elevation_angle_deg(gs, state, 0.0) == pytest.approx(90.0)

    def test_antipode(self, iridium):
        gs = GroundStation("gs", 10.0, -60.0)
        gpos = np.array(ground_position_km(gs, 0.0))
        anti = tuple(-gpos / np.linalg.norm(gpos) * iridium.orbit_radius_km)
        state = SatState(SatId(1, 1), 0.0, -10.0, 120.0, anti, True)
        assert elevation_angle_deg(gs, state, 0.0) == pytest.approx(-90.0)

    def test_grazing_horizon(self, iridium):
        # oracle: satellite at geocentric angle acos(R / (R+h)) sits on the horizon
        gs = GroundStation("gs", 0.0, 0.0)
        r = iridium.orbit_radius_km
        psi = math.acos(iridium.earth_radius_km / r)
        sat_pos = (r * math.cos(psi), r * math.sin(psi), 0.0)
        state = SatState(SatId(1, 1), 0.0, 0.0, 0.0, sat_pos, True)
        assert elevation_angle_deg(gs, state, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_station_rotates_with_earth(self):
        gs = GroundStation("gs", 0.0, 0.0)
        p0 = ground_position_km(gs, 0.0)
        p_quarter = ground_position_km(gs, 86164.0905 / 4.0)
        assert p0[0] == pytest.approx(6378.137)
        assert p_quarter[1] == pytest.approx(6378.137, rel=1e-9)

    def test_station_time_array_stacks_scalar_calls(self):
        gs = GroundStation("gs", -33.9, 18.4)
        times = np.array([[0.0, 60.0, 1234.5], [6026.999, 43082.0, 86340.0]])
        batch = ground_position_km(gs, times)
        assert batch.shape == (2, 3, 3)
        stacked = np.array([[ground_position_km(gs, t) for t in row] for row in times])
        assert np.array_equal(batch, stacked)


class TestLinkLimits:
    def test_max_link_angle_from_grazing(self, iridium):
        expected = 2.0 * math.degrees(math.acos(
            (6378.137 + 49.0) / (6378.137 + 780.0)))
        assert max_link_angle_deg(iridium) == pytest.approx(expected, rel=1e-12)

