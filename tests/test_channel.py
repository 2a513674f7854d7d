"""LOS channel model: frozen reference values and geometric properties."""

import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lifi_noma import (
    NoiseModel,
    OpticalFrontEnd,
    QosRates,
    ScenarioConfig,
    UserNode,
    UserPosition,
    channel_gain,
    evaluate_population,
)
from lifi_noma.cli import _jsonable

# Frozen from a 50-digit mpmath evaluation of the same formulas.
M_70 = 0.6460587703487338
GL_REF = 2.548067245721537
C_REF = 2.4031387959983066e-05
H_NEAR = 3.8450220735972906e-06  # (l, r) = (2.5 m, 0 m), reference front end
H_FAR = 2.195095822927715e-06    # (l, r) = (2.5 m, 1.5 m)
H_HIGH = 1.0680616871103585e-05  # (l, r) = (1.5 m, 0 m)

REL = 1e-12


def lambertian_order(semi_angle_deg: float) -> float:
    return OpticalFrontEnd(semi_angle_deg=semi_angle_deg).lambertian_order


def lens_gain(refractive_index: float, fov_half_angle_deg: float) -> float:
    return OpticalFrontEnd(refractive_index=refractive_index,
                           fov_half_angle_deg=fov_half_angle_deg).lens_gain


class TestLambertianOrder:
    def test_semi_angle_60_gives_unit_order(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, rel=REL)

    def test_semi_angle_45_gives_order_two(self):
        assert lambertian_order(45.0) == pytest.approx(2.0, rel=REL)

    def test_reference_semi_angle(self):
        assert lambertian_order(70.0) == pytest.approx(M_70, rel=REL)

    @pytest.mark.parametrize("angle", [0.0, 90.0, -10.0, 95.0])
    def test_rejects_out_of_range_angles(self, angle):
        with pytest.raises(ValueError):
            lambertian_order(angle)


class TestLensGain:
    def test_unit_index_full_fov(self):
        # the FOV must stay below 90 degrees; just below, sin^2 rounds to 1
        assert lens_gain(1.0, 90.0 - 1e-9) == pytest.approx(1.0, rel=REL)

    def test_reference_lens(self):
        assert lens_gain(1.5, 70.0) == pytest.approx(GL_REF, rel=REL)

    def test_narrow_fov(self):
        assert lens_gain(2.0, 30.0) == pytest.approx(16.0, rel=REL)

    def test_rejects_zero_fov(self):
        with pytest.raises(ValueError):
            lens_gain(1.5, 0.0)

    def test_rejects_sub_unit_index(self):
        with pytest.raises(ValueError):
            lens_gain(0.9, 70.0)


class TestOpticalFrontEnd:
    def test_reference_derived_constants(self):
        fe = OpticalFrontEnd()
        assert fe.lambertian_order == pytest.approx(M_70, rel=REL)
        assert fe.lens_gain == pytest.approx(GL_REF, rel=REL)
        assert fe.channel_constant == pytest.approx(C_REF, rel=REL)

    def test_derived_invariants(self):
        fe = OpticalFrontEnd(semi_angle_deg=30.0, fov_half_angle_deg=45.0)
        assert fe.lambertian_order > 0.0
        assert fe.lens_gain >= 1.0
        assert fe.channel_constant > 0.0

    def test_reports_every_violation(self):
        with pytest.raises(ValueError) as err:
            OpticalFrontEnd(semi_angle_deg=120.0, filter_gain=1.5, responsivity=-1.0)
        message = str(err.value)
        assert "semi_angle_deg" in message
        assert "filter_gain" in message
        assert "responsivity" in message

    def test_gain_terms_are_computed_once_and_seen_by_nothing_else(self):
        fresh, fe = OpticalFrontEnd(semi_angle_deg=60.0), OpticalFrontEnd(semi_angle_deg=60.0)
        assert fe.gain_terms is fe.gain_terms
        assert fe.gain_terms == (math.tan(math.radians(70.0)), fe.lambertian_order + 1.0,
                                 fe.channel_constant)
        assert "gain_terms" in vars(fe) and "gain_terms" not in vars(fresh)
        assert "gain_terms" not in {f.name for f in dataclasses.fields(fe)}
        assert fe == fresh and hash(fe) == hash(fresh) and repr(fe) == repr(fresh)
        assert "gain_terms" not in vars(dataclasses.replace(fe))
        assert pickle.dumps(fe) == pickle.dumps(fresh)  # the spawned workers' transport
        assert "gain_terms" not in vars(pickle.loads(pickle.dumps(fe)))
        assert _jsonable(fe) == _jsonable(fresh)


class TestUserPosition:
    def test_rejects_non_positive_height(self):
        with pytest.raises(ValueError):
            UserPosition(0.0, 1.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            UserPosition(2.0, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["vertical", "horizontal", "polar_angle"])
    def test_rejects_a_non_finite_field_by_name(self, name, value):
        fields = {"vertical": 2.0, "horizontal": 1.0, "polar_angle": 0.5, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            UserPosition(**fields)

    def test_evaluate_population_yields_no_nan(self):
        # a NaN distance made a NaN total power with EE 0; it is now refused
        # when the user is built, and the farthest users that remain (the
        # largest floats) are outages with finite EE
        with pytest.raises(ValueError, match="vertical"):
            UserNode(UserPosition(math.nan, 1.0), QosRates(1.0, 1.0))
        far = sys.float_info.max
        users = [UserNode(UserPosition(far, far, 1.0), QosRates(1.0, 2.0)),
                 UserNode(UserPosition(far, 0.0), QosRates(2.0, 1.0)),
                 UserNode(UserPosition(2.0, 0.5), QosRates(1.0, 1.0))]
        for served_only in (False, True):
            config = ScenarioConfig(num_users=3, trials=1, ee_served_only=served_only,
                                    pairings=("channel", "qos", "adaptive"))
            for cell in evaluate_population(config, users).values():
                values = [cell.sum_rate, cell.total_power, cell.ee, *cell.dl_powers,
                          *cell.ul_powers]
                assert not any(math.isnan(v) for v in values)
                assert cell.total_power == math.inf


    @pytest.mark.parametrize("value", [True, "1", None])
    @pytest.mark.parametrize("name", ["vertical", "horizontal", "polar_angle"])
    def test_a_bool_or_a_non_real_is_refused_by_name(self, name, value):
        fields = {"vertical": 2.0, "horizontal": 1.0, "polar_angle": 0.5, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be real \\(a number, not a bool\\)"):
            UserPosition(**fields)

    def test_numpy_reals_are_stored_as_python_numbers(self):
        position = UserPosition(np.float32(2.5), np.int64(1), np.float64(0.5))
        assert position == UserPosition(2.5, 1, 0.5)
        assert [type(v) for v in vars(position).values()] == [float, int, float]


class TestChannelGain:
    def test_reference_on_axis(self):
        gain = channel_gain(UserPosition(2.5, 0.0), OpticalFrontEnd())
        assert gain == pytest.approx(H_NEAR, rel=REL)

    def test_reference_off_axis(self):
        gain = channel_gain(UserPosition(2.5, 1.5), OpticalFrontEnd())
        assert gain == pytest.approx(H_FAR, rel=REL)

    def test_reference_low_ceiling(self):
        gain = channel_gain(UserPosition(1.5, 0.0), OpticalFrontEnd())
        assert gain == pytest.approx(H_HIGH, rel=REL)

    def test_outside_fov_is_exactly_zero(self):
        # r/l = 10 is far beyond tan(70 deg) ~ 2.747
        assert channel_gain(UserPosition(1.0, 10.0), OpticalFrontEnd()) == 0.0

    @pytest.mark.parametrize("height", [1e-200, 1e-160])
    def test_a_height_whose_square_underflows_reads_an_infinite_gain(self, height):
        # l*l + r*r rounds to 0 at 1e-200 and to a subnormal at 1e-160; either
        # way the gain is inf, as allocation._per_square reads a zero square
        assert channel_gain(UserPosition(height, 0.0), OpticalFrontEnd()) == math.inf
        assert channel_gain(UserPosition(height, height), OpticalFrontEnd()) == math.inf

    def test_fov_boundary_belongs_to_visible_branch(self):
        fe = OpticalFrontEnd()
        boundary = math.tan(math.radians(fe.fov_half_angle_deg))
        assert channel_gain(UserPosition(1.0, boundary), fe) > 0.0

    def test_both_links_agree_for_identical_front_ends(self):
        pos = UserPosition(2.1, 1.3)
        assert channel_gain(pos, OpticalFrontEnd()) == channel_gain(pos, OpticalFrontEnd())

    @given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
    def test_polar_angle_never_matters(self, angle_a, angle_b):
        fe = OpticalFrontEnd()
        gain_a = channel_gain(UserPosition(2.0, 1.0, angle_a), fe)
        gain_b = channel_gain(UserPosition(2.0, 1.0, angle_b), fe)
        assert gain_a == gain_b

    @given(st.floats(0.0, 5.4), st.floats(0.0, 5.4))
    def test_gain_never_increases_with_radius(self, r_a, r_b):
        # both radii stay inside the FOV for l = 2 (cutoff at ~5.49 m)
        fe = OpticalFrontEnd()
        r_lo, r_hi = sorted((r_a, r_b))
        assert channel_gain(UserPosition(2.0, r_lo), fe) >= channel_gain(
            UserPosition(2.0, r_hi), fe
        )

    @given(st.floats(0.5, 10.0), st.floats(0.5, 10.0))
    def test_on_axis_gain_strictly_decreases_with_height(self, l_a, l_b):
        fe = OpticalFrontEnd()
        l_lo, l_hi = sorted((l_a, l_b))
        if l_lo == l_hi:
            return
        assert channel_gain(UserPosition(l_lo, 0.0), fe) > channel_gain(
            UserPosition(l_hi, 0.0), fe
        )


class TestNoiseModel:
    def test_reference_noise_power(self):
        assert NoiseModel(psd=1e-22, bandwidth=2e7).noise_power == pytest.approx(2e-15, rel=REL)

    def test_narrower_band(self):
        assert NoiseModel(psd=1e-22, bandwidth=1e7).noise_power == pytest.approx(1e-15, rel=REL)

    def test_rejects_zero_psd(self):
        with pytest.raises(ValueError):
            NoiseModel(psd=0.0, bandwidth=2e7)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            NoiseModel(psd=1e-22, bandwidth=0.0)

    def test_lists_every_problem(self):
        with pytest.raises(ValueError) as err:
            NoiseModel(psd=math.inf, bandwidth=0.0)
        assert str(err.value) == ("invalid noise model: noise PSD must be positive and finite, "
                                  "got inf; bandwidth must be positive and finite, got 0.0")
        # the noise power is checked once both fields pass
        with pytest.raises(ValueError, match="noise power psd \\* bandwidth"):
            NoiseModel(psd=1e-200, bandwidth=1e-200)
