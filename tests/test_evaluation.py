import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from stemfit.errors import DegenerateInputError, InsufficientSamplesError
from stemfit.evaluation import (
    SummaryStats,
    localization_error,
    orientation_error,
    summarize,
    welch_t_test,
)
from stemfit.geometry import Vec3

# fixture pair with unequal variances for cross-checking the Welch test
WELCH_A = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4]
WELCH_B = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5]


class TestLocalizationError:
    def test_zero_when_equal(self):
        assert localization_error(Vec3(1, 2, 3), Vec3(1, 2, 3)) == 0.0

    def test_axis_aligned_offset(self):
        assert localization_error(Vec3(1.03, 2, 3), Vec3(1, 2, 3)) == pytest.approx(0.03, abs=1e-15)

    def test_three_four_five(self):
        r_true = Vec3(0.5, 0.5, 0.5)
        r_hat = Vec3(0.53, 0.54, 0.5)
        assert localization_error(r_hat, r_true) == pytest.approx(0.05, abs=1e-15)


class TestOrientationError:
    def test_zero_when_equal(self):
        assert orientation_error(Vec3(0, 0, 0.1), Vec3(0, 0, 0.1), Vec3(0, 0, 0)) == 0.0

    def test_diametrically_opposite(self):
        got = orientation_error(Vec3(0, 0, -0.1), Vec3(0, 0, 0.1), Vec3(0, 0, 0))
        assert got == pytest.approx(180.0, abs=1e-9)

    def test_45_degrees(self):
        got = orientation_error(Vec3(0, 0.1, 0.1), Vec3(0, 0, 0.1), Vec3(0, 0, 0))
        assert got == pytest.approx(45.0, abs=1e-12)

    def test_scale_invariance_about_anchor(self, rng):
        anchor = Vec3(0.2, -0.1, 0.4)
        for _ in range(30):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            s1, s2 = rng.uniform(0.1, 10.0, size=2)
            base = orientation_error(
                Vec3.from_array(anchor.as_array() + u),
                Vec3.from_array(anchor.as_array() + v),
                anchor,
            )
            scaled = orientation_error(
                Vec3.from_array(anchor.as_array() + s1 * u),
                Vec3.from_array(anchor.as_array() + s2 * v),
                anchor,
            )
            assert abs(base - scaled) < 1e-9

    def test_degenerate_anchor_rejected(self):
        with pytest.raises(DegenerateInputError):
            orientation_error(Vec3(0, 0, 0.1), Vec3(0, 0, 0), Vec3(0, 0, 0))


class TestSummarize:
    def test_odd_sample(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.median == 3.0 and s.mean == 3.0

    def test_constant_sample(self):
        s = summarize([1, 1, 1, 1])
        assert s.median == 1.0 and s.iqr == 0.0 and s.std == 0.0

    def test_even_sample_interpolated_quartiles(self):
        s = summarize([1, 2, 3, 4])
        assert s.median == 2.5
        assert s.iqr == pytest.approx(1.5, abs=1e-15)  # quartiles 1.75 and 3.25

    def test_matches_numpy_quantiles(self, rng):
        values = rng.normal(size=37)
        s = summarize(values)
        assert s.iqr == pytest.approx(
            float(np.quantile(values, 0.75) - np.quantile(values, 0.25)), abs=1e-12
        )
        assert s.std == pytest.approx(float(np.std(values, ddof=1)), abs=1e-12)

    def test_permutation_and_translation(self, rng):
        values = list(rng.normal(size=15))
        base = summarize(values)
        shuffled = summarize(list(rng.permutation(values)))
        assert shuffled.median == base.median
        assert shuffled.iqr == pytest.approx(base.iqr, abs=1e-12)
        assert shuffled.mean == pytest.approx(base.mean, abs=1e-12)
        assert shuffled.std == pytest.approx(base.std, abs=1e-12)
        shifted = summarize([v + 2.5 for v in values])
        assert shifted.median == pytest.approx(base.median + 2.5, abs=1e-12)
        assert shifted.mean == pytest.approx(base.mean + 2.5, abs=1e-12)
        assert shifted.iqr == pytest.approx(base.iqr, abs=1e-12)
        assert shifted.std == pytest.approx(base.std, abs=1e-12)

    def test_single_value(self):
        s = summarize([4.2])
        assert s == SummaryStats(4.2, 0.0, 4.2, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestWelch:
    def test_identical_samples(self):
        r = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t_statistic == 0.0 and r.p_value == 1.0

    def test_separated_with_jitter(self):
        a = [0.0, 1e-9, 0.0, 1e-9]
        b = [1.0, 1.0 + 1e-9, 1.0, 1.0 + 1e-9]
        r = welch_t_test(a, b)
        assert r.p_value < 1e-6

    def test_textbook_fixture_against_reference(self):
        mine = welch_t_test(WELCH_A, WELCH_B)
        ref_t, ref_p = stats.ttest_ind(WELCH_A, WELCH_B, equal_var=False)
        assert mine.t_statistic == pytest.approx(float(ref_t), abs=1e-12)
        assert mine.p_value == pytest.approx(float(ref_p), abs=1e-12)
        # oracle-computed values, frozen
        assert mine.t_statistic == pytest.approx(-2.707777779103321, abs=1e-12)
        assert mine.p_value == pytest.approx(0.011616192002630836, abs=1e-12)

    def test_swap_symmetry(self, rng):
        a = list(rng.normal(size=12))
        b = list(rng.normal(loc=0.4, size=9))
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_constant_but_different(self):
        r = welch_t_test([0.0, 0.0], [1.0, 1.0])
        assert math.isinf(r.t_statistic) and r.p_value == 0.0

    def test_constant_and_equal(self):
        r = welch_t_test([2.0, 2.0], [2.0, 2.0, 2.0])
        assert (r.t_statistic, r.p_value, r.degrees_of_freedom) == (0.0, 1.0, 3.0)



def bits(value: float) -> bytes:
    return struct.pack("<d", value)


samples = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12)


class TestPowerOfTwoScaling:
    """Scaling the samples by 2**k moves no statistic's bits, however far it
    takes them from 1: neither the variances nor their squares overflow or
    underflow."""

    @given(samples, samples, st.integers(-900, 900))
    def test_welch_keeps_its_bits(self, a, b, k):
        scaled = welch_t_test([math.ldexp(v, k) for v in a], [math.ldexp(v, k) for v in b])
        base = welch_t_test(a, b)
        for field in ("t_statistic", "p_value", "degrees_of_freedom"):
            assert bits(getattr(scaled, field)) == bits(getattr(base, field)), field

    @given(samples, st.integers(-900, 900))
    def test_summary_scales_exactly(self, values, k):
        scaled = summarize([math.ldexp(v, k) for v in values])
        base = summarize(values)
        for field in ("median", "iqr", "mean", "std"):
            assert bits(getattr(scaled, field)) == bits(math.ldexp(getattr(base, field), k)), field

    def test_huge_values(self):
        assert summarize([1e200, 2e200]).std == pytest.approx(math.sqrt(0.5) * 1e200, rel=1e-15)
        huge = welch_t_test([1e78, 2e78], [3e78, 5e78])
        small = welch_t_test([1.0, 2.0], [3.0, 5.0])
        for field in ("t_statistic", "p_value", "degrees_of_freedom"):
            assert getattr(huge, field) == pytest.approx(getattr(small, field), rel=1e-14)
