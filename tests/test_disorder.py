"""Sampling layer: determinism, law correctness, translation bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from randschrod import DisorderModel, DisorderSample, sample_disorder


def _line(n, dim=1):
    if dim == 1:
        return [(k,) for k in range(n)]
    side = int(round(n ** 0.5))
    return [(i, j) for i in range(side) for j in range(side)]


class TestUniformLaw:
    def test_mean_and_variance_match_uniform(self):
        model = DisorderModel(omega_max=3.0, master_seed=12)
        sample = sample_disorder(model, _line(20000), realization=0)
        vals = np.array([sample[s] for s in _line(20000)])
        # exact: mean 1.5, var 0.75; n = 2e4 puts the sample mean
        # within ~0.02 at 3 sigma
        assert abs(vals.mean() - 1.5) < 0.03
        assert abs(vals.var() - 0.75) < 0.03
        assert vals.min() >= 0.0
        assert vals.max() <= 3.0

    def test_probability_integral_transform_is_uniform(self):
        # map draws through their own CDF; the result must look U[0,1]
        model = DisorderModel(omega_max=2.0, law="beta", beta_a=2.0,
                              beta_b=3.0, master_seed=7)
        sites = _line(5000)
        sample = sample_disorder(model, sites, 0)
        vals = np.array([sample[s] for s in sites])
        u = betainc(2.0, 3.0, vals / 2.0)
        ks = np.max(np.abs(np.sort(u) - np.arange(1, 5001) / 5001))
        assert ks < 0.03  # 1.36/sqrt(n) ~ 0.019 at the 5% level

    def test_zero_omega_max_gives_silence(self):
        model = DisorderModel(omega_max=0.0, master_seed=1)
        sample = sample_disorder(model, _line(50), 3)
        assert all(sample[s] == 0.0 for s in _line(50))


class TestDeterminism:
    def test_site_value_independent_of_request_set(self):
        model = DisorderModel(omega_max=1.0, master_seed=99)
        big = sample_disorder(model, _line(100), 5)
        small = sample_disorder(model, [(17,), (3,), (99,)], 5)
        for s in [(17,), (3,), (99,)]:
            assert big[s] == small[s]

    def test_redraw_is_bitwise_identical(self):
        model = DisorderModel(omega_max=1.0, master_seed=4)
        a = sample_disorder(model, _line(64, dim=2), 2)
        b = sample_disorder(model, list(reversed(_line(64, dim=2))), 2)
        assert all(a[s] == b[s] for s in a.sites())

    @given(seed=st.integers(0, 2**32), r1=st.integers(0, 100), r2=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_distinct_realizations_decorrelate(self, seed, r1, r2):
        model = DisorderModel(omega_max=1.0, master_seed=seed)
        sites = _line(40)
        a = sample_disorder(model, sites, r1)
        b = sample_disorder(model, sites, r2)
        if r1 == r2:
            assert all(a[s] == b[s] for s in sites)
        else:
            assert any(a[s] != b[s] for s in sites)

    def test_negative_site_coordinates_are_distinct(self):
        model = DisorderModel(omega_max=1.0, master_seed=0)
        s = sample_disorder(model, [(-3,), (3,)], 0)
        assert s[(-3,)] != s[(3,)]


class TestSampleContainer:
    def test_mapping_protocol(self):
        s = DisorderSample({(0,): 0.5, (1,): 0.25}, omega_max=1.0)
        assert (0,) in s and (2,) not in s
        assert len(s) == 2
        assert s[(1,)] == 0.25
        with pytest.raises(KeyError, match=r"\(2,\)"):
            s.coupling_at((2,))

    def test_translation_moves_sites(self):
        s = DisorderSample({(0,): 0.1, (1,): 0.9}, omega_max=1.0)
        t = s.translated((2,))
        assert t[(2,)] == 0.1 and t[(3,)] == 0.9

    def test_folded_translation_wraps_into_box(self):
        # 1D box of 3 cells has sites {-1, 0, 1}; shifting by one cell
        # folds the rightmost site around to the left edge
        s = DisorderSample({(-1,): 0.1, (0,): 0.2, (1,): 0.3}, omega_max=1.0)
        t = s.translated((1,), fold_cells=3)
        assert t[(0,)] == 0.1 and t[(1,)] == 0.2 and t[(-1,)] == 0.3

    def test_constant_factory(self):
        s = DisorderSample.constant([(0,), (5,)], 0.75)
        assert s[(0,)] == 0.75 == s[(5,)]


class TestValidation:
    def test_negative_omega_max_rejected(self):
        with pytest.raises(ValueError, match="omega_max"):
            DisorderModel(omega_max=-0.1)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="law"):
            DisorderModel(omega_max=1.0, law="cauchy")

    def test_unbounded_beta_density_rejected(self):
        with pytest.raises(ValueError, match="bounded density"):
            DisorderModel(omega_max=1.0, law="beta", beta_a=0.5, beta_b=2.0)

    def test_mixed_dimension_sites_rejected(self):
        model = DisorderModel(omega_max=1.0)
        with pytest.raises(ValueError, match="dimension"):
            sample_disorder(model, [(0,), (0, 1)], 0)
