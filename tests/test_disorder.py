"""Sampling layer: determinism, law correctness, translation bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from randschrod import DisorderModel, DisorderSample, sample_disorder


class TestUniformLaw:
    def test_mean_and_variance_match_uniform(self):
        model = DisorderModel(omega_max=3.0, master_seed=12)
        vals = sample_disorder(model, [range(20000)], realization=0).values
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
        vals = sample_disorder(model, [range(5000)], 0).values
        u = betainc(2.0, 3.0, vals / 2.0)
        ks = np.max(np.abs(np.sort(u) - np.arange(1, 5001) / 5001))
        assert ks < 0.03  # 1.36/sqrt(n) ~ 0.019 at the 5% level

    def test_zero_omega_max_gives_silence(self):
        model = DisorderModel(omega_max=0.0, master_seed=1)
        sample = sample_disorder(model, [range(50)], 3)
        assert np.all(sample.values == 0.0)


_BOX = st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 7)), min_size=1, max_size=2)


class TestDeterminism:
    def test_site_value_independent_of_request_set(self):
        model = DisorderModel(omega_max=1.0, master_seed=99)
        big = sample_disorder(model, [range(100)], 5)
        for k in (17, 3, 99):
            assert big[(k,)] == sample_disorder(model, [range(k, k + 1)], 5)[(k,)]
        wide = sample_disorder(model, [range(-4, 8), range(-6, 6)], 5)
        narrow = sample_disorder(model, [range(1, 3), range(-6, -1)], 5)
        assert np.array_equal(narrow.values, wide.values[5:7, 0:5])

    def test_redraw_is_bitwise_identical(self):
        model = DisorderModel(omega_max=1.0, master_seed=4)
        a = sample_disorder(model, [range(8), range(8)], 2)
        b = sample_disorder(model, [range(8), range(8)], 2)
        assert np.array_equal(a.values, b.values)

    @given(seed=st.integers(0, 2**32), r1=st.integers(0, 100), r2=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_distinct_realizations_decorrelate(self, seed, r1, r2):
        model = DisorderModel(omega_max=1.0, master_seed=seed)
        a = sample_disorder(model, [range(40)], r1).values
        b = sample_disorder(model, [range(40)], r2).values
        if r1 == r2:
            assert np.array_equal(a, b)
        else:
            assert np.any(a != b)

    def test_negative_site_coordinates_are_distinct(self):
        model = DisorderModel(omega_max=1.0, master_seed=0)
        s = sample_disorder(model, [range(-3, 4)], 0)
        assert s[(-3,)] != s[(3,)]

    @given(box=_BOX, seed=st.integers(0, 2**16), realization=st.integers(0, 50),
           law=st.sampled_from(["uniform", "beta"]))
    @settings(max_examples=40, deadline=None)
    def test_every_entry_is_the_draw_at_its_site(self, box, seed, realization, law):
        model = DisorderModel(omega_max=1.5, law=law, master_seed=seed)
        ranges = [range(start, start + n) for start, n in box]
        sample = sample_disorder(model, ranges, realization)
        assert sample.values.shape == tuple(n for _, n in box)
        assert len(sample) == sample.values.size
        for index in np.ndindex(sample.values.shape):
            site = np.array([[r[i] for r, i in zip(ranges, index)]], dtype=np.int64)
            assert sample.values[index] == model.draw(site, realization)[0]

    @given(box=_BOX, shift=st.lists(st.integers(-9, 9), min_size=2, max_size=2),
           fold=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_translation_moves_every_value(self, box, shift, fold):
        model = DisorderModel(omega_max=1.0, master_seed=3)
        l = box[0][1] // 2
        if fold:  # folding acts on the fundamental cell {-l..l}^d
            ranges = [range(-l, l + 1)] * len(box)
        else:
            ranges = [range(start, start + n) for start, n in box]
        vector = tuple(shift[: len(ranges)])
        sample = sample_disorder(model, ranges, 0)
        moved = sample.translated(vector, fold_cells=2 * l + 1 if fold else None)
        for index in np.ndindex(sample.values.shape):
            site = tuple(r[i] for r, i in zip(ranges, index))
            there = tuple(k + v for k, v in zip(site, vector))
            if fold:
                there = tuple((k + l) % (2 * l + 1) - l for k in there)
            assert moved[there] == sample[site]


class TestSampleContainer:
    def test_mapping_protocol(self):
        s = DisorderSample(np.array([0.5, 0.25]), (0,))
        assert len(s) == 2
        assert s[(0,)] == 0.5 and s[(1,)] == 0.25
        for outside in ((2,), (-1,)):
            with pytest.raises(KeyError, match=rf"\({outside[0]},\)"):
                s[outside]
        with pytest.raises(ValueError, match="dimension"):
            s[(0, 1)]

    def test_translation_moves_sites(self):
        s = DisorderSample(np.array([0.1, 0.9]), (0,))
        t = s.translated((2,))
        assert t[(2,)] == 0.1 and t[(3,)] == 0.9
        with pytest.raises(KeyError):
            t[(0,)]

    def test_folded_translation_wraps_into_box(self):
        # 1D box of 3 cells has sites {-1, 0, 1}; shifting by one cell
        # folds the rightmost site around to the left edge
        s = DisorderSample(np.array([0.1, 0.2, 0.3]), (-1,))
        t = s.translated((1,), fold_cells=3)
        assert t[(0,)] == 0.1 and t[(1,)] == 0.2 and t[(-1,)] == 0.3
        with pytest.raises(ValueError, match="fundamental cell"):
            s.translated((1,), fold_cells=5)

    def test_constant_factory(self):
        s = DisorderSample.constant([range(0, 6), range(-2, 1)], 0.75)
        assert len(s) == 18
        assert s[(0, -2)] == 0.75 == s[(5, 0)]


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
        sample = sample_disorder(model, [range(3), range(3)], 0)
        for site in ((0,), (0, 1, 2)):
            with pytest.raises(ValueError, match="dimension"):
                sample[site]
