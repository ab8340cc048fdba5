"""Localization probes: resolvent decay, spectral statistics, recursions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randschrod import (
    AndersonModel,
    BoundaryCondition,
    PeriodicPotential,
    SingleSitePotential,
    alpha_n_feasible,
    combes_thomas_profile,
    fixed_theta_check,
    m_regularity_test,
    msa_schedule,
    theta_average_check,
    wilson_interval,
)
from randschrod import hamiltonian
from randschrod import model as model_module
from randschrod.disorder import DisorderModel
from randschrod.hamiltonian import NumericalFailure
from randschrod.probes import _gap_estimates, _gap_hits, _next_scale


def _free_rate(z: float) -> float:
    # 1D lattice resolvent decays like mu^dist with mu + 1/mu = 2 - z
    s = 2.0 - z
    mu = (s - math.sqrt(s * s - 4.0)) / 2.0
    return -math.log(mu)


def _max_norm(profile, distance):
    return max(n for d, n in zip(profile.distances, profile.norms) if d == distance)


def _gap_probability(model, side, alpha, realizations, theta0=None):
    """The estimate of one side from the gap-prob run's worker and reduction."""
    estimates = _gap_estimates(model, (side,), alpha, theta0)
    return estimates(_gap_hits(model, (side,), alpha, theta0, range(realizations)))[0]


class TestCombesThomas:
    @pytest.mark.parametrize("z", [-1.0, -4.0, -16.0])
    def test_free_chain_recovers_the_toeplitz_rate(self, z):
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(81, BoundaryCondition.dirichlet())
        profile = combes_thomas_profile(h, z, anchor=(40,), max_distance=20)
        assert profile.rate == pytest.approx(_free_rate(z), rel=2e-3)
        assert profile.r_squared > 0.9999
        assert profile.dist_to_spectrum == pytest.approx(abs(z), rel=1e-2)

    def test_norms_match_the_dense_inverse(self):
        model = AndersonModel.free(omega_max=1.0, master_seed=9)
        h = model.anderson_box(15, BoundaryCondition.dirichlet(), realization=0)
        z = -0.7 + 0.3j
        profile = combes_thomas_profile(h, z, anchor=(7,), max_distance=7)
        inv = np.linalg.inv(h.dense() - z * np.eye(h.n))
        expected = {}
        for c in range(15):
            expected.setdefault(abs(c - 7), []).append(abs(inv[c, 7]))
        for d in set(profile.distances):
            assert _max_norm(profile, d) == pytest.approx(max(expected[d]), rel=1e-10)

    def test_blocks_use_the_spectral_norm_at_two_points_per_cell(self):
        model = AndersonModel.free(points_per_cell=2, omega_max=0.5, master_seed=4)
        h = model.anderson_box(9, BoundaryCondition.dirichlet(), realization=1)
        z = -2.0
        profile = combes_thomas_profile(h, z, anchor=(4,), max_distance=4)
        inv = np.linalg.inv(h.dense() - z * np.eye(h.n))
        anchor_cols = [8, 9]  # cell 4 of a 9-cell box at 2 points per cell
        for cell in range(9):
            rows = [2 * cell, 2 * cell + 1]
            block = inv[np.ix_(rows, anchor_cols)]
            d = abs(cell - 4)
            assert _max_norm(profile, d) >= np.linalg.svd(block, compute_uv=False)[0] - 1e-12

    def test_probe_on_the_spectrum_is_rejected(self):
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(5, BoundaryCondition.dirichlet())
        # 2 is an exact eigenvalue of the 5-site free chain
        with pytest.raises(ValueError, match="spectrum"):
            combes_thomas_profile(h, 2.0, anchor=(2,), max_distance=2)

    def test_floor_swallowing_all_norms_is_rejected(self):
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(21, BoundaryCondition.dirichlet())
        with pytest.raises(ValueError, match="floor"):
            combes_thomas_profile(h, -1.0, anchor=(10,), max_distance=10,
                                  norm_floor=1e10)


class TestWilsonInterval:
    def test_frozen_values(self):
        # 40-digit recomputation of the score interval at z = 1.96
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.27753279986289, abs=1e-12)
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.23659309051256, abs=1e-12)
        assert hi == pytest.approx(0.76340690948744, abs=1e-12)

    def test_extremes_stay_inside_the_unit_interval(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < lo < 1.0

    @given(total=st.integers(1, 500), frac=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_interval_brackets_the_point_estimate(self, total, frac):
        hits = int(round(frac * total))
        lo, hi = wilson_interval(hits, total)
        eps = 1e-12
        assert 0.0 <= lo <= hits / total + eps
        assert hits / total - eps <= hi <= 1.0 + eps

    def test_guards(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestGapProbability:
    def test_zero_disorder_periodic_box_always_hits(self):
        # theta = 0 keeps the free eigenvalue at the band edge inside
        # every window [0, side^-alpha), so the hit rate is exactly 1
        model = AndersonModel.free(omega_max=0.0)
        est = _gap_probability(model, side=5, alpha=0.5, realizations=10)
        assert est.hits == 10
        assert est.estimate == 1.0
        assert est.window == pytest.approx(5.0**-0.5)
        assert est.boundary == "periodic"
        assert est.interval == wilson_interval(10, 10)

    def test_validation_guards(self):
        model = AndersonModel.free(omega_max=0.0)
        with pytest.raises(ValueError, match="alpha"):
            _gap_probability(model, side=5, alpha=1.2, realizations=2)
        with pytest.raises(ValueError, match="side"):
            _gap_probability(model, side=1, alpha=0.5, realizations=2)
        with pytest.raises(ValueError, match="zone"):
            _gap_probability(model, side=5, alpha=0.5, realizations=2,
                            theta0=(1.0,))

    def test_even_side_is_refused(self):
        model = AndersonModel.free(omega_max=0.0)
        with pytest.raises(ValueError, match="odd"):
            _gap_probability(model, side=6, alpha=0.5, realizations=2)

    def test_wrapped_box_folds_couplings_onto_the_torus(self):
        # an exponential bump reaches past the box; the hit rate must be
        # that of the periodic approximation, whose couplings fold onto
        # the ring, checked against its dense spectrum
        u = SingleSitePotential.exponential(delta3=0.7)
        model = AndersonModel.free(omega_max=0.2, master_seed=4, single_site=u)
        side, m = 9, 20
        for alpha in (0.3, 0.5):
            window = side ** -alpha
            oracle = 0
            for r in range(m):
                h = model.periodic_box(4, BoundaryCondition.periodic(), realization=r)
                evals = np.linalg.eigvalsh(h.dense())
                oracle += bool(np.any((evals >= 0.0) & (evals < window)))
            assert _gap_probability(model, side, alpha, m).hits == oracle

    def test_theta0_zone_is_that_of_the_side_cell_box(self):
        # 9 cells carry the zone |theta| <= pi/9 = 0.349 and the phase 9 theta;
        # at 9 * 0.2 = 1.8 the lowest free level 2 - 2 cos(0.2) lies in the window
        model = AndersonModel.free(omega_max=0.0)
        est = _gap_probability(model, side=9, alpha=0.25, realizations=2, theta0=(0.2,))
        assert est.boundary == "theta(0.2)"
        assert est.hits == 2
        with pytest.raises(ValueError, match="zone"):
            _gap_probability(model, side=9, alpha=0.25, realizations=2, theta0=(0.36,))

    @pytest.mark.parametrize(
        "side,theta0,hits",
        [(5, (0.3,), (30, 6)), (7, (-0.2,), (32, 5)), (9, (0.1,), (33, 5))],
    )
    def test_theta0_hits_are_pinned(self, side, theta0, hits):
        # hit counts of the boxes that periodic_box_at assembles at theta0
        model = AndersonModel.free(points_per_cell=2, omega_max=1.0, master_seed=11)
        got = tuple(_gap_probability(model, side, alpha, 40, theta0).hits
                    for alpha in (0.25, 0.5))
        assert got == hits

    def test_misaligned_band_edge_is_rejected(self):
        model = AndersonModel(
            dimension=1, points_per_cell=1,
            v0=PeriodicPotential.zero(1, 1).shifted(0.5),
            single_site=SingleSitePotential.box(),
            disorder=DisorderModel(omega_max=0.0),
        )
        with pytest.raises(ValueError, match="shift the model"):
            _gap_probability(model, side=5, alpha=0.5, realizations=2)


class TestThetaAverageCheck:
    def test_bound_holds_pointwise_in_the_sample(self):
        # each theta node satisfies indicator <= eigenvalue count, so the
        # sampled averages obey lhs <= rhs before any statistics
        model = AndersonModel.free(omega_max=0.2, master_seed=6)
        report = theta_average_check(model, half_width=5, energy=0.25,
                                     realizations=12, theta_resolution=4)
        assert report.lhs <= report.rhs + 1e-12
        assert report.passed
        assert report.slack == pytest.approx(report.rhs - report.lhs)
        assert report.realizations == 12

    def test_all_realizations_share_one_assembled_box(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return hamiltonian.assemble_h0(*args, **kwargs)

        model_module._h0_memo.cache_clear()
        monkeypatch.setattr(model_module, "assemble_h0", counted)
        model = AndersonModel.free(omega_max=0.2, master_seed=6)
        theta_average_check(model, half_width=3, energy=0.25, realizations=5,
                            theta_resolution=4)
        assert len(calls) == 1


class TestFixedThetaCheck:
    def test_scalar_theta_is_coerced(self):
        model = AndersonModel.free(omega_max=0.2, master_seed=6)
        report = fixed_theta_check(model, half_width=5, energy=0.25,
                                   theta0=0.05, realizations=8, xi=2.0)
        assert report.theta0 == (0.05,)
        assert report.c8 == pytest.approx(2.0 * math.pi * 5 / 11)
        assert report.c9 == pytest.approx(2.0 * report.c8)
        assert report.enlarged_energy == pytest.approx(0.25 + report.c9 / 5)
        assert report.passed

    def test_zone_and_energy_guards(self):
        model = AndersonModel.free(omega_max=0.2)
        with pytest.raises(ValueError, match="zone"):
            fixed_theta_check(model, 5, 0.25, theta0=(1.0,), realizations=2, xi=2.0)
        with pytest.raises(ValueError, match="energy"):
            fixed_theta_check(model, 5, 1.5, theta0=(0.0,), realizations=2, xi=2.0)
        with pytest.raises(ValueError, match="components"):
            fixed_theta_check(model, 5, 0.25, theta0=(0.1, 0.1), realizations=2, xi=2.0)
        with pytest.raises(ValueError, match="Lipschitz"):
            fixed_theta_check(model, 5, 0.25, theta0=(0.0,), realizations=2, xi=-1.0)


class TestMsaSchedule:
    def test_scale_sequence_from_nine(self):
        s = msa_schedule(l0=9, m0=1.0, q0=-2.0, zeta=1.5, steps=2)
        assert s.scales == (9, 27, 138)

    def test_first_exponent_has_a_closed_form(self):
        # c3 (27/9)^2 9^-4 + 27^-2 / 2 = 1/729 + 1/1458 = 1/486
        s = msa_schedule(l0=9, m0=1.0, q0=-2.0, zeta=1.5, steps=1)
        assert s.exponents[1] == pytest.approx(-math.log(486) / math.log(27), rel=1e-14)
        assert s.exponents[1] == pytest.approx(-1.8769766, abs=1e-6)

    def test_mass_recursion_from_thirty_three_stays_positive(self):
        s = msa_schedule(l0=33, m0=1.0, q0=-2.0, zeta=1.5, steps=10)
        assert s.masses[1] == pytest.approx(1.0 - 132.0 / 189.0, rel=1e-14)
        assert s.mass_positive
        assert s.min_mass == s.masses[-1]
        # decreasing, with the correction fading so fast that the tail
        # saturates at float precision
        assert all(b <= a for a, b in zip(s.masses, s.masses[1:]))
        assert s.masses[3] < s.masses[2] < s.masses[1] < s.masses[0]
        assert abs(s.masses[-1] - s.masses[-2]) < 1e-3 * s.masses[-1]

    def test_small_start_goes_negative_immediately(self):
        # 1 - 4*9/27 = -1/3: the drift term eats the whole mass
        s = msa_schedule(l0=9, m0=1.0, q0=-2.0, zeta=1.5, steps=1)
        assert s.masses[1] == pytest.approx(-1.0 / 3.0)
        assert not s.mass_positive

    def test_validation_guards(self):
        with pytest.raises(ValueError, match="]1,2\\["):
            msa_schedule(l0=9, m0=1.0, q0=-2.0, zeta=2.5, steps=1)
        with pytest.raises(ValueError, match="multiple of 3"):
            msa_schedule(l0=10, m0=1.0, q0=-2.0, zeta=1.5, steps=1)
        with pytest.raises(ValueError, match=">= 6"):
            msa_schedule(l0=3, m0=1.0, q0=-2.0, zeta=1.5, steps=1)
        with pytest.raises(ValueError, match="mass"):
            msa_schedule(l0=9, m0=0.0, q0=-2.0, zeta=1.5, steps=1)
        with pytest.raises(ValueError, match="step"):
            msa_schedule(l0=9, m0=1.0, q0=-2.0, zeta=1.5, steps=0)

    def test_stalling_recursion_is_detected(self):
        with pytest.raises(ValueError, match="stall"):
            msa_schedule(l0=6, m0=1.0, q0=-2.0, zeta=1.01, steps=1)

    def test_zeta_one_point_nine_scales_are_certified(self):
        # the double 1.9 is 4278419646001971 / 2^51, so l^zeta has no floor in
        # exact integers at these sizes; an interval enclosure at four times
        # the bits of each scale brackets it instead.  From 72 digits on, a
        # fixed 160-bit power misses the floor
        from mpmath import iv

        s = msa_schedule(l0=33, m0=1.0, q0=-2.0, zeta=1.9, steps=8)
        assert len(str(s.scales[-1])) == 258
        precision = iv.prec
        try:
            for l, nxt in zip(s.scales, s.scales[1:]):
                iv.prec = 4 * nxt.bit_length() + 64
                power = iv.exp(iv.mpf(1.9) * iv.log(iv.mpf(l)))
                assert nxt % 3 == 0 and nxt <= power.a and power.b < nxt + 3, l
        finally:
            iv.prec = precision

    def test_scales_beyond_the_double_range_are_a_numerical_failure(self):
        # the thirteenth scale from 33 at zeta 1.5 has 296 digits, the fourteenth 444
        s = msa_schedule(l0=33, m0=1.0, q0=-2.0, zeta=1.5, steps=13)
        assert all(map(math.isfinite, s.masses + s.exponents))
        with pytest.raises(NumericalFailure, match="double range"):
            msa_schedule(l0=33, m0=1.0, q0=-2.0, zeta=1.5, steps=14)

    @given(k=st.integers(2, 400))
    @settings(max_examples=80, deadline=None)
    def test_next_scale_is_the_greatest_multiple_of_three_below_the_power(self, k):
        import mpmath

        l = 3 * k
        nxt = _next_scale(l, 1.5)
        assert nxt % 3 == 0
        with mpmath.workprec(120):
            power = mpmath.power(l, mpmath.mpf(1.5))
            assert mpmath.mpf(nxt) <= power
            assert mpmath.mpf(nxt + 3) > power


class TestMRegularity:
    def _box(self, cells=31, omega=1.0, seed=99):
        model = AndersonModel.free(omega_max=omega, master_seed=seed)
        return model.anderson_box(cells, BoundaryCondition.dirichlet(), realization=0)

    def test_geometry_and_threshold_fields(self):
        result = m_regularity_test(self._box(), energy=-1.0, delta=2.0, mass=0.2,
                                   eps_probes=(1e-1, 1e-2))
        assert result.side == 31.0
        assert result.inner_radius == pytest.approx(31 / 2 - 4)
        assert result.outer_radius == pytest.approx(31 / 2 - 2)
        assert result.core_radius == pytest.approx(31 / 6)
        assert result.separation == pytest.approx(result.inner_radius - result.core_radius)
        assert result.threshold == pytest.approx(math.exp(-0.2 * 31))
        assert result.supremum == max(result.norms)

    def test_off_spectrum_energy_passes_at_feasible_mass(self):
        result = m_regularity_test(self._box(), energy=-1.0, delta=2.0, mass=0.2,
                                   eps_probes=(1e-1, 1e-2, 1e-3))
        assert result.passed
        assert result.supremum < result.threshold

    def test_narrow_box_is_rejected(self):
        with pytest.raises(ValueError, match="12 delta"):
            m_regularity_test(self._box(cells=21), energy=-1.0, delta=2.0, mass=0.2)

    def test_zero_probe_on_the_spectrum_is_rejected(self):
        # 2 is an exact eigenvalue of the odd free chain
        box = self._box(omega=0.0)
        with pytest.raises(ValueError, match="singular"):
            m_regularity_test(box, energy=2.0, delta=2.0, mass=0.2,
                              eps_probes=(1e-1, 0.0))

    def test_non_cubic_grid_is_rejected(self):
        model = AndersonModel.free(dimension=2, omega_max=1.0)
        box = model.anderson_box((27, 33), BoundaryCondition.dirichlet(), realization=0)
        with pytest.raises(ValueError, match="cube"):
            m_regularity_test(box, energy=-1.0, delta=2.0, mass=0.2)


class TestAlphaNFeasible:
    def test_reference_value(self):
        assert alpha_n_feasible(2, 1, 0.25) == 9

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.25])
    def test_result_is_minimal(self, q, dimension, alpha):
        n = alpha_n_feasible(q, dimension, alpha)
        threshold = q + 3 * dimension + 1
        assert n * (1.0 - alpha) > threshold
        assert (n - 1) * (1.0 - alpha) <= threshold

    def test_guards(self):
        with pytest.raises(ValueError, match="positive"):
            alpha_n_feasible(0, 1, 0.25)
        with pytest.raises(ValueError, match="alpha"):
            alpha_n_feasible(2, 1, 1.0)
        with pytest.raises(ValueError, match="1/4"):
            alpha_n_feasible(2, 1, 0.25, restrict_quarter=True)
