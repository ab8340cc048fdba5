"""Integrated density of states: exact counting, averaging, tail fits."""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from randschrod import (
    AndersonModel,
    BoundaryCondition,
    IdsCurve,
    brillouin_zone,
    ids_difference_experiment,
    ids_dirichlet_box,
    ids_periodic_approx,
    lifshitz_fit,
    mass_window,
)
from randschrod.config import build_model, load_config, resolve_config
from randschrod.hamiltonian import NumericalFailure, count_strictly_below
from randschrod.hscalc import plateau_function
from randschrod.ids import _difference_rows, mean_stderr
from randschrod import hamiltonian, runner
from randschrod.runner import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _dense_count_oracle(h, energies):
    evals = np.linalg.eigvalsh(h.dense())
    return np.array([np.sum(evals < e) for e in energies])


def _integer_counts(curve):
    return np.rint(curve.values * curve.volume).astype(int)


def _functional_periodic(model, g, half_width, theta_resolution, realization) -> float:
    """Oracle of the periodic columns of ``_difference_rows``: one
    realization's zone spectra, g summed node by node."""
    d = model.dimension
    nodes = brillouin_zone(half_width, d).midpoint_nodes(theta_resolution)
    weight = 1.0 / ((2 * half_width + 1) * theta_resolution) ** d
    values = np.asarray(g(model.zone_spectra(half_width, nodes, realization)), dtype=float)
    total = 0.0
    for row in values:
        total += float(np.sum(row))
    return weight * total


def _functional_dirichlet(model, g, cells, realization) -> float:
    """Oracle of the reference column of ``_difference_rows``: one assembled
    box, solved by scipy's tridiagonal or dense eigenvalue routine."""
    h = model.anderson_box(cells, BoundaryCondition.dirichlet(), realization)
    tri = h._tridiagonal()
    evals = (scipy.linalg.eigvalsh(h.dense()) if tri is None
             else scipy.linalg.eigvalsh_tridiagonal(*tri))
    return float(np.sum(np.asarray(g(evals), dtype=float))) / h.grid.volume


class TestDirichletCounting:
    @pytest.mark.parametrize(
        "dimension,points_per_cell,cells",
        [(1, 1, 31), (1, 2, 17), (2, 1, 7), (2, 2, 5)],
    )
    def test_counts_match_dense_diagonalization(self, dimension, points_per_cell, cells):
        model = AndersonModel.free(
            dimension=dimension, points_per_cell=points_per_cell,
            omega_max=1.5, master_seed=21,
        )
        h = model.anderson_box(cells, BoundaryCondition.dirichlet(), realization=0)
        assert h.n <= 400
        energies = np.linspace(-0.5, 9.0, 41)
        curve = ids_dirichlet_box(h, energies)
        assert np.array_equal(_integer_counts(curve), _dense_count_oracle(h, energies))

    def test_cutoff_path_agrees_below_the_cutoff(self):
        model = AndersonModel.free(omega_max=1.0, master_seed=8)
        h = model.anderson_box(60, BoundaryCondition.dirichlet(), realization=2)
        energies = np.linspace(0.0, 2.0, 21)
        full = ids_dirichlet_box(h, energies)
        cut = ids_dirichlet_box(h, energies, upper=2.0)
        assert np.array_equal(_integer_counts(cut), _integer_counts(full))

    def test_counting_is_strictly_below(self):
        # free chain of 5 sites has eigenvalue 2 - 2cos(3 pi / 6) = 2
        # exactly; requesting E = 2 must not count it
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(5, BoundaryCondition.dirichlet())
        curve = ids_dirichlet_box(h, [2.0, 2.0 + 1e-9])
        assert curve.values[0] == pytest.approx(2.0 / 5.0)
        assert curve.values[1] == pytest.approx(3.0 / 5.0)

    @pytest.mark.parametrize("sites", [5, 2001])
    def test_cutoff_at_a_tie_counts_strictly_below(self, sites):
        # an odd free chain has the eigenvalue 2 exactly (k = (N + 1) / 2);
        # counting below a cutoff placed on it must not take it in
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(sites, BoundaryCondition.dirichlet())
        curve = ids_dirichlet_box(h, [2.0], upper=2.0)
        assert _integer_counts(curve)[0] == (sites - 1) // 2
        assert len(h.eigenvalues(upper=2.0)) == (sites - 1) // 2

    def test_free_chain_of_two_hundred_cells_has_half_mass_at_two(self):
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(200, BoundaryCondition.dirichlet())
        curve = ids_dirichlet_box(h, [2.0])
        assert _integer_counts(curve)[0] == 100
        assert curve.values[0] == pytest.approx(0.5, abs=1e-12)

    def test_periodic_boundary_conditions_are_rejected(self):
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(5, BoundaryCondition.periodic())
        with pytest.raises(ValueError, match="[Dd]irichlet"):
            ids_dirichlet_box(h, [1.0])

    def test_energy_grid_beyond_cutoff_is_rejected(self):
        model = AndersonModel.free(omega_max=0.0)
        h = model.h0_box(5, BoundaryCondition.dirichlet())
        with pytest.raises(ValueError, match="cutoff"):
            ids_dirichlet_box(h, [3.0], upper=2.0)


class TestPeriodicCounting:
    def test_zero_disorder_zone_integral_tracks_the_arccos_law(self):
        model = AndersonModel.free(omega_max=0.0)
        grid = model.grid(2 * 6 + 1)
        sample = model.sample_fundamental(grid, 0)
        energies = np.linspace(0.05, 3.95, 40)
        curve = ids_periodic_approx(model, sample, 6, energies, theta_resolution=8)
        exact = np.arccos(1.0 - energies / 2.0) / np.pi
        assert np.max(np.abs(curve.values - exact)) <= 2.0 / 8.0

    def test_spectrum_is_invariant_under_folded_translation(self):
        # shifting the coupling field through the torus permutes sites,
        # so the periodic box spectrum cannot move
        from randschrod import SingleSitePotential

        model = AndersonModel.free(
            omega_max=1.0, master_seed=14,
            single_site=SingleSitePotential.exponential(delta3=1.2),
        )
        l = 5
        grid = model.grid(2 * l + 1)
        sample = model.sample_fundamental(grid, 0)
        bc = BoundaryCondition.periodic()
        base = model.periodic_box(l, bc, sample=sample).eigenvalues()
        for shift in ((1,), (4,), (-3,)):
            moved = sample.translated(shift, fold_cells=2 * l + 1)
            again = model.periodic_box(l, bc, sample=moved).eigenvalues()
            assert np.allclose(base, again, atol=1e-10)

    def test_zero_theta_resolution_is_rejected(self):
        model = AndersonModel.free()
        grid = model.grid(5)
        sample = model.sample_fundamental(grid, 0)
        with pytest.raises(ValueError, match="theta_resolution"):
            ids_periodic_approx(model, sample, 2, [1.0], theta_resolution=0)


class TestCurveContainer:
    def test_counts_strictly_below_hand_example(self):
        spectra = np.array([[1.0, 1.0, 3.0], [0.5, 2.0, 4.0]])
        energies = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        counts = count_strictly_below(spectra, energies)
        assert np.array_equal(counts, [[0, 0, 2, 2, 3], [0, 1, 1, 2, 2]])
        assert np.array_equal(count_strictly_below(spectra[1], energies), counts[1])

    def test_unsorted_energy_grid_is_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            IdsCurve(energies=np.array([1.0, 0.0]), values=np.zeros(2), volume=1.0)

    @given(
        spectra=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 30)),
                           elements=st.floats(-5, 5)),
    )
    @settings(max_examples=50, deadline=None)
    def test_curves_are_monotone_step_functions(self, spectra):
        spectra = np.sort(spectra, axis=1)
        energies = np.linspace(-6, 6, 25)
        total = count_strictly_below(spectra, energies).sum(axis=0)
        assert np.all(np.diff(total) >= 0)
        # below and above the whole spectrum the count saturates
        assert total[0] == 0 and total[-1] == spectra.size
        oracle = [np.sum(spectra < e) for e in energies]
        assert np.array_equal(total, oracle)


class TestStieltjesFunctional:
    """The ids-diff functionals sum g over computed spectra, per unit volume."""

    def test_constant_one_integrates_to_total_mass(self):
        # every box carries points_per_cell^d eigenvalues per unit cell
        model = AndersonModel.free(points_per_cell=2, omega_max=0.5, master_seed=4)
        one = lambda e: np.ones_like(e)  # noqa: E731
        (dirichlet, periodic), = _difference_rows(model, one, 7, (3,), 4, range(1))
        assert periodic == pytest.approx(2.0, rel=1e-14)
        assert dirichlet == pytest.approx(2.0, rel=1e-14)

    def test_function_supported_in_a_gap_integrates_to_zero(self):
        # with V >= 0 the spectrum lies in [0, inf), below which g vanishes
        model = AndersonModel.free(omega_max=1.0, master_seed=4)
        g = plateau_function(0.5, 3)  # support [-0.25, 0.75]
        below = lambda e: g(np.asarray(e) + 1.0)  # noqa: E731
        (dirichlet, periodic), = _difference_rows(model, below, 7, (3,), 4, range(1))
        assert periodic == 0.0
        assert dirichlet == 0.0


class TestAveraging:
    def test_mean_and_stderr_for_two_curves(self):
        mean, stderr = mean_stderr([np.full(5, 0.2), np.full(5, 0.4)])
        assert np.allclose(mean, 0.3)
        # sample std of {0.2, 0.4} is 0.1*sqrt(2); stderr divides by sqrt(2)
        assert np.allclose(stderr, 0.1)

    def test_empty_family_is_rejected(self):
        with pytest.raises(ValueError):
            mean_stderr([])


class TestDifferenceExperiment:
    def test_single_realization_is_rejected(self):
        model = AndersonModel.free(omega_max=0.5)
        with pytest.raises(ValueError, match="2 realizations"):
            ids_difference_experiment(model, plateau_function(0.5, 4), [4],
                                      realizations=1)

    def test_zero_disorder_delta_equals_the_noise_floor(self):
        model = AndersonModel.free(omega_max=0.0)
        table = ids_difference_experiment(
            model, plateau_function(0.5, 4), [4, 6], realizations=2,
            reference_half_width=12,
        )
        for row in table.rows:
            assert row.delta == row.noise_floor
            assert row.stderr == 0.0

    def test_self_comparison_sits_on_the_boundary_bias(self):
        # with reference l equal to the test l the disorder content of the
        # two functionals matches realization by realization; what remains
        # of delta is the deterministic periodic-vs-Dirichlet discrepancy
        # that the noise floor reports
        model = AndersonModel.free(omega_max=0.5, master_seed=3)
        table = ids_difference_experiment(
            model, plateau_function(0.5, 4), [8], realizations=6,
            reference_half_width=8,
        )
        row = table.rows[0]
        assert abs(row.delta - row.noise_floor) <= 2.0 * row.stderr

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_periodic_functional_equals_the_node_by_node_sum(self, dimension):
        # g is applied to all nodes at once; the sum must round as the loop does
        model = AndersonModel.free(dimension=dimension, points_per_cell=2, omega_max=0.5,
                                   master_seed=4)
        g = plateau_function(0.5, 4)
        for l in (1, 2):
            nodes = brillouin_zone(l, dimension).midpoint_nodes(3)
            total = 0.0
            for evals in model.zone_spectra(l, nodes, realization=2):
                total += float(np.sum(np.asarray(g(evals), dtype=float)))
            weight = 1.0 / ((2 * l + 1) * 3) ** dimension
            assert _difference_rows(model, g, 3, (l,), 3, [2])[0, 1] == weight * total

    def test_stderr_is_that_of_the_paired_differences(self):
        # realization m shares one coupling field between the reference and
        # every l, so the error bar of delta is the spread of the
        # per-realization differences F_l - F_ref, not hypot of two stderrs
        model = AndersonModel.free(omega_max=0.5, master_seed=9)
        g = plateau_function(0.5, 4)
        m, ref_l = 6, 10
        table = ids_difference_experiment(
            model, g, [3, 5], realizations=m, reference_half_width=ref_l,
            theta_resolution=4,
        )
        ref = np.array([_functional_dirichlet(model, g, 2 * ref_l + 1, r) for r in range(m)])
        for row in table.rows:
            per_l = np.array(
                [_functional_periodic(model, g, row.half_width, 4, r) for r in range(m)]
            )
            diffs = per_l - ref
            assert row.stderr == pytest.approx(np.std(diffs, ddof=1) / math.sqrt(m), rel=1e-12)
            assert row.mean_functional == pytest.approx(np.mean(per_l), rel=1e-12)
            assert row.delta == pytest.approx(abs(np.mean(diffs)), rel=1e-9)


class TestMassWindow:
    def _avg(self):
        energies = np.linspace(0.0, 1.0, 11)
        mean = np.array([0, 0, 1e-5, 5e-4, 2e-3, 0.02, 0.09, 0.2, 0.3, 0.4, 0.45])
        return energies, mean

    def test_window_brackets_the_requested_mass_band(self):
        lo, hi = mass_window(*self._avg(), edge=0.0, mass_low=1e-4, mass_high=0.1)
        assert lo == pytest.approx(0.3)   # first energy with mass >= 1e-4
        assert hi == pytest.approx(0.6)   # last energy with mass <= 0.1

    def test_empty_band_raises(self):
        with pytest.raises(ValueError, match="mass"):
            mass_window(*self._avg(), edge=0.0, mass_low=0.46, mass_high=0.47)


class TestLifshitzFit:
    def _average_from(self, f, energies):
        # the average starts at the edge, where N(0) = 0
        grid = np.concatenate([[0.0], energies])
        return grid, np.concatenate([[0.0], f(energies)])

    def test_pure_lifshitz_tail_recovers_minus_half(self):
        energies = np.geomspace(1e-3, 1e-1, 30)
        avg = self._average_from(lambda e: np.exp(-e ** -0.5), energies)
        fit = lifshitz_fit(*avg, edge=0.0, window=(1e-3, 1e-1),
                           target=-0.5, target_tolerance=0.05)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-9)
        assert fit.residual_rms < 1e-9
        assert fit.matches_target

    def test_van_hove_edge_is_flagged_as_non_lifshitz(self):
        # N(E) = E near the edge gives a flat double-log slope, far from
        # the exponential tail's -1/2
        energies = np.geomspace(1e-3, 1e-2, 20)
        avg = self._average_from(lambda e: e.copy(), energies)
        fit = lifshitz_fit(*avg, edge=0.0, window=(1e-3, 1e-2),
                           target=-0.5, target_tolerance=0.15)
        assert fit.exponent > -0.3
        assert fit.matches_target is False

    def test_no_target_leaves_the_verdict_open(self):
        energies = np.geomspace(1e-3, 1e-1, 10)
        avg = self._average_from(lambda e: np.exp(-e ** -0.5), energies)
        fit = lifshitz_fit(*avg, edge=0.0, window=(1e-3, 1e-1))
        assert fit.matches_target is None

    def test_too_few_points_raise(self):
        energies = np.geomspace(1e-3, 1e-1, 10)
        avg = self._average_from(lambda e: np.exp(-e ** -0.5), energies)
        with pytest.raises(ValueError, match="need >= 4"):
            lifshitz_fit(*avg, edge=0.0, window=(1e-3, 2e-3))

    def test_window_reaching_half_mass_is_refused(self):
        energies = np.linspace(0.1, 1.0, 10)
        avg = self._average_from(lambda e: 0.6 * e, energies)
        with pytest.raises(ValueError, match="1/2"):
            lifshitz_fit(*avg, edge=0.0, window=(0.1, 1.0))

    def test_empty_window_is_refused(self):
        energies = np.geomspace(1e-3, 1e-1, 10)
        avg = self._average_from(lambda e: np.exp(-e ** -0.5), energies)
        with pytest.raises(ValueError, match="window"):
            lifshitz_fit(*avg, edge=0.0, window=(0.1, 0.1))

    def test_a_window_of_one_energy_is_a_numerical_failure(self):
        # one point has no spread in log(E - edge), so the slope has no error bar
        energies = np.geomspace(1e-3, 1e-1, 10)
        avg = self._average_from(lambda e: np.exp(-e ** -0.5), energies)
        with pytest.raises(NumericalFailure, match="one energy"):
            lifshitz_fit(*avg, edge=0.0, window=(energies[2], 1.01 * energies[2]),
                         min_points=1)

    def test_average_must_start_at_the_edge(self):
        energies = np.geomspace(1e-3, 1e-1, 10)
        with pytest.raises(ValueError, match="not at the edge"):
            lifshitz_fit(energies, np.exp(-energies ** -0.5), edge=0.0, window=(1e-3, 1e-1))

    def test_weak_coupling_chain_measures_mass_from_the_edge_count(self, tmp_path):
        # N(0.05) is about 0.064 here, and N(0) = 0 because a Dirichlet
        # chain with V >= 0 is positive definite: the tail mass is N itself
        config = load_config(str(CONFIG_DIR / "lifshitz_1d.yaml"))
        config["model"]["single_site"]["strength"] = 0.02
        config["execution"].update(realizations=4, threads=1)
        run_dir = Path(run(config, out_root=str(tmp_path)).directory)
        fit = json.loads((run_dir / "lifshitz.json").read_text())["fit"]
        energies, mass = np.loadtxt(run_dir / "ids.csv", delimiter=",", comments="#",
                                    skiprows=4, usecols=(0, 1), unpack=True)
        exp = config["experiment"]
        assert len(energies) == exp["energy_points"] and mass[0] > exp["mass_low"]
        in_band = (mass >= exp["mass_low"]) & (mass <= exp["mass_high"])
        assert fit["window"] == [energies[in_band][0], energies[in_band][-1]]
        assert fit["n_points"] == np.count_nonzero(in_band)


def test_lifshitz_ids_csv_reduces_the_whole_realization_array(tmp_path):
    # one mean_stderr over the (realizations x energies) array adds row by
    # row; 1-d reductions of each column add pairwise from 8 rows on and
    # round differently, so the N and stderr columns pin the shape
    config = load_config(str(CONFIG_DIR / "lifshitz_1d.yaml"))
    config["experiment"]["cells"] = 200
    config["execution"].update(realizations=16, threads=1)
    run_dir = Path(run(config, out_root=str(tmp_path)).directory)
    table = np.loadtxt(run_dir / "ids.csv", delimiter=",", comments="#", skiprows=4, ndmin=2)
    resolved = resolve_config(config)
    model, exp = build_model(resolved), resolved["experiment"]
    grid = np.concatenate([[exp["edge"]], table[:, 0]])
    dirichlet = BoundaryCondition.dirichlet()
    rows = np.array([ids_dirichlet_box(model.anderson_box(exp["cells"], dirichlet, r), grid).values
                     for r in range(16)])
    mean, stderr = mean_stderr(rows)
    assert np.array_equal(table[:, 1], mean[1:]) and np.array_equal(table[:, 2], stderr[1:])
    # at this size the per-column reduction gives other bits, so the test can tell
    per_column = np.array([mean_stderr(column) for column in rows.T])
    assert not np.array_equal(per_column, np.stack([mean, stderr], axis=1))


def _dirichlet_config(kind, points_per_cell):
    """A small lifshitz or Dirichlet ids config and the energy grid its run counts at."""
    if kind == "lifshitz":
        config = load_config(str(CONFIG_DIR / "lifshitz_1d.yaml"))
        config["experiment"]["cells"] = 40
    else:
        config = load_config(str(CONFIG_DIR / "ids_brillouin_1d.yaml"))
        exp = config["experiment"]
        del exp["half_width"], exp["theta_resolution"]
        exp.update(method="dirichlet", cells=30, energy_points=41)
    config["model"]["points_per_cell"] = points_per_cell
    config["execution"].update(realizations=5, threads=1)
    exp = resolve_config(config)["experiment"]
    if kind == "lifshitz":
        edge = exp["edge"]
        energies = edge + np.geomspace(exp["energy_min"] - edge, exp["energy_max"] - edge,
                                       exp["energy_points"])
        energies = np.concatenate([[edge], energies])
    else:
        energies = np.linspace(exp["energy_min"], exp["energy_max"], exp["energy_points"])
    return config, energies


class TestChunkedDifferenceRows:
    """ids-diff solves a chunk of realizations at a time; each row must be
    the functionals of its own realization, bit for bit.  Every kind that
    maps chunks writes the same bytes with one item per chunk."""

    @pytest.mark.parametrize("dimension, points_per_cell", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_rows_equal_the_per_realization_functionals(self, dimension, points_per_cell):
        model = AndersonModel.free(dimension=dimension, points_per_cell=points_per_cell,
                                   omega_max=0.5, master_seed=6)
        g = plateau_function(0.5, 4)
        ref_cells = 65 if dimension == 1 else 5
        realizations = range(2, 6)
        rows = _difference_rows(model, g, ref_cells, (1, 2), 3, realizations)
        assert rows.shape == (len(realizations), 3)
        for row, r in zip(rows, realizations):
            oracle = [_functional_dirichlet(model, g, ref_cells, r)] + [
                _functional_periodic(model, g, l, 3, r) for l in (1, 2)
            ]
            assert row.tolist() == oracle

    @pytest.mark.parametrize("config_name, changes", [
        ("ids_diff_1d.yaml", {"half_widths": [2, 4], "reference_half_width": 16}),
        ("theta_bounds_1d.yaml", {"half_width": 4}),
        ("gap_prob_1d.yaml", {"sides": [5, 9]}),
        ("ids_brillouin_1d.yaml", {}),
        ("hs_check.yaml", {"matrices": 5}),
        ("m_regularity_1d.yaml", {}),
    ])
    def test_one_realization_per_chunk_writes_the_same_bytes(
        self, tmp_path, monkeypatch, config_name, changes
    ):
        config = load_config(str(CONFIG_DIR / config_name))
        config["experiment"].update(changes)
        config["execution"]["threads"] = 1
        if "matrices" not in changes:
            config["execution"]["realizations"] = 5
        chunks = []
        parallel_map = runner.parallel_map

        def recorded(threads):
            mapper = parallel_map(threads)

            def record(fn, items):
                chunks.append([len(chunk) for chunk in items])
                return mapper(fn, items)

            return record

        monkeypatch.setattr(runner, "parallel_map", recorded)
        whole = run(config, out_root=str(tmp_path / "whole")).payloads
        monkeypatch.setattr(hamiltonian, "_CHAIN_BYTES", 1)
        split = run(config, out_root=str(tmp_path / "split")).payloads
        # one map per run: one chunk of all five items, then five of one
        assert chunks == [[5], [1] * 5]
        assert split == whole


class TestChunkedDirichletRows:
    """The runs count Dirichlet chains in batches; each row must be the count
    of its own assembled box."""

    @pytest.mark.parametrize("points_per_cell", [1, 2])
    @pytest.mark.parametrize("kind", ["lifshitz", "ids"])
    def test_rows_equal_each_box_and_its_dense_count(self, kind, points_per_cell):
        config, energies = _dirichlet_config(kind, points_per_cell)
        model, exp = build_model(resolve_config(config)), config["experiment"]
        # chunks of 1, 2 and 2 realizations: the bytes of two rows fill a chunk
        counts = runner._map_rows(partial(model.dirichlet_counts, exp["cells"], energies), 5,
                                  hamiltonian._CHAIN_BYTES // 2, 1)
        rows = counts / model.grid(exp["cells"]).volume
        assert rows.shape == (5, len(energies))
        for r, row in enumerate(rows):
            h = model.anderson_box(exp["cells"], BoundaryCondition.dirichlet(), r)
            assert np.array_equal(row, h.count_below(energies) / h.grid.volume)
            evals = np.linalg.eigvalsh(h.dense())
            clear = np.min(np.abs(energies[:, None] - evals), axis=1) > 1e-9 * evals[-1]
            counts = np.rint(row * h.grid.volume).astype(int)
            assert np.array_equal(counts[clear], np.searchsorted(evals, energies[clear]))

    @pytest.mark.parametrize("kind", ["lifshitz", "ids"])
    def test_one_realization_per_chunk_writes_the_same_bytes(
        self, tmp_path, monkeypatch, kind
    ):
        config, _ = _dirichlet_config(kind, 1)
        calls = []
        dirichlet_counts = AndersonModel.dirichlet_counts

        def counted(self, cells, energies, realizations):
            calls.append(len(realizations))
            return dirichlet_counts(self, cells, energies, realizations)

        monkeypatch.setattr(AndersonModel, "dirichlet_counts", counted)
        whole = run(config, out_root=str(tmp_path / "whole")).payloads
        assert calls == [5]
        monkeypatch.setattr(hamiltonian, "_CHAIN_BYTES", 1)
        calls.clear()
        split = run(config, out_root=str(tmp_path / "split")).payloads
        assert calls == [1] * 5
        assert split == whole
