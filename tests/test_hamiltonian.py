"""Assembly layer checked against closed-form lattice spectra."""

import itertools
import math
import unittest.mock
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from randschrod import (
    AndersonModel,
    BoundaryCondition,
    DisorderModel,
    DisorderSample,
    GridSpec,
    PeriodicPotential,
    SingleSitePotential,
    assemble_anderson,
    assemble_h0,
    assemble_periodic_approx,
    sample_disorder,
)
from randschrod import hamiltonian
from randschrod.hamiltonian import _BoxProfile, _ExponentialProfile, count_strictly_below


def _free_h0(cells, bc, dimension=1, points_per_cell=1):
    grid = GridSpec.from_cells(dimension, points_per_cell, cells)
    return assemble_h0(grid, PeriodicPotential.zero(dimension, points_per_cell), bc)


class TestFreeSpectra:
    def test_dirichlet_line_matches_tridiagonal_formula(self):
        n = 37
        h = _free_h0(n, BoundaryCondition.dirichlet())
        k = np.arange(1, n + 1)
        expected = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
        assert np.allclose(h.eigenvalues(), np.sort(expected), atol=1e-12)

    def test_periodic_ring_matches_circulant_formula(self):
        n = 24
        h = _free_h0(n, BoundaryCondition.periodic())
        k = np.arange(n)
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * k / n))
        assert np.allclose(h.eigenvalues(), expected, atol=1e-12)

    def test_twisted_ring_shifts_momenta_by_the_link_phase(self):
        n, phi = 15, 0.8
        h = _free_h0(n, BoundaryCondition.with_phases([phi]))
        k = np.arange(n)
        expected = np.sort(2.0 - 2.0 * np.cos((2.0 * np.pi * k + phi) / n))
        assert abs(h.matrix - h.matrix.getH()).max() < 1e-14
        assert np.allclose(h.eigenvalues(), expected, atol=1e-12)

    def test_two_dimensional_spectrum_is_a_kronecker_sum(self):
        nx, ny = 6, 5
        h = _free_h0((nx, ny), BoundaryCondition.dirichlet(), dimension=2)
        ex = 2.0 - 2.0 * np.cos(np.arange(1, nx + 1) * np.pi / (nx + 1))
        ey = 2.0 - 2.0 * np.cos(np.arange(1, ny + 1) * np.pi / (ny + 1))
        expected = np.sort((ex[:, None] + ey[None, :]).ravel())
        assert np.allclose(h.eigenvalues(), expected, atol=1e-12)

    def test_mesh_refinement_scales_the_laplacian(self):
        # spacing h multiplies hopping by 1/h^2; with 2 points per cell the
        # 10-point chain is 4 * tridiag(-1, 2, -1)
        h = _free_h0(5, BoundaryCondition.dirichlet(), points_per_cell=2)
        k = np.arange(1, 11)
        expected = np.sort(4.0 * (2.0 - 2.0 * np.cos(k * np.pi / 11)))
        assert np.allclose(h.eigenvalues(), expected, atol=1e-11)

    def test_upper_cutoff_truncates_the_sorted_spectrum(self):
        h = _free_h0(8, BoundaryCondition.dirichlet())
        full = h.eigenvalues()
        head = h.eigenvalues(upper=2.5)
        assert np.allclose(head, full[full <= 2.5], atol=1e-12)


class TestChainEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 7, 513])
    def test_dsterf_has_the_bits_of_eigvalsh_tridiagonal(self, n):
        rng = np.random.default_rng(n)
        diag, off = rng.uniform(1.5, 2.5, n), -rng.uniform(0.5, 1.5, n - 1)
        w = hamiltonian.chain_eigenvalues(diag, off)
        oracle = diag.copy() if n == 1 else scipy.linalg.eigvalsh_tridiagonal(diag, off)
        assert np.array_equal(w, oracle)

    @pytest.mark.parametrize("points_per_cell", [1, 2])
    def test_dirichlet_spectra_rows_equal_each_box(self, points_per_cell):
        model = AndersonModel.free(points_per_cell=points_per_cell, omega_max=0.8,
                                   master_seed=2)
        spectra = model.dirichlet_spectra(33, range(1, 4))
        for r, row in zip(range(1, 4), spectra):
            h = model.anderson_box(33, BoundaryCondition.dirichlet(), r)
            assert np.array_equal(row, scipy.linalg.eigvalsh_tridiagonal(*h._tridiagonal()))


class TestInertiaCounting:
    @given(
        points_per_cell=st.integers(1, 3),
        cells=st.integers(1, 40),
        omega_max=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_sturm_count_matches_the_dense_spectrum(
        self, points_per_cell, cells, omega_max, seed
    ):
        model = AndersonModel.free(
            points_per_cell=points_per_cell, omega_max=omega_max, master_seed=seed
        )
        h = model.anderson_box(cells, BoundaryCondition.dirichlet(), realization=0)
        evals = np.linalg.eigvalsh(h.dense())
        energies = np.linspace(evals[0] - 1.0, evals[-1] + 1.0, 57)
        # ties within rounding are not decided by either count; keep clear of them
        gap = np.min(np.abs(energies[:, None] - evals[None, :]), axis=1)
        energies = energies[gap > 1e-9 * max(1.0, np.max(np.abs(evals)))]
        expected = np.searchsorted(evals, energies, side="left")
        assert np.array_equal(h.count_below(energies), expected)


def _reference_sturm(diag, off, energies):
    """The guarded Sturm recurrence on one chain, one site at a time: the
    loop the batched kernel must reproduce bit for bit."""
    off2 = np.asarray(off, dtype=float) ** 2
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off2, initial=0.0)))
    count = np.zeros(energies.shape, dtype=np.int64)
    pivot = np.ones(energies.shape)
    for a, b2 in zip(diag, np.concatenate([[0.0], off2])):
        pivot = (a - energies) - b2 / pivot
        pivot[np.abs(pivot) < pivmin] = pivmin
        count += pivot < 0.0
    return count


def _dense_counts(diag, off, energies):
    """(#{eig < E} of the dense chain, mask of energies clear of its eigenvalues)."""
    evals = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    gap = np.min(np.abs(energies[:, None] - evals[None, :]), axis=1)
    clear = gap > 1e-9 * max(1.0, np.max(np.abs(evals)))
    return np.searchsorted(evals, energies, side="left"), clear


class TestBatchedSturm:
    """``_sturm_count`` over a batch of chains, against the site-by-site
    recurrence and dense eigenvalues."""

    @given(
        n=st.integers(1, 60),
        block=st.integers(1, 9),
        integral=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_each_chain_and_the_dense_count(self, n, block, integral, seed):
        # integer chains at integer energies hit exact zero pivots and
        # decoupled bonds; blocks of 1..9 sites put them on every block edge
        rng = np.random.default_rng(seed)
        if integral:
            diag = rng.integers(-2, 3, (3, 2, n)).astype(float)
            off = rng.choice([-1.0, 0.0, 1.0], (3, 2, n - 1))
            energies = np.arange(-4.0, 5.0)
        else:
            diag = rng.uniform(-3.0, 3.0, (3, 2, n))
            off = rng.uniform(-2.0, 2.0, (3, 2, n - 1))
            energies = np.sort(rng.uniform(-6.0, 6.0, 13))
        with unittest.mock.patch.object(hamiltonian, "_STURM_BLOCK", block):
            counts = hamiltonian._sturm_count(diag, off, energies)
        assert counts.shape == (3, 2, len(energies))
        for index in np.ndindex(3, 2):
            expected = _reference_sturm(diag[index], off[index], energies)
            assert np.array_equal(counts[index], expected)
            dense, clear = _dense_counts(diag[index], off[index], energies)
            assert np.array_equal(counts[index][clear], dense[clear])

    def test_free_chain_mid_batch_counts_its_exact_eigenvalue_at_two_as_not_below(self):
        # the free 2001-chain has the eigenvalue 2 exactly (k = 1001); its
        # sweep meets an exact zero pivot, the random chains around it do not
        n = 2001
        rng = np.random.default_rng(7)
        diag = 2.0 + 0.25 * rng.random((5, n))
        diag[2] = 2.0
        off = np.full((5, n - 1), -1.0)
        energies = np.array([0.05, 1.0, 2.0, 3.5])
        counts = hamiltonian._sturm_count(diag, off, energies)
        assert counts[2, 2] == 1000
        for chain in range(5):
            assert np.array_equal(counts[chain], _reference_sturm(diag[chain], off[chain], energies))

    @pytest.mark.parametrize("site", [127, 128])
    def test_zero_pivot_on_a_block_edge(self, site):
        # tridiag(-1, 2, -1) with a 1 on site 0 has every pivot 1 at E = 0,
        # exactly; a 1 at ``site`` makes that pivot exactly 0, on the last
        # site of the first block or on the first site of the next
        n = 3 * hamiltonian._STURM_BLOCK
        assert site in (hamiltonian._STURM_BLOCK - 1, hamiltonian._STURM_BLOCK)
        diag = np.full(n, 2.0)
        diag[[0, site]] = 1.0
        off = np.full(n - 1, -1.0)
        energies = np.array([-0.5, 0.0, 0.25, 1.1, 3.3])
        counts = hamiltonian._sturm_count(diag, off, energies)
        assert np.array_equal(counts, _reference_sturm(diag, off, energies))
        dense, clear = _dense_counts(diag, off, energies)
        assert clear[:2].all() and np.array_equal(counts[clear], dense[clear])

    def test_pivot_within_pivmin_of_zero_counts_as_plus_pivmin(self):
        # couplings of 1e5 make pivmin about 2.2e-298.  Site 0 is cut off
        # and holds -1e-300: the pivot is not zero, but the guard makes it
        # +pivmin, so the eigenvalue -1e-300 counts as a tie at E = 0
        n = 2 * hamiltonian._STURM_BLOCK + 5
        diag = np.linspace(1e5, 3e5, n)
        diag[0] = -1e-300
        off = np.full(n - 1, 1e5)
        off[0] = 0.0
        energies = np.array([0.0, 1e5])
        counts = hamiltonian._sturm_count(diag[None], off[None], energies)
        assert np.array_equal(counts[0], _reference_sturm(diag, off, energies))
        rest = _reference_sturm(diag[1:], off[1:], energies)
        assert counts[0, 0] == rest[0]

    def test_decoupled_chain_redoes_the_block_of_its_zero_over_zero(self):
        # sites 0..60 form the path Laplacian, whose pivots are exactly 1 and
        # whose last is 0 (the eigenvalue 0); bond 60-61 is cut, so the next
        # unguarded step is 0/0 = NaN inside the same block.  Unless the
        # block is redone, every later pivot is NaN and the free chain on
        # sites 61.. loses its eigenvalues below E.
        n = 200
        diag = np.full(n, 2.0)
        diag[[0, 60]] = 1.0
        off = np.full(n - 1, -1.0)
        off[60] = 0.0
        energies = np.array([0.0, 0.5, 1.0, 2.5])
        with np.errstate(all="raise"):
            counts = hamiltonian._sturm_count(diag, off, energies)
        assert counts[0] == 0  # the eigenvalue 0 is not below 0
        assert np.array_equal(counts, _reference_sturm(diag, off, energies))
        dense, clear = _dense_counts(diag, off, energies)
        assert np.array_equal(counts[clear], dense[clear]) and clear[1:].all()
        assert counts[-1] > counts[1] > 0


class TestRandomPotential:
    def test_box_profile_lands_on_the_diagonal(self):
        # one point per cell puts grid points at the site centers, so the
        # unit box bump contributes omega_k exactly at coordinate k
        model = AndersonModel.free(omega_max=2.0, master_seed=5)
        cells = 9
        bc = BoundaryCondition.dirichlet()
        h0 = model.h0_box(cells, bc)
        h = model.anderson_box(cells, bc, realization=1)
        sample = model.sample_for_box(model.grid(cells), realization=1)
        diff = (h.matrix - h0.matrix).toarray()
        coords = h.grid.axis_coords(0)
        expected = np.diag([sample[(int(round(x)),)] for x in coords])
        assert np.allclose(diff, expected, atol=0.0)

    def test_periodic_fold_with_constant_coupling_is_translation_invariant(self):
        # a constant-coupling site sum over the torus reproduces the full
        # lattice sum at every grid point, so the potential is flat
        u = SingleSitePotential.exponential(delta3=0.7)
        model = AndersonModel(
            dimension=1,
            points_per_cell=1,
            v0=PeriodicPotential.zero(1, 1),
            single_site=u,
            disorder=__import__("randschrod").DisorderModel(omega_max=1.0),
        )
        l = 4
        grid = GridSpec.cube(1, 1, l)
        sample = DisorderSample.constant([range(-l, l + 1)], 0.6)
        h0 = assemble_h0(grid, model.v0, BoundaryCondition.periodic())
        h = assemble_periodic_approx(h0, u, sample)
        v = np.real(np.diag((h.matrix - h0.matrix).toarray()))
        offsets = np.arange(-math.floor(u.radius), math.floor(u.radius) + 1)
        lattice_sum = 0.6 * float(np.sum(u.evaluate(offsets[:, None].astype(float))))
        assert np.allclose(v, lattice_sum, rtol=1e-12)

    def test_missing_coupling_names_the_site(self):
        grid = GridSpec.cube(1, 1, 2)
        h0 = assemble_h0(grid, PeriodicPotential.zero(1, 1), BoundaryCondition.dirichlet())
        sample = DisorderSample(np.array([1.0]), (0,))
        with pytest.raises(KeyError, match=r"-3"):
            assemble_anderson(h0, SingleSitePotential.box(), sample)
        # the first missing site in C order: the box needs {-2..2}^2
        grid = GridSpec.cube(2, 1, 1)
        h0 = assemble_h0(grid, PeriodicPotential.zero(2, 1), BoundaryCondition.dirichlet())
        sample = DisorderSample.constant([range(-2, 3), range(-2, 2)], 1.0)
        with pytest.raises(KeyError, match=r"\(-2, 2\)"):
            assemble_anderson(h0, SingleSitePotential.box(), sample)
        line = DisorderSample.constant([range(-9, 9)], 1.0)
        with pytest.raises(ValueError, match="dimension"):
            assemble_anderson(h0, SingleSitePotential.box(), line)

    def test_each_boundary_kind_has_one_assembly_path(self):
        # only the periodic approximation folds couplings onto the torus,
        # so the Anderson assembly refuses wrapped boxes and the periodic
        # approximation refuses Dirichlet ones
        grid = GridSpec.cube(1, 1, 2)
        v0 = PeriodicPotential.zero(1, 1)
        u = SingleSitePotential.box()
        sample = DisorderSample.constant([range(-3, 4)], 1.0)
        for bc in (BoundaryCondition.periodic(), BoundaryCondition.with_phases([0.3])):
            with pytest.raises(ValueError, match="Dirichlet"):
                assemble_anderson(assemble_h0(grid, v0, bc), u, sample)
        with pytest.raises(ValueError, match="Periodic or Theta"):
            assemble_periodic_approx(
                assemble_h0(grid, v0, BoundaryCondition.dirichlet()), u, sample
            )

    def test_negative_profile_is_rejected_at_assembly(self):
        grid = GridSpec.cube(1, 1, 1)
        h0 = assemble_h0(grid, PeriodicPotential.zero(1, 1), BoundaryCondition.dirichlet())
        bad = SingleSitePotential(
            profile=_BoxProfile(0.5, -1.0), delta1=1.0, core_diameter=1.0,
            delta2=1.0, delta3=1.0, radius=0.5,
        )
        sample = DisorderSample.constant([range(-2, 3)], 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_anderson(h0, bad, sample)


def _dense_site_sum(grid, u, sites, coupling):
    """sum_k coupling(k) u(x - k) over ``sites``, one site at a time in the
    given order, from the (points x sites) matrix of u."""
    x = grid.points()
    bumps = np.stack([u.evaluate(x - np.asarray(k, dtype=float)) for k in sites], axis=1)
    v = np.zeros(len(x))
    for j, k in enumerate(sites):
        v += coupling(k) * bumps[:, j]
    return v


class TestSiteSum:
    @given(
        dimension=st.integers(1, 2),
        points_per_cell=st.integers(1, 3),
        cells=st.integers(1, 6),
        profile=st.sampled_from(["box", "exponential"]),
        diameter=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 6.0]),
        delta3=st.floats(1.0, 3.0),
        periodic=st.booleans(),
        omega_max=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_assembly_matches_the_dense_oracle(
        self, dimension, points_per_cell, cells, profile, diameter, delta3,
        periodic, omega_max, seed,
    ):
        if profile == "box":
            u = SingleSitePotential.box(delta1=1.3, core_diameter=diameter)
        else:
            u = SingleSitePotential.exponential(core_diameter=diameter, delta3=delta3)
        if periodic:
            cells += 1 - cells % 2  # periodic boxes need 2l+1 cells
        grid = GridSpec.from_cells(dimension, points_per_cell, cells)
        law = DisorderModel(omega_max=omega_max, master_seed=seed)
        v0 = PeriodicPotential.zero(dimension, points_per_cell)
        # every site within the bump's reach of the box, and a few more
        reach = cells // 2 + math.ceil(u.radius) + 1
        sites = list(itertools.product(range(-reach, reach + 1), repeat=dimension))
        if periodic:
            l = grid.half_width
            sample = sample_disorder(law, [range(-l, l + 1)] * dimension, 0)
            h0 = assemble_h0(grid, v0, BoundaryCondition.with_phases([0.4] * dimension))
            h = assemble_periodic_approx(h0, u, sample)
            expected = _dense_site_sum(
                grid, u, sites, lambda k: sample[tuple((c + l) % cells - l for c in k)]
            )
        else:
            sample = sample_disorder(law, [range(-reach, reach + 1)] * dimension, 0)
            h0 = assemble_h0(grid, v0, BoundaryCondition.dirichlet())
            h = assemble_anderson(h0, u, sample)
            expected = _dense_site_sum(grid, u, sites, lambda k: sample[k])

        got, base = h.dense(), h0.dense()
        off = ~np.eye(h.n, dtype=bool)
        assert np.array_equal(got[off], base[off])
        # both sides add their potential to the same H0 diagonal in one step
        diag, oracle = np.diag(got), np.diag(base) + expected
        if profile == "box":
            assert np.array_equal(diag, oracle)
        else:
            rounding = np.spacing(np.max(np.abs(oracle)))
            assert np.max(np.abs(diag - oracle)) <= 1e-13 * np.max(expected) + rounding


class TestZoneSpectra:
    @given(
        dimension=st.integers(1, 2),
        points_per_cell=st.integers(1, 3),
        half_width=st.integers(1, 3),
        profile=st.sampled_from(["box", "exponential"]),
        v0_shift=st.floats(0.1, 2.0),
        fractions=st.lists(
            st.lists(st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0]),
                     min_size=2, max_size=2),
            min_size=1, max_size=3,
        ),
        from_sample=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_spectra_of_boxes_assembled_at_each_node(
        self, dimension, points_per_cell, half_width, profile, v0_shift, fractions,
        from_sample, seed,
    ):
        if profile == "box":
            u = SingleSitePotential.box(delta1=1.3, core_diameter=1.5)
        else:
            u = SingleSitePotential.exponential(core_diameter=1.5, delta3=1.5)
        model = AndersonModel(
            dimension=dimension,
            points_per_cell=points_per_cell,
            v0=PeriodicPotential.zero(dimension, points_per_cell).shifted(v0_shift),
            single_site=u,
            disorder=DisorderModel(omega_max=0.8, master_seed=seed),
        )
        extent = math.pi / (2 * half_width + 1)
        # the drawn nodes come first, so the box is assembled at one of them;
        # the zone corners follow
        corners = [[-1.0] * dimension, [1.0] * dimension]
        nodes = [tuple(extent * f for f in node[:dimension]) for node in fractions + corners]
        if from_sample:
            grid = GridSpec.cube(dimension, points_per_cell, half_width)
            source = {"sample": model.sample_fundamental(grid, 3)}
        else:
            source = {"realization": 3}
        spectra = model.zone_spectra(half_width, nodes, **source)
        assert len(spectra) == len(nodes)
        for theta, row in zip(nodes, spectra):
            box = model.periodic_box_at(half_width, theta, **source)
            oracle = box.eigenvalues()
            assert np.array_equal(row, oracle)
            # the spectrum lies above v0_shift > 0; the midpoints stay off
            # every eigenvalue, also where two of them coincide
            gaps = np.diff(oracle) > 1e-9
            energies = [0.0, *((oracle[:-1] + oracle[1:]) / 2)[gaps]]
            counts = model.zone_counts(half_width, [theta], energies, **source)
            assert np.array_equal(counts, [count_strictly_below(oracle, energies)])

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_free_unit_cell_rows_are_the_cosine_dispersion(self, dimension):
        # one point per cell: every wrap bond sits on the diagonal and adds -2 cos(theta_a)
        model = AndersonModel.free(dimension=dimension, omega_max=0.0)
        nodes = list(itertools.product(np.linspace(-math.pi, math.pi, 33), repeat=dimension))
        spectra = model.zone_spectra(0, nodes)
        expected = [2.0 * dimension - 2.0 * sum(math.cos(t) for t in theta) for theta in nodes]
        assert spectra.shape == (len(nodes), 1)
        assert np.max(np.abs(spectra[:, 0] - expected)) <= 1e-12

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("points_per_cell", [1, 2, 3])
    def test_unit_cell_rows_equal_the_spectra_of_assembled_cells(
        self, dimension, points_per_cell
    ):
        # at p = 2 a wrap bond adds to the interior bond as assembly adds it;
        # at p = 1 it sits on the diagonal, whose terms assembly sums in
        # another order, so the rows may round differently there
        rng = np.random.default_rng(17)
        shape = (points_per_cell,) * dimension
        model = AndersonModel(
            dimension=dimension,
            points_per_cell=points_per_cell,
            v0=PeriodicPotential(dimension, points_per_cell, rng.uniform(0.0, 2.0, shape)),
            single_site=SingleSitePotential.exponential(core_diameter=1.5, delta3=1.5),
            disorder=DisorderModel(omega_max=0.8, master_seed=5),
        )
        corners = list(itertools.product([-math.pi, 0.0, math.pi], repeat=dimension))
        nodes = corners + [tuple(t) for t in rng.uniform(-math.pi, math.pi, (8, dimension))]
        spectra = model.zone_spectra(0, nodes, realization=2)
        for theta, row in zip(nodes, spectra):
            box = model.periodic_box_at(0, theta, realization=2).eigenvalues()
            if points_per_cell == 1:
                assert np.max(np.abs(row - box)) <= 2 * np.spacing(np.max(np.abs(box)))
            else:
                assert np.array_equal(row, box)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_rows_solved_in_chunks_equal_one_stack(self, monkeypatch, dimension):
        model = AndersonModel.free(dimension=dimension, points_per_cell=2, omega_max=0.8,
                                   master_seed=4)
        axis = np.linspace(-math.pi / 5, math.pi / 5, 5)
        nodes = list(itertools.product(axis, repeat=dimension))
        whole = model.zone_spectra(2, nodes, realization=1)

        n = 10**dimension
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            stacks.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(hamiltonian, "_STACK_BYTES", 3 * 16 * n * n)  # 3 matrices
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        chunked = model.zone_spectra(2, nodes, realization=1)
        assert stacks == [3] * (len(nodes) // 3) + [len(nodes) % 3] * (len(nodes) % 3 > 0)
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("dimension, points_per_cell", [(1, 1), (1, 2), (2, 2)])
    def test_batched_rows_equal_per_potential_calls(self, monkeypatch, dimension,
                                                    points_per_cell):
        model = AndersonModel.free(dimension=dimension, points_per_cell=points_per_cell,
                                   omega_max=0.8, master_seed=4)
        axis = np.linspace(-math.pi / 5, math.pi / 5, 5 if dimension == 1 else 2)
        nodes = list(itertools.product(axis, repeat=dimension))
        assert len(nodes) % 3 != 0
        realizations = range(3, 7)
        single = np.stack([model.zone_spectra(2, nodes, realization=r) for r in realizations])
        batched = model.zone_spectra(2, nodes, realizations)
        assert batched.shape == (len(realizations), len(nodes), (5 * points_per_cell) ** dimension)
        assert np.array_equal(batched, single)
        energies = [0.5, 1.0, 2.0]
        counts = np.stack([model.zone_counts(2, nodes, energies, r) for r in realizations])
        assert np.array_equal(model.zone_counts(2, nodes, energies, realizations), counts)

        # stacks of 3 matrices: every stack boundary but the last falls
        # inside one realization's nodes
        n = batched.shape[-1]
        monkeypatch.setattr(hamiltonian, "_STACK_BYTES", 3 * 16 * n * n)
        assert np.array_equal(model.zone_spectra(2, nodes, realizations), single)

    def test_leading_axes_of_the_potential_are_kept(self):
        h = _free_h0(5, BoundaryCondition.dirichlet(), points_per_cell=2)
        bcs = [BoundaryCondition.with_phases([t]) for t in (-0.4, 0.0, 1.3)]
        potential = np.random.default_rng(8).uniform(0.0, 1.0, (2, 3, h.n))
        rows = h.bloch_spectra(potential, bcs)
        assert rows.shape == (2, 3, len(bcs), h.n)
        for index in itertools.product(range(2), range(3)):
            assert np.array_equal(rows[index], h.bloch_spectra(potential[index], bcs))

    def test_bloch_operator_starts_from_a_dirichlet_box(self):
        h = _free_h0(5, BoundaryCondition.periodic())
        with pytest.raises(ValueError, match="Dirichlet"):
            h.bloch_spectra(np.zeros(h.n), [BoundaryCondition.with_phases([0.5])])


class TestModelConveniences:
    def test_wrap_phases_multiplies_by_the_box_length(self):
        model = AndersonModel.free()
        bc = model.wrap_phases(3, [0.1])
        assert bc.theta[0] == pytest.approx(0.7)
        assert bc.wraps

    def test_wrap_phase_outside_reduced_zone_is_rejected(self):
        model = AndersonModel.free()
        with pytest.raises(ValueError, match="reduced zone"):
            model.wrap_phases(3, [0.5])  # 0.5 * 7 = 3.5 > pi

    def test_periodic_box_wants_exactly_one_disorder_source(self):
        model = AndersonModel.free(master_seed=2)
        bc = BoundaryCondition.periodic()
        sample = model.sample_fundamental(GridSpec.cube(1, 1, 2), realization=0)
        with pytest.raises(ValueError):
            model.periodic_box(2, bc, realization=0, sample=sample)
        with pytest.raises(ValueError):
            model.periodic_box(2, bc)

    def test_band_minimum_of_free_model_is_zero(self):
        model = AndersonModel.free(omega_max=0.0)
        assert model.band_minimum(resolution=101) == pytest.approx(0.0, abs=1e-12)

    def test_band_minimum_in_chunks_equals_the_minimum_over_all_nodes(self):
        # 81^2 nodes span two chunks of the scan
        v0 = PeriodicPotential(2, 2, np.array([[0.3, 1.1], [0.7, 0.2]]))
        model = AndersonModel(2, 2, v0, SingleSitePotential.box(), DisorderModel(0.0))
        axis = np.linspace(-math.pi, math.pi, 81)
        nodes = list(itertools.product(axis, repeat=2))
        assert model.band_minimum(81) == np.min(model.zone_spectra(0, nodes)[:, 0])


class TestGrid:
    def test_cube_places_points_at_cell_centers(self):
        g = GridSpec.cube(1, 1, 2)
        assert np.allclose(g.axis_coords(0), [-2, -1, 0, 1, 2])
        assert g.half_width == 2
        assert g.n_points == 5
        assert g.volume == pytest.approx(5.0)

    def test_refined_cube_keeps_cell_alignment(self):
        g = GridSpec.cube(2, 2, 1)
        assert g.shape == (6, 6)
        assert g.n_points == 36
        assert g.volume == pytest.approx(9.0)
        assert g.mesh == (0.5, 0.5)

    def test_half_width_rejects_even_boxes(self):
        g = GridSpec.from_cells(1, 1, 8)
        with pytest.raises(ValueError, match=r"\(2l\+1\)"):
            g.half_width

    def test_zero_points_per_cell_rejected(self):
        with pytest.raises(ValueError, match="points_per_cell"):
            GridSpec.from_cells(1, 0, 5)


@dataclass(frozen=True)
class SingleSiteReport:
    """Outcome of validate_single_site; carries pass/fail, never raises."""

    passed: bool
    messages: tuple[str, ...]
    min_core_value: float
    worst_tail_excess: float


def validate_single_site(
    u: SingleSitePotential, points_per_cell: int = 8, dimension: int = 1
) -> SingleSiteReport:
    """The check of the bump constructors: u's nonnegativity, core lower
    bound and tail envelope.

    Samples u on the assembly mesh out to the truncation radius and
    reports the first violation location of each kind.
    """
    h = 1.0 / points_per_cell
    n = int(math.ceil(u.radius / h)) + 1
    axis = h * np.arange(-n, n + 1)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = u.evaluate(pts)
    sup = np.max(np.abs(pts), axis=-1)

    messages: list[str] = []
    tol = 1e-12

    neg = vals < -tol
    if np.any(neg):
        i = int(np.argmax(neg))
        messages.append(f"u < 0 at x = {tuple(pts[i])} (value {vals[i]:.3e})")

    core = sup < u.core_diameter / 2.0 - tol
    min_core = float(np.min(vals[core])) if np.any(core) else math.inf
    if np.any(core) and min_core < u.delta1 - tol:
        i = int(np.argmin(np.where(core, vals, math.inf)))
        messages.append(
            f"core bound violated at x = {tuple(pts[i])}: {min_core:.6g} < delta1 = {u.delta1}"
        )

    tail = (~core) & (sup <= u.radius + tol)
    envelope = u.delta2 * np.exp(-u.delta3 * sup)
    excess = np.abs(vals) - envelope * (1.0 + 1e-9)
    worst = float(np.max(excess[tail])) if np.any(tail) else -math.inf
    if np.any(tail) and worst > tol:
        i = int(np.argmax(np.where(tail, excess, -math.inf)))
        messages.append(
            f"tail envelope violated at x = {tuple(pts[i])}: "
            f"|u| exceeds delta2*exp(-delta3*|x|) by {worst:.3e}"
        )

    return SingleSiteReport(
        passed=not messages,
        messages=tuple(messages),
        min_core_value=min_core,
        worst_tail_excess=worst,
    )


class TestSingleSiteValidation:
    def test_stock_profiles_pass(self):
        assert validate_single_site(SingleSitePotential.box()).passed
        assert validate_single_site(SingleSitePotential.exponential()).passed

    def test_core_bound_violation_is_reported(self):
        u = SingleSitePotential(
            profile=_BoxProfile(0.5, 1.0), delta1=2.0, core_diameter=1.0,
            delta2=2.0, delta3=1.0, radius=0.5,
        )
        report = validate_single_site(u)
        assert not report.passed
        assert any("core bound" in m for m in report.messages)
        assert report.min_core_value == pytest.approx(1.0)

    def test_tail_envelope_violation_is_reported(self):
        u = SingleSitePotential(
            profile=_ExponentialProfile(2.0, 0.2), delta1=1.0, core_diameter=1.0,
            delta2=0.1, delta3=1.0, radius=4.0,
        )
        report = validate_single_site(u)
        assert not report.passed
        assert any("tail envelope" in m for m in report.messages)

    def test_constructor_guards(self):
        with pytest.raises(ValueError, match="delta1"):
            SingleSitePotential.box(delta1=0.0)
        with pytest.raises(ValueError, match="radius"):
            SingleSitePotential(
                profile=_BoxProfile(1.0, 1.0), delta1=1.0, core_diameter=2.0,
                delta2=1.0, delta3=1.0, radius=0.5,
            )
