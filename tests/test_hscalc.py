"""Smooth functions, almost-analytic extensions, half-plane calculus."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from randschrod import runner
from randschrod.config import load_config
from randschrod.hscalc import (
    AlmostAnalyticExtension,
    CutoffFunction,
    QuadratureSpec,
    dbar_bound_check,
    extend,
    hs_transform,
    hypot1,
    matrix_function_eigh,
    matrix_function_hs,
    plateau_function,
    smoothstep,
)

ROOT = Path(__file__).resolve().parent.parent


def _stacked_inverse_hs(a, f, n, quad):
    """The resolvent sum by one stacked inverse per node: the reference
    for the spectral sum of matrix_function_hs."""
    ext = extend(f, n)
    xs, wx = quad.x_nodes()
    if quad.scheme == "gauss":
        zx_parts, zy_parts, w_parts = [], [], []
        for x, wxi in zip(xs, wx):
            ys, wys = quad.snapped_y_nodes(hypot1(x))
            zx_parts.append(np.full(ys.shape, x))
            zy_parts.append(ys)
            w_parts.append(wxi * wys)
        zx = np.concatenate(zx_parts)
        zy = np.concatenate(zy_parts)
        w = np.concatenate(w_parts)
    else:
        ys, wy = quad.positive_y_nodes()
        zx = np.repeat(xs, ys.size)
        zy = np.tile(ys, xs.size)
        w = (wx[:, None] * wy[None, :]).ravel()
    coeff = w * ext.dbar(zx, zy)
    zs = zx + 1j * zy
    live = np.abs(coeff) > 0.0
    zs, coeff = zs[live], coeff[live]

    dim = a.shape[0]
    eye = np.eye(dim)
    chunk = max(1, 25_000_000 // (16 * dim * dim))
    s = np.zeros((dim, dim), dtype=complex)
    for start in range(0, len(zs), chunk):
        z = zs[start : start + chunk]
        stacked = a[None, :, :] - z[:, None, None] * eye[None, :, :]
        inv = np.linalg.inv(stacked)
        s += np.tensordot(coeff[start : start + chunk], inv, axes=1)
    return (s + s.conj().T) / math.pi


def _two_norm_hs_error(matrix_dim, f, order, quad, master_seed, index):
    """The hs-check error by matrices: ||g(A) - f(A)||_2 for the base and
    the refined rule, with g(A) and f(A) each from its own eigh.  The
    reference for the eigenvalue route of runner._hs_error."""
    a = _complex_hermitian(master_seed, index, matrix_dim)
    exact = matrix_function_eigh(a, f)
    return tuple(float(np.linalg.norm(matrix_function_hs(a, f, n=order, quad=q) - exact, 2))
                 for q in (quad, quad.refine()))


def _complex_hermitian(seed, index, dim=20):
    """The hs-check matrix: Hermitian part of a complex Gaussian matrix."""
    rng = np.random.default_rng((seed, index))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


class TestSmoothstep:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
    def test_endpoints_and_flat_derivatives(self, order):
        s = smoothstep(order)
        assert s(0.0) == pytest.approx(0.0, abs=1e-13)
        assert s(1.0) == pytest.approx(1.0, abs=1e-13)
        for r in range(1, order + 1):
            d = s.deriv(r)
            assert d(0.0) == pytest.approx(0.0, abs=1e-10)
            assert d(1.0) == pytest.approx(0.0, abs=1e-10)

    def test_reflection_identity(self):
        s = smoothstep(4)
        u = np.linspace(0, 1, 101)
        scale = np.sum(np.abs(s.coef))
        assert np.max(np.abs(s(u) + s(1 - u) - 1.0)) < 1e-14 * scale

    def test_monotone_on_unit_interval(self):
        s = smoothstep(3).deriv()
        assert np.min(s(np.linspace(0, 1, 2001))) >= -1e-12

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            smoothstep(-1)


class TestPlateau:
    def test_values_partition_the_line(self):
        g = plateau_function(0.8, 3)
        assert np.allclose(g(np.linspace(0.0, 0.8, 9)), 1.0, atol=1e-13)
        assert np.all(g(np.array([-0.5, -0.41, 1.21, 2.0])) == 0.0)
        shoulders = g(np.array([-0.2, 1.0]))
        assert np.all((shoulders > 0.0) & (shoulders < 1.0))
        assert g.support == pytest.approx((-0.4, 1.2))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_knots_are_smooth_to_the_declared_order(self, n):
        # adjacent pieces must agree in value and derivatives 1..n+1 at
        # every breakpoint; evaluated on the polynomial pieces directly
        g = plateau_function(1.3, n)
        for i in range(len(g.pieces) - 1):
            knot = g.breakpoints[i + 1]
            left, right = g.pieces[i], g.pieces[i + 1]
            for r in range(n + 2):
                lv = left.deriv(r)(knot) if r else left(knot)
                rv = right.deriv(r)(knot) if r else right(knot)
                # mismatch is judged against the size this derivative
                # actually reaches, not against its (near-zero) knot value
                scale = max(g.sup_norm(r, samples_per_piece=65), 1.0)
                assert abs(lv - rv) < 1e-11 * scale, (i, r)

    def test_scale_covariance_is_exact(self):
        # agreement is absolute at the function's unit scale: on the
        # falling shoulder both evaluations cancel 1 - S(u), which caps
        # the common digits near the support edge
        g1 = plateau_function(1.0, 4)
        for E in (0.5, 0.05, 1e-3):
            gE = plateau_function(E, 4)
            xs = np.linspace(-E / 2, 1.5 * E, 67)
            assert np.allclose(gE(xs), g1(xs / E), rtol=0, atol=1e-12)

    def test_derivative_sup_norms_scale_like_inverse_powers(self):
        g1 = plateau_function(1.0, 3)
        gE = plateau_function(0.01, 3)
        for r in range(1, 5):
            assert gE.sup_norm(r) == pytest.approx(g1.sup_norm(r) * 100.0**r, rel=1e-10)

    def test_seminorm_times_scale_power_is_nearly_flat(self):
        # the r = n term dominates the seminorm as E shrinks, so the
        # product with E^n settles to a constant; spread is under 1%
        # already at E = 0.1
        vals = [plateau_function(E, 4).seminorm(4) * E**4 for E in (1e-1, 1e-2, 1e-3)]
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread < 0.01

    def test_constructor_guards(self):
        with pytest.raises(ValueError, match="order"):
            plateau_function(1.0, 0)
        with pytest.raises(ValueError, match="positive"):
            plateau_function(0.0, 2)


class TestSmoothCompactAlgebra:
    def test_seminorm_accumulates_lower_orders(self):
        g = plateau_function(0.7, 3)
        values = [g.seminorm(n) for n in range(4)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(g.sup_norm(0))

    def test_addition_doubles_pointwise(self):
        g = plateau_function(1.0, 2)
        s = g + g
        xs = np.linspace(-0.7, 1.7, 101)
        assert np.allclose(s(xs), 2.0 * g(xs), atol=1e-13)


class TestCutoff:
    def test_default_window_shape(self):
        t = CutoffFunction.default()
        assert np.all(t.value(np.array([-1.0, -0.3, 0.0, 0.99, 1.0])) == 1.0)
        assert np.all(t.value(np.array([2.0, -2.5, 3.0])) == 0.0)
        mid = t.value(1.5)
        assert 0.0 < mid < 1.0
        assert t.slope_bound == pytest.approx(15.0 / 8.0)

    def test_steep_steps_are_rejected(self):
        with pytest.raises(ValueError, match="slope"):
            CutoffFunction.from_order(7)

    def test_slope_is_odd_and_supported_on_the_shell(self):
        t = CutoffFunction.default()
        assert t.slope(0.5) == 0.0 and t.slope(2.5) == 0.0
        assert t.slope(1.5) == pytest.approx(-t.slope(-1.5))
        assert t.slope(1.5) < 0.0


class TestExtension:
    def _ext(self, energy=1.0, n=2):
        return extend(plateau_function(energy, n + 1), n)

    def test_restriction_to_the_real_axis_is_the_source(self):
        ext = self._ext()
        xs = np.linspace(-0.6, 1.6, 101)
        assert np.allclose(ext.value(xs, 0.0).real, ext.source(xs), atol=1e-13)
        assert np.allclose(ext.value(xs, 0.0).imag, 0.0, atol=1e-15)

    def test_vanishes_beyond_the_declared_strip(self):
        ext = self._ext()
        xs = np.linspace(-0.6, 1.6, 51)
        assert ext.y_extent == pytest.approx(2.0 * ext.source.support_radius + 2.0)
        assert np.all(ext.value(xs, ext.y_extent + 0.1) == 0.0)

    def test_dbar_matches_finite_differences_of_the_extension(self):
        ext = self._ext()
        h = 1e-6
        # generic probes: inside the cutoff plateau, on the shell, both signs
        for x0, y0 in ((0.3, 0.5), (0.9, 1.7), (-0.2, -0.6), (1.2, 2.1)):
            dx = (ext.value(x0 + h, y0) - ext.value(x0 - h, y0)) / (2 * h)
            dy = (ext.value(x0, y0 + h) - ext.value(x0, y0 - h)) / (2 * h)
            fd = 0.5 * (dx + 1j * dy)
            exact = ext.dbar(x0, y0)
            assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact)), (x0, y0)

    def test_dbar_on_quadrature_nodes_equals_dbar_node_by_node(self):
        # the nodes share few x values, each of whose factors dbar evaluates
        # once; every entry must keep the bits of a call on its node alone
        ext = extend(plateau_function(0.5, 4), 4)
        zx, zy, _ = QuadratureSpec.for_function(ext.source).nodes()
        picked = np.random.default_rng(3).choice(len(zx), 64, replace=False)
        whole = ext.dbar(zx, zy)[picked]
        alone = [ext.dbar(zx[i : i + 1], zy[i : i + 1])[0] for i in picked]
        assert len(np.unique(zx)) < len(zx) / 10
        assert whole.tolist() == alone

    def test_leading_term_is_an_equality_below_the_cutoff_shell(self):
        # for |y| < <x> the window factor is identically 1, so |dbar|
        # reduces to |f^(n+1)(x)| |y|^n / (2 n!) exactly
        for energy, n in ((0.5, 2), (0.05, 4)):
            ext = extend(plateau_function(energy, n), n)
            a, b = ext.source.support
            X, Y = np.meshgrid(np.linspace(a, b, 41), np.linspace(-0.99, 0.99, 41),
                               indexing="ij")
            lhs = np.abs(ext.dbar(X, Y))
            rhs = np.abs(ext.derivs[n + 1](X)) * np.abs(Y) ** n / (2 * math.factorial(n))
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("energy,n", [(0.5, 2), (0.5, 4), (0.05, 2), (0.05, 4)])
    def test_envelope_bound_has_no_violations(self, energy, n):
        ext = extend(plateau_function(energy, n), n)
        a, b = ext.source.support
        xs = np.linspace(a - 0.1, b + 0.1, 60)
        ys = np.linspace(-ext.y_extent, ext.y_extent, 60)
        report = dbar_bound_check(ext, xs, ys)
        assert report.passed
        assert report.violations == 0
        assert report.max_slack >= 0.0

    def test_insufficient_smoothness_is_rejected(self):
        g = plateau_function(1.0, 2)  # C^3
        with pytest.raises(ValueError, match="C\\^3"):
            extend(g, 3)
        with pytest.raises(ValueError, match=">= 0"):
            extend(g, -1)


class TestMatrixFunction:
    def _hermitian(self, dim=6, seed=5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        return a / np.max(np.abs(np.linalg.eigvalsh(a))) * 1.6 - 0.1 * np.eye(dim)

    def test_agrees_with_spectral_calculus(self):
        g = plateau_function(1.0, 4)
        a = self._hermitian()
        approx = matrix_function_hs(a, g, n=4, quad=QuadratureSpec.for_function(g))
        exact = matrix_function_eigh(a, g)
        assert np.max(np.abs(approx - exact)) < 1e-8

    def test_refinement_shrinks_the_error(self):
        g = plateau_function(1.0, 4)
        a = self._hermitian()
        quad = QuadratureSpec.for_function(g)
        exact = matrix_function_eigh(a, g)
        err = np.max(np.abs(matrix_function_hs(a, g, n=4, quad=quad) - exact))
        err2 = np.max(np.abs(matrix_function_hs(a, g, n=4, quad=quad.refine()) - exact))
        assert err2 < err / 2.0

    @pytest.mark.parametrize("refine", [False, True])
    def test_spectral_sum_matches_the_stacked_inverse_at_the_shipped_plateau(self, refine):
        g = plateau_function(1.0, 4)
        quad = QuadratureSpec.for_function(g)
        quad = quad.refine() if refine else quad
        for index in range(2):
            a = _complex_hermitian(7, index)
            diff = matrix_function_hs(a, g, n=4, quad=quad) - _stacked_inverse_hs(a, g, 4, quad)
            assert np.linalg.norm(diff, 2) <= 1e-10

    @pytest.mark.parametrize("energy,n", [(0.3, 4), (2.0, 6)])
    def test_spectral_sum_matches_the_stacked_inverse_below_the_quadrature_error(
        self, energy, n
    ):
        g = plateau_function(energy, n)
        quad = QuadratureSpec.for_function(g)
        for index in range(2):
            a = _complex_hermitian(11, index)
            approx = matrix_function_hs(a, g, n=n, quad=quad)
            error = np.linalg.norm(approx - matrix_function_eigh(a, g), 2)
            diff = np.linalg.norm(approx - _stacked_inverse_hs(a, g, n, quad), 2)
            assert diff <= 1e-2 * error

    def test_nodes_are_built_once_per_rule(self, monkeypatch):
        # a plateau no other test builds a rule for, so the node cache is cold
        g = plateau_function(0.9, 4)
        quad = QuadratureSpec.for_function(g)
        calls = []
        snapped = QuadratureSpec.snapped_y_nodes

        def counted(self, b):
            calls.append(b)
            return snapped(self, b)

        monkeypatch.setattr(QuadratureSpec, "snapped_y_nodes", counted)
        for index in range(4):
            a = _complex_hermitian(3, index)
            matrix_function_hs(a, g, n=4, quad=quad)
            matrix_function_hs(a, g, n=4, quad=quad.refine())
        # 128 x nodes at the base rule, 256 at the refined one
        assert len(calls) == 128 + 256

    def test_refinement_shrinks_the_sup_error_on_a_fixed_grid(self):
        # a diagonal matrix has an exact eigendecomposition, so its
        # diagonal is the scalar quadrature g_quad(lam) on the grid
        g = plateau_function(1.0, 4)
        grid = np.linspace(-0.6, 1.6, 221)
        quad = QuadratureSpec.for_function(g)
        err = [
            np.max(np.abs(np.diag(matrix_function_hs(np.diag(grid), g, n=4, quad=q)) - g(grid)))
            for q in (quad, quad.refine())
        ]
        assert err[0] <= 1e-6
        assert err[1] <= err[0] / 16.0

    @pytest.mark.parametrize("refine", [False, True])
    def test_transform_matches_the_stacked_inverse_on_a_diagonal_matrix(self, refine):
        g = plateau_function(1.0, 4)
        quad = QuadratureSpec.for_function(g)
        quad = quad.refine() if refine else quad
        grid = np.linspace(-0.6, 1.6, 23)
        oracle = np.diag(_stacked_inverse_hs(np.diag(grid), g, 4, quad)).real
        assert np.max(np.abs(hs_transform(g, 4, quad)(grid) - oracle)) <= 1e-11

    def test_non_hermitian_input_is_rejected(self):
        g = plateau_function(1.0, 4)
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_function_hs(np.array([[0.0, 1.0], [0.0, 0.0]]), g)
        with pytest.raises(ValueError, match="square"):
            matrix_function_hs(np.zeros((2, 3)), g)

    def test_spectral_oracle_reproduces_polynomials(self):
        a = self._hermitian(dim=4, seed=11)
        out = matrix_function_eigh(a, lambda w: w**2 + 1.0)
        assert np.allclose(out, a @ a + np.eye(4), atol=1e-12)


class TestHsCheckErrors:
    def test_eigenvalue_route_matches_the_two_norm_route(self):
        g = plateau_function(1.0, 4)
        quad = QuadratureSpec.for_function(g)
        transforms = (hs_transform(g, 4, quad), hs_transform(g, 4, quad.refine()))
        for index in range(5):
            errors = runner._hs_error(20, g, transforms, 7, index)
            oracle = _two_norm_hs_error(20, g, 4, quad, 7, index)
            assert np.max(np.abs(np.subtract(errors, oracle))) <= 1e-11, index

    def test_payload_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the resolvent sums of the refined rule run over ~40k nodes, where a
        # BLAS product would sum in an order set by its thread count
        config = load_config(str(ROOT / "configs" / "hs_check.yaml"))
        config["experiment"]["matrices"] = 2
        path = tmp_path / "hs_check.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        payloads = []
        for blas in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                   "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
            out = tmp_path / f"blas{blas}"
            done = subprocess.run([sys.executable, "-m", "randschrod.cli", "hs-check", "--config",
                                   str(path), "--out", str(out), "--threads", "1"],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            payloads.append(next(out.glob("*/hs_check.json")).read_bytes())
        assert payloads[0] == payloads[1]

    def test_coefficients_are_built_once_per_rule(self, tmp_path, monkeypatch):
        config = load_config(str(ROOT / "configs" / "hs_check.yaml"))
        config["execution"]["threads"] = 1
        assert config["experiment"]["matrices"] == 25
        calls = []
        dbar = AlmostAnalyticExtension.dbar

        def counted(self, x, y):
            calls.append(np.size(x))
            return dbar(self, x, y)

        monkeypatch.setattr(AlmostAnalyticExtension, "dbar", counted)
        runner.run(config, out_root=str(tmp_path))
        # one call for the base rule and one for the refined rule
        assert len(calls) == 2


class TestQuadratureSpec:
    def test_constructor_guards(self):
        good = dict(x_min=0.0, x_max=1.0, y_max=2.0)
        QuadratureSpec(**good)
        with pytest.raises(ValueError, match="x interval"):
            QuadratureSpec(x_min=1.0, x_max=1.0, y_max=2.0)
        with pytest.raises(ValueError, match="eps_y"):
            QuadratureSpec(**good, eps_y=-1e-3)
        with pytest.raises(ValueError, match="y_max"):
            QuadratureSpec(x_min=0.0, x_max=1.0, y_max=0.1, eps_y=0.5)
        with pytest.raises(ValueError, match="resolution"):
            QuadratureSpec(**good, x_points=4)
        with pytest.raises(ValueError, match="resolution"):
            QuadratureSpec(**good, y_panels=2, y_subnodes=2)
        with pytest.raises(ValueError, match="scheme"):
            QuadratureSpec(**good, scheme="simpson")
        with pytest.raises(ValueError, match="panel_ratio"):
            QuadratureSpec(**good, panel_ratio=1.0)

    def test_for_function_covers_the_strip(self):
        g = plateau_function(0.5, 2)
        quad = QuadratureSpec.for_function(g)
        assert quad.x_min == g.support[0] and quad.x_max == g.support[1]
        assert quad.y_max == pytest.approx(2.0 * g.support_radius + 2.0)

    def test_refine_doubles_the_budget(self):
        quad = QuadratureSpec(x_min=0.0, x_max=1.0, y_max=2.0)
        fine = quad.refine()
        assert fine.x_points == 2 * quad.x_points
        assert fine.y_subnodes == 2 * quad.y_subnodes
        assert fine.y_panels == quad.y_panels + 4

    @pytest.mark.parametrize("scheme", ["gauss", "midpoint"])
    def test_x_rule_integrates_constants_exactly(self, scheme):
        quad = QuadratureSpec(x_min=-0.3, x_max=1.1, y_max=2.0, scheme=scheme)
        nodes, weights = quad.x_nodes()
        assert np.all((nodes > -0.3) & (nodes < 1.1))
        assert np.sum(weights) == pytest.approx(1.4)

    def test_y_nodes_stay_positive_and_bounded(self):
        quad = QuadratureSpec(x_min=0.0, x_max=1.0, y_max=3.0)
        ys, wy = quad.positive_y_nodes()
        assert np.all(ys > 0.0) and np.all(ys < 3.0)
        assert np.all(wy > 0.0)
        # the stack integrates 1 over what it covers, which is nearly [0, y_max]
        assert np.sum(wy) == pytest.approx(3.0, rel=1e-2)
