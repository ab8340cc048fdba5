"""Almost-analytic extensions and resolvent-integral functional calculus.

Compactly supported functions are stored as piecewise polynomials so every
derivative is available in closed form.  The matrix calculus integrates
dbar-weighted resolvents over the upper half-plane only and returns
(S + S*) / pi, on the spectrum: for A = Q diag(lam) Q* the resolvent sum
S = sum_z c_z (A - z)^{-1} is Q diag(sum_z c_z / (lam_j - z)) Q*.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "hypot1",
    "smoothstep",
    "SmoothCompactFunction",
    "CutoffFunction",
    "AlmostAnalyticExtension",
    "DbarBoundReport",
    "QuadratureSpec",
    "extend",
    "dbar",
    "dbar_bound_check",
    "plateau_function",
    "HsTransform",
    "hs_transform",
    "matrix_function_hs",
    "matrix_function_eigh",
]

# target bytes per (eigenvalues x nodes) block of HsTransform: two arrays of 8-byte entries
_CHUNK_BYTES = 25_000_000


def hypot1(x):
    """sqrt(x^2 + 1), elementwise."""
    return np.hypot(np.asarray(x, dtype=float), 1.0)


def smoothstep(order: int) -> Polynomial:
    """Monotone polynomial rising 0 -> 1 on [0,1].

    Derivatives 1..order vanish at both endpoints, so piecing it against
    constants yields a C^order function.  Degree is 2*order + 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    k = order
    coef = np.zeros(2 * k + 2)
    for j in range(k + 1):
        coef[k + 1 + j] = (-1.0) ** j * math.comb(k + j, j) * math.comb(2 * k + 1, k - j)
    return Polynomial(coef)


def _piece_index(breaks: np.ndarray, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(breaks, x, side="right") - 1
    return np.clip(idx, 0, len(breaks) - 2)


@dataclass(frozen=True)
class SmoothCompactFunction:
    """Piecewise polynomial, identically zero outside its breakpoint span.

    ``smoothness`` is the number of continuous derivatives across the
    knots (and at the support edges against the zero extension).
    Derivatives beyond it still evaluate, piecewise.
    """

    breakpoints: np.ndarray
    pieces: tuple[Polynomial, ...]
    smoothness: int
    label: str = ""

    def __post_init__(self) -> None:
        b = np.asarray(self.breakpoints, dtype=float)
        if b.ndim != 1 or len(b) < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(b) - 1:
            raise ValueError(
                f"{len(b)} breakpoints require {len(b) - 1} pieces, got {len(self.pieces)}"
            )
        object.__setattr__(self, "breakpoints", b)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def support_radius(self) -> float:
        a, b = self.support
        return max(abs(a), abs(b))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        a, b = self.support
        inside = (x >= a) & (x <= b)
        if np.any(inside):
            xi = x[inside]
            idx = _piece_index(self.breakpoints, xi)
            vals = np.empty_like(xi)
            for i, poly in enumerate(self.pieces):
                m = idx == i
                if np.any(m):
                    vals[m] = poly(xi[m])
            out[inside] = vals
        return out[0] if scalar else out

    def derivative(self, r: int = 1) -> "SmoothCompactFunction":
        if r < 0:
            raise ValueError("derivative order must be >= 0")
        if r == 0:
            return self
        pieces = tuple(p.deriv(r) for p in self.pieces)
        return replace(self, pieces=pieces, smoothness=self.smoothness - r,
                       label=f"{self.label}^({r})" if self.label else "")

    def sup_norm(self, r: int = 0, samples_per_piece: int = 513) -> float:
        """Sampled sup of |f^(r)| (piecewise dense grid incl. knots)."""
        best = 0.0
        for i, poly in enumerate(self.pieces):
            q = poly.deriv(r) if r else poly
            xs = np.linspace(self.breakpoints[i], self.breakpoints[i + 1], samples_per_piece)
            best = max(best, float(np.max(np.abs(q(xs)))))
        return best

    def seminorm(self, n: int) -> float:
        """Sum of derivative sup-norms through order n."""
        return float(sum(self.sup_norm(r) for r in range(n + 1)))

    def __mul__(self, scalar: float) -> "SmoothCompactFunction":
        s = float(scalar)
        return replace(self, pieces=tuple(p * s for p in self.pieces))

    __rmul__ = __mul__

    def __add__(self, other: "SmoothCompactFunction") -> "SmoothCompactFunction":
        knots = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
        pieces = []
        for lo, hi in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (lo + hi)
            acc = Polynomial([0.0], domain=[lo, hi], window=[0.0, 1.0])
            for f in (self, other):
                a, b = f.support
                if a <= mid <= b:
                    p = f.pieces[_piece_index(f.breakpoints, np.array([mid]))[0]]
                    acc = acc + p.convert(domain=[lo, hi], window=[0.0, 1.0])
            pieces.append(acc)
        return SmoothCompactFunction(
            breakpoints=knots,
            pieces=tuple(pieces),
            smoothness=min(self.smoothness, other.smoothness),
        )


@dataclass(frozen=True)
class CutoffFunction:
    """Even transition window: 1 on [-1,1], 0 outside (-2,2).

    ``step`` rises 0 -> 1 on [0,1]; the window falls by 1 - step(|x|-1)
    on the shell 1 < |x| < 2.  The quintic default has slope bound
    15/8, inside the required |t'| <= 2.
    """

    step: Polynomial
    slope_bound: float

    @staticmethod
    def default() -> "CutoffFunction":
        return CutoffFunction.from_order(2)

    @staticmethod
    def from_order(order: int) -> "CutoffFunction":
        step = smoothstep(order)
        dstep = step.deriv()
        us = np.linspace(0.0, 1.0, 4097)
        bound = float(np.max(np.abs(dstep(us))))
        if bound > 2.0:
            raise ValueError(
                f"smoothstep of order {order} has slope {bound:.4f} > 2; use order <= 2"
            )
        return CutoffFunction(step=step, slope_bound=bound)

    def value(self, x):
        raw = np.asarray(x, dtype=float)
        x = np.abs(np.atleast_1d(raw))
        out = np.ones_like(x)
        shell = (x > 1.0) & (x < 2.0)
        out[shell] = 1.0 - self.step(x[shell] - 1.0)
        out[x >= 2.0] = 0.0
        return out[0] if raw.ndim == 0 else out

    def slope(self, x):
        raw = np.asarray(x, dtype=float)
        x = np.atleast_1d(raw)
        out = np.zeros_like(x)
        shell = (np.abs(x) > 1.0) & (np.abs(x) < 2.0)
        d = self.step.deriv()
        out[shell] = -np.sign(x[shell]) * d(np.abs(x[shell]) - 1.0)
        return out[0] if raw.ndim == 0 else out


@dataclass(frozen=True)
class AlmostAnalyticExtension:
    """Taylor-in-iy extension of a real function, damped off the real axis."""

    source: SmoothCompactFunction
    order: int
    cutoff: CutoffFunction
    derivs: tuple[SmoothCompactFunction, ...]  # orders 0 .. n+1

    @property
    def y_extent(self) -> float:
        """The extension vanishes for |y| >= 2*R + 2, R the support radius."""
        return 2.0 * self.source.support_radius + 2.0

    def cutoff_factor(self, x, y):
        return self.cutoff.value(np.asarray(y, dtype=float) / hypot1(x))

    def _taylor(self, x, y, unique=None) -> np.ndarray:
        iy = 1j * np.asarray(y, dtype=float)
        distinct, back = unique or np.unique(np.asarray(x, dtype=float), return_inverse=True)
        acc = np.zeros(np.broadcast(back, iy).shape, dtype=complex)
        power = np.ones_like(acc)
        for r in range(self.order + 1):
            if r > 0:
                power = power * iy / r
            acc = acc + self.derivs[r](distinct)[back] * power
        return acc

    def value(self, x, y):
        return self._taylor(x, y) * self.cutoff_factor(x, y)

    def dbar(self, x, y):
        """(1/2)(d/dx + i d/dy) of the extension, in closed form."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        distinct, back = np.unique(x, return_inverse=True)  # quadrature nodes share few x
        bracket = hypot1(distinct)[back]
        u = y / bracket
        s = self.cutoff.value(u)
        du = self.cutoff.slope(u)
        s_x = du * (-x * y / bracket**3)
        s_y = du / bracket
        n = self.order
        iy_n = (1j * y) ** n
        lead = 0.5 * self.derivs[n + 1](distinct)[back] * iy_n / math.factorial(n) * s
        tail = 0.5 * (s_x + 1j * s_y) * self._taylor(x, y, (distinct, back))
        return lead + tail


def extend(
    f: SmoothCompactFunction, n: int, t: CutoffFunction | None = None
) -> AlmostAnalyticExtension:
    """Build the order-n extension; f must be C^(n+1)."""
    if n < 0:
        raise ValueError("extension order must be >= 0")
    if f.smoothness < n + 1:
        raise ValueError(
            f"source function is C^{f.smoothness}; an order-{n} extension needs C^{n + 1}"
        )
    t = t if t is not None else CutoffFunction.default()
    derivs = tuple(f.derivative(r) for r in range(n + 2))
    return AlmostAnalyticExtension(source=f, order=n, cutoff=t, derivs=derivs)


def dbar(ext: AlmostAnalyticExtension, x, y):
    return ext.dbar(x, y)


@dataclass(frozen=True)
class DbarBoundReport:
    passed: bool
    min_slack: float
    max_slack: float
    violations: int
    worst_point: tuple[float, float]

    def __str__(self) -> str:  # pragma: no cover
        state = "ok" if self.passed else f"{self.violations} violations"
        return f"dbar bound {state}; min slack {self.min_slack:.3e} at {self.worst_point}"


def dbar_bound_check(
    ext: AlmostAnalyticExtension,
    xs: np.ndarray,
    ys: np.ndarray,
    atol: float = 1e-11,
    rtol: float = 1e-12,
) -> DbarBoundReport:
    """Verify |dbar| against its two-term envelope on a sample grid.

    The envelope is (1/2n!)|f^(n+1) s| |y|^n plus the shell term
    (3/<x>) 1{<x> < |y| < 2<x>} sum_r |f^(r)| |y|^r / r!.  In the region
    |y| < <x> the first term is an equality, so the comparison allows
    rounding at the scale of the terms themselves (``rtol``); a real
    violation indicates a cutoff with too steep a transition.
    """
    X, Y = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
                       indexing="ij")
    lhs = np.abs(ext.dbar(X, Y))
    bracket = hypot1(X)
    s = ext.cutoff_factor(X, Y)
    n = ext.order
    absy = np.abs(Y)
    first = np.abs(ext.derivs[n + 1](X) * s) * absy**n / (2 * math.factorial(n))
    shell = (bracket < absy) & (absy < 2 * bracket)
    series = np.zeros_like(X)
    for r in range(n + 1):
        series += np.abs(ext.derivs[r](X)) * absy**r / math.factorial(r)
    second = np.where(shell, 3.0 / bracket * series, 0.0)
    slack = first + second - lhs
    tol = atol + rtol * np.maximum(lhs, first + second)
    worst = np.unravel_index(np.argmin(slack + tol), slack.shape)
    violations = int(np.sum(slack < -tol))
    return DbarBoundReport(
        passed=violations == 0,
        min_slack=float(slack[worst]),
        max_slack=float(np.max(slack)),
        violations=violations,
        worst_point=(float(X[worst]), float(Y[worst])),
    )


def plateau_function(energy: float, n: int) -> SmoothCompactFunction:
    """Smooth surrogate for the indicator of [0, E].

    Identically 1 on [0, E], supported in [-E/2, 3E/2], C^(n+1), with
    shoulders of width E/2.  Exact scale covariance: the function equals
    the E = 1 profile evaluated at x/E, so every derivative sup-norm
    scales as E^(-r).
    """
    if n < 1:
        raise ValueError("plateau order must be >= 1")
    if energy <= 0:
        raise ValueError(f"plateau energy must be positive, got {energy}")
    E = float(energy)
    step = smoothstep(n + 1)
    # pieces live in local [0,1] coordinates; the falling shoulder uses
    # the reflection identity S(1-u) = 1 - S(u)
    rise = Polynomial(step.coef, domain=[-E / 2, 0.0], window=[0.0, 1.0])
    fall_coef = -step.coef.copy()
    fall_coef[0] += 1.0
    fall = Polynomial(fall_coef, domain=[E, 1.5 * E], window=[0.0, 1.0])
    flat = Polynomial([1.0], domain=[0.0, E], window=[0.0, 1.0])
    return SmoothCompactFunction(
        breakpoints=np.array([-E / 2, 0.0, E, 1.5 * E]),
        pieces=(rise, flat, fall),
        smoothness=n + 1,
        label=f"plateau(E={E:g}, n={n})",
    )


@dataclass(frozen=True)
class QuadratureSpec:
    """Node layout for the half-plane resolvent integral.

    The default "gauss" scheme covers x by uniform Gauss-Legendre panels
    (panel count a multiple of 4, so the knots of the plateau family land
    on panel edges) and, per x node, covers y by a geometric panel stack
    whose edges snap to the cutoff breakpoints <x> and 2<x>.  On the
    shipped plateau (E = 1, n = 4) x alone sets the error: doubling
    x_points cuts it about 26x (an algebraic rate), refining y gains
    nothing.  The "midpoint" scheme is the plain alternative: uniform x
    points, one global geometric y stack of midpoint panels descending
    from ``y_max``.  With eps_y = 0 the region below the deepest panel is
    dropped, which is harmless for extension order n >= 2 (integrand is
    O(|y|^(n-1))).

    ``x_points`` is the x node budget; the gauss scheme rounds it to
    whole panels of 8.
    """

    x_min: float
    x_max: float
    y_max: float
    x_points: int = 128
    y_panels: int = 18
    y_subnodes: int = 6
    eps_y: float = 0.0
    scheme: str = "gauss"
    panel_ratio: float = 0.5

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("empty x interval")
        if self.eps_y < 0:
            raise ValueError("eps_y must be >= 0")
        if self.y_max <= self.eps_y:
            raise ValueError("y_max must exceed eps_y")
        if self.x_points < 8 or self.y_panels * self.y_subnodes < 8:
            raise ValueError("resolution must be >= 8 nodes per axis")
        if self.scheme not in ("midpoint", "gauss"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.panel_ratio < 1.0:
            raise ValueError("panel_ratio must lie in ]0,1[")

    @staticmethod
    def for_function(f: SmoothCompactFunction, **kwargs) -> "QuadratureSpec":
        a, b = f.support
        return QuadratureSpec(
            x_min=a, x_max=b, y_max=2.0 * f.support_radius + 2.0, **kwargs
        )

    def refine(self) -> "QuadratureSpec":
        """Double the per-axis resolution (and deepen the panel stack)."""
        return replace(
            self,
            x_points=2 * self.x_points,
            y_subnodes=2 * self.y_subnodes,
            y_panels=self.y_panels + 4,
        )

    @functools.lru_cache(maxsize=8)
    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper half-plane nodes (zx, zy) and weights, read-only and
        built once per rule: equal specs share one cached set."""
        xs, wx = self.x_nodes()
        if self.scheme == "gauss":
            parts = [(np.full(ys.shape, x), ys, wxi * wys)
                     for x, wxi in zip(xs, wx)
                     for ys, wys in [self.snapped_y_nodes(hypot1(x))]]
            zx, zy, w = (np.concatenate(p) for p in zip(*parts))
        else:
            ys, wy = self.positive_y_nodes()
            zx, zy = np.repeat(xs, ys.size), np.tile(ys, xs.size)
            w = (wx[:, None] * wy[None, :]).ravel()
        for arr in (zx, zy, w):
            arr.flags.writeable = False
        return zx, zy, w

    def x_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        if self.scheme == "gauss":
            panels = max(4, 4 * max(1, round(self.x_points / 32)))
            gn, gw = np.polynomial.legendre.leggauss(8)
            edges = np.linspace(self.x_min, self.x_max, panels + 1)
            half = 0.5 * (edges[1] - edges[0])
            mids = 0.5 * (edges[:-1] + edges[1:])
            nodes = (mids[:, None] + half * gn[None, :]).ravel()
            weights = np.broadcast_to(half * gw, (panels, 8)).ravel()
            return nodes, weights
        h = (self.x_max - self.x_min) / self.x_points
        return self.x_min + (np.arange(self.x_points) + 0.5) * h, np.full(self.x_points, h)

    def _panel_edges(self) -> np.ndarray:
        edges = [self.y_max]
        for _ in range(self.y_panels):
            nxt = edges[-1] * self.panel_ratio
            if nxt <= self.eps_y:
                break
            edges.append(nxt)
        if self.eps_y > 0:
            edges.append(self.eps_y)
        return np.asarray(edges)

    def positive_y_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        edges = self._panel_edges()
        nodes, weights = [], []
        if self.scheme == "gauss":
            gn, gw = np.polynomial.legendre.leggauss(self.y_subnodes)
        for top, bot in zip(edges[:-1], edges[1:]):
            if self.scheme == "gauss":
                half = 0.5 * (top - bot)
                nodes.append(bot + half * (gn + 1.0))
                weights.append(half * gw)
            else:
                h = (top - bot) / self.y_subnodes
                nodes.append(bot + (np.arange(self.y_subnodes) + 0.5) * h)
                weights.append(np.full(self.y_subnodes, h))
        return np.concatenate(nodes), np.concatenate(weights)

    def snapped_y_nodes(self, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Gauss y nodes whose panel edges honor the cutoff breakpoints.

        The integrand is analytic in y on ]0, b[ and a polynomial times
        a resolvent on ]b, 2b[ (b = <x>), so panels that end exactly at
        b, 1.5b, 2b see no interior kinks; below b the usual geometric
        stack resolves the resolvent's approach to the real axis.
        """
        edges = [2.0 * b, 1.5 * b, b]
        bottom = b
        for _ in range(self.y_panels):
            nxt = bottom * self.panel_ratio
            if nxt <= self.eps_y:
                break
            edges.append(nxt)
            bottom = nxt
        if self.eps_y > 0.0:
            edges = [e for e in edges if e > self.eps_y]
            edges.append(self.eps_y)
        if len(edges) < 2:
            return np.empty(0), np.empty(0)
        edges = np.asarray(edges)
        gn, gw = np.polynomial.legendre.leggauss(self.y_subnodes)
        half = 0.5 * (edges[:-1] - edges[1:])
        nodes = (edges[1:, None] + half[:, None] * (gn[None, :] + 1.0)).ravel()
        weights = (half[:, None] * gw[None, :]).ravel()
        return nodes, weights


def _require_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(float(np.linalg.norm(a, ord="fro")), 1.0)
    if float(np.linalg.norm(a - a.conj().T, ord="fro")) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    return a


@dataclass(frozen=True, eq=False)
class HsTransform:
    """The scalar resolvent sum g(lam) = (2/pi) Re sum_z c_z / (lam - z)
    of one quadrature rule, over its live upper half-plane nodes
    z = x + iy with coefficients c_z = w dbar(z).  Built once per rule by
    ``hs_transform``; picklable, so process workers can take it."""

    x: np.ndarray
    y: np.ndarray
    coeff: np.ndarray

    def __call__(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        flat = lam.ravel()
        # Re(c / (lam - z)) = (Re c (lam - x) - Im c y) / ((lam - x)^2 + y^2):
        # real arithmetic throughout, a fraction of the cost of complex division.
        # Each eigenvalue's terms are summed in one row by numpy, not by a BLAS
        # product, whose order of summation follows the BLAS thread count.
        cr, ciy, y2 = self.coeff.real, self.coeff.imag * self.y, self.y**2
        block = max(1, _CHUNK_BYTES // (16 * max(1, self.x.size)))
        r = np.empty(flat.shape)
        for k in range(0, flat.size, block):
            d = flat[k:k + block, None] - self.x
            terms = d * cr
            terms -= ciy
            d *= d
            d += y2
            terms /= d
            r[k:k + block] = terms.sum(axis=1)
        return (2.0 / math.pi * r).reshape(lam.shape)


def hs_transform(
    f: SmoothCompactFunction,
    n: int,
    quad: QuadratureSpec,
    cutoff: CutoffFunction | None = None,
) -> HsTransform:
    """The scalar map lam -> g(lam) that the resolvent integral of f
    applies to each eigenvalue.

    Quadratures the plane integral (1/pi) iint dbar(x,y) / (lam - z) with
    z = x + iy.  Conjugate symmetry of the integrand folds the lower
    half-plane into the real part of the upper-half sum, so only y > 0
    nodes enter.  The coefficients do not depend on lam, so one transform
    serves every matrix of a run.
    """
    if quad.eps_y == 0.0 and n < 2:
        raise ValueError("eps_y = 0 requires extension order n >= 2")
    sa, sb = f.support
    needed_y = 2.0 * f.support_radius + 2.0
    tol = 1e-12 * max(1.0, abs(sa), abs(sb))
    if quad.x_min > sa + tol or quad.x_max < sb - tol or quad.y_max < needed_y - tol:
        raise ValueError(
            f"quadrature rectangle [{quad.x_min}, {quad.x_max}] x [0, {quad.y_max}] "
            f"does not cover supp f x [0, {needed_y}]"
        )
    ext = extend(f, n, cutoff)
    zx, zy, w = quad.nodes()
    coeff = w * ext.dbar(zx, zy)
    live = np.abs(coeff) > 0.0
    return HsTransform(x=zx[live], y=zy[live], coeff=coeff[live])


def matrix_function_hs(
    a: np.ndarray,
    f: SmoothCompactFunction,
    n: int = 4,
    quad: QuadratureSpec | None = None,
    cutoff: CutoffFunction | None = None,
) -> np.ndarray:
    """Apply f to a Hermitian matrix through the resolvent integral:
    Q diag(g(lam)) Q* for A = Q diag(lam) Q*, g the ``hs_transform``."""
    a = _require_hermitian(a)
    quad = quad if quad is not None else QuadratureSpec.for_function(f)
    g = hs_transform(f, n, quad, cutoff)
    lam, q = np.linalg.eigh(a)
    return (q * g(lam)) @ q.conj().T


def matrix_function_eigh(a: np.ndarray, f) -> np.ndarray:
    """Eigendecomposition route: Q f(diag) Q*.  The comparison oracle."""
    a = _require_hermitian(a)
    w, v = np.linalg.eigh(a)
    return (v * np.asarray(f(w), dtype=float)) @ v.conj().T
