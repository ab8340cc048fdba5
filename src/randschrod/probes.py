"""Resolvent-decay, gap-probability and scale-recursion probes.

Everything here is either a deterministic linear-algebra check on an
assembled box operator or a seeded Monte Carlo estimate; reductions are
plain ordered sums so results do not depend on worker scheduling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bands import brillouin_zone
from .hamiltonian import AssembledHamiltonian, GridSpec, NumericalFailure
from .hscalc import smoothstep
from .ids import mean_stderr
from .model import AndersonModel

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "ResolventDecayProfile",
    "GapProbabilityEstimate",
    "ThetaAverageReport",
    "FixedThetaReport",
    "MsaSchedule",
    "RegularityTestResult",
    "wilson_interval",
    "combes_thomas_profile",
    "theta_bounds_check",
    "theta_average_check",
    "fixed_theta_check",
    "msa_schedule",
    "ring_cutoff",
    "core_indicator",
    "laplacian_commutator",
    "m_regularity_test",
    "alpha_n_feasible",
]

_Z95 = 1.959963984540054
_EDGE_TOLERANCE = 1e-6  # |band minimum| accepted as an edge at 0 by _gap_estimates


def wilson_interval(hits: int, total: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; well-behaved at 0 and total hits."""
    if total < 1:
        raise ValueError("need at least one trial")
    if not 0 <= hits <= total:
        raise ValueError("hit count outside [0, total]")
    phat = hits / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _cell_flat_indices(grid: GridSpec, cell: tuple[int, ...]) -> np.ndarray:
    if len(cell) != grid.dimension:
        raise ValueError(f"cell index needs {grid.dimension} components")
    for c, total in zip(cell, grid.cells):
        if not 0 <= c < total:
            raise ValueError(f"cell {cell} outside the {grid.cells} box")
    p = grid.points_per_cell
    axes = [np.arange(c * p, (c + 1) * p) for c in cell]
    if grid.dimension == 1:
        return axes[0]
    return (axes[0][:, None] * grid.shape[1] + axes[1][None, :]).ravel()


@dataclass(frozen=True)
class ResolventDecayProfile:
    """Cell-block resolvent norms away from an anchor cell, with a log-linear fit."""

    probe: complex
    anchor: tuple[int, ...]
    distances: tuple[int, ...]
    norms: tuple[float, ...]
    rate: float
    prefactor: float
    r_squared: float
    dist_to_spectrum: float
    fitted_points: int


def combes_thomas_profile(
    h: AssembledHamiltonian,
    z: complex,
    anchor: tuple[int, ...],
    max_distance: int,
    norm_floor: float = 1e-12,
) -> ResolventDecayProfile:
    """Decay of ||chi_x (H - z)^{-1} chi_y|| in the cell distance |x - y|.

    chi blocks are unit cells (p^d points).  The rate comes from a least
    squares fit of log norm against sup-norm cell distance, ignoring
    norms that fell below ``norm_floor`` (double precision noise).
    """
    import scipy.linalg
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    grid = h.grid
    evals = h.eigenvalues()
    dist = float(np.min(np.abs(evals - z)))
    if dist < 1e-8:
        raise NumericalFailure(f"probe {z} sits on the spectrum (distance {dist:.2e})")

    anchor = tuple(int(c) for c in anchor)
    cols = _cell_flat_indices(grid, anchor)
    mat = sp.csc_matrix(h.matrix.astype(complex) - z * sp.identity(h.n, format="csr"))
    rhs = np.zeros((h.n, len(cols)), dtype=complex)
    rhs[cols, np.arange(len(cols))] = 1.0
    solve = splu(mat).solve
    x = solve(rhs)

    if grid.dimension == 1:
        cells = [(c,) for c in range(grid.cells[0])]
    else:
        cells = [(c1, c2) for c1 in range(grid.cells[0]) for c2 in range(grid.cells[1])]
    distances, norms = [], []
    for cell in cells:
        d = max(abs(c - a) for c, a in zip(cell, anchor))
        if d > max_distance:
            continue
        block = x[_cell_flat_indices(grid, cell), :]
        distances.append(d)
        norms.append(float(scipy.linalg.svdvals(block)[0]))

    dist_arr = np.asarray(distances, dtype=float)
    norm_arr = np.asarray(norms, dtype=float)
    keep = norm_arr > norm_floor
    if np.sum(keep) < 2:
        raise NumericalFailure("not enough usable norms above the floor to fit a rate")
    xv, yv = dist_arr[keep], np.log(norm_arr[keep])
    design = np.stack([xv, np.ones_like(xv)], axis=1)
    coef, *_ = np.linalg.lstsq(design, yv, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = design @ coef
    ss_res = float(np.sum((yv - fitted) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ResolventDecayProfile(
        probe=complex(z),
        anchor=anchor,
        distances=tuple(int(d) for d in distances),
        norms=tuple(norms),
        rate=-slope,
        prefactor=math.exp(intercept),
        r_squared=r2,
        dist_to_spectrum=dist,
        fitted_points=int(np.sum(keep)),
    )


@dataclass(frozen=True)
class GapProbabilityEstimate:
    side: int
    alpha: float
    window: float
    boundary: str
    samples: int
    hits: int
    estimate: float
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.samples:
            raise ValueError("hits outside [0, samples]")


def _gap_hits(model, sides, alpha, theta0, realizations) -> np.ndarray:
    """One row per realization of the chunk, one column per side: whether the
    wrapped box of that side has an eigenvalue in [0, side^-alpha).

    The box is the periodic approximation on ``side`` = 2l+1 cells per
    axis, so couplings fold onto the torus, at theta = 0 or at the zone
    point ``theta0`` (|theta| <= pi/side, a wrap phase of side * theta).
    """
    # the Periodic box is the Bloch operator at theta = 0
    theta = (0.0,) * model.dimension if theta0 is None else theta0
    columns = []
    for side in sides:
        counts = model.zone_counts((side - 1) // 2, [theta], [0.0, float(side) ** (-alpha)],
                                   realizations)
        columns.append(counts[:, 0, 1] > counts[:, 0, 0])
    return np.stack(columns, axis=1)


def _gap_estimates(model, sides, alpha, theta0):
    """Check the sides, alpha and the band edge; return the function that
    turns the stacked rows of ``_gap_hits`` into one estimate per side."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in ]0,1[, got {alpha}")
    for side in sides:
        if side < 3 or side % 2 == 0:
            raise ValueError(f"side must be odd and >= 3, got {side}")
    edge = model.band_minimum()
    if abs(edge) > _EDGE_TOLERANCE:
        raise ValueError(f"lowest band sits at {edge:.3e}, not 0; shift the model first")
    if theta0 is None:
        boundary = "periodic"
    else:
        boundary = "theta(" + ",".join(f"{t:.6g}" for t in theta0) + ")"

    def estimates(rows):
        samples = len(rows)
        hits = np.count_nonzero(rows, axis=0).tolist()
        return [GapProbabilityEstimate(
            side=side,
            alpha=alpha,
            window=float(side) ** (-alpha),
            boundary=boundary,
            samples=samples,
            hits=count,
            estimate=count / samples,
            interval=wilson_interval(count, samples),
        ) for side, count in zip(sides, hits)]

    return estimates


@dataclass(frozen=True)
class ThetaAverageReport:
    half_width: int
    energy: float
    realizations: int
    theta_resolution: int
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 2.0 * math.hypot(self.lhs_stderr, self.rhs_stderr)


@dataclass(frozen=True)
class FixedThetaReport:
    half_width: int
    energy: float
    theta0: tuple[float, ...]
    xi: float
    c8: float
    c9: float
    enlarged_energy: float
    probability: float
    interval: tuple[float, float]
    prob_stderr: float
    bound: float
    bound_stderr: float

    @property
    def slack(self) -> float:
        return self.bound - self.probability

    @property
    def passed(self) -> bool:
        return self.probability <= self.bound + 2.0 * math.hypot(
            self.prob_stderr, self.bound_stderr
        )


def theta_bounds_check(
    model: AndersonModel,
    half_width: int,
    energy: float,
    realizations: int,
    theta_resolution: int = 8,
    theta0: tuple[float, ...] | float | None = None,
    xi: float | None = None,
) -> tuple[ThetaAverageReport, FixedThetaReport | None]:
    """The zone-averaged check and, given ``theta0``, the fixed-theta check,
    from one count per realization at the zone nodes and theta0.

    Zone average.  LHS: integral over the zone of P{spectrum meets
    [0, E)}.  RHS: (2 pi)^d E[N(E) - N(0)] of the periodic approximation.
    Both sides are estimated on one shared theta grid and sample set, for
    which count >= indicator holds pointwise, so the inequality is exact up
    to nothing; the stderrs quantify how representative the estimate is.

    Fixed theta.  P{spectrum at theta0 meets [0, E)} against the mean count
    in [0, E') over the zone nodes.  The window widens by C9 / l with
    C9 = xi * C8, where C8 is the exact sup-norm zone-diameter coefficient
    2 pi l / (2l + 1).  With a true Lipschitz constant the per-sample
    inequality is sure; a fitted xi makes it statistical, hence the 2 sigma
    slack in ``passed``.
    """
    nodes, energies, reports = _theta_bounds(model, half_width, energy, theta_resolution,
                                             theta0, xi)
    return reports(model.zone_counts(half_width, nodes, energies, range(realizations)))


def _theta_bounds(model, half_width, energy, theta_resolution, theta0, xi):
    """The nodes and energies at which ``theta_bounds_check`` counts each
    realization, and the function that turns the stacked
    (realization, node, energy) counts into its two reports."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    d = model.dimension
    l = half_width
    zone = brillouin_zone(l, d)
    nodes = zone.midpoint_nodes(theta_resolution)
    t_nodes = len(nodes)
    energies = [0.0, energy]
    if theta0 is not None:
        if not energy < 1.0:
            raise ValueError("the fixed-theta check assumes energy < 1")
        if xi is None or xi < 0:
            raise ValueError("Lipschitz coefficient must be given and >= 0")
        theta0 = tuple(np.atleast_1d(np.asarray(theta0, dtype=float)).tolist())
        if len(theta0) != d:
            raise ValueError(f"theta0 must have {d} components")
        for t in theta0:
            if abs(t) > zone.extent + 1e-12:
                raise ValueError(f"theta0 component {t} outside the reduced zone")
        c8 = 2.0 * math.pi * l / (2 * l + 1)
        c9 = xi * c8
        energies.append(energy + c9 / l)
        nodes = [*nodes, theta0]

    def reports(rows):
        realizations = len(rows)
        inside = rows[..., 1:] - rows[..., :1]  # [realization, node, window]: counts in [0, window)
        in_window = inside[:, :t_nodes, 0]
        lhs, lhs_se = mean_stderr(zone.volume * np.count_nonzero(in_window, axis=1) / t_nodes)
        rhs, rhs_se = mean_stderr(
            (2 * math.pi) ** d * in_window.sum(axis=1) / ((2 * l + 1) ** d * t_nodes)
        )
        average = ThetaAverageReport(
            half_width=l,
            energy=energy,
            realizations=realizations,
            theta_resolution=theta_resolution,
            lhs=float(lhs),
            lhs_stderr=float(lhs_se),
            rhs=float(rhs),
            rhs_stderr=float(rhs_se),
        )
        if theta0 is None:
            return average, None
        hits = int(np.count_nonzero(inside[:, -1, 0]))
        prob = hits / realizations
        bound, bound_se = mean_stderr(inside[:, :t_nodes, 1].sum(axis=1) / t_nodes)
        return average, FixedThetaReport(
            half_width=l,
            energy=energy,
            theta0=theta0,
            xi=xi,
            c8=c8,
            c9=c9,
            enlarged_energy=energies[2],
            probability=prob,
            interval=wilson_interval(hits, realizations),
            prob_stderr=math.sqrt(prob * (1 - prob) / realizations),
            bound=float(bound),
            bound_stderr=float(bound_se),
        )

    return nodes, energies, reports


def theta_average_check(
    model: AndersonModel,
    half_width: int,
    energy: float,
    realizations: int,
    theta_resolution: int = 8,
) -> ThetaAverageReport:
    """The zone-averaged report of ``theta_bounds_check``."""
    return theta_bounds_check(model, half_width, energy, realizations, theta_resolution)[0]


def fixed_theta_check(
    model: AndersonModel,
    half_width: int,
    energy: float,
    theta0: tuple[float, ...],
    realizations: int,
    xi: float,
    theta_resolution: int = 8,
) -> FixedThetaReport:
    """The fixed-theta report of ``theta_bounds_check``."""
    return theta_bounds_check(model, half_width, energy, realizations, theta_resolution,
                              theta0, xi)[1]


def _next_scale(length: int, zeta: float) -> int:
    """Greatest multiple of 3 not exceeding length^zeta."""
    if zeta == 1.5:
        floor_pow = math.isqrt(length**3)
    else:
        import mpmath

        # length^zeta has about bit_length * zeta bits; 64 more keep its floor exact
        with mpmath.workprec(math.ceil(length.bit_length() * zeta) + 64):
            floor_pow = int(mpmath.floor(mpmath.power(length, mpmath.mpf(zeta))))
    return 3 * (floor_pow // 3)


@dataclass(frozen=True)
class MsaSchedule:
    """Length, mass and probability-exponent sequences of the induction."""

    zeta: float
    dimension: int
    scales: tuple[int, ...]
    masses: tuple[float, ...]
    exponents: tuple[float, ...]
    c1: float
    c2: float
    c3: float
    xi: float

    def __post_init__(self) -> None:
        for l in self.scales:
            if l % 3 != 0:
                raise ValueError(f"scale {l} is not a multiple of 3")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly increasing")

    @property
    def steps(self) -> int:
        return len(self.scales) - 1

    @property
    def min_mass(self) -> float:
        return min(self.masses)

    @property
    def mass_positive(self) -> bool:
        return self.min_mass > 0.0


def msa_schedule(
    l0: int,
    m0: float,
    q0: float,
    zeta: float,
    steps: int,
    c1: float = 0.0,
    c2: float = 0.0,
    c3: float = 1.0,
    xi: float = 2.0,
    dimension: int = 1,
) -> MsaSchedule:
    """Iterate the scale/mass/exponent recursions for ``steps`` steps.

    l_{j+1} is the greatest multiple of 3 <= l_j^zeta; the mass update
    takes the lower bound as the recursion,
    m_{j+1} = m_j (1 - 4 l_j / l_{j+1}) - c1/l_j - c2 log(l_{j+1})/l_{j+1},
    and the exponent solves
    l_{j+1}^{q_{j+1}} = c3 (l_{j+1}/l_j)^{2d} l_j^{2 q_j} + l_{j+1}^{-xi}/2.
    The scales are exact integers; a scale beyond the largest double is a
    NumericalFailure, since the masses and exponents are doubles, and so
    is a mass or exponent that is not finite.
    """
    if not 1.0 < zeta < 2.0:
        raise ValueError(f"scaling exponent must lie in ]1,2[, got {zeta}")
    if l0 % 3 != 0 or l0 < 6:
        raise ValueError(f"initial scale must be a multiple of 3 and >= 6, got {l0}")
    if m0 <= 0:
        raise ValueError("initial mass must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    d = dimension
    scales = [int(l0)]
    masses = [float(m0)]
    exponents = [float(q0)]
    for step in range(1, steps + 1):
        l, m, q = scales[-1], masses[-1], exponents[-1]
        l_next = _next_scale(l, zeta)
        if l_next <= l:
            raise NumericalFailure(f"scale recursion stalls at {l} (zeta too small)")
        if l_next > sys.float_info.max:
            raise NumericalFailure(
                f"scale {step} has {l_next.bit_length()} bits, beyond the double range")
        m_next = m * (1.0 - 4 * l / l_next) - c1 / l - c2 * math.log(l_next) / l_next
        # in logarithms: l^(2q) and the sum overflow a double long before the scales do
        log_l, log_next = math.log(l), math.log(l_next)
        q_next = float(np.logaddexp(
            math.log(c3) + 2 * d * (log_next - log_l) + 2 * q * log_l,
            math.log(0.5) - xi * log_next,
        )) / log_next
        if not (math.isfinite(m_next) and math.isfinite(q_next)):
            raise NumericalFailure(
                f"step {step} leaves the double range: mass {m_next}, exponent {q_next}")
        scales.append(l_next)
        masses.append(m_next)
        exponents.append(q_next)
    return MsaSchedule(
        zeta=zeta,
        dimension=d,
        scales=tuple(scales),
        masses=tuple(masses),
        exponents=tuple(exponents),
        c1=c1,
        c2=c2,
        c3=c3,
        xi=xi,
    )


def ring_cutoff(grid: GridSpec, inner: float, outer: float) -> np.ndarray:
    """C^2 profile: 1 inside sup-norm radius ``inner``, 0 beyond ``outer``."""
    if not 0.0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    s = np.max(np.abs(grid.points()), axis=1)
    step = smoothstep(2)
    u = np.clip((s - inner) / (outer - inner), 0.0, 1.0)
    return 1.0 - step(u)


def core_indicator(grid: GridSpec, radius: float) -> np.ndarray:
    return np.max(np.abs(grid.points()), axis=1) <= radius + 1e-12


def laplacian_commutator(h: AssembledHamiltonian, phi: np.ndarray) -> scipy.sparse.csr_matrix:
    """[H, diag(phi)] = [-Laplacian, phi]; the potential part commutes away."""
    import scipy.sparse as sp

    phi = np.asarray(phi, dtype=float)
    if phi.shape != (h.n,):
        raise ValueError(f"profile must have {h.n} entries")
    m = h.matrix
    return sp.csr_matrix(m.multiply(phi[None, :]) - m.multiply(phi[:, None]))


@dataclass(frozen=True)
class RegularityTestResult:
    side: float
    delta: float
    mass: float
    inner_radius: float
    outer_radius: float
    core_radius: float
    separation: float
    probes: tuple[float, ...]
    norms: tuple[float, ...]
    supremum: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.supremum <= self.threshold


def m_regularity_test(
    h_box: AssembledHamiltonian,
    energy: float,
    delta: float,
    mass: float,
    eps_probes: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
) -> RegularityTestResult:
    """Commutator-resolvent-core norm against the e^{-m l} threshold.

    The ring profile ramps from 1 to 0 between sup-norm radii l/2 - 2d
    and l/2 - d (d = ``delta``); the core indicator covers radius l/6.
    The supremum over the epsilon probes is a lower bound for the true
    sup over eps != 0, so a pass is one-sided evidence.
    """
    import scipy.linalg
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    grid = h_box.grid
    if len(set(grid.cells)) != 1:
        raise ValueError("regularity test expects a cube")
    side = grid.cells[0]
    if side < 12 * delta:
        raise ValueError(f"box side {side} < 12 delta = {12 * delta}; ring would "
                         "collide with the core")
    inner = side / 2 - 2 * delta
    outer = side / 2 - delta
    core_r = side / 6

    if any(e == 0 for e in eps_probes):
        gap = float(np.min(np.abs(h_box.eigenvalues() - energy)))
        if gap < 1e-9:
            raise NumericalFailure(
                f"energy {energy} is within {gap:.2e} of the spectrum; "
                "a zero probe would be singular"
            )

    phi = ring_cutoff(grid, inner, outer)
    w = laplacian_commutator(h_box, phi)
    live_rows = np.unique(w.nonzero()[0])
    core = np.flatnonzero(core_indicator(grid, core_r))
    rhs = np.zeros((h_box.n, len(core)), dtype=complex)
    rhs[core, np.arange(len(core))] = 1.0

    norms = []
    for eps in eps_probes:
        shift = (energy + 1j * eps) * sp.identity(h_box.n, format="csr")
        lu = splu(sp.csc_matrix(h_box.matrix.astype(complex) - shift))
        block = (w @ lu.solve(rhs))[live_rows, :] if len(live_rows) else np.zeros((1, 1))
        norms.append(float(scipy.linalg.svdvals(block)[0]) if block.size else 0.0)

    return RegularityTestResult(
        side=float(side),
        delta=float(delta),
        mass=float(mass),
        inner_radius=inner,
        outer_radius=outer,
        core_radius=core_r,
        separation=inner - core_r,
        probes=tuple(float(e) for e in eps_probes),
        norms=tuple(norms),
        supremum=max(norms),
        threshold=math.exp(-mass * side),
    )


def alpha_n_feasible(
    q: float, dimension: int, alpha: float, restrict_quarter: bool = False
) -> int:
    """Smallest integer n with n (1 - alpha) > q + 3d + 1."""
    if q <= 0:
        raise ValueError("target exponent must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in ]0,1[, got {alpha}")
    if restrict_quarter and not alpha < 0.25:
        raise ValueError(f"alpha must lie in ]0,1/4[, got {alpha}")
    threshold = q + 3 * dimension + 1
    n = math.floor(threshold / (1.0 - alpha)) + 1
    while n > 1 and (n - 1) * (1.0 - alpha) > threshold:
        n -= 1
    while n * (1.0 - alpha) <= threshold:
        n += 1
    return n
