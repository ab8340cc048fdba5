"""Integrated density of states: box counting, zone integration, tail fits.

A curve is the eigenvalue count of a box at each energy of its grid,
per unit volume, and knows N nowhere else.  The counting convention is
strictly-below everywhere: an eigenvalue equal to a grid energy is not
counted at that energy.  The ids-diff functionals sum g over computed
spectra, not over curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bands import brillouin_zone
from .disorder import DisorderSample
from .hamiltonian import AssembledHamiltonian, NumericalFailure
from .model import AndersonModel

__all__ = [
    "IdsCurve",
    "LifshitzFit",
    "DecayRow",
    "DecayTable",
    "ids_dirichlet_box",
    "ids_periodic_approx",
    "mean_stderr",
    "ids_difference_experiment",
    "lifshitz_fit",
    "mass_window",
    "write_decay_csv",
    "write_ids_csv",
]


@dataclass(frozen=True)
class IdsCurve:
    """Finite-volume IDS on an energy grid: values[i] is the normalized
    count of eigenvalues strictly below energies[i] in a box of ``volume``
    unit cells."""

    energies: np.ndarray
    values: np.ndarray
    volume: float

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or len(e) < 1:
            raise ValueError("energies must be a nonempty 1-d array")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def ids_dirichlet_box(
    h: AssembledHamiltonian, energies: Sequence[float], upper: float | None = None
) -> IdsCurve:
    """Per-volume eigenvalue counting N(E) = |Lambda|^{-1} #{eig < E}.

    The counts come from ``h.count_below``: on real tridiagonal chains
    they are by inertia, from the batched Sturm kernel on this one chain,
    and an eigenvalue at E is not below E; on other boxes they come from
    computed eigenvalues, where a tie within rounding is not decided.  The
    ``lifshitz`` and Dirichlet ``ids`` runs count a chunk of realizations
    at a time through ``AndersonModel.dirichlet_counts``, whose row for a
    realization is this curve's counts times the volume, bit for bit.

    Set ``upper`` to declare a cutoff; every requested energy must then
    stay at or below it.
    """
    if h.bc.kind != "dirichlet":
        raise ValueError(f"Dirichlet box counting got {h.bc.kind} boundary conditions")
    energies = np.asarray(energies, dtype=float)
    if upper is not None and np.max(energies) > upper:
        raise ValueError("energy grid exceeds the eigenvalue cutoff")
    return IdsCurve(energies, h.count_below(energies) / h.grid.volume, h.grid.volume)


def ids_periodic_approx(
    model: AndersonModel,
    sample: DisorderSample,
    half_width: int,
    energies: Sequence[float],
    theta_resolution: int = 8,
) -> IdsCurve:
    """Brillouin-integrated IDS of the periodic approximation.

    The zone integral uses the midpoint rule with theta_resolution^d
    nodes; every eigenvalue at every node carries the weight
    ((2l+1) * theta_resolution)^{-d}, and N(E) adds the weights of the
    eigenvalues strictly below E one at a time.  With one node at
    theta = 0 this reduces to per-volume counting of the Periodic box.
    """
    if theta_resolution < 1:
        raise ValueError(f"theta_resolution must be >= 1, got {theta_resolution}")
    d = model.dimension
    length = 2 * half_width + 1
    weight = 1.0 / (length * theta_resolution) ** d
    nodes = brillouin_zone(half_width, d).midpoint_nodes(theta_resolution)
    counts = model.zone_counts(half_width, nodes, energies, sample=sample).sum(axis=0)
    running = np.concatenate([[0.0], np.cumsum(np.full(counts.max(), weight))])
    return IdsCurve(energies, running[counts], float(length**d))


def mean_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and its standard error, sample std / sqrt(n) (0 for n = 1).

    A 2-d reduction over axis 0 adds in another order than a 1-d one, so
    the shape of ``samples`` fixes the rounding of a payload: the ``ids``
    and ``lifshitz`` runs reduce their whole (realizations x energies)
    array in one call, and every other caller reduces each scalar quantity
    as its own 1-d array.
    """
    x = np.asarray(samples, dtype=float)
    if len(x) < 1:
        raise ValueError("need at least one sample")
    mean = x.mean(axis=0)
    if len(x) == 1:
        return mean, np.zeros_like(mean)
    return mean, x.std(axis=0, ddof=1) / math.sqrt(len(x))


@dataclass(frozen=True)
class DecayRow:
    half_width: int
    delta: float
    stderr: float
    mean_functional: float
    noise_floor: float


@dataclass(frozen=True)
class DecayTable:
    rows: tuple[DecayRow, ...]
    reference_value: float
    reference_stderr: float
    reference_half_width: int
    realizations: int

    def deltas(self) -> list[float]:
        return [r.delta for r in self.rows]


def _difference_rows(model, g, ref_cells, half_widths, theta_resolution, realizations):
    """One row [reference, F(l_1), F(l_2), ...] per realization of the chunk,
    each on that realization's coupling field.

    The reference sums g over the Dirichlet spectrum of ``ref_cells`` cells,
    one realization at a time, per unit volume; F(l) sums g over the
    spectra of the periodic approximation at the midpoint zone nodes, node
    by node within each realization (this order fixes the rounding of the
    payload), with weight ((2l+1) T)^{-d}.
    """
    d = model.dimension
    spectra = model.dirichlet_spectra(ref_cells, realizations)
    values = np.asarray(g(spectra), dtype=float)
    volume = model.grid(ref_cells).volume
    rows = np.empty((len(values), 1 + len(half_widths)))
    rows[:, 0] = [float(np.sum(row)) / volume for row in values]
    for j, l in enumerate(half_widths, start=1):
        nodes = brillouin_zone(l, d).midpoint_nodes(theta_resolution)
        weight = 1.0 / ((2 * l + 1) * theta_resolution) ** d
        values = np.asarray(g(model.zone_spectra(l, nodes, realizations)), dtype=float)
        for i, per_node in enumerate(values):
            total = 0.0
            for row in per_node:
                total += float(np.sum(row))
            rows[i, j] = weight * total
    return rows


def ids_difference_experiment(
    model: AndersonModel,
    g,
    half_widths: Sequence[int],
    realizations: int,
    reference_half_width: int | None = None,
    theta_resolution: int = 8,
) -> DecayTable:
    """Convergence of the periodic-approximation IDS functional in l.

    Delta(l) = | mean_m integral g dN_{omega,l} - reference | where the
    reference is the disorder-averaged Dirichlet large-box functional
    (default box half-width: 4x the largest tested l).  Realization m
    reuses one underlying coupling field across every l and the
    reference, so the comparison is between restrictions of a single
    infinite-volume disorder configuration, and the stderr of Delta(l)
    is that of the paired per-realization differences.  The
    zero-disorder discrepancy is reported per l as the noise floor of
    the pipeline.

    The rows of ``_difference_rows`` over all realizations go to
    ``_decay_table``; the ``ids-diff`` run maps the same worker over
    chunks of realizations, and each row has the same bits in any chunk.
    """
    if realizations < 2:
        raise ValueError("need at least 2 realizations for a standard error")
    if reference_half_width is None:
        reference_half_width = 4 * max(half_widths)
    args = (g, 2 * reference_half_width + 1, tuple(half_widths), theta_resolution)
    return _decay_table(model, *args, _difference_rows(model, *args, range(realizations)))


def _decay_table(model, g, ref_cells, half_widths, theta_resolution, rows) -> DecayTable:
    """The table of ``ids_difference_experiment`` from the stacked rows of
    ``_difference_rows``, one per realization in order."""
    floor = _difference_rows(model.quiet(), g, ref_cells, half_widths, theta_resolution,
                             range(1))[0].tolist()
    ref_mean, ref_se = mean_stderr(rows[:, 0])

    table = []
    for j, l in enumerate(half_widths, start=1):
        mean = float(mean_stderr(rows[:, j])[0])
        table.append(
            DecayRow(
                half_width=l,
                delta=float(abs(mean - ref_mean)),
                stderr=float(mean_stderr(rows[:, j] - rows[:, 0])[1]),
                mean_functional=mean,
                noise_floor=abs(floor[j] - floor[0]),
            )
        )
    return DecayTable(
        rows=tuple(table),
        reference_value=float(ref_mean),
        reference_stderr=float(ref_se),
        reference_half_width=(ref_cells - 1) // 2,
        realizations=len(rows),
    )


@dataclass(frozen=True)
class LifshitzFit:
    """Least-squares fit of log|log(N(E) - N(edge))| against log|E - edge|."""

    exponent: float
    confidence_halfwidth: float
    residual_rms: float
    window: tuple[float, float]
    n_points: int
    edge: float
    target: float | None = None
    target_tolerance: float | None = None

    @property
    def matches_target(self) -> bool | None:
        if self.target is None:
            return None
        return abs(self.exponent - self.target) <= (self.target_tolerance or 0.0)


def _edge_count(energies: np.ndarray, mean: np.ndarray, edge: float) -> float:
    """N(edge), which the average must hold at its first energy."""
    if energies[0] != edge:
        raise ValueError(f"the average starts at {energies[0]}, not at the edge {edge}")
    return float(mean[0])


def mass_window(
    energies: np.ndarray,
    mean: np.ndarray,
    edge: float,
    mass_low: float = 1e-4,
    mass_high: float = 1e-1,
) -> tuple[float, float]:
    """Energy window where the IDS mass N(E) - N(edge) of the averaged IDS
    ``mean`` lies in [lo, hi]; the grid ``energies`` starts at the edge."""
    mass = mean - _edge_count(energies, mean, edge)
    ok = (mass >= mass_low) & (mass <= mass_high) & (energies > edge)
    if not np.any(ok):
        raise NumericalFailure("no energies carry IDS mass inside the requested band")
    es = energies[ok]
    return float(es[0]), float(es[-1])


def lifshitz_fit(
    energies: np.ndarray,
    mean: np.ndarray,
    edge: float,
    window: tuple[float, float],
    min_points: int = 4,
    target: float | None = None,
    target_tolerance: float | None = None,
) -> LifshitzFit:
    """Fit the double-log tail exponent of the averaged IDS near an edge.

    Lifshitz behaviour N(E) - N(edge) ~ exp(-c (E-edge)^{-d/2}) makes
    log|log(.)| affine in log(E-edge) with slope -d/2; the slope is the
    fitted exponent.  The grid ``energies`` starts at the edge, where
    ``mean`` holds N(edge).  Points with mass <= 0 or >= 1/2 are refused.
    """
    lo, hi = window
    if not lo < hi:
        raise NumericalFailure("empty fit window")
    base = _edge_count(energies, mean, edge)
    sel = (energies >= lo) & (energies <= hi) & (energies > edge)
    mass = mean[sel] - base
    energies = energies[sel]
    if np.any(mass <= 0.0):
        raise NumericalFailure("IDS mass must be strictly positive inside the fit window")
    if np.any(mass >= 0.5):
        raise NumericalFailure("fit window reaches IDS mass >= 1/2; shrink it toward the edge")
    if len(energies) < min_points:
        raise NumericalFailure(f"only {len(energies)} usable points; need >= {min_points}")

    x = np.log(energies - edge)
    y = np.log(np.abs(np.log(mass)))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    s2 = float(np.sum(resid**2)) / dof
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise NumericalFailure("the fit window spans one energy; no slope to fit")
    half = 1.96 * math.sqrt(s2 / sxx)
    return LifshitzFit(
        exponent=slope,
        confidence_halfwidth=half,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        window=(lo, hi),
        n_points=len(x),
        edge=edge,
        target=target,
        target_tolerance=target_tolerance,
    )


# the layouts of ids.csv and decay.csv, handed to the run's ``runner.OutputSink``;
# ``bench/tracing.py`` binds both names


def write_decay_csv(sink, table: DecayTable) -> None:
    notes = {"reference_half_width": table.reference_half_width,
             "reference_value": table.reference_value, "realizations": table.realizations}
    rows = [(r.half_width, r.delta, r.stderr, r.mean_functional, r.noise_floor)
            for r in table.rows]
    sink.write_csv("decay.csv", ("l", "delta", "stderr", "mean_functional", "noise_floor"),
                   rows, notes)


def write_ids_csv(sink, energies, mean, stderr) -> None:
    sink.write_csv("ids.csv", ("E", "N", "stderr"), zip(energies, mean, stderr))
