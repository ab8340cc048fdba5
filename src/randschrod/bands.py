"""Floquet band structure over the reduced Brillouin zone.

Band functions E_n(theta) are the sorted eigenvalues of the box matrix
at wrap phase theta*(box side); they are evaluated on rectangular theta
grids and probed pointwise for edge geometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import AndersonModel

__all__ = [
    "BrillouinZone",
    "BandStructure",
    "BandEdgeReport",
    "brillouin_zone",
    "compute_bands",
    "find_band_edges",
    "check_regularity",
]


@dataclass(frozen=True)
class BrillouinZone:
    """Reduced zone B_l = [-pi/(2l+1), pi/(2l+1)]^d."""

    dimension: int
    half_width_l: int

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.half_width_l < 0:
            raise ValueError("l must be >= 0")

    @property
    def extent(self) -> float:
        return math.pi / (2 * self.half_width_l + 1)

    @property
    def volume(self) -> float:
        return (2.0 * self.extent) ** self.dimension

    def inclusive_axis(self, resolution: int) -> np.ndarray:
        """Endpoint-inclusive grid; odd resolutions contain theta = 0."""
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        return np.linspace(-self.extent, self.extent, resolution)

    def midpoint_axis(self, resolution: int) -> np.ndarray:
        """Midpoint-rule nodes used by zone integrals."""
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        step = 2.0 * self.extent / resolution
        return -self.extent + (np.arange(resolution) + 0.5) * step

    def midpoint_nodes(self, resolution: int) -> list[tuple[float, ...]]:
        """The resolution^d midpoint-rule nodes of zone integrals, last axis fastest."""
        return list(itertools.product(self.midpoint_axis(resolution), repeat=self.dimension))


def brillouin_zone(half_width_l: int, dimension: int) -> BrillouinZone:
    return BrillouinZone(dimension, half_width_l)


@dataclass
class BandStructure:
    """Sorted band energies tabulated on a rectangular theta grid.

    ``energies`` has shape grid_shape + (num_bands,).  When available,
    ``evaluator`` maps an arbitrary theta vector to the sorted eigenvalue
    list, which lets edge probes refine off-grid.
    """

    axes: list[np.ndarray]
    energies: np.ndarray
    zone: BrillouinZone
    evaluator: Callable[[Sequence[float]], np.ndarray] | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def num_bands(self) -> int:
        return self.energies.shape[-1]

    def band_range(self, n: int) -> tuple[float, float]:
        vals = self.energies[..., n]
        return float(np.min(vals)), float(np.max(vals))

    def theta_at(self, index: tuple[int, ...]) -> np.ndarray:
        return np.array([self.axes[j][index[j]] for j in range(self.dimension)])

    def value(self, theta: Sequence[float], n: int) -> float:
        if self.evaluator is None:
            raise ValueError("band structure carries no evaluator for off-grid probes")
        return float(self.evaluator(theta)[n])

    @staticmethod
    def from_function(
        func: Callable[[np.ndarray], float | np.ndarray],
        zone: BrillouinZone,
        resolution: int,
    ) -> "BandStructure":
        """Synthetic single-band structure sampled from a scalar function."""
        axes = [zone.inclusive_axis(resolution) for _ in range(zone.dimension)]
        shape = tuple(len(a) for a in axes)
        vals = np.empty(shape + (1,))
        for index in itertools.product(*(range(s) for s in shape)):
            theta = np.array([axes[j][index[j]] for j in range(zone.dimension)])
            vals[index + (0,)] = float(func(theta))
        return BandStructure(
            axes, vals, zone, lambda t: np.atleast_1d(float(func(np.asarray(t))))
        )


def compute_bands(
    model: AndersonModel,
    half_width: int,
    resolution: int,
    num_bands: int,
    realization: int | None = None,
) -> BandStructure:
    """Tabulate the lowest ``num_bands`` eigenvalues of H_{omega,l} over an
    inclusive grid on the reduced zone B_l.

    ``realization`` None gives the bands of H0, whose couplings are all
    zero.  Rows come from ``AndersonModel.zone_spectra`` sorted ascending,
    so bands are the usual sorted branches (continuous but possibly kinked
    at crossings); the evaluator probes the same operator off the grid.
    """
    if realization is None:
        model, realization = model.quiet(), 0
    zone = brillouin_zone(half_width, model.dimension)
    axes = [zone.inclusive_axis(resolution) for _ in range(zone.dimension)]
    spectra = model.zone_spectra(half_width, list(itertools.product(*axes)), realization)
    if spectra.shape[1] < num_bands:
        raise ValueError(
            f"requested {num_bands} bands but the box matrix has only "
            f"{spectra.shape[1]} eigenvalues"
        )
    energies = spectra[:, :num_bands].reshape(tuple(len(a) for a in axes) + (num_bands,))

    def evaluator(theta: Sequence[float]) -> np.ndarray:
        return model.zone_spectra(half_width, [theta], realization)[0]

    return BandStructure(axes, energies, zone, evaluator)


def find_band_edges(bands: BandStructure, gap_tol: float = 1e-9) -> list[dict]:
    """Merge per-band ranges into spectral intervals and list their edges.

    Returns dicts {energy, side, interval_index} with side "lower"/"upper";
    adjacent band ranges closer than ``gap_tol`` are merged.
    """
    ranges = sorted(bands.band_range(n) for n in range(bands.num_bands))
    merged: list[list[float]] = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1] + gap_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    edges = []
    for i, (lo, hi) in enumerate(merged):
        edges.append({"energy": lo, "side": "lower", "interval_index": i})
        edges.append({"energy": hi, "side": "upper", "interval_index": i})
    return edges


@dataclass(frozen=True)
class BandEdgeReport:
    """Hessian geometry of the bands attaining one spectral edge."""

    edge: float
    band_indices: tuple[int, ...]
    minimizers: tuple[tuple[float, ...], ...]
    hessians: tuple[np.ndarray, ...]
    smallest_eigenvalues: tuple[float, ...]
    regular: bool
    fd_step: float


def _hessian_from_probe(
    probe: Callable[[np.ndarray], float], theta0: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference Hessian with one Richardson halving step."""

    def stencil(h: float) -> np.ndarray:
        d = len(theta0)
        hess = np.empty((d, d))
        f0 = probe(theta0)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            hess[i, i] = (probe(theta0 + ei) - 2.0 * f0 + probe(theta0 - ei)) / h**2
        for i in range(d):
            for j in range(i + 1, d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h
                val = (
                    probe(theta0 + ei + ej)
                    - probe(theta0 + ei - ej)
                    - probe(theta0 - ei + ej)
                    + probe(theta0 - ei - ej)
                ) / (4.0 * h**2)
                hess[i, j] = hess[j, i] = val
        return hess

    coarse = stencil(step)
    fine = stencil(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def check_regularity(
    bands: BandStructure,
    edge: float,
    fd_step: float = 1e-3,
    edge_tol: float = 1e-8,
    pd_tol: float = 1e-6,
) -> BandEdgeReport:
    """Decide whether a lower band edge is a regular Floquet minimum.

    For every band attaining ``edge`` and every grid minimizer, the theta
    Hessian is estimated by Richardson-extrapolated central differences of
    step ``fd_step`` through the band structure's evaluator; a band
    structure without one raises ValueError.  Regular means every Hessian
    is positive definite beyond ``pd_tol``.  Degenerate minima (e.g.
    quartic bottoms) extrapolate to a zero Hessian and are flagged
    non-regular.
    """
    attaining = [
        n for n in range(bands.num_bands) if bands.band_range(n)[0] <= edge + edge_tol
    ]
    if not attaining:
        raise ValueError(f"no band attains the edge {edge}")

    minimizers: list[tuple[float, ...]] = []
    hessians: list[np.ndarray] = []
    smallest: list[float] = []

    full_zone = abs(bands.axes[0][0] + math.pi) < 1e-12 and abs(
        bands.axes[0][-1] - math.pi
    ) < 1e-12

    for n in attaining:
        vals = bands.energies[..., n]
        vmin = float(np.min(vals))
        mask = vals <= vmin + 1e-9 + edge_tol
        candidates = np.argwhere(mask)
        # Collapse duplicated endpoint minimizers (+-pi identify on full zones).
        seen: set[tuple[float, ...]] = set()
        for index in candidates:
            theta0 = bands.theta_at(tuple(int(i) for i in index))
            key = tuple(
                round(math.remainder(t, 2.0 * math.pi), 10) if full_zone else round(t, 10)
                for t in theta0
            )
            if key in seen:
                continue
            seen.add(key)
            hess = _hessian_from_probe(lambda t, band=n: bands.value(t, band), theta0, fd_step)
            minimizers.append(tuple(float(t) for t in theta0))
            hessians.append(hess)
            smallest.append(float(np.min(np.linalg.eigvalsh(hess))))

    regular = bool(smallest) and all(s > pd_tol for s in smallest)
    return BandEdgeReport(
        edge=float(edge),
        band_indices=tuple(attaining),
        minimizers=tuple(minimizers),
        hessians=tuple(hessians),
        smallest_eigenvalues=tuple(smallest),
        regular=regular,
        fd_step=fd_step,
    )
