"""Reproducible disorder sampling for Anderson-type lattice models.

Coupling constants are produced by a counter-based hash keyed on
(master seed, realization index, lattice site).  A site's draw therefore
never depends on which other sites were requested or in which order,
which makes parallel sampling bitwise identical to serial sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DisorderModel",
    "DisorderSample",
    "sample_disorder",
]

_LAWS = ("uniform", "beta")

# SplitMix64 constants (Steele et al.).  uint64 arithmetic wraps mod 2**64.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_chain(seed: int, fields: Iterable[np.ndarray | int]) -> np.ndarray:
    """Fold integer fields into a well-mixed uint64 stream."""
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(seed) + _GAMMA)
        for f in fields:
            v = np.asarray(f).astype(np.int64).view(np.uint64)
            h = _mix((h + _GAMMA) ^ _mix(v + _GAMMA))
    return h


def _uniform01(seed: int, realization: int, sites: np.ndarray) -> np.ndarray:
    """Deterministic i.i.d.-quality uniforms in [0, 1), one per site row."""
    cols = [int(realization)] + [sites[:, j] for j in range(sites.shape[1])]
    h = _hash_chain(seed, cols)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class DisorderModel:
    """Law of the i.i.d. coupling constants omega_k on [0, omega_max].

    Parameters
    ----------
    omega_max : float
        Upper edge of the single-site coupling range.  The degenerate
        value 0 is admitted and yields the unperturbed operator.
    law : str
        ``"uniform"`` (default) or ``"beta"``.  Both have bounded density
        on [0, omega_max]; beta requires shape parameters >= 1 for that.
    master_seed : int
        Root of the deterministic sampling scheme.
    beta_a, beta_b : float
        Shape parameters, only read when ``law == "beta"``.
    """

    omega_max: float
    law: str = "uniform"
    master_seed: int = 0
    beta_a: float = 2.0
    beta_b: float = 2.0

    def __post_init__(self) -> None:
        if self.omega_max < 0:
            raise ValueError(f"omega_max must be >= 0, got {self.omega_max}")
        if self.law not in _LAWS:
            raise ValueError(f"unknown disorder law {self.law!r}; choose from {_LAWS}")
        if self.law == "beta" and (self.beta_a < 1 or self.beta_b < 1):
            raise ValueError("beta law needs shape parameters >= 1 for a bounded density")

    def draw(self, sites: np.ndarray, realization: int) -> np.ndarray:
        u = _uniform01(self.master_seed, realization, sites)
        if self.law == "beta":
            from scipy.special import betaincinv

            u = betaincinv(self.beta_a, self.beta_b, u)
        return self.omega_max * u


@dataclass(frozen=True)
class DisorderSample:
    """One realization of couplings over a box of lattice sites.

    ``values`` holds omega_k for the sites k = ``origin`` + i at every
    index i of the array, one axis per lattice dimension.
    """

    values: np.ndarray
    origin: tuple[int, ...]

    def __getitem__(self, site: tuple[int, ...]) -> float:
        return self.at([[k] for k in site]).item()

    def __len__(self) -> int:
        return self.values.size

    def at(self, axes: Sequence[Sequence[int]]) -> np.ndarray:
        """Couplings at the sites of the product of ``axes``, one sequence
        of site coordinates per axis, as an array of that shape.

        A site outside the sample raises KeyError naming the first such
        site in C order; a number of axes other than the sample's
        dimension raises ValueError.
        """
        if len(axes) != self.values.ndim:
            raise ValueError(
                f"sample has dimension {self.values.ndim}, sites have {len(axes)}"
            )
        index = [np.asarray(a, dtype=np.int64) - o for a, o in zip(axes, self.origin)]
        inside = [(i >= 0) & (i < n) for i, n in zip(index, self.values.shape)]
        if not all(map(np.all, inside)):
            covered = np.all(np.meshgrid(*inside, indexing="ij"), axis=0)
            first = np.unravel_index(np.argmin(covered), covered.shape)
            site = tuple(int(a[j]) for a, j in zip(axes, first))
            raise KeyError(f"no coupling sampled for contributing site {site}")
        return self.values[np.ix_(*index)]

    def translated(self, vector: tuple[int, ...], fold_cells: int | None = None) -> "DisorderSample":
        """Sample shifted by a lattice vector, optionally folded mod fold_cells.

        Used by translation-invariance checks: the shifted sample is the
        original field viewed from a displaced origin.  Folding needs a
        sample of the fundamental cell {-l..l}^d with fold_cells = 2l+1.
        """
        if fold_cells is None:
            return DisorderSample(self.values, tuple(o + v for o, v in zip(self.origin, vector)))
        d = self.values.ndim
        if self.values.shape != (fold_cells,) * d or self.origin != (-(fold_cells // 2),) * d:
            raise ValueError(f"folding needs a sample of the fundamental cell of {fold_cells}")
        return DisorderSample(np.roll(self.values, vector, axis=tuple(range(d))), self.origin)

    @staticmethod
    def constant(ranges: Sequence[range], value: float) -> "DisorderSample":
        """The coupling ``value`` at every site of the box ``ranges``."""
        return DisorderSample(
            np.full([len(r) for r in ranges], float(value)), tuple(r.start for r in ranges)
        )


def sample_disorder(
    model: DisorderModel,
    ranges: Sequence[range],
    realization: int,
) -> DisorderSample:
    """Draw one disorder realization on the box of sites ``ranges``, one
    range of step 1 per axis.

    The value at site k is a pure function of
    (model.master_seed, realization, k): enlarging or moving the box
    never changes previously drawn values, and omega_max = 0 yields
    identically zero couplings.
    """
    grids = np.meshgrid(*[np.arange(r.start, r.stop) for r in ranges], indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=-1)
    values = model.draw(sites, realization).reshape([len(r) for r in ranges])
    return DisorderSample(values, tuple(r.start for r in ranges))
