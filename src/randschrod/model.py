"""Bundled Anderson model: periodic background, single-site bump, disorder law.

This is the object the experiment layer passes around.  It knows how to
assemble finite boxes of itself under any boundary condition and how to
map a quasimomentum in the reduced zone to the literal wrap phase of the
box matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .disorder import DisorderModel, DisorderSample, sample_disorder
from .hamiltonian import (
    AssembledHamiltonian,
    BoundaryCondition,
    GridSpec,
    PeriodicPotential,
    SingleSitePotential,
    assemble_anderson,
    assemble_h0,
    assemble_periodic_approx,
    chain_eigenvalues,
    count_strictly_below,
    folded_potential,
    site_ranges,
    _site_sum,
    _sturm_count,
)

__all__ = ["AndersonModel", "align_band_edge"]

_SCAN_CHUNK = 4096  # zone nodes per zone_spectra call in band_minimum


def _shared_h0(
    grid: GridSpec, v0: PeriodicPotential, bc: BoundaryCondition
) -> AssembledHamiltonian:
    """``assemble_h0(grid, v0, bc)``, assembled once per process for each key.

    Every realization of a run reuses the H0 of its box.  The memo lives
    in the module, not on the model, because ``parallel_map`` pickles the
    model with every task.  Callers share the result and never mutate it.
    """
    return _h0_memo(grid, bc, v0.dimension, v0.points_per_cell, v0.cell_values.tobytes())


@functools.lru_cache(maxsize=8)
def _h0_memo(
    grid: GridSpec, bc: BoundaryCondition, dimension: int, points_per_cell: int, cells: bytes
) -> AssembledHamiltonian:
    shape = (points_per_cell,) * dimension
    v0 = PeriodicPotential(dimension, points_per_cell, np.frombuffer(cells).reshape(shape))
    h0 = assemble_h0(grid, v0, bc)
    for part in (h0.matrix.data, h0.matrix.indices, h0.matrix.indptr):
        part.flags.writeable = False  # a caller that writes raises instead of corrupting the memo
    return h0


@dataclass(frozen=True)
class AndersonModel:
    """H_omega = -Laplace + V0 + sum_k omega_k u(. - k) on Z^d, discretized."""

    dimension: int
    points_per_cell: int
    v0: PeriodicPotential
    single_site: SingleSitePotential
    disorder: DisorderModel
    edge_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.v0.dimension != self.dimension:
            raise ValueError("periodic potential dimension mismatch")
        if self.v0.points_per_cell != self.points_per_cell:
            raise ValueError("periodic potential mesh mismatch")

    @staticmethod
    def free(
        dimension: int = 1,
        points_per_cell: int = 1,
        omega_max: float = 1.0,
        master_seed: int = 0,
        single_site: SingleSitePotential | None = None,
        law: str = "uniform",
    ) -> "AndersonModel":
        """V0 = 0 with a box single-site bump; the workhorse test model."""
        return AndersonModel(
            dimension=dimension,
            points_per_cell=points_per_cell,
            v0=PeriodicPotential.zero(dimension, points_per_cell),
            single_site=single_site or SingleSitePotential.box(),
            disorder=DisorderModel(omega_max=omega_max, law=law, master_seed=master_seed),
        )

    def quiet(self) -> "AndersonModel":
        """The same model with every coupling zero (omega_max = 0)."""
        return replace(self, disorder=replace(self.disorder, omega_max=0.0))

    # -- assembly ---------------------------------------------------------

    def grid(self, cells: int | Sequence[int]) -> GridSpec:
        return GridSpec.from_cells(self.dimension, self.points_per_cell, cells)

    def h0_box(self, cells: int | Sequence[int], bc: BoundaryCondition) -> AssembledHamiltonian:
        return _shared_h0(self.grid(cells), self.v0, bc)

    def sample_for_box(self, grid: GridSpec, realization: int) -> DisorderSample:
        ranges = site_ranges(grid, self.single_site.radius)
        return sample_disorder(self.disorder, ranges, realization)

    def sample_fundamental(self, grid: GridSpec, realization: int) -> DisorderSample:
        """Couplings of the fundamental cell {-l..l}^d of a (2l+1)^d cube box."""
        l = grid.half_width
        return sample_disorder(self.disorder, [range(-l, l + 1)] * grid.dimension, realization)

    def anderson_box(
        self, cells: int | Sequence[int], bc: BoundaryCondition, realization: int
    ) -> AssembledHamiltonian:
        """Box restriction of H_omega with independently sampled couplings."""
        grid = self.grid(cells)
        h0 = _shared_h0(grid, self.v0, bc)
        return assemble_anderson(h0, self.single_site, self.sample_for_box(grid, realization))

    def _dirichlet_chains(
        self, cells: int | Sequence[int], realizations: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(diag[realizations, n], off[n - 1]) of the 1D Dirichlet box at each
        realization: the diagonal of the box's H0 (assembled once per
        process) plus the site sum of its couplings, drawn by
        ``sample_for_box``, and H0's off-diagonal, which every chain shares.
        Row i has the bits of ``anderson_box(cells, dirichlet,
        realizations[i])._tridiagonal()``."""
        grid = self.grid(cells)
        ranges = site_ranges(grid, self.single_site.radius)
        omega = np.stack([self.sample_for_box(grid, r).at(ranges) for r in realizations])
        diag, off = _shared_h0(grid, self.v0, BoundaryCondition.dirichlet())._tridiagonal()
        return diag + _site_sum(grid, self.single_site, omega), off

    def dirichlet_counts(
        self, cells: int | Sequence[int], energies: Sequence[float], realizations: Sequence[int]
    ) -> np.ndarray:
        """#{eigenvalues < E} of the Dirichlet box at each realization, one row
        per realization in the given order, one column per E.

        Row i is ``anderson_box(cells, dirichlet, realizations[i]).count_below(energies)``.
        In 1D the chains of ``_dirichlet_chains`` are counted by one batched
        Sturm sweep, whose counts do not depend on the batch.  Other
        dimensions count each assembled box.
        """
        energies = np.asarray(energies, dtype=float)
        if self.dimension != 1:
            bc = BoundaryCondition.dirichlet()
            rows = [self.anderson_box(cells, bc, r).count_below(energies) for r in realizations]
            return np.reshape(rows, (len(rows),) + energies.shape)
        chains, off = self._dirichlet_chains(cells, realizations)
        return _sturm_count(chains, np.broadcast_to(off, (len(chains),) + off.shape), energies)

    def dirichlet_spectra(
        self, cells: int | Sequence[int], realizations: Sequence[int]
    ) -> np.ndarray:
        """Sorted spectrum of the Dirichlet box at each realization, one row
        per realization in the given order.

        Row i is ``anderson_box(cells, dirichlet, realizations[i]).eigenvalues()``
        bit for bit.  In 1D each chain of ``_dirichlet_chains`` goes to
        ``chain_eigenvalues``; other dimensions solve each assembled box.
        """
        if self.dimension != 1:
            bc = BoundaryCondition.dirichlet()
            rows = [self.anderson_box(cells, bc, r).eigenvalues() for r in realizations]
            return np.reshape(rows, (len(rows), self.grid(cells).n_points))
        chains, off = self._dirichlet_chains(cells, realizations)
        return np.reshape([chain_eigenvalues(chain, off) for chain in chains], chains.shape)

    def periodic_box(
        self,
        half_width: int,
        bc: BoundaryCondition,
        realization: int | None = None,
        sample: DisorderSample | None = None,
    ) -> AssembledHamiltonian:
        """Periodic approximation H_{omega,l} on Lambda_{2l+1}, assembled sparse:
        the oracle of ``zone_spectra``, from which runs take its spectra."""
        grid = GridSpec.cube(self.dimension, self.points_per_cell, half_width)
        h0 = assemble_h0(grid, self.v0, bc)
        if (realization is None) == (sample is None):
            raise ValueError("give either a realization index or a sample, not both")
        if sample is None:
            sample = self.sample_fundamental(grid, realization)
        return assemble_periodic_approx(h0, self.single_site, sample)

    # -- quasimomentum handling -------------------------------------------

    def wrap_phases(self, half_width: int, quasimomentum: Sequence[float]) -> BoundaryCondition:
        """Boundary condition realizing Bloch quasimomentum theta in B_l.

        A Bloch wave with quasimomentum theta gains the phase
        e^{i theta_j (2l+1)} across the box of side 2l+1, so that is the
        literal wrap phase handed to the assembler.
        """
        length = 2 * half_width + 1
        phases = []
        for t in quasimomentum:
            ph = t * length
            if not -math.pi - 1e-9 <= ph <= math.pi + 1e-9:
                raise ValueError(
                    f"quasimomentum component {t} lies outside the reduced zone "
                    f"[-pi/{length}, pi/{length}]"
                )
            phases.append(min(max(ph, -math.pi), math.pi))
        return BoundaryCondition.with_phases(phases)

    def periodic_box_at(
        self,
        half_width: int,
        quasimomentum: Sequence[float],
        realization: int | None = None,
        sample: DisorderSample | None = None,
    ) -> AssembledHamiltonian:
        bc = self.wrap_phases(half_width, quasimomentum)
        return self.periodic_box(half_width, bc, realization=realization, sample=sample)

    def zone_spectra(
        self,
        half_width: int,
        nodes: Sequence[Sequence[float]],
        realization: int | Sequence[int] = 0,
        sample: DisorderSample | None = None,
    ) -> np.ndarray:
        """Sorted spectra of H_{omega,l}(theta) at each zone node, one row per node.

        ``realization`` is one index, which gives the (nodes, n) array, or
        a sequence of them (a chunk of realizations), which gives one such
        array per realization in its order; ``sample`` replaces a single
        realization's draw.  The folded potential of every realization
        goes with the Dirichlet H0 of the box (assembled once per process)
        to one ``AssembledHamiltonian.bloch_spectra`` call, which solves
        the (realization, node) pairs in stacks and gives each row the bits
        of a call on its realization alone.  Row i of a realization equals
        ``periodic_box_at(half_width, nodes[i], ...).eigenvalues()`` bitwise
        wherever every axis has at least 2 grid points, and to rounding on
        a one-point axis.
        """
        bcs = [self.wrap_phases(half_width, theta) for theta in nodes]
        grid = self.grid(2 * half_width + 1)
        if sample is None:
            sample = (self.sample_fundamental(grid, realization) if np.ndim(realization) == 0
                      else [self.sample_fundamental(grid, r) for r in realization])
        h0 = _shared_h0(grid, self.v0, BoundaryCondition.dirichlet())
        return h0.bloch_spectra(folded_potential(grid, self.single_site, sample), bcs)

    def zone_counts(
        self,
        half_width: int,
        nodes: Sequence[Sequence[float]],
        energies: Sequence[float],
        realization: int | Sequence[int] = 0,
        sample: DisorderSample | None = None,
    ) -> np.ndarray:
        """#{eigenvalues of H_{omega,l}(theta) < E}, one row per node, one column
        per E; a chunk of realizations gives one such array per realization.

        Every count on a wrapped box is taken here, from the rows of
        ``zone_spectra``, so a tie within rounding is not decided.
        """
        spectra = self.zone_spectra(half_width, nodes, realization, sample)
        return count_strictly_below(spectra, energies)

    # -- band edge --------------------------------------------------------

    def band_minimum(self, resolution: int = 401) -> float:
        """Minimum of the lowest band of H0 over an inclusive full-zone grid.

        The nodes go to ``zone_spectra`` in chunks of ``_SCAN_CHUNK``, so
        memory stays bounded however fine the grid; the minimum is exact,
        so it does not depend on the chunking.
        """
        if resolution % 2 == 0:
            resolution += 1  # keep theta = 0 on the grid
        axis = np.linspace(-math.pi, math.pi, resolution)
        nodes = itertools.product(axis, repeat=self.dimension)
        quiet = self.quiet()
        lowest = math.inf
        while chunk := list(itertools.islice(nodes, _SCAN_CHUNK)):
            lowest = min(lowest, float(np.min(quiet.zone_spectra(0, chunk)[:, 0])))
        return lowest


def align_band_edge(model: AndersonModel, resolution: int = 401) -> AndersonModel:
    """Shift V0 so the lowest band edge of H0 sits exactly at 0.

    The shift is the deterministic band minimum at the reference
    resolution; it is recorded on the model for provenance.
    """
    shift = model.band_minimum(resolution)
    if shift == 0.0:
        return model
    return replace(
        model,
        v0=model.v0.shifted(-shift),
        edge_shift=model.edge_shift - shift,
    )
