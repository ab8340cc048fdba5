"""Finite-difference Hamiltonians on boxes of the integer lattice.

The continuum operator -Laplace + V0 + V_omega is discretized with the
standard (2d+1)-point stencil on a mesh of p points per unit cell and
axis (mesh step h = 1/p, units hbar^2/2m = 1).  Boxes cover an integer
number of unit cells; grid points sit at cell-centered positions so that
for p = 1 the grid coincides with the lattice Z^d.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .disorder import DisorderSample

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "SOLVER_BUDGET_POINTS",
    "NumericalFailure",
    "GridSpec",
    "BoundaryCondition",
    "PeriodicPotential",
    "SingleSitePotential",
    "AssembledHamiltonian",
    "assemble_h0",
    "assemble_anderson",
    "assemble_periodic_approx",
    "count_strictly_below",
    "folded_potential",
    "realization_chunks",
    "sturm_bytes",
    "site_ranges",
]

# Largest point count the dense/banded solvers are expected to handle at
# desk scale.  Assemblies beyond this are refused rather than left to
# thrash.
SOLVER_BUDGET_POINTS = 20_000

# Largest stack of dense Bloch matrices that ``bloch_spectra`` fills and
# solves at once; more (potential, quasimomentum) pairs go through the same
# buffer in turn.  Larger stacks solve no faster and only hold more memory.
_STACK_BYTES = 250_000

# Most bytes that one chunk of realizations may hold in a worker
# (``realization_chunks``); more realizations are taken in more chunks.
_CHAIN_BYTES = 16_000_000

# Sites per block of the Sturm sweep: the pivmin guard is tested once per
# block, and the sweep holds two (block, chains, energies) arrays.
_STURM_BLOCK = 128


class NumericalFailure(ValueError):
    """A computation on valid input gave no trustworthy number: an empty or
    degenerate fit window, a probe on the spectrum, a stalled recursion.

    The command line maps it to exit code 3; any other exception is a bug.
    """


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a finite simulation box.

    Parameters
    ----------
    dimension : int
        Spatial dimension, 1 or 2.
    points_per_cell : int
        Mesh points per unit cell and axis (p >= 1, mesh step 1/p).
    cells : tuple of int
        Unit cells covered per axis.  Periodic-approximation boxes need
        an odd count 2l+1 per axis; plain Dirichlet boxes may use any.
    """

    dimension: int
    points_per_cell: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.points_per_cell < 1:
            raise ValueError("points_per_cell must be >= 1")
        if len(self.cells) != self.dimension or any(c < 1 for c in self.cells):
            raise ValueError(f"cells must give >= 1 cells per axis, got {self.cells}")
        if self.n_points > SOLVER_BUDGET_POINTS:
            raise ValueError(
                f"{self.n_points} grid points exceed the solver budget "
                f"({SOLVER_BUDGET_POINTS})"
            )

    @staticmethod
    def cube(dimension: int, points_per_cell: int, half_width: int) -> "GridSpec":
        """Box Lambda_{2l+1} covering (2l+1)^d unit cells."""
        if half_width < 0:
            raise ValueError("half_width must be >= 0")
        return GridSpec(dimension, points_per_cell, (2 * half_width + 1,) * dimension)

    @staticmethod
    def from_cells(dimension: int, points_per_cell: int, cells: int | Sequence[int]) -> "GridSpec":
        if isinstance(cells, int):
            cells = (cells,) * dimension
        return GridSpec(dimension, points_per_cell, tuple(int(c) for c in cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c * self.points_per_cell for c in self.cells)

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    @property
    def mesh(self) -> tuple[float, ...]:
        return (1.0 / self.points_per_cell,) * self.dimension

    @property
    def volume(self) -> float:
        return float(np.prod(self.cells))

    @property
    def half_width(self) -> int:
        """l for a cube box of 2l+1 cells; error when not of that shape."""
        c = self.cells[0]
        if any(ci != c for ci in self.cells) or c % 2 == 0:
            raise ValueError(f"box of {self.cells} cells is not a (2l+1)^d cube")
        return (c - 1) // 2

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-centered point coordinates along one axis, symmetric about 0."""
        n = self.shape[axis]
        h = self.mesh[axis]
        return -0.5 * self.cells[axis] + (np.arange(n) + 0.5) * h

    def points(self) -> np.ndarray:
        """All grid points as an (n_points, d) array in row-major order."""
        axes = [self.axis_coords(j) for j in range(self.dimension)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet, Periodic, or Theta(theta) on the box boundary.

    Under Theta the wrap-around hops carry phases e^{+-i theta_j}; all
    components must lie in [-pi, pi].  Theta(0, ..., 0) assembles to the
    same matrix as Periodic.
    """

    kind: str
    theta: tuple[float, ...] = ()

    _KINDS = ("dirichlet", "periodic", "theta")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown boundary condition {self.kind!r}")
        if self.kind == "theta":
            if not self.theta:
                raise ValueError("theta boundary condition needs phase components")
            if any(not (-math.pi <= t <= math.pi) for t in self.theta):
                raise ValueError(f"theta components must lie in [-pi, pi], got {self.theta}")
        elif self.theta:
            raise ValueError(f"{self.kind} boundary condition takes no phases")

    @staticmethod
    def dirichlet() -> "BoundaryCondition":
        return BoundaryCondition("dirichlet")

    @staticmethod
    def periodic() -> "BoundaryCondition":
        return BoundaryCondition("periodic")

    @staticmethod
    def with_phases(theta: Sequence[float]) -> "BoundaryCondition":
        return BoundaryCondition("theta", tuple(float(t) for t in theta))

    @property
    def wraps(self) -> bool:
        return self.kind != "dirichlet"


def _cell_offsets(points_per_cell: int) -> np.ndarray:
    """In-cell sampling offsets relative to the cell center."""
    p = points_per_cell
    return -0.5 + (np.arange(p) + 0.5) / p


@dataclass(frozen=True)
class PeriodicPotential:
    """Z^d-periodic background potential V0, sampled once per unit cell.

    cell_values holds V0 at the p^d cell-centered mesh offsets and is
    tiled over the box during assembly.
    """

    dimension: int
    points_per_cell: int
    cell_values: np.ndarray

    def __post_init__(self) -> None:
        want = (self.points_per_cell,) * self.dimension
        got = np.asarray(self.cell_values, dtype=float)
        if got.shape != want:
            raise ValueError(f"cell_values shape {got.shape} != {want}")
        object.__setattr__(self, "cell_values", got)

    @staticmethod
    def zero(dimension: int, points_per_cell: int) -> "PeriodicPotential":
        shape = (points_per_cell,) * dimension
        return PeriodicPotential(dimension, points_per_cell, np.zeros(shape))

    @staticmethod
    def decomposable(
        points_per_cell: int, profiles: Sequence[Callable[[np.ndarray], np.ndarray]]
    ) -> "PeriodicPotential":
        """V0(x) = sum_j V_j(x_j) from one-dimensional profiles, exact on the grid."""
        d = len(profiles)
        offs = _cell_offsets(points_per_cell)
        axis_vals = [np.asarray(f(offs), dtype=float) for f in profiles]
        total = axis_vals[0]
        for v in axis_vals[1:]:
            total = total[..., None] + v
        return PeriodicPotential(d, points_per_cell, total)

    def shifted(self, constant: float) -> "PeriodicPotential":
        return PeriodicPotential(
            self.dimension, self.points_per_cell, self.cell_values + constant
        )

    def tile(self, grid: GridSpec) -> np.ndarray:
        if grid.dimension != self.dimension or grid.points_per_cell != self.points_per_cell:
            raise ValueError("potential sampling does not match the grid")
        return np.tile(self.cell_values, grid.cells).ravel()


# Profile evaluators are module-level classes, not closures: models travel
# into multiprocessing workers and must pickle.
@dataclass(frozen=True)
class _BoxProfile:
    half: float
    height: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.where(np.max(np.abs(pts), axis=-1) < self.half, self.height, 0.0)


@dataclass(frozen=True)
class _ExponentialProfile:
    delta2: float
    delta3: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.delta2 * np.exp(-self.delta3 * np.max(np.abs(pts), axis=-1))


@dataclass(frozen=True)
class SingleSitePotential:
    """Single-site profile u >= 0 with a core lower bound and decaying tail.

    Parameters
    ----------
    profile : callable
        Vectorized evaluator, (m, d) points -> (m,) values.  Assembly
        truncates it outside the sup-norm ball of ``radius``.
    delta1 : float
        Lower bound of u on the core cube {||x||_inf < core_diameter/2}.
    core_diameter : float
        Side s of the core cube Lambda_s.
    delta2, delta3 : float
        Tail envelope |u(x)| <= delta2 * exp(-delta3 ||x||_inf) outside
        the core.
    radius : float
        Truncation radius R_u; contributions beyond it are dropped.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    delta1: float
    core_diameter: float
    delta2: float
    delta3: float
    radius: float

    def __post_init__(self) -> None:
        for name in ("delta1", "delta2", "delta3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.core_diameter <= 0 or self.radius <= 0:
            raise ValueError("core_diameter and radius must be positive")
        if self.radius < self.core_diameter / 2:
            raise ValueError("truncation radius must cover the core cube")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(self.profile(pts), dtype=float)
        outside = np.max(np.abs(pts), axis=-1) > self.radius
        vals = np.where(outside, 0.0, vals)
        return vals

    @staticmethod
    def box(delta1: float = 1.0, core_diameter: float = 1.0) -> "SingleSitePotential":
        """Indicator bump: u = delta1 on the core cube, 0 outside."""
        return SingleSitePotential(
            profile=_BoxProfile(core_diameter / 2.0, delta1),
            delta1=delta1,
            core_diameter=core_diameter,
            delta2=delta1,
            delta3=1.0,
            radius=core_diameter / 2.0,
        )

    @staticmethod
    def exponential(
        delta1: float = 1.0,
        core_diameter: float = 1.0,
        delta3: float = 1.0,
        tail_floor: float = 1e-10,
    ) -> "SingleSitePotential":
        """u(x) = delta2 * exp(-delta3 ||x||_inf), truncated where it dips
        below ``tail_floor`` (default keeps the dropped tail < 1e-10)."""
        delta2 = delta1 * math.exp(delta3 * core_diameter / 2.0)
        # ln(delta2 / tail_floor) / delta3 with the logarithm taken apart:
        # the quotient overflows long before the radius is large
        radius = math.log(delta1 / tail_floor) / delta3 + core_diameter / 2.0
        return SingleSitePotential(
            profile=_ExponentialProfile(delta2, delta3),
            delta1=delta1,
            core_diameter=core_diameter,
            delta2=delta2,
            delta3=delta3,
            radius=radius,
        )


@dataclass(frozen=True)
class AssembledHamiltonian:
    """Sparse Hermitian matrix plus the geometry it was assembled on."""

    matrix: scipy.sparse.csr_matrix
    grid: GridSpec
    bc: BoundaryCondition

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(diag, offdiag) when the matrix is a real tridiagonal chain."""
        if self.grid.dimension != 1 or self.bc.wraps:
            return None
        m = self.matrix
        if np.iscomplexobj(m.data):
            return None
        return m.diagonal(0).real, m.diagonal(1).real

    def count_below(self, energies: Sequence[float]) -> np.ndarray:
        """#{eig < E} at every energy E, as an integer array.

        Real tridiagonal chains (1D, not wrapped) are counted by inertia:
        the number of negative LDL^T pivots of H - E (a Sturm sequence)
        equals the number of eigenvalues strictly below E.  A pivot
        within ``pivmin`` of zero is replaced by +pivmin, so an
        eigenvalue at E is not below E; this is exact whenever the
        pivots are computed exactly, as on the free chain.  The count is
        the batched kernel ``_sturm_count`` on this one chain, the kernel
        that ``AndersonModel.dirichlet_counts`` runs on a batch of
        realizations, and it gives the same count here as there.  Every
        other operator is counted from its computed eigenvalues by
        ``count_strictly_below``.
        """
        energies = np.asarray(energies, dtype=float)
        tri = self._tridiagonal()
        if tri is None:
            return count_strictly_below(self.eigenvalues(), energies)
        return _sturm_count(*tri, energies)

    def eigenvalues(self, upper: float | None = None) -> np.ndarray:
        """Sorted eigenvalues, optionally only those strictly below ``upper``.

        Real 1D Dirichlet chains go to ``chain_eigenvalues`` and other
        operators to a dense Hermitian solver.  On real tridiagonal chains
        the cutoff keeps the lowest ``count_below([upper])`` eigenvalues,
        so an eigenvalue at ``upper`` is dropped however it rounds; on
        other operators it keeps the computed eigenvalues below
        ``upper``, and a tie within rounding is not decided.
        """
        tri = self._tridiagonal()
        if tri is not None:
            w = chain_eigenvalues(*tri)
            if upper is None:
                return w
            return w[: int(self.count_below([upper])[0])]
        import scipy.linalg

        w = scipy.linalg.eigvalsh(self.dense())
        if upper is not None:
            w = w[w < upper]
        return w

    def bloch_spectra(
        self, potential: np.ndarray, bcs: Sequence[BoundaryCondition]
    ) -> np.ndarray:
        """Sorted eigenvalues of the Bloch operator of each potential under each
        Theta condition: ``potential[..., n]`` gives ``[..., len(bcs), n]``.

        This box has its wrap bonds cut (Dirichlet); A is its dense matrix
        plus the multiplication by one row of ``potential`` (one value per
        grid point, after any leading batch axes), and H(theta) = A +
        sum_a (e^{i theta_a} B_a + h.c.), where B_a holds the wrap bonds of
        axis a (``_wrap_bonds``).  Each H(theta) starts from a copy of the
        box's matrix, adds its potential to the diagonal and then the hops
        as assembly adds them: on a one-point axis a bond sits on the
        diagonal and adds -2w cos(theta_a), on a two-point axis it adds to
        the interior bond.  The (potential, node) pairs are taken in row
        order and solved by one ``numpy.linalg.eigvalsh`` per stack of at
        most ``_STACK_BYTES``, so a row has the same bits in any batch and
        in any stack.  Wherever every axis has at least 2 points, H(theta)
        is the box assembled under ``bcs[i]`` plus the potential entry for
        entry and its row is its ``eigenvalues()``; on a one-point axis the
        diagonal sums its terms in another order.
        """
        if self.bc.wraps:
            raise ValueError(f"the Bloch operator starts from a Dirichlet box, not {self.bc.kind}")
        d = self.grid.dimension
        for bc in bcs:
            if bc.kind != "theta" or len(bc.theta) != d:
                raise ValueError(f"need {d} theta phases, got {bc}")
        n = self.n
        a = self.dense().astype(complex)
        bonds = [(src * n + dst, dst * n + src, w) for src, dst, w in _wrap_bonds(self.grid)]
        phases = np.array([bc.theta for bc in bcs], dtype=float).reshape(len(bcs), d)
        potential = np.asarray(potential, dtype=float)
        batch = potential.shape[:-1]
        potential = potential.reshape(-1, n)
        rows = np.empty((len(potential) * len(bcs), n))
        buffer = np.empty((max(1, min(len(rows), _STACK_BYTES // a.nbytes)), n, n), dtype=complex)
        for start in range(0, len(rows), len(buffer)):
            stop = min(start + len(buffer), len(rows))
            pair = np.arange(start, stop)
            stack = buffer[: len(pair)]
            stack[...] = a
            entries = stack.reshape(len(pair), n * n)  # a view: column i * n + j is entry (i, j)
            entries[:, :: n + 1] += potential[pair // len(bcs)]
            for (fwd, bwd, w), phase in zip(bonds, phases[pair % len(bcs)].T):
                hop = _wrap_hop(w, phase)[:, None]
                entries[:, fwd] += hop
                entries[:, bwd] += np.conj(hop)
            rows[start:stop] = np.linalg.eigvalsh(stack)
        return rows.reshape(batch + (len(bcs), n))

    def with_potential(self, v: np.ndarray) -> "AssembledHamiltonian":
        """This operator plus the multiplication by ``v`` (one value per grid point)."""
        import scipy.sparse

        mat = (self.matrix + scipy.sparse.diags(v.astype(self.matrix.dtype))).tocsr()
        return AssembledHamiltonian(mat, self.grid, self.bc)


def count_strictly_below(spectra: np.ndarray, energies: Sequence[float]) -> np.ndarray:
    """#{eig < E} in each computed spectrum at every energy E, as integers.

    ``spectra`` holds one sorted spectrum, or one per row as
    ``AndersonModel.zone_spectra`` returns them; the counts have the shape
    ``spectra.shape[:-1] + energies.shape``.  An eigenvalue equal to E is
    not below E; a tie within rounding is not decided.
    """
    spectra = np.asarray(spectra, dtype=float)
    energies = np.asarray(energies, dtype=float)
    rows = spectra.reshape(-1, spectra.shape[-1])
    counts = [np.searchsorted(w, energies, side="left") for w in rows]
    return np.reshape(counts, spectra.shape[:-1] + energies.shape)


def _sturm_count(diag: np.ndarray, off: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Negative LDL^T pivots of tridiag(off, diag, off) - E, per chain and energy.

    ``diag[..., n]`` and ``off[..., n-1]`` hold one chain per index of
    their leading (batch) axes; the counts have the shape
    ``diag.shape[:-1] + energies.shape``.  Each chain is counted alone:
    its pivmin follows LAPACK dstebz, tiny * max(1, max off^2), which keeps
    off^2 / pivot finite, and a pivot with |pivot| < pivmin becomes +pivmin
    (dstebz uses -pivmin and so counts eig <= E).

    One Python step per site runs over (batch x energies).  The guard runs
    once per ``_STURM_BLOCK`` sites, as LAPACK dlaneg does: the block is
    swept without it, and when any of its pivots is below pivmin or NaN it
    is swept again from the pivot before it, site by site with the guard.
    Every pivot is therefore the one the guarded recurrence computes, and
    so is every count, whatever the batch and block.
    """
    energies = np.asarray(energies, dtype=float)
    diag = np.asarray(diag, dtype=float)
    n, batch = diag.shape[-1], diag.shape[:-1]
    off2 = np.asarray(off, dtype=float) ** 2
    # site axis first, batch flattened: every step works on one (chains, E) plane
    chains = math.prod(batch)
    sites = diag.reshape(chains, n).T
    coupling = np.concatenate([np.zeros((1, chains)), off2.reshape(chains, n - 1).T])[..., None]
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(coupling, axis=0, initial=0.0))
    plane = (chains,) + energies.shape
    block = min(_STURM_BLOCK, n)
    # a - E and the pivots of one block, each step on whole contiguous
    # planes through views made once per call.  A pivot's plane holds off^2
    # until its step divides it by the pivot before and subtracts it from a - E.
    shifted, pivots = np.empty((block,) + plane), np.empty((block,) + plane)
    steps = list(zip(shifted, pivots))
    previous = np.ones(plane)
    count = np.zeros(plane, dtype=np.int64)
    for start in range(0, n, block):
        size = min(block, n - start)
        rows = slice(start, start + size)
        np.subtract(sites[rows, :, None], energies, out=shifted[:size])
        np.copyto(pivots[:size], coupling[rows])
        piv = pivots[:size]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            last = previous
            for a_k, p_k in steps[:size]:
                np.divide(p_k, last, out=p_k)
                np.subtract(a_k, p_k, out=p_k)
                last = p_k
        # |pivot| goes into the a - E planes, which a redo fills again
        if not (np.abs(piv, out=shifted[:size]) >= pivmin).all():
            np.subtract(sites[rows, :, None], energies, out=shifted[:size])
            np.copyto(pivots[:size], coupling[rows])
            last = previous
            for a_k, p_k in steps[:size]:
                np.divide(p_k, last, out=p_k)
                np.subtract(a_k, p_k, out=p_k)
                np.copyto(p_k, pivmin, where=np.abs(p_k) < pivmin)
                last = p_k
        count += np.count_nonzero(piv < 0.0, axis=0)
        previous = piv[-1].copy()
    return count.reshape(batch + energies.shape)


def sturm_bytes(sites: int, energies: int) -> int:
    """Bytes that one chain of ``sites`` sites holds in a ``_sturm_count`` at
    ``energies`` energies: its diagonal, potential and squared couplings,
    and two (block, energies) planes of the sweep."""
    return 8 * (3 * sites + 2 * min(_STURM_BLOCK, sites) * energies)


def realization_chunks(realizations: int, threads: int, row_bytes: int) -> list[range]:
    """``range(realizations)`` cut into consecutive chunks of near-equal size:
    at least one per thread, and as many more as keep each chunk within
    ``_CHAIN_BYTES`` at ``row_bytes`` per realization."""
    size = max(1, _CHAIN_BYTES // row_bytes)
    parts = min(realizations, max(threads, -(-realizations // size)))
    bounds = [realizations * i // parts for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def chain_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the real chain tridiag(off, diag, off).

    LAPACK dsterf, called directly: ``scipy.linalg.eigvalsh_tridiagonal``
    reaches it through dstevd for eigenvalues only and gives the same bits,
    after argument checks that cost more than a short chain's solve.
    """
    if len(diag) == 1:
        return diag.copy()  # the wrapper refuses an empty off-diagonal
    import scipy.linalg

    w, info = scipy.linalg.lapack.dsterf(diag, off)
    if info != 0:
        raise NumericalFailure(f"dsterf: {info} off-diagonal entries did not converge to zero")
    return w


def _wrap_bonds(grid: GridSpec) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Per axis, the bonds that wrap around the box: (sources, targets, w).

    Each source sits on the last grid plane along the axis and its target
    on the first; w = 1/h^2 is the hopping weight, so under Theta(theta)
    the bond adds ``_wrap_hop(w, theta_axis)`` to the entry (source,
    target).  With fewer than 3 points along an axis a wrap bond lands on
    the diagonal or on an interior bond.
    """
    idx = np.arange(grid.n_points).reshape(grid.shape)
    return [
        (np.take(idx, -1, axis=axis).ravel(), np.take(idx, 0, axis=axis).ravel(),
         1.0 / (h * h))
        for axis, h in enumerate(grid.mesh)
    ]


def _wrap_hop(w: float, phase):
    """Hop of a wrap bond of weight ``w`` at one phase or an array of phases."""
    return -w * np.exp(1j * phase)


def _laplacian(grid: GridSpec, bc: BoundaryCondition) -> scipy.sparse.csr_matrix:
    import scipy.sparse

    n = grid.n_points
    idx = np.arange(n).reshape(grid.shape)
    is_complex = bc.kind == "theta"
    dtype = complex if is_complex else float

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros(n)

    for axis, (wrap_src, wrap_dst, w) in enumerate(_wrap_bonds(grid)):
        diag += 2.0 * w
        length = grid.shape[axis]
        a = np.take(idx, range(length - 1), axis=axis).ravel()
        b = np.take(idx, range(1, length), axis=axis).ravel()
        hop = np.full(a.shape, -w, dtype=dtype)
        rows += [a, b]
        cols += [b, a]
        vals += [hop, hop.conj()]

        if bc.wraps:
            wrap = np.full(wrap_src.shape, _wrap_hop(w, bc.theta[axis]) if is_complex else -w,
                           dtype=dtype)
            rows += [wrap_src, wrap_dst]
            cols += [wrap_dst, wrap_src]
            vals += [wrap, np.conj(wrap)]

    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals + [diag.astype(dtype)]),
         (np.concatenate(rows + [np.arange(n)]), np.concatenate(cols + [np.arange(n)]))),
        shape=(n, n),
    )
    return mat.tocsr()


def assemble_h0(
    grid: GridSpec, v0: PeriodicPotential, bc: BoundaryCondition
) -> AssembledHamiltonian:
    """Assemble H0 = -Laplace + V0 on the box under the given boundary
    condition.  The result is Hermitian up to exact arithmetic."""
    if bc.kind == "theta" and len(bc.theta) != grid.dimension:
        raise ValueError(
            f"theta has {len(bc.theta)} components for dimension {grid.dimension}"
        )
    import scipy.sparse

    lap = _laplacian(grid, bc)
    diag = v0.tile(grid)
    mat = (lap + scipy.sparse.diags(diag.astype(lap.dtype))).tocsr()
    return AssembledHamiltonian(mat, grid, bc)


def site_ranges(grid: GridSpec, margin: float) -> list[range]:
    """Per axis, the integer sites whose truncated bump can reach the box."""
    return [
        range(math.ceil(-c / 2.0 - margin), math.floor(c / 2.0 + margin) + 1)
        for c in grid.cells
    ]


@functools.lru_cache(maxsize=16)
def _site_sum_plan(
    grid: GridSpec, u: SingleSitePotential
) -> tuple[tuple[float, tuple[slice, ...], tuple[slice, ...]], ...]:
    """The terms of ``_site_sum`` on ``grid`` for the bump ``u``, in the
    order they are added: (weight, point slices, site slices) each.

    On an axis of L cells and p points per cell, point i sits at the mesh
    offset (s - c) / p from site k, with s = i - p k and c = (p L - 1) / 2,
    so u is sampled once at the offsets of its support and each term is a
    strided slice of the coupling array, one per offset.  Offsets run in
    decreasing order, so every point adds its terms in increasing site
    order.  The terms depend only on the grid and the bump, so each process
    builds them once per pair; callers share them and never mutate them.
    """
    p = grid.points_per_cell
    ranges = site_ranges(grid, u.radius)
    axes = []  # per axis: (mesh offsets, (point slice, site slice) per offset)
    for n, cells, sites in zip(grid.shape, grid.cells, ranges):
        c = 0.5 * (p * cells - 1)
        s = np.arange(math.floor(c - p * u.radius) - 1, math.ceil(c + p * u.radius) + 2)
        offsets = (s - c) / p
        keep = np.abs(offsets) <= u.radius
        s, offsets = s[keep], offsets[keep]
        slices = []
        for shift in s.tolist():
            first = max(sites.start, -(shift // p))
            last = min(sites.stop - 1, (n - 1 - shift) // p)
            slices.append(
                None if last < first else (
                    slice(shift + p * first, shift + p * last + 1, p),
                    slice(first - sites.start, last - sites.start + 1),
                )
            )
        axes.append((offsets, slices))

    grids = np.meshgrid(*[offsets for offsets, _ in axes], indexing="ij")
    kernel = u.evaluate(np.stack([g.ravel() for g in grids], axis=-1)).reshape(grids[0].shape)
    terms = []
    for index in itertools.product(*[range(len(offsets) - 1, -1, -1) for offsets, _ in axes]):
        weight = kernel[index]
        pairs = [slices[j] for (_, slices), j in zip(axes, index)]
        if weight == 0.0 or None in pairs:
            continue
        points, sites = zip(*pairs)
        terms.append((weight, points, sites))
    return tuple(terms)


def _site_sum(grid: GridSpec, u: SingleSitePotential, omega: np.ndarray) -> np.ndarray:
    """v = sum_k omega_k u(x - k) at every grid point, flat per realization.

    ``omega`` holds omega_k over the box ``site_ranges(grid, u.radius)``,
    after any leading batch axes, which v keeps: one row per realization.
    Each row adds the terms of ``_site_sum_plan`` in its order, so it has
    the bits of a call on that realization alone.
    """
    batch = omega.shape[: omega.ndim - grid.dimension]
    v = np.zeros(batch + grid.shape)
    for weight, points, sites in _site_sum_plan(grid, u):
        v[(..., *points)] += weight * omega[(..., *sites)]
    v = v.reshape(batch + (grid.n_points,))
    if np.min(v) < -1e-12:
        raise ValueError(
            f"assembled random potential has negative entries (min {np.min(v):.3e}); "
            "the single-site profile must be nonnegative"
        )
    return v


def assemble_anderson(
    h0: AssembledHamiltonian,
    u: SingleSitePotential,
    sample: DisorderSample,
) -> AssembledHamiltonian:
    """Add the Anderson potential sum_k omega_k u(. - k) to an assembled H0.

    Requires Dirichlet boundary conditions; wrapped boxes fold their
    couplings through ``assemble_periodic_approx``.  Every lattice site
    whose truncation window meets the box must carry a coupling in
    ``sample``; a missing site raises KeyError naming it.
    """
    if h0.bc.wraps:
        raise ValueError("Anderson box assembly needs Dirichlet boundary conditions")
    v = _site_sum(h0.grid, u, sample.at(site_ranges(h0.grid, u.radius)))
    return h0.with_potential(v)


def folded_potential(
    grid: GridSpec, u: SingleSitePotential, sample: DisorderSample | Sequence[DisorderSample]
) -> np.ndarray:
    """Potential of the periodic approximation on a (2l+1)^d cube box, flat;
    a sequence of samples gives one row per sample, each with the bits of
    its own call.

    The coupling at site k is the sampled value at the folded site
    k mod (2l+1)Z^d (representative in {-l..l}^d), so only the fundamental
    cell must be sampled.  Tails of u that cross the box boundary wrap
    around the torus through the extended site sum.
    """
    l = grid.half_width
    period = 2 * l + 1
    folded = [(np.asarray(r) + l) % period - l for r in site_ranges(grid, u.radius)]
    if isinstance(sample, DisorderSample):
        return _site_sum(grid, u, sample.at(folded))
    return _site_sum(grid, u, np.stack([s.at(folded) for s in sample]))


def assemble_periodic_approx(
    h0: AssembledHamiltonian,
    u: SingleSitePotential,
    sample: DisorderSample,
) -> AssembledHamiltonian:
    """Periodic approximation H_{omega,l}: H0 on a (2l+1)^d cube box plus
    the ``folded_potential`` of the sampled couplings.  Requires a
    wrapping boundary condition (Periodic or Theta).
    """
    if not h0.bc.wraps:
        raise ValueError("periodic approximation needs Periodic or Theta boundary conditions")
    return h0.with_potential(folded_potential(h0.grid, u, sample))
