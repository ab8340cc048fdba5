"""The benchmark's workloads and the correctness checks made apart from the program.

Each workload is a shipped config cut down to a size that runs in seconds.
Its checks recompute what the run printed from closed forms or from dense
solves of matrices built here, never from a stored copy of earlier output.
Every check returns a list of problems; an empty list means it passed.
Round checks take (resolved config, run directory, model of that config).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# the tie probe: the free Dirichlet chain of this many sites has the exact
# eigenvalue 2 (k = (N + 1) / 2 in 2 - 2 cos(k pi / (N + 1)))
TIE_SITES = 2001
TIE_ENERGY = 2.0


def apply_sizes(config: dict, overrides: dict) -> dict:
    out = json.loads(json.dumps(config))
    for block, values in overrides.items():
        out.setdefault(block, {}).update(values)
    return out


# ---------------------------------------------------------------------------
# matrices and spectra built here, not by the program


def dirichlet_chain(diagonal: np.ndarray) -> np.ndarray:
    n = len(diagonal)
    return np.diag(diagonal) - np.eye(n, k=1) - np.eye(n, k=-1)


def wrapped_ring(diagonal: np.ndarray, phase: float) -> np.ndarray:
    """Ring with hopping -1 whose wrap bond carries the phase e^{i phase}."""
    h = dirichlet_chain(diagonal).astype(complex)
    n = len(diagonal)
    h[n - 1, 0] += -np.exp(1j * phase)
    h[0, n - 1] += -np.exp(-1j * phase)
    return h


def count_below(evals: np.ndarray, energies) -> np.ndarray:
    return np.searchsorted(np.sort(evals), np.asarray(energies, dtype=float), side="left")


def zone_nodes(half_width: int, resolution: int) -> np.ndarray:
    """Midpoint nodes of the reduced zone [-pi/L, pi/L], L = 2l + 1."""
    extent = math.pi / (2 * half_width + 1)
    return -extent + (np.arange(resolution) + 0.5) * (2.0 * extent / resolution)


def free_dirichlet_count_below_two(n: int) -> int:
    """#{k in 1..n : 2 - 2cos(k pi/(n+1)) < 2} = #{k : 2k < n + 1}, exactly."""
    return sum(1 for k in range(1, n + 1) if 2 * k < n + 1)


def _bump_strength(resolved: dict) -> float:
    """Coupling scale of the oracles' diagonal 2 + strength * omega_k.

    A box bump of diameter 1 on a one-point cell of a 1D chain with V0 = 0
    adds omega_k * strength to site k and nothing to its neighbours; the
    oracles assume exactly that model.
    """
    m = resolved["model"]
    u = m["single_site"]
    if not (m["dimension"] == 1 and m["points_per_cell"] == 1 and m["v0"]["kind"] == "zero"
            and u["kind"] == "box" and u["diameter"] == 1.0):
        raise ValueError("the dense oracles need a 1D chain with V0 = 0 and a unit box bump")
    return float(u["strength"])


def _couplings(model, sites: np.ndarray, realization: int) -> np.ndarray:
    return model.disorder.draw(sites[:, None].astype(np.int64), realization)


# ---------------------------------------------------------------------------
# dirichlet-tail


def lifshitz_energies(exp: dict) -> np.ndarray:
    edge = exp["edge"]
    return edge + np.geomspace(exp["energy_min"] - edge, exp["energy_max"] - edge,
                               exp["energy_points"])


def check_dirichlet_tail(resolved: dict, run_dir: Path, model) -> list[str]:
    problems = []
    fit = json.loads((run_dir / "lifshitz.json").read_text())["fit"]
    if not -0.65 <= fit["exponent"] <= -0.35:
        problems.append(f"tail exponent {fit['exponent']} outside [-0.65, -0.35]")
    rows = _csv_rows(run_dir / "ids.csv")
    mean = np.array([float(r["N"]) for r in rows])
    if len(mean) != resolved["experiment"]["energy_points"]:
        problems.append(f"ids.csv has {len(mean)} energies")
    if np.any(np.diff(mean) < 0):
        problems.append("mean IDS decreases")
    if np.any(mean < 0) or np.any(mean > 1):
        problems.append("mean IDS leaves [0, 1]")
    return problems


def dirichlet_counts(resolved: dict, model, realization: int):
    """(program counts, dense-oracle counts) for one realization's box."""
    from randschrod.hamiltonian import BoundaryCondition
    from randschrod.ids import ids_dirichlet_box

    exp = resolved["experiment"]
    cells = exp["cells"]
    energies = lifshitz_energies(exp)
    h = model.anderson_box(cells, BoundaryCondition.dirichlet(), realization)
    curve = ids_dirichlet_box(h, energies, upper=exp["eigen_cutoff"])
    program = np.rint(curve.values * cells).astype(int)

    sites = np.arange(cells) - (cells - 1) // 2
    diagonal = 2.0 + _bump_strength(resolved) * _couplings(model, sites, realization)
    oracle = count_below(np.linalg.eigvalsh(dirichlet_chain(diagonal)), energies)
    return program, oracle


def compare_counts(program, oracle, what: str) -> list[str]:
    program, oracle = np.asarray(program), np.asarray(oracle)
    bad = np.flatnonzero(program != oracle)
    if bad.size:
        i = bad[0]
        return [f"{what}: {bad.size} count(s) differ from the dense solve, "
                f"first at index {i}: {program[i]} vs {oracle[i]}"]
    return []


def tie_probe(model) -> tuple[int, int]:
    """(count the program gives, exact count) below E = 2 on the free chain."""
    from randschrod.hamiltonian import BoundaryCondition
    from randschrod.ids import ids_dirichlet_box

    h = model.h0_box(TIE_SITES, BoundaryCondition.dirichlet())
    curve = ids_dirichlet_box(h, [TIE_ENERGY], upper=TIE_ENERGY)
    return int(round(curve.values[0] * TIE_SITES)), free_dirichlet_count_below_two(TIE_SITES)


# ---------------------------------------------------------------------------
# zone-theta


def _ring_counts(diagonal, half_width, thetas, lo, hi) -> np.ndarray:
    """#{eig in [lo, hi)} of the wrapped ring at each quasimomentum."""
    length = 2 * half_width + 1
    out = []
    for t in thetas:
        phase = min(max(t * length, -math.pi), math.pi)
        w = np.linalg.eigvalsh(wrapped_ring(diagonal, phase))
        out.append(int(np.sum((w >= lo) & (w < hi))))
    return np.array(out)


def zone_counts(resolved: dict, model, realization: int):
    """(program counts, dense-oracle counts) of eigenvalues in [0, E) at every
    theta node for one realization."""
    exp = resolved["experiment"]
    l, energy = exp["half_width"], exp["energy"]
    thetas = zone_nodes(l, exp["theta_resolution"])
    sample = model.sample_fundamental(model.grid(2 * l + 1), realization)
    program = []
    for t in thetas:
        w = model.periodic_box_at(l, (t,), sample=sample).eigenvalues(upper=energy)
        program.append(int(np.sum(w >= 0.0)))
    diagonal = 2.0 + _bump_strength(resolved) * _couplings(
        model, np.arange(-l, l + 1), realization)
    return np.array(program), _ring_counts(diagonal, l, thetas, 0.0, energy)


def check_zone_theta(resolved: dict, run_dir: Path, model) -> list[str]:
    """Recompute both counting inequalities from dense solves of every
    realization and compare them with the printed report."""
    exp = resolved["experiment"]
    m = resolved["execution"]["realizations"]
    l, energy, xi = exp["half_width"], exp["energy"], exp["xi"]
    length = 2 * l + 1
    thetas = zone_nodes(l, exp["theta_resolution"])
    theta0 = exp["theta0"][0]
    enlarged = energy + xi * (2.0 * math.pi * l / length) / l
    strength = _bump_strength(resolved)

    lhs, rhs, hits, bound = [], [], 0, []
    for r in range(m):
        diagonal = 2.0 + strength * _couplings(model, np.arange(-l, l + 1), r)
        counts = _ring_counts(diagonal, l, thetas, 0.0, energy)
        lhs.append((2.0 * math.pi / length) * np.count_nonzero(counts) / len(thetas))
        rhs.append(2.0 * math.pi * counts.sum() / (length * len(thetas)))
        hits += int(_ring_counts(diagonal, l, [theta0], 0.0, energy)[0] > 0)
        bound.append(_ring_counts(diagonal, l, thetas, 0.0, enlarged).sum() / len(thetas))

    report = json.loads((run_dir / "theta_bounds.json").read_text())
    problems = []
    expected = {
        ("average", "lhs"): np.mean(lhs),
        ("average", "rhs"): np.mean(rhs),
        ("fixed", "probability"): hits / m,
        ("fixed", "bound"): np.mean(bound),
    }
    for (block, key), value in expected.items():
        printed = report[block][key]
        if not math.isclose(printed, value, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{block}.{key} = {printed}, dense solves give {value}")

    def se(xs):
        return float(np.std(xs, ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0

    if not np.mean(lhs) <= np.mean(rhs) + 2.0 * math.hypot(se(lhs), se(rhs)):
        problems.append("zone-averaged counting inequality fails")
    p = hits / m
    p_se = math.sqrt(p * (1 - p) / m)
    if not p <= np.mean(bound) + 2.0 * math.hypot(p_se, se(bound)):
        problems.append("fixed-theta counting inequality fails")
    return problems


# ---------------------------------------------------------------------------
# ids-functional


def free_noise_floor(resolved: dict, half_width: int) -> float:
    """|periodic functional - Dirichlet functional| of the free chain, from
    the closed-form spectra 2 - 2cos((2 pi j + phase)/L) and
    2 - 2cos(k pi/(N + 1))."""
    from randschrod.hscalc import plateau_function

    exp = resolved["experiment"]
    g = plateau_function(exp["plateau_energy"], exp["plateau_order"])
    resolution = exp["theta_resolution"]
    length = 2 * half_width + 1
    j = np.arange(length)
    periodic = 0.0
    for t in zone_nodes(half_width, resolution):
        periodic += float(np.sum(g(2.0 - 2.0 * np.cos((2.0 * math.pi * j + t * length) / length))))
    periodic /= length * resolution
    n = 2 * exp["reference_half_width"] + 1
    k = np.arange(1, n + 1)
    reference = float(np.sum(g(2.0 - 2.0 * np.cos(k * math.pi / (n + 1))))) / n
    return abs(periodic - reference)


def check_ids_functional(resolved: dict, run_dir: Path, model) -> list[str]:
    table = json.loads((run_dir / "decay.json").read_text())["table"]
    rows = table["rows"]
    problems = []
    if [r["half_width"] for r in rows] != list(resolved["experiment"]["half_widths"]):
        problems.append("decay table rows do not match the configured half-widths")
    for r in rows:
        floor = free_noise_floor(resolved, r["half_width"])
        if abs(r["noise_floor"] - floor) > 1e-12:
            problems.append(f"noise floor at l={r['half_width']}: {r['noise_floor']} "
                            f"vs closed form {floor}")
        if not (math.isfinite(r["delta"]) and r["delta"] >= 0):
            problems.append(f"delta at l={r['half_width']} is {r['delta']}")
    return problems


# ---------------------------------------------------------------------------
# hs-quadrature


def check_hs_quadrature(resolved: dict, run_dir: Path, model) -> list[str]:
    body = json.loads((run_dir / "hs_check.json").read_text())
    errors, refined = body["errors"], body["refined_errors"]
    problems = []
    if len(errors) != resolved["experiment"]["matrices"]:
        problems.append(f"{len(errors)} errors for {resolved['experiment']['matrices']} matrices")
    if not max(errors) <= 1e-6:
        problems.append(f"quadrature error {max(errors)} exceeds 1e-6")
    gain = max(errors) / max(refined) if max(refined) > 0 else math.inf
    if not gain >= 4.0:
        problems.append(f"refinement gain {gain} below 4")
    return problems


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# the workloads


def _zone_theta_round(resolved: dict, run_dir: Path, model) -> list[str]:
    return check_zone_theta(resolved, run_dir, model) + compare_counts(
        *zone_counts(resolved, model, 0), "realization 0 theta-node counts")


def _dirichlet_tail_once(resolved: dict, model) -> list[str]:
    return compare_counts(*dirichlet_counts(resolved, model, 0),
                          "realization 0 Dirichlet counts")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                    # shipped config, relative to the repo root
    threads: int                   # worker processes the run may use
    sizes: dict                    # benchmark size: {block: {key: value}}
    tiny: dict                     # self-test size
    # (resolved config, run directory, model) -> problems, after every round
    check_round: Callable[[dict, Path, object], list[str]]
    # (resolved config, model) -> problems, once per run: too costly per round
    check_once: Callable[[dict, object], list[str]] | None = None
    tie_probe: bool = False        # also count the free chain at E = 2 each round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dirichlet-tail",
            config="configs/lifshitz_1d.yaml",
            threads=1,
            sizes={"execution": {"realizations": 2}},
            tiny={"execution": {"realizations": 1}},
            check_round=check_dirichlet_tail,
            check_once=_dirichlet_tail_once,
            tie_probe=True,
        ),
        Workload(
            name="zone-theta",
            config="configs/theta_bounds_1d.yaml",
            threads=1,
            sizes={"execution": {"realizations": 40}},
            tiny={"execution": {"realizations": 2}},
            check_round=_zone_theta_round,
        ),
        Workload(
            name="ids-functional",
            config="configs/ids_diff_1d.yaml",
            threads=2,
            sizes={"execution": {"realizations": 24}},
            tiny={"execution": {"realizations": 2}},
            check_round=check_ids_functional,
        ),
        Workload(
            name="hs-quadrature",
            config="configs/hs_check.yaml",
            threads=1,
            # four matrices: the program's own check takes the largest error
            # over the largest refined error, which falls below 4 on about
            # 1 matrix in 40
            sizes={"experiment": {"matrices": 4}},
            tiny={"experiment": {"matrices": 1}},
            check_round=check_hs_quadrature,
        ),
    )
}
