"""End-to-end acceptance suite.

Fourteen checks, one test each, run in order under ``pytest -v``.  The
slow ones (7 and 8) drive the shipped YAML configs through the full
runner; everything is seeded, so every number below is reproducible.
The payload ledger then pins the bytes of every shipped config's run.
"""

import hashlib
import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from randschrod import (
    AndersonModel,
    BoundaryCondition,
    brillouin_zone,
    ids_dirichlet_box,
    ids_periodic_approx,
)
from randschrod.bands import BandStructure, check_regularity, compute_bands, find_band_edges
from randschrod.config import load_config
from randschrod.hscalc import dbar_bound_check, extend, plateau_function
from randschrod.probes import alpha_n_feasible, msa_schedule
from randschrod.runner import environment, run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
LEDGER = Path(__file__).resolve().parent / "payload_ledger.json"


@pytest.fixture(scope="session")
def shipped(tmp_path_factory):
    """Run a shipped config once per session; returns its payload reader."""
    cache: dict[str, Path] = {}
    root = tmp_path_factory.mktemp("acceptance-runs")

    def runner(name: str, threads: int = 1):
        key = f"{name}@{threads}"
        if key not in cache:
            config = load_config(str(CONFIG_DIR / f"{name}.yaml"))
            config["execution"]["threads"] = threads
            envelope = run(config, out_root=str(root / key))
            cache[key] = Path(envelope.directory)
        return cache[key]

    return runner


def _payload(directory: Path, name: str) -> dict:
    return json.loads((directory / name).read_text(encoding="ascii"))


def test_criterion_01_matrix_function_vs_eigendecomposition(shipped):
    directory = shipped("hs_check")
    report = _payload(directory, "hs_check.json")
    assert report["max_error"] <= 1e-6
    assert report["refinement_gain"] >= 4.0
    assert report["passed"] is True
    assert len(report["errors"]) == 25


def test_criterion_02_dbar_envelope_and_leading_term():
    for energy, n in product((0.5, 0.05), (2, 4)):
        ext = extend(plateau_function(energy, n), n)
        a, b = ext.source.support

        xs = np.linspace(a - 0.1, b + 0.1, 200)
        ys = np.linspace(-ext.y_extent, ext.y_extent, 200)
        report = dbar_bound_check(ext, xs, ys)
        assert report.violations == 0, (energy, n)
        assert report.passed, (energy, n)

        # on |y| <= 1 the window factor is identically 1, so |dbar|
        # equals |f^(n+1)(x)| |y|^n / (2 n!) up to roundoff
        X, Y = np.meshgrid(np.linspace(a, b, 200), np.linspace(-1.0, 1.0, 200),
                           indexing="ij")
        lhs = np.abs(ext.dbar(X, Y))
        rhs = np.abs(ext.derivs[n + 1](X)) * np.abs(Y) ** n / (2 * math.factorial(n))
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * np.maximum(1.0, rhs)), (energy, n)


def test_criterion_03_seminorm_scale_covariance():
    n = 4
    products = [plateau_function(e, n).seminorm(n) * e ** n
                for e in (1e-1, 1e-2, 1e-3)]
    spread = (max(products) - min(products)) / min(products)
    assert spread < 0.01


def test_criterion_04_free_model_analytics():
    model = AndersonModel.free(omega_max=0.0)

    # lowest phase-wrapped eigenvalue across the zone
    bands = compute_bands(model, 0, resolution=257, num_bands=1)
    expected = 2.0 - 2.0 * np.cos(bands.axes[0])
    assert np.max(np.abs(bands.energies[:, 0] - expected)) <= 1e-10

    # hard-wall box of 200 sites: half the states sit below mid-band
    h = model.h0_box(200, BoundaryCondition.dirichlet())
    value = ids_dirichlet_box(h, [2.0]).values[0]
    assert abs(value - 0.5) <= 1.0 / 200

    # zone-integrated counting at zero disorder against the arccos law
    grid = model.grid(13)
    sample = model.sample_fundamental(grid, 0)
    energies = np.linspace(0.05, 3.95, 40)
    curve = ids_periodic_approx(model, sample, 6, energies, theta_resolution=8)
    exact = np.arccos(1.0 - energies / 2.0) / np.pi
    assert np.max(np.abs(curve.values - exact)) <= 2.0 / 8


def test_criterion_05_band_edge_regularity_detector():
    model = AndersonModel.free(dimension=2, omega_max=0.0)
    bands = compute_bands(model, 0, resolution=33, num_bands=1)
    edge = find_band_edges(bands)[0]["energy"]
    report = check_regularity(bands, edge)
    assert report.regular
    assert np.allclose(report.hessians[0], 2.0 * np.eye(2), atol=1e-4)

    quartic = BandStructure.from_function(lambda t: float(t[0] ** 4),
                                          brillouin_zone(0, 1), resolution=101)
    assert not check_regularity(quartic, 0.0).regular


def test_shipped_bandstructure_checks_the_free_band_edge(shipped):
    report = _payload(shipped("bandstructure_free_1d"), "bands.json")["regularity"]
    assert report["regular"] is True
    # 2 - 2cos(theta) has Hessian 2 at its minimum theta = 0
    assert report["minimizers"] == [[0.0]]
    assert report["hessians"] == [[[pytest.approx(2.0, abs=1e-6)]]]


@pytest.mark.parametrize(
    "dimension,points_per_cell,cells",
    [(1, 1, 31), (1, 2, 17), (2, 1, 7), (2, 2, 5)],
)
def test_criterion_06_counting_oracle_equivalence(dimension, points_per_cell, cells):
    model = AndersonModel.free(
        dimension=dimension, points_per_cell=points_per_cell,
        omega_max=1.5, master_seed=21,
    )
    h = model.anderson_box(cells, BoundaryCondition.dirichlet(), realization=0)
    assert h.n <= 400
    energies = np.linspace(-0.5, 9.0, 41)
    curve = ids_dirichlet_box(h, energies)

    evals = np.linalg.eigvalsh(h.dense())
    oracle = np.array([np.sum(evals < e) for e in energies])
    counts = np.rint(curve.values * curve.volume).astype(int)
    assert np.array_equal(counts, oracle)


def test_criterion_07_tail_exponent_near_half(shipped):
    directory = shipped("lifshitz_1d")
    fit = _payload(directory, "lifshitz.json")["fit"]
    assert -0.65 <= fit["exponent"] <= -0.35
    assert fit["n_points"] >= 4


def test_criterion_08_periodic_box_convergence(shipped):
    directory = shipped("ids_diff_1d")
    table = _payload(directory, "decay.json")["table"]
    rows = table["rows"]
    assert [r["half_width"] for r in rows] == [4, 8, 16]

    # deltas above the zero-disorder boundary bias must strictly shrink
    resolved = [r for r in rows
                if r["delta"] > r["noise_floor"] + 2.0 * r["stderr"]]
    deltas = [r["delta"] for r in resolved]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))

    by_width = {r["half_width"]: r["delta"] for r in rows}
    assert by_width[16] <= by_width[4] / 2.0


def test_criterion_09_low_eigenvalue_probability_trend(shipped):
    directory = shipped("gap_prob_1d")
    estimates = _payload(directory, "gap_prob.json")["estimates"]
    by_side = {e["side"]: e for e in estimates}
    small, large = by_side[9], by_side[27]

    if small["estimate"] == 0.0 and large["estimate"] == 0.0:
        pass  # both boxes never dip below the threshold
    else:
        assert large["estimate"] <= small["estimate"]
        if large["estimate"] == small["estimate"]:
            assert small["estimate"] == 0.0

    for e in estimates:
        lo, hi = e["interval"]
        assert 0.0 <= lo <= e["estimate"] <= hi <= 1.0
        assert e["samples"] == 300


def test_criterion_10_counting_inequalities(shipped):
    directory = shipped("theta_bounds_1d")
    report = _payload(directory, "theta_bounds.json")
    assert report["average_passed"] is True
    assert report["fixed_passed"] is True
    assert report["passed"] is True


def test_criterion_11_resolvent_decay_rate(shipped):
    directory = shipped("ct_decay_free_1d")
    decay = _payload(directory, "decay.json")
    exact = -math.log((3.0 - math.sqrt(5.0)) / 2.0)
    assert abs(decay["rate"] - exact) <= 0.05 * exact
    assert decay["r_squared"] > 0.99


def test_criterion_12_scale_recursion_arithmetic():
    sched = msa_schedule(l0=9, m0=1.0, q0=-2.0, zeta=1.5, steps=2)
    assert list(sched.scales) == [9, 27, 138]

    # the mass recursion needs a larger starting scale before its
    # correction terms fit under the initial mass
    sched = msa_schedule(l0=33, m0=1.0, q0=-2.0, zeta=1.5, steps=10,
                         c1=0.0, c2=0.0)
    masses = list(sched.masses)
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert sched.min_mass > 0.0
    assert all(m >= sched.min_mass for m in masses)
    assert sched.mass_positive
    # converged: the last two steps agree to a part in a thousand
    assert abs(masses[-1] - masses[-2]) <= 1e-3 * masses[-1]


def test_criterion_13_feasible_order_formula():
    assert alpha_n_feasible(2, 1, 0.25) == 9

    for q, d, alpha in product(range(1, 6), (1, 2), (0.1, 0.2, 0.25)):
        n = alpha_n_feasible(q, d, alpha)
        bound = q + 3 * d + 1
        assert n * (1.0 - alpha) > bound, (q, d, alpha)
        assert (n - 1) * (1.0 - alpha) <= bound, (q, d, alpha)


def test_criterion_14_parallelism_determinism(shipped):
    serial = shipped("ids_brillouin_1d", threads=1)
    threaded = shipped("ids_brillouin_1d", threads=8)

    serial_result = _payload(serial, "result.json")
    threaded_result = _payload(threaded, "result.json")
    assert serial_result["payloads"] == threaded_result["payloads"]

    for entry in serial_result["payloads"].values():
        a = (serial / entry["path"]).read_bytes()
        b = (threaded / entry["path"]).read_bytes()
        assert a == b


def payload_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, except the result.json envelope."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.name != "result.json"
    }


def test_payload_ledger(shipped):
    """Every shipped config, at its own seed, full size and 1 thread, writes
    the bytes recorded in payload_ledger.json.  A change that moves a
    payload records the new digests in the same commit and lists the old
    and new numbers of every file that moved."""
    ledger = json.loads(LEDGER.read_text(encoding="ascii"))
    here = environment()
    for field in sorted(set(here) | set(ledger["environment"])):
        recorded = ledger["environment"].get(field)
        assert here.get(field) == recorded, (
            f"environment field {field!r} is {here.get(field)!r}; "
            f"the ledger was recorded under {recorded!r}"
        )

    assert sorted(ledger["digests"]) == sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))
    moved = {}
    for name, recorded in ledger["digests"].items():
        digests = payload_digests(shipped(name))
        if digests != recorded:
            moved[name] = digests
    assert not moved, "payloads moved:\n" + json.dumps(moved, indent=2, sort_keys=True)
