"""Experiment driver: dispatch, parallel map, output envelopes.

Every run lands in its own directory named by config hash and
timestamp, holding the resolved config echo, the payload files, and a
result.json envelope.  Payload bytes depend only on the resolved config
and seed, never on thread count; the envelope carries the wall time and
the library versions and is the one file excluded from that contract.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import multiprocessing
import platform
import time
from dataclasses import dataclass, is_dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np
import scipy
import yaml

from .bands import compute_bands, find_band_edges, check_regularity
from .config import build_model, config_hash, resolve_config
from .hamiltonian import BoundaryCondition, NumericalFailure, realization_chunks, sturm_bytes
from .hscalc import QuadratureSpec, hs_transform, plateau_function
from .ids import (
    _decay_table,
    _difference_rows,
    ids_periodic_approx,
    lifshitz_fit,
    mass_window,
    mean_stderr,
    write_decay_csv,
    write_ids_csv,
)
from .probes import (
    _gap_estimates,
    _gap_hits,
    _theta_bounds,
    combes_thomas_profile,
    m_regularity_test,
    msa_schedule,
)

__all__ = [
    "ResultEnvelope",
    "VERSION",
    "environment",
    "parallel_map",
    "run",
]

VERSION = "0.1.0"

# every scipy module that a function of the package imports where it calls it;
# a pool imports them before it forks, so no worker imports one per task
_SCIPY_MODULES = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.special")


def parallel_map(threads: int):
    """Order-preserving map; a process pool when threads > 1.

    Work items are dispatched by index and collected in submission
    order, so reductions downstream see the same sequence regardless of
    the worker count.  A pool imports ``_SCIPY_MODULES`` before it forks.
    """

    def mapper(fn, items):
        items = list(items)
        if threads <= 1 or len(items) <= 1:
            return [fn(x) for x in items]
        for name in _SCIPY_MODULES:
            importlib.import_module(name)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(threads, len(items))) as pool:
            return pool.map(fn, items, chunksize=1)

    return mapper


def environment() -> dict:
    """Interpreter, numpy, scipy and BLAS versions that a run computes under.

    Payload bytes are reproducible only under the same versions, so
    result.json records them next to the payload digests.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
    }


def _refuse_nonfinite(name: str, field: str, values) -> None:
    """The one finiteness check of the payload writers: a NaN or an infinity
    in ``values`` (a float or an array) is a ``NumericalFailure`` that names
    the file and the field."""
    # math.isfinite takes a float in a tenth of the time of np.isfinite
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise NumericalFailure(f"{name}: {field} is not finite")


def _jsonable(obj, name: str, field: str = ""):
    """``obj`` in JSON types; a non-finite float in it is refused, by its path."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, name, f"{field}.{k}" if field else str(k))
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, name, f"{field}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        _refuse_nonfinite(name, field, obj)
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        _refuse_nonfinite(name, field, obj)
    return obj


def _cell(x) -> str:
    return str(x) if isinstance(x, (int, np.integer)) else repr(float(x))


class OutputSink:
    """Writes payload files under the run directory and records digests.

    ``write_json`` and ``write_csv`` are the only payload writers.  Both
    refuse a NaN or an infinity with a ``NumericalFailure`` before they open
    the file, so a refused payload leaves no file behind.
    """

    def __init__(self, directory: Path, metadata: dict):
        self.directory = directory
        self.metadata = dict(metadata)
        self.payloads: dict[str, dict] = {}

    def register(self, name: str) -> None:
        digest = hashlib.sha256((self.directory / name).read_bytes()).hexdigest()
        self.payloads[name] = {"path": name, "sha256": digest}

    def write_json(self, name: str, obj: dict) -> None:
        body = {**self.metadata, **_jsonable(obj, name)}
        text = json.dumps(body, sort_keys=True, indent=2)
        (self.directory / name).write_text(text + "\n", encoding="ascii")
        self.register(name)

    def write_csv(self, name: str, header, rows, notes=()) -> None:
        """A ``# key=val`` line per metadata entry and per entry of ``notes``,
        the header, then one line per row.  An ``int`` or ``np.integer`` cell
        is written by ``str``, any other by ``repr(float(x))``."""
        rows = list(rows)
        notes = _jsonable(dict(notes), name)
        for column, values in zip(header, np.asarray(rows, dtype=float).T):
            _refuse_nonfinite(name, f"column {column}", values)
        lines = [f"# {key}={val}" for key, val in (*self.metadata.items(), *notes.items())]
        lines.append(",".join(header))
        lines += [",".join(map(_cell, row)) for row in rows]
        (self.directory / name).write_text("\n".join(lines) + "\n", encoding="ascii")
        self.register(name)


@dataclass(frozen=True)
class ResultEnvelope:
    kind: str
    config_hash: str
    version: str
    wall_time_s: float
    directory: str
    payloads: dict[str, dict]
    summary: str
    environment: dict
    check: dict | None = None

    @property
    def check_passed(self) -> bool | None:
        if self.check is None:
            return None
        return bool(self.check.get("passed"))


# ---------------------------------------------------------------------------
# the one parallel map of a run, and the chunk workers it maps: each takes a
# chunk of item indices and returns one row per item


def _map_rows(worker, items: int, row_bytes: int, threads: int) -> np.ndarray:
    """The rows of ``worker`` over ``range(items)``, stacked in item order.

    ``realization_chunks`` cuts the items into at least one chunk per
    thread, each within ``_CHAIN_BYTES`` at ``row_bytes`` per item, and one
    ``parallel_map`` takes the chunks, so a run starts at most one pool.
    Every worker gives an item's row the same bits in any chunk, so the
    array does not depend on the thread count.
    """
    chunks = realization_chunks(items, threads, row_bytes)
    return np.concatenate(parallel_map(threads)(worker, chunks))


def _each(worker, items) -> np.ndarray:
    """The chunk form of a per-item ``worker``: its row for each item, in order."""
    return np.array([worker(item) for item in items], dtype=float)


def _brillouin_curve(model, half_width, energies, theta_resolution, realization) -> np.ndarray:
    sample = model.sample_fundamental(model.grid(2 * half_width + 1), realization)
    return ids_periodic_approx(
        model, sample, half_width, energies, theta_resolution=theta_resolution
    ).values


def _hs_error(matrix_dim, f, transforms, master_seed, index) -> tuple[float, ...]:
    """Error of the resolvent-integral functional calculus on one matrix,
    one entry per quadrature transform g.  g(A) - f(A) = Q diag(g - f) Q*
    with Q unitary, so its 2-norm is max |g(lam) - f(lam)| over the
    eigenvalues of A."""
    rng = np.random.default_rng((master_seed, index))
    b = rng.standard_normal((matrix_dim, matrix_dim))
    c = rng.standard_normal((matrix_dim, matrix_dim))
    a = b + 1j * c
    a = 0.5 * (a + a.conj().T)
    lam = np.linalg.eigvalsh(a)
    exact = f(lam)
    return tuple(float(np.max(np.abs(g(lam) - exact))) for g in transforms)


def _regularity(model, side, energy, delta, mass, probes, realization):
    h = model.anderson_box(side, BoundaryCondition.dirichlet(), realization)
    res = m_regularity_test(h, energy, delta, mass, eps_probes=probes)
    return res.passed, res.supremum, res.threshold


# ---------------------------------------------------------------------------
# experiment bodies: (model, exp, execution, sink) -> (summary, check)


def _run_bandstructure(model, exp, execution, sink):
    hw = exp["half_width"]
    bands = compute_bands(model, hw, exp["resolution"], exp["num_bands"], exp["realization"])
    header = [f"theta_{j + 1}" for j in range(bands.dimension)] + ["n", "E"]
    sink.write_csv("bands.csv", header, (
        (*(axis[i] for axis, i in zip(bands.axes, index)), n, energy)
        for index in np.ndindex(bands.energies.shape[:-1])
        for n, energy in enumerate(bands.energies[index])))

    edges = find_band_edges(bands)
    payload = {"edges": edges, "half_width": hw, "num_bands": exp["num_bands"]}
    check = None
    if exp["check_regularity"]:
        report = check_regularity(bands, edges[0]["energy"])
        payload["regularity"] = report
        check = {"passed": report.regular, "what": "regular lower band edge"}
    sink.write_json("bands.json", payload)
    lo = edges[0]["energy"]
    return f"{bands.num_bands} band(s), lower edge at {lo:.6g}", check


def _run_ids(model, exp, execution, sink):
    energies = np.linspace(exp["energy_min"], exp["energy_max"], exp["energy_points"])
    m = execution["realizations"]
    if exp["method"] == "brillouin":
        worker = partial(
            _brillouin_curve, model, exp["half_width"], energies, exp["theta_resolution"]
        )
        rows = _map_rows(partial(_each, worker), m, 8 * len(energies), execution["threads"])
    else:
        grid = model.grid(exp["cells"])
        counts = _map_rows(partial(model.dirichlet_counts, exp["cells"], energies), m,
                           sturm_bytes(grid.n_points, len(energies)), execution["threads"])
        rows = counts / grid.volume
    mean, stderr = mean_stderr(rows)
    write_ids_csv(sink, energies, mean, stderr)
    sink.write_json(
        "ids.json",
        {
            "method": exp["method"],
            "realizations": m,
            "mass_at_max": float(mean[-1]),
            "energy_range": [float(energies[0]), float(energies[-1])],
        },
    )
    return f"{exp['method']} IDS over {m} realizations, N(max)={mean[-1]:.6g}", None


def _run_lifshitz(model, exp, execution, sink):
    edge = exp["edge"]
    offsets = np.geomspace(
        exp["energy_min"] - edge, exp["energy_max"] - edge, exp["energy_points"]
    )
    energies = edge + offsets
    m = execution["realizations"]
    # the edge is counted too, so the tail mass is measured from N(edge)
    grid = np.concatenate([[edge], energies])
    box = model.grid(exp["cells"])
    counts = _map_rows(partial(model.dirichlet_counts, exp["cells"], grid), m,
                       sturm_bytes(box.n_points, len(grid)), execution["threads"])
    mean, stderr = mean_stderr(counts / box.volume)
    write_ids_csv(sink, energies, mean[1:], stderr[1:])

    window = mass_window(grid, mean, edge, exp["mass_low"], exp["mass_high"])
    fit = lifshitz_fit(grid, mean, edge, window, target=-model.dimension / 2.0)
    sink.write_json(
        "lifshitz.json",
        {
            "fit": fit,
            "cells": exp["cells"],
            "realizations": m,
            "mass_bounds": [exp["mass_low"], exp["mass_high"]],
        },
    )
    return (
        f"tail exponent {fit.exponent:.4f} +/- {fit.confidence_halfwidth:.4f} "
        f"(target {-model.dimension / 2.0})",
        None,
    )


def _run_ids_diff(model, exp, execution, sink):
    g = plateau_function(exp["plateau_energy"], exp["plateau_order"])
    half_widths, theta_resolution = tuple(exp["half_widths"]), exp["theta_resolution"]
    ref_cells = 2 * exp["reference_half_width"] + 1
    args = (g, ref_cells, half_widths, theta_resolution)
    # a realization holds its reference spectrum and each node's, each with its g
    points = model.grid(ref_cells).n_points + theta_resolution**model.dimension * sum(
        model.grid(2 * l + 1).n_points for l in half_widths)
    rows = _map_rows(partial(_difference_rows, model, *args), execution["realizations"],
                     16 * points, execution["threads"])
    table = _decay_table(model, *args, rows)
    write_decay_csv(sink, table)
    sink.write_json("decay.json", {"table": table})
    deltas = ", ".join(f"{r.delta:.3e}" for r in table.rows)
    return f"Delta(l) = [{deltas}] vs reference l={table.reference_half_width}", None


def _run_hs_check(model, exp, execution, sink):
    """The order-4 extension under the default quadrature and its refinement;
    the check asks for both a small error and a refinement gain of 4."""
    f = plateau_function(exp["plateau_energy"], exp["plateau_order"])
    quad = QuadratureSpec.for_function(f)
    # the quadrature coefficients do not depend on the matrix: one
    # transform per rule serves every matrix of the run
    transforms = tuple(hs_transform(f, 4, rule) for rule in (quad, quad.refine()))
    worker = partial(_hs_error, exp["matrix_dim"], f, transforms, execution["master_seed"])
    rows = _map_rows(partial(_each, worker), exp["matrices"], 8 * len(transforms),
                     execution["threads"])
    errors, refined = rows.T.tolist()
    max_err = max(errors)
    tolerance = 1e-6
    max_ref = max(refined)
    # refined errors that are all 0 leave no gain to measure: the error bound decides
    ratio = max_err / max_ref if max_ref > 0 else None
    passed = max_err <= tolerance and (ratio is None or ratio >= 4.0)
    sink.write_json(
        "hs_check.json",
        {
            "errors": errors,
            "refined_errors": refined,
            "max_error": max_err,
            "refinement_gain": ratio,
            "tolerance": tolerance,
            "passed": passed,
        },
    )
    check = {"passed": passed, "what": f"operator-norm error <= {tolerance}"}
    gain = ("refined errors all 0, the error bound alone decides" if ratio is None
            else f"refinement gain {ratio:.1f}x")
    return f"max |f(A)_quad - f(A)_eigh| = {max_err:.3e}, {gain}", check


def _run_ct_decay(model, exp, execution, sink):
    if exp["realization"] is None:
        h = model.h0_box(exp["cells"], BoundaryCondition.dirichlet())
    else:
        h = model.anderson_box(
            exp["cells"], BoundaryCondition.dirichlet(), exp["realization"]
        )
    z = complex(exp["z_real"], exp["z_imag"])
    anchor = (exp["cells"] // 2,) * model.dimension
    profile = combes_thomas_profile(h, z, anchor, exp["max_distance"])

    sink.write_csv("decay.csv", ("distance", "norm"), zip(profile.distances, profile.norms))
    sink.write_json(
        "decay.json",
        {
            "rate": profile.rate,
            "prefactor": profile.prefactor,
            "r_squared": profile.r_squared,
            "dist_to_spectrum": profile.dist_to_spectrum,
            "fitted_points": profile.fitted_points,
            "z": [z.real, z.imag],
        },
    )
    return (
        f"resolvent decay rate {profile.rate:.4f} per cell "
        f"(R^2 = {profile.r_squared:.4f})",
        None,
    )


def _run_gap_prob(model, exp, execution, sink):
    args = (model, exp["sides"], exp["alpha"], exp["theta0"])
    reduce = _gap_estimates(*args)  # checks the sides and the band edge before the map
    estimates = reduce(_map_rows(partial(_gap_hits, *args), execution["realizations"],
                                 len(exp["sides"]), execution["threads"]))
    sink.write_json("gap_prob.json", {"estimates": estimates, "alpha": exp["alpha"]})
    text = ", ".join(f"P({e.side})={e.estimate:.3f}" for e in estimates)
    return f"low-eigenvalue hit rates: {text}", None


def _run_theta_bounds(model, exp, execution, sink):
    l = exp["half_width"]
    nodes, energies, reports = _theta_bounds(
        model, l, exp["energy"], exp["theta_resolution"], exp["theta0"], exp["xi"]
    )
    row_bytes = 8 * len(nodes) * model.grid(2 * l + 1).n_points  # its spectra
    avg, fixed = reports(_map_rows(partial(model.zone_counts, l, nodes, energies),
                                   execution["realizations"], row_bytes, execution["threads"]))
    payload: dict = {"average": avg, "average_passed": avg.passed}
    passed = avg.passed
    parts = [f"zone-average slack {avg.slack:+.3e}"]
    if fixed is not None:
        payload["fixed"] = fixed
        payload["fixed_passed"] = fixed.passed
        passed = passed and fixed.passed
        parts.append(f"fixed-theta slack {fixed.slack:+.3e}")
    payload["passed"] = passed
    sink.write_json("theta_bounds.json", payload)
    check = {"passed": passed, "what": "counting bounds hold within 2 stderr"}
    return "; ".join(parts), check


def _run_msa_schedule(model, exp, execution, sink):
    sched = msa_schedule(
        exp["l0"], exp["m0"], exp["q0"], exp["zeta"], exp["steps"],
        c1=exp["c1"], c2=exp["c2"], c3=exp["c3"], xi=exp["xi"],
        dimension=model.dimension,
    )
    sink.write_csv("schedule.csv", ("step", "scale", "mass", "exponent"),
                   zip(range(len(sched.scales)), sched.scales, sched.masses, sched.exponents))
    sink.write_json(
        "schedule.json",
        {
            "scales": list(sched.scales),
            "masses": list(sched.masses),
            "exponents": list(sched.exponents),
            "min_mass": sched.min_mass,
            "mass_positive": sched.mass_positive,
        },
    )
    return (
        f"scales {list(sched.scales[:3])}..., min mass {sched.min_mass:.4f}, "
        f"mass stays positive: {sched.mass_positive}",
        None,
    )


def _run_m_regularity(model, exp, execution, sink):
    m = execution["realizations"]
    worker = partial(
        _regularity, model, exp["side"], exp["energy"], exp["delta"], exp["mass"],
        exp["eps_probes"],
    )
    rows = _map_rows(partial(_each, worker), m, 8 * 3, execution["threads"])
    passes = int(np.count_nonzero(rows[:, 0]))
    suprema = rows[:, 1].tolist()
    sink.write_json(
        "regularity.json",
        {
            "realizations": m,
            "passes": passes,
            "pass_rate": passes / m,
            "suprema": suprema,
            "threshold": rows[0, 2],
        },
    )
    return f"{passes}/{m} realizations ({exp['side']},{exp['mass']})-regular", None


_DISPATCH = {
    "bandstructure": _run_bandstructure,
    "ids": _run_ids,
    "lifshitz": _run_lifshitz,
    "ids-diff": _run_ids_diff,
    "hs-check": _run_hs_check,
    "ct-decay": _run_ct_decay,
    "gap-prob": _run_gap_prob,
    "theta-bounds": _run_theta_bounds,
    "msa-schedule": _run_msa_schedule,
    "m-regularity": _run_m_regularity,
}


def _make_run_dir(root: Path, digest: str) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = f"{digest[:12]}-{stamp}"
    path = root / base
    suffix = 0
    while path.exists():
        suffix += 1
        path = root / f"{base}-{suffix}"
    path.mkdir(parents=True)
    return path


def run(config: dict, out_root: str | None = None) -> ResultEnvelope:
    """Validate, execute, and persist one experiment.

    Raises ConfigError before touching the filesystem; any failure
    after the run directory exists leaves a FAILED marker next to the
    partial output.  Returns the envelope that was written to
    result.json.
    """
    resolved = resolve_config(config)
    model = build_model(resolved)
    digest = config_hash(resolved)
    kind = resolved["experiment"]["kind"]
    execution = resolved["execution"]

    root = Path(out_root if out_root is not None else execution["output_dir"])
    directory = _make_run_dir(root, digest)
    started = time.perf_counter()
    try:
        with open(directory / "resolved_config.yaml", "w", encoding="utf-8") as fh:
            # libyaml's emitter where PyYAML has it: the safe dumper's bytes, faster
            yaml.dump(resolved, fh, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper),
                      sort_keys=True)
        sink = OutputSink(directory, {"config": digest, "kind": kind,
                                      "version": VERSION})
        summary, check = _DISPATCH[kind](model, resolved["experiment"], execution, sink)
    except Exception as exc:
        (directory / "FAILED").write_text(
            f"{type(exc).__name__}: {exc}\n", encoding="utf-8"
        )
        raise

    envelope = ResultEnvelope(
        kind=kind,
        config_hash=digest,
        version=VERSION,
        wall_time_s=time.perf_counter() - started,
        directory=str(directory),
        payloads=sink.payloads,
        summary=summary,
        environment=environment(),
        check=check,
    )
    body = json.dumps(_jsonable(envelope, "result.json"), sort_keys=True, indent=2)
    (directory / "result.json").write_text(body + "\n", encoding="ascii")
    return envelope
