"""Experiment configuration: strict YAML schema, validation, hashing.

Unknown keys are errors everywhere; physics parameters have no silent
defaults.  Validation is exhaustive: every problem in the file is
reported with its dotted field path before anything is computed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import numpy as np
import yaml

from .disorder import DisorderModel
from .hamiltonian import PeriodicPotential, SingleSitePotential
from .model import AndersonModel, align_band_edge

__all__ = [
    "ConfigError",
    "EXPERIMENT_KINDS",
    "load_config",
    "validate_config",
    "resolve_config",
    "config_hash",
    "build_model",
]


class ConfigError(Exception):
    """Carries the full list of validation messages."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool))


def _req(block: dict, key: str, path: str, errors: list[str]) -> Any:
    if key not in block:
        errors.append(f"{path}.{key}: required key is missing")
        return None
    return block[key]


def _check_unknown(block: dict, allowed: set[str], path: str, errors: list[str]) -> None:
    for key in block:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key")


def _check_int(v, path: str, errors: list[str], lo=None, hi=None) -> None:
    if v is None:
        return
    if not _is_int(v):
        errors.append(f"{path}: expected an integer, got {v!r}")
    elif lo is not None and v < lo:
        errors.append(f"{path}: must be >= {lo}, got {v}")
    elif hi is not None and v > hi:
        errors.append(f"{path}: must be <= {hi}, got {v}")


def _check_num(v, path: str, errors: list[str], lo=None, hi=None,
               lo_open=False, hi_open=False) -> None:
    if v is None:
        return
    if not _is_num(v):
        errors.append(f"{path}: expected a number, got {v!r}")
        return
    if lo is not None and (v <= lo if lo_open else v < lo):
        op = ">" if lo_open else ">="
        errors.append(f"{path}: must be {op} {lo}, got {v}")
    if hi is not None and (v >= hi if hi_open else v > hi):
        op = "<" if hi_open else "<="
        errors.append(f"{path}: must be {op} {hi}, got {v}")


def _check_int_list(v, path: str, errors: list[str], lo=None) -> None:
    if v is None:
        return
    if not isinstance(v, list) or not v:
        errors.append(f"{path}: expected a nonempty list of integers")
        return
    for i, item in enumerate(v):
        _check_int(item, f"{path}[{i}]", errors, lo=lo)


def _validate_model(model: Any, errors: list[str]) -> None:
    if not isinstance(model, dict):
        errors.append("model: expected a mapping")
        return
    _check_unknown(
        model,
        {"dimension", "points_per_cell", "v0", "single_site", "disorder", "align_edge"},
        "model",
        errors,
    )
    dim = _req(model, "dimension", "model", errors)
    if dim is not None and dim not in (1, 2):
        errors.append(f"model.dimension: must be 1 or 2, got {dim!r}")
    _check_int(_req(model, "points_per_cell", "model", errors),
               "model.points_per_cell", errors, lo=1)

    v0 = _req(model, "v0", "model", errors)
    if v0 is not None:
        if not isinstance(v0, dict):
            errors.append("model.v0: expected a mapping")
        else:
            kind = _req(v0, "kind", "model.v0", errors)
            if kind == "zero":
                _check_unknown(v0, {"kind"}, "model.v0", errors)
            elif kind == "cosine":
                _check_unknown(v0, {"kind", "amplitude"}, "model.v0", errors)
                _check_num(_req(v0, "amplitude", "model.v0", errors),
                           "model.v0.amplitude", errors, lo=0.0)
            elif kind == "values":
                _check_unknown(v0, {"kind", "cell_values"}, "model.v0", errors)
                if "cell_values" not in v0:
                    errors.append("model.v0.cell_values: required key is missing")
            elif kind is not None:
                errors.append(f"model.v0.kind: unknown kind {kind!r}")

    u = _req(model, "single_site", "model", errors)
    if u is not None:
        if not isinstance(u, dict):
            errors.append("model.single_site: expected a mapping")
        else:
            kind = _req(u, "kind", "model.single_site", errors)
            if kind == "box":
                _check_unknown(u, {"kind", "strength", "diameter"},
                               "model.single_site", errors)
                _check_num(_req(u, "strength", "model.single_site", errors),
                           "model.single_site.strength", errors, lo=0.0, lo_open=True)
                _check_num(_req(u, "diameter", "model.single_site", errors),
                           "model.single_site.diameter", errors, lo=0.0, lo_open=True)
            elif kind == "exponential":
                u = {**_SINGLE_SITE_DEFAULTS["exponential"], **u}
                _check_unknown(u, {"kind", "strength", "diameter", "decay_rate",
                                   "tail_floor"}, "model.single_site", errors)
                _check_num(_req(u, "strength", "model.single_site", errors),
                           "model.single_site.strength", errors, lo=0.0, lo_open=True)
                _check_num(_req(u, "diameter", "model.single_site", errors),
                           "model.single_site.diameter", errors, lo=0.0, lo_open=True)
                _check_num(_req(u, "decay_rate", "model.single_site", errors),
                           "model.single_site.decay_rate", errors, lo=0.0, lo_open=True)
                _check_num(u["tail_floor"],
                           "model.single_site.tail_floor", errors, lo=0.0, lo_open=True)
            elif kind is not None:
                errors.append(f"model.single_site.kind: unknown kind {kind!r}")

    dis = _req(model, "disorder", "model", errors)
    if dis is not None:
        if not isinstance(dis, dict):
            errors.append("model.disorder: expected a mapping")
        else:
            dis = {**_DISORDER_DEFAULTS, **dis}
            law = dis["law"]
            if law not in ("uniform", "beta"):
                errors.append(f"model.disorder.law: must be uniform or beta, got {law!r}")
            allowed = {"law", "omega_max"} | ({"a", "b"} if law == "beta" else set())
            _check_unknown(dis, allowed, "model.disorder", errors)
            _check_num(_req(dis, "omega_max", "model.disorder", errors),
                       "model.disorder.omega_max", errors, lo=0.0)
            if law == "beta":
                _check_num(_req(dis, "a", "model.disorder", errors),
                           "model.disorder.a", errors, lo=1.0)
                _check_num(_req(dis, "b", "model.disorder", errors),
                           "model.disorder.b", errors, lo=1.0)

    align = {**_MODEL_DEFAULTS, **model}["align_edge"]
    if not isinstance(align, bool):
        errors.append(f"model.align_edge: expected a boolean, got {align!r}")


def _plateau_checks(params: dict, path: str, errors: list[str]) -> None:
    _check_num(_req(params, "plateau_energy", path, errors),
               f"{path}.plateau_energy", errors, lo=0.0, lo_open=True)
    _check_int(params["plateau_order"], f"{path}.plateau_order", errors, lo=1)


# per-kind parameter schemas: key -> (validator, required)
def _validate_experiment(exp: Any, errors: list[str]) -> None:
    if not isinstance(exp, dict):
        errors.append("experiment: expected a mapping")
        return
    kind = _req(exp, "kind", "experiment", errors)
    if kind is None:
        return
    if kind not in EXPERIMENT_KINDS:
        errors.append(
            f"experiment.kind: unknown kind {kind!r}; expected one of "
            + ", ".join(sorted(EXPERIMENT_KINDS))
        )
        return
    path = "experiment"
    p = {**_EXPERIMENT_DEFAULTS[kind], **exp}

    if kind == "bandstructure":
        _check_unknown(p, {"kind", "half_width", "resolution", "num_bands",
                           "realization", "check_regularity"}, path, errors)
        _check_int(p["half_width"], f"{path}.half_width", errors, lo=0)
        _check_int(p["resolution"], f"{path}.resolution", errors, lo=3)
        _check_int(p["num_bands"], f"{path}.num_bands", errors, lo=1)
        r = p["realization"]
        if r is not None:
            _check_int(r, f"{path}.realization", errors, lo=0)
        if not isinstance(p["check_regularity"], bool):
            errors.append(f"{path}.check_regularity: expected a boolean")

    elif kind == "ids":
        _check_unknown(p, {"kind", "method", "half_width", "cells", "theta_resolution",
                           "energy_min", "energy_max", "energy_points"}, path, errors)
        method = p["method"]
        if method not in ("brillouin", "dirichlet"):
            errors.append(f"{path}.method: must be brillouin or dirichlet, got {method!r}")
        if method == "brillouin":
            _check_int(_req(p, "half_width", path, errors), f"{path}.half_width",
                       errors, lo=1)
            _check_int(p["theta_resolution"], f"{path}.theta_resolution",
                       errors, lo=1)
        else:
            _check_int(_req(p, "cells", path, errors), f"{path}.cells", errors, lo=2)
        _check_num(_req(p, "energy_min", path, errors), f"{path}.energy_min", errors)
        _check_num(_req(p, "energy_max", path, errors), f"{path}.energy_max", errors)
        if (_is_num(p.get("energy_min")) and _is_num(p.get("energy_max"))
                and p["energy_min"] >= p["energy_max"]):
            errors.append(f"{path}.energy_min: must be below energy_max")
        _check_int(p["energy_points"], f"{path}.energy_points", errors, lo=2)

    elif kind == "lifshitz":
        _check_unknown(p, {"kind", "cells", "energy_min", "energy_max", "energy_points",
                           "mass_low", "mass_high", "edge", "eigen_cutoff"}, path, errors)
        _check_int(_req(p, "cells", path, errors), f"{path}.cells", errors, lo=10)
        _check_num(p["edge"], f"{path}.edge", errors)
        _check_num(p["mass_low"], f"{path}.mass_low", errors,
                   lo=0.0, lo_open=True)
        _check_num(p["mass_high"], f"{path}.mass_high", errors,
                   lo=0.0, lo_open=True, hi=0.5, hi_open=True)
        e_lo = _req(p, "energy_min", path, errors)
        e_hi = _req(p, "energy_max", path, errors)
        _check_num(e_lo, f"{path}.energy_min", errors)
        _check_num(e_hi, f"{path}.energy_max", errors)
        edge = p["edge"]
        if _is_num(e_lo) and _is_num(edge) and e_lo <= edge:
            errors.append(f"{path}.energy_min: must lie above the edge {edge}")
        if _is_num(e_lo) and _is_num(e_hi) and e_lo >= e_hi:
            errors.append(f"{path}.energy_min: must be below energy_max")
        _check_int(p["energy_points"], f"{path}.energy_points", errors, lo=10)
        ec = p["eigen_cutoff"]
        if ec is not None:
            _check_num(ec, f"{path}.eigen_cutoff", errors)

    elif kind == "ids-diff":
        _check_unknown(p, {"kind", "half_widths", "reference_half_width",
                           "theta_resolution", "plateau_energy", "plateau_order"},
                       path, errors)
        _check_int_list(_req(p, "half_widths", path, errors), f"{path}.half_widths",
                        errors, lo=1)
        rhw = p["reference_half_width"]
        if rhw is not None:
            _check_int(rhw, f"{path}.reference_half_width", errors, lo=1)
        _check_int(p["theta_resolution"], f"{path}.theta_resolution",
                   errors, lo=1)
        _plateau_checks(p, path, errors)

    elif kind == "hs-check":
        _check_unknown(p, {"kind", "matrix_dim", "matrices", "order", "x_points",
                           "y_panels", "y_subnodes", "eps_y", "scheme", "refine",
                           "plateau_energy", "plateau_order"},
                       path, errors)
        _check_int(p["matrix_dim"], f"{path}.matrix_dim", errors, lo=2)
        _check_int(p["matrices"], f"{path}.matrices", errors, lo=1)
        order = p["order"]
        _check_int(order, f"{path}.order", errors, lo=1)
        _check_int(p["x_points"], f"{path}.x_points", errors, lo=8)
        _check_int(p["y_panels"], f"{path}.y_panels", errors, lo=1)
        _check_int(p["y_subnodes"], f"{path}.y_subnodes", errors, lo=1)
        eps_y = p["eps_y"]
        _check_num(eps_y, f"{path}.eps_y", errors, lo=0.0)
        if _is_num(eps_y) and eps_y == 0.0 and _is_int(order) and order < 2:
            errors.append(f"{path}.order: must be >= 2 when eps_y = 0")
        scheme = p["scheme"]
        if scheme not in ("midpoint", "gauss"):
            errors.append(f"{path}.scheme: must be midpoint or gauss, got {scheme!r}")
        if not isinstance(p["refine"], bool):
            errors.append(f"{path}.refine: expected a boolean")
        _plateau_checks(p, path, errors)

    elif kind == "ct-decay":
        _check_unknown(p, {"kind", "cells", "z_real", "z_imag", "max_distance",
                           "realization"}, path, errors)
        _check_int(_req(p, "cells", path, errors), f"{path}.cells", errors, lo=3)
        _check_num(_req(p, "z_real", path, errors), f"{path}.z_real", errors)
        _check_num(p["z_imag"], f"{path}.z_imag", errors)
        _check_int(_req(p, "max_distance", path, errors), f"{path}.max_distance",
                   errors, lo=1)
        r = p["realization"]
        if r is not None:
            _check_int(r, f"{path}.realization", errors, lo=0)

    elif kind == "gap-prob":
        _check_unknown(p, {"kind", "sides", "alpha", "theta0"}, path, errors)
        sides = _req(p, "sides", path, errors)
        _check_int_list(sides, f"{path}.sides", errors, lo=3)
        for i, side in enumerate(sides if isinstance(sides, list) else []):
            if _is_int(side) and side % 2 == 0:
                errors.append(f"{path}.sides[{i}]: must be odd (2l+1 cells), got {side}")
        _check_num(_req(p, "alpha", path, errors), f"{path}.alpha", errors,
                   lo=0.0, lo_open=True, hi=1.0, hi_open=True)
        t0 = p["theta0"]
        if t0 is not None:
            if not isinstance(t0, list) or not all(_is_num(t) for t in t0):
                errors.append(f"{path}.theta0: expected a list of numbers")

    elif kind == "theta-bounds":
        _check_unknown(p, {"kind", "half_width", "energy", "theta_resolution",
                           "theta0", "xi"}, path, errors)
        _check_int(_req(p, "half_width", path, errors), f"{path}.half_width",
                   errors, lo=1)
        _check_num(_req(p, "energy", path, errors), f"{path}.energy", errors,
                   lo=0.0, lo_open=True, hi=1.0, hi_open=True)
        _check_int(p["theta_resolution"], f"{path}.theta_resolution",
                   errors, lo=1)
        t0 = p["theta0"]
        if t0 is not None:
            if not isinstance(t0, list) or not all(_is_num(t) for t in t0):
                errors.append(f"{path}.theta0: expected a list of numbers")
            _check_num(_req(p, "xi", path, errors), f"{path}.xi", errors, lo=0.0)

    elif kind == "msa-schedule":
        _check_unknown(p, {"kind", "l0", "m0", "q0", "zeta", "steps",
                           "c1", "c2", "c3", "xi"}, path, errors)
        l0 = _req(p, "l0", path, errors)
        _check_int(l0, f"{path}.l0", errors, lo=6)
        if _is_int(l0) and l0 % 3 != 0:
            errors.append(f"{path}.l0: must be a multiple of 3, got {l0}")
        _check_num(_req(p, "m0", path, errors), f"{path}.m0", errors,
                   lo=0.0, lo_open=True)
        _check_num(_req(p, "q0", path, errors), f"{path}.q0", errors)
        zeta = _req(p, "zeta", path, errors)
        if zeta is not None and (not _is_num(zeta) or not 1.0 < zeta < 2.0):
            errors.append(f"{path}.zeta: must lie in ]1,2[, got {zeta!r}")
        _check_int(p["steps"], f"{path}.steps", errors, lo=1)
        for c in ("c1", "c2"):
            _check_num(p[c], f"{path}.{c}", errors, lo=0.0)
        _check_num(p["c3"], f"{path}.c3", errors, lo=0.0, lo_open=True)
        _check_num(p["xi"], f"{path}.xi", errors, lo=0.0, lo_open=True)

    elif kind == "m-regularity":
        _check_unknown(p, {"kind", "side", "delta", "mass", "energy", "eps_probes"},
                       path, errors)
        side = _req(p, "side", path, errors)
        _check_int(side, f"{path}.side", errors, lo=6)
        delta = p["delta"]
        _check_num(delta, f"{path}.delta", errors, lo=0.0, lo_open=True)
        if _is_int(side) and _is_num(delta) and side < 12 * delta:
            errors.append(f"{path}.side: must be >= 12 * delta = {12 * delta}")
        _check_num(_req(p, "mass", path, errors), f"{path}.mass", errors,
                   lo=0.0, lo_open=True)
        _check_num(_req(p, "energy", path, errors), f"{path}.energy", errors)
        probes = p["eps_probes"]
        if not isinstance(probes, list) or not all(_is_num(e) for e in probes):
            errors.append(f"{path}.eps_probes: expected a list of numbers")


EXPERIMENT_KINDS = (
    "bandstructure",
    "ids",
    "lifshitz",
    "ids-diff",
    "hs-check",
    "ct-decay",
    "gap-prob",
    "theta-bounds",
    "msa-schedule",
    "m-regularity",
)

# experiments that draw disorder realizations and need execution.realizations
_SAMPLED = {"ids", "lifshitz", "ids-diff", "gap-prob", "theta-bounds", "m-regularity"}


def _validate_execution(block: Any, kind: str | None, errors: list[str]) -> None:
    if not isinstance(block, dict):
        errors.append("execution: expected a mapping")
        return
    _check_unknown(block, {"master_seed", "realizations", "threads", "output_dir"},
                   "execution", errors)
    _check_int(_req(block, "master_seed", "execution", errors),
               "execution.master_seed", errors, lo=0)
    if kind in _SAMPLED:
        m = _req(block, "realizations", "execution", errors)
        lo = 2 if kind in ("ids-diff",) else 1
        _check_int(m, "execution.realizations", errors, lo=lo)
    elif "realizations" in block:
        _check_int(block["realizations"], "execution.realizations", errors, lo=1)
    _check_int(block.get("threads"), "execution.threads", errors, lo=1)
    out = {**_EXECUTION_DEFAULTS, **block}["output_dir"]
    if not isinstance(out, str) or not out:
        errors.append("execution.output_dir: expected a nonempty string")


def validate_config(config: Any) -> list[str]:
    """Full range/consistency check; returns every problem found."""
    errors: list[str] = []
    if not isinstance(config, dict):
        return ["config root: expected a mapping with model/experiment/execution"]
    _check_unknown(config, {"model", "experiment", "execution"}, "config", errors)
    for key in ("model", "experiment", "execution"):
        if key not in config:
            errors.append(f"config.{key}: required block is missing")
    if "model" in config:
        _validate_model(config["model"], errors)
    kind = None
    if "experiment" in config:
        _validate_experiment(config["experiment"], errors)
        if isinstance(config["experiment"], dict):
            kind = config["experiment"].get("kind")
    if "execution" in config:
        _validate_execution(config["execution"], kind, errors)
    return errors


# Defaults of optional keys: validation checks them and resolve_config
# writes them into the resolved config.
_EXECUTION_DEFAULTS = {"output_dir": "runs"}
_MODEL_DEFAULTS = {"align_edge": False}

_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "bandstructure": {"half_width": 0, "resolution": 65, "num_bands": 1,
                      "realization": None, "check_regularity": False},
    "ids": {"method": "brillouin", "theta_resolution": 8, "energy_points": 201},
    "lifshitz": {"edge": 0.0, "mass_low": 1e-4, "mass_high": 1e-1,
                 "energy_points": 400, "eigen_cutoff": None},
    "ids-diff": {"reference_half_width": None, "theta_resolution": 8,
                 "plateau_order": 4},
    "hs-check": {"matrix_dim": 20, "matrices": 25, "order": 4, "x_points": 128,
                 "y_panels": 18, "y_subnodes": 6, "eps_y": 0.0,
                 "scheme": "gauss", "refine": True, "plateau_order": 4},
    "ct-decay": {"z_imag": 0.0, "realization": None},
    "gap-prob": {"theta0": None},
    "theta-bounds": {"theta_resolution": 8, "theta0": None},
    "msa-schedule": {"steps": 10, "c1": 0.0, "c2": 0.0, "c3": 1.0, "xi": 2.0},
    "m-regularity": {"delta": 2.0, "eps_probes": [1e-1, 1e-2, 1e-3, 1e-4]},
}

_DISORDER_DEFAULTS = {"law": "uniform"}
_SINGLE_SITE_DEFAULTS = {"exponential": {"tail_floor": 1e-10}}


def resolve_config(config: dict) -> dict:
    """Validated deep copy with every default made explicit."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    resolved = json.loads(json.dumps(config))  # plain-type deep copy
    model = resolved["model"]
    for k, v in _MODEL_DEFAULTS.items():
        model.setdefault(k, v)
    for k, v in _DISORDER_DEFAULTS.items():
        model["disorder"].setdefault(k, v)
    if model["single_site"]["kind"] == "exponential":
        for k, v in _SINGLE_SITE_DEFAULTS["exponential"].items():
            model["single_site"].setdefault(k, v)
    exp = resolved["experiment"]
    for k, v in _EXPERIMENT_DEFAULTS[exp["kind"]].items():
        exp.setdefault(k, v)
    if exp["kind"] == "ids-diff" and exp["reference_half_width"] is None:
        exp["reference_half_width"] = 4 * max(exp["half_widths"])
    execution = resolved["execution"]
    for k, v in _EXECUTION_DEFAULTS.items():
        execution.setdefault(k, v)
    # results do not depend on the parallelism degree, so this default
    # never feeds the config hash
    execution.setdefault("threads", os.cpu_count() or 1)
    return resolved


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        raise ConfigError(["config file is empty"])
    return data


def config_hash(resolved: dict) -> str:
    """Digest of everything that determines the numbers.

    Execution details (threads, output paths) are excluded; the master
    seed is included.
    """
    payload = {
        "model": resolved["model"],
        "experiment": resolved["experiment"],
        "master_seed": resolved["execution"]["master_seed"],
        "realizations": resolved["execution"].get("realizations"),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def build_model(resolved: dict) -> AndersonModel:
    """Construct the operator bundle described by the model block."""
    m = resolved["model"]
    d = m["dimension"]
    p = m["points_per_cell"]

    v0_spec = m["v0"]
    if v0_spec["kind"] == "zero":
        v0 = PeriodicPotential.zero(d, p)
    elif v0_spec["kind"] == "cosine":
        amp = float(v0_spec["amplitude"])

        def profile(x, _a=amp):
            return _a * 0.5 * (1.0 - np.cos(2.0 * np.pi * x))

        v0 = PeriodicPotential.decomposable(p, [profile] * d)
    else:
        values = np.asarray(v0_spec["cell_values"], dtype=float)
        if values.shape != (p,) * d:
            raise ConfigError(
                [f"model.v0.cell_values: expected shape {(p,) * d}, got {values.shape}"]
            )
        v0 = PeriodicPotential(dimension=d, points_per_cell=p, cell_values=values)

    u_spec = m["single_site"]
    if u_spec["kind"] == "box":
        u = SingleSitePotential.box(float(u_spec["strength"]),
                                    float(u_spec["diameter"]))
    else:
        u = SingleSitePotential.exponential(
            float(u_spec["strength"]),
            float(u_spec["diameter"]),
            float(u_spec["decay_rate"]),
            tail_floor=float(u_spec["tail_floor"]),
        )

    dis = m["disorder"]
    disorder = DisorderModel(
        omega_max=float(dis["omega_max"]),
        law=dis["law"],
        master_seed=int(resolved["execution"]["master_seed"]),
        beta_a=float(dis.get("a", 2.0)),
        beta_b=float(dis.get("b", 2.0)),
    )
    model = AndersonModel(
        dimension=d,
        points_per_cell=p,
        v0=v0,
        single_site=u,
        disorder=disorder,
    )
    if m["align_edge"]:
        model = align_band_edge(model)
    return model
