"""Experiment configuration: strict YAML schema, validation, hashing.

Every block has one schema table: ``model`` and ``execution`` one each,
``experiment``, ``model.v0`` and ``model.single_site`` one per ``kind``,
``model.disorder`` one per ``law``.  One engine walks any table, and
``resolve_config`` takes its defaults from the same tables.  Unknown keys
are errors everywhere; physics parameters have no silent defaults.
Validation is exhaustive: every problem in the file is reported with its
dotted field path before anything is computed.  Once the experiment block
is valid, every box its run builds must fit the solver budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial
from typing import Any, NamedTuple

import numpy as np
import yaml

from .disorder import DisorderModel
from .hamiltonian import SOLVER_BUDGET_POINTS, GridSpec, PeriodicPotential, SingleSitePotential
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


_REQUIRED = object()  # default of a key that must be given
_BAD = object()  # stands for a value of the wrong type
_OPTIONAL = object()  # default of a key that may be left out and stays out


class Field(NamedTuple):
    """One key of a block: ``type`` is a key of ``_TYPES``, a tuple of
    allowed values, or a nested ``Schema``/``Tagged``; ``default`` may be a
    predicate on the block, making the key required where it holds.
    ``strict`` excludes both bounds; an "ints" bound applies to each item."""

    type: Any
    lo: float | None = None
    default: Any = _REQUIRED
    hi: float | None = None
    strict: bool = False


class Schema(NamedTuple):
    """The table of one block.  A rule is (names, fn): when every named key
    holds a value of its type, ``fn(*values)`` returns messages relative to
    the block, or a false value.  ``realizations`` is the field that
    execution.realizations must satisfy under an experiment kind."""

    fields: dict[str, Field]
    rules: tuple = ()
    realizations: Field = Field("int", 1, _OPTIONAL)


class Tagged(NamedTuple):
    """A block whose ``tag`` key picks its schema."""

    tag: str
    schemas: dict[str, Schema]
    unknown: str  # message for a tag with no schema, formatted with the tag
    default: Any = _REQUIRED


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


_TYPES = {  # type -> (test, message formatted with the value)
    "int": (_is_int, "expected an integer, got {!r}"),
    "num": (lambda v: _is_int(v) or isinstance(v, float), "expected a number, got {!r}"),
    "bool": (lambda v: isinstance(v, bool), "expected a boolean"),
    "str": (lambda v: isinstance(v, str) and v != "", "expected a nonempty string"),
    "ints": (lambda v: isinstance(v, list) and v != [], "expected a nonempty list of integers"),
    "nums": (lambda v: isinstance(v, list) and all(map(_is_num, v)),
             "expected a list of numbers"),
    "any": (lambda v: True, ""),
}


def _check(value, field: Field, path: str, errors: list[str], context: dict):
    """Append the problems of ``value`` to ``errors``.  Returns the value
    (a nested block with its defaults) when its type is right, else _BAD."""
    kind = field.type
    if value is None and field.default is None:
        return value
    if isinstance(kind, (Schema, Tagged)):
        return _check_block(value, kind, path, errors, context)
    if isinstance(kind, tuple):
        ok = value in kind and type(value) in set(map(type, kind))
        message = f"must be {' or '.join(map(str, kind))}, got {value!r}"
    else:
        test, template = _TYPES[kind]
        ok, message = test(value), template.format(value)
    if not ok:
        errors.append(f"{path}: {message}")
        return _BAD
    if kind == "ints":
        for i, item in enumerate(value):
            _check(item, Field("int", field.lo), f"{path}[{i}]", errors, context)
    elif kind in ("int", "num"):
        lo, hi = field.lo, field.hi
        if not _is_num(value):
            errors.append(f"{path}: must be finite, got {value}")
            return _BAD
        if lo is not None and (value <= lo if field.strict else value < lo):
            errors.append(f"{path}: must be {'>' if field.strict else '>='} {lo}, got {value}")
        if hi is not None and (value >= hi if field.strict else value > hi):
            errors.append(f"{path}: must be {'<' if field.strict else '<='} {hi}, got {value}")
    return value


def _check_block(block, schema, path: str, errors: list[str], context: dict):
    """Check one block against its table; returns it with its defaults.
    ``context`` holds the model's dimension and points_per_cell when both
    are valid, and its v0_kind and align_edge when both are valid; rules
    may name them."""
    if not isinstance(block, dict):
        errors.append(f"{path}: expected a mapping")
        return _BAD
    typed = {}
    if isinstance(schema, Tagged):
        tag = typed[schema.tag] = block.get(schema.tag, schema.default)
        if tag is _REQUIRED:
            errors.append(f"{path}.{schema.tag}: required key is missing")
            return _BAD
        if not isinstance(tag, str) or tag not in schema.schemas:
            errors.append(f"{path}.{schema.tag}: " + schema.unknown.format(tag))
            return _BAD
        schema = schema.schemas[tag]
    errors.extend(f"{path}.{key}: unknown key" for key in block
                  if key not in schema.fields and key not in typed)
    typed.update((key, f.default) for key, f in schema.fields.items()
                 if f.default is not _REQUIRED and f.default is not _OPTIONAL
                 and not callable(f.default))
    merged = {**typed, **block}
    for key, field in schema.fields.items():
        if key in block:
            typed[key] = _check(block[key], field, f"{path}.{key}", errors, context)
        elif field.default is _REQUIRED or callable(field.default) and field.default(merged):
            errors.append(f"{path}.{key}: required key is missing")
    known = {**context, **{key: v for key, v in typed.items() if v is not _BAD}}
    for names, rule in schema.rules:
        if all(name in known for name in names):
            errors.extend(f"{path}.{m}" for m in rule(*map(known.get, names)) or ())
    return typed


def _shaped(values, shape) -> bool:
    """True when ``values`` nests lists of finite numbers to ``shape``."""
    if not shape:
        return _is_num(values)
    return (isinstance(values, list) and len(values) == shape[0]
            and all(_shaped(v, shape[1:]) for v in values))


def _in_zone(theta0, dimension, side) -> list[str]:
    """theta0 is a point of the reduced zone of a box of ``side`` cells."""
    if len(theta0) != dimension:
        return [f"theta0: expected {dimension} components, got {len(theta0)}"]
    return [f"theta0[{i}]: must lie in [-pi/{side}, pi/{side}], got {t}"
            for i, t in enumerate(theta0) if abs(t) > math.pi / side]


def _reach(strength, diameter, rate, floor, dimension, points_per_cell) -> list[str]:
    """The exponential bump's truncation radius, as assembly computes it, is
    finite and at most the side of the largest box the solver budget admits,
    so a run draws at most 3^d times that box of sites."""
    try:
        radius = SingleSitePotential.exponential(strength, diameter, rate, floor).radius
    except (ValueError, OverflowError):
        return []  # a value that another rule refuses
    side = SOLVER_BUDGET_POINTS ** (1 / dimension) / points_per_cell
    return not radius <= side and [
        f"tail_floor: must keep the bump's truncation radius finite and at most {side:.6g} "
        f"cells, the side of the largest box the solver budget admits, got {radius}"]


def _boxes(exp: dict) -> dict[str, int]:
    """Cells per axis of each box that a run of the valid experiment block
    ``exp`` builds, by the key that sets its size; a half-width l sets
    2l+1 cells, and ids-diff derives its reference as resolve_config does."""
    kind = exp["kind"]
    if kind == "ids-diff":
        top = max(exp["half_widths"])
        return {"half_widths": 2 * top + 1,
                "reference_half_width": 2 * (exp["reference_half_width"] or 4 * top) + 1}
    if kind in ("bandstructure", "theta-bounds") or exp.get("method") == "brillouin":
        return {"half_width": 2 * exp["half_width"] + 1}
    key = {"ids": "cells", "lifshitz": "cells", "ct-decay": "cells", "gap-prob": "sides",
           "m-regularity": "side"}.get(kind)
    return {key: max(exp[key]) if key == "sides" else exp[key]} if key else {}


_LOG_MAX = math.log(np.finfo(float).max)  # math.exp overflows above it
# Bytes of the dense draws of one hs-check matrix (``runner._hs_error``): two
# real and one complex matrix_dim x matrix_dim array, 32 bytes per entry.
_HS_DRAW_BYTES = 64 * 2**20
_int = partial(Field, "int")  # _int(lo, default, hi)
_num = partial(Field, "num")  # _num(lo, default, hi, strict)
_pos = partial(Field, "num", 0.0, strict=True)  # a number > 0; _pos(default)


_BUMP = {"strength": _pos(), "diameter": _pos()}
_MODEL = Schema({
    "dimension": Field((1, 2)),
    "points_per_cell": _int(1),
    "v0": Field(Tagged("kind", {
        "zero": Schema({}),
        "cosine": Schema({"amplitude": _num(0.0)}),
        "values": Schema({"cell_values": Field("any")}, ((
            ("cell_values", "dimension", "points_per_cell"),
            lambda values, d, p: not _shaped(values, (p,) * d) and [
                f"cell_values: expected numbers of shape {(p,) * d}, got {values!r}"]),)),
    }, "unknown kind {!r}")),
    "single_site": Field(Tagged("kind", {
        "box": Schema(_BUMP),
        "exponential": Schema({**_BUMP, "decay_rate": _pos(), "tail_floor": _pos(1e-10)}, ((
            ("tail_floor", "strength"), lambda floor, strength: floor >= strength and [
                f"tail_floor: must be below strength {strength}, got {floor}"]), (
            ("strength", "diameter", "decay_rate"), lambda strength, diameter, rate:
                strength > 0 and rate * diameter / 2 + max(0.0, math.log(strength)) >= _LOG_MAX
                and [f"decay_rate: must keep strength * exp(decay_rate * diameter / 2) below "
                     f"the largest float, got {rate}"]),
            (("strength", "diameter", "decay_rate", "tail_floor", "dimension",
              "points_per_cell"), _reach))),
    }, "unknown kind {!r}")),
    "disorder": Field(Tagged("law", {
        "uniform": Schema({"omega_max": _num(0.0)}),
        "beta": Schema({"omega_max": _num(0.0), "a": _num(1.0), "b": _num(1.0)}),
    }, "must be uniform or beta, got {!r}", default="uniform")),
    "align_edge": Field("bool", default=False),
})

_SAMPLED = _int(1)  # execution.realizations of a kind that draws disorder
_PLATEAU = {"plateau_energy": _pos(), "plateau_order": _int(1, 4)}
_ENERGIES = {"energy_min": _num(), "energy_max": _num()}
_WINDOW = (("energy_min", "energy_max"),
           lambda lo, hi: lo >= hi and ["energy_min: must be below energy_max"])
_KINDS = {
    "bandstructure": Schema({
        "half_width": _int(0, 0), "resolution": _int(3, 65), "num_bands": _int(1, 1),
        "realization": _int(0, None), "check_regularity": Field("bool", default=False),
    }, ((("num_bands", "half_width", "dimension", "points_per_cell"),
         lambda n, hw, d, p: hw >= 0 and n > (p * (2 * hw + 1)) ** d and [
             f"num_bands: must be <= {(p * (2 * hw + 1)) ** d}, the size of the box, "
             f"got {n}"]),)),
    "ids": Schema({
        "method": Field(("brillouin", "dirichlet"), default="brillouin"),
        "half_width": _int(1, lambda p: p["method"] == "brillouin"),
        "cells": _int(2, lambda p: p["method"] != "brillouin"),
        "theta_resolution": _int(1, 8), **_ENERGIES, "energy_points": _int(2, 201),
    }, (_WINDOW,), _SAMPLED),
    "lifshitz": Schema({
        "cells": _int(10), "edge": _num(default=0.0), "mass_low": _pos(1e-4),
        "mass_high": _num(0.0, 1e-1, hi=0.5, strict=True), **_ENERGIES,
        "energy_points": _int(10, 400), "eigen_cutoff": _num(default=None),
    }, (_WINDOW, (("energy_min", "edge"), lambda lo, edge: lo <= edge and [
        f"energy_min: must lie above the edge {edge}"]),
        (("mass_low", "mass_high"), lambda lo, hi: lo >= hi and [
            f"mass_low: must be below mass_high {hi}, got {lo}"]),
        # the run's grid ends at edge + (energy_max - edge), which may round above energy_max
        (("eigen_cutoff", "edge", "energy_max"), lambda cutoff, edge, hi: cutoff is not None
         and cutoff < edge + (hi - edge) and [
             f"eigen_cutoff: must be >= {edge + (hi - edge)!r}, the top of the energy grid, "
             f"got {cutoff}"])), _SAMPLED),
    "ids-diff": Schema({
        "half_widths": Field("ints", lo=1), "reference_half_width": _int(1, None),
        "theta_resolution": _int(1, 8), **_PLATEAU,
    }, (), _int(2)),
    "hs-check": Schema({  # the order-4 extension needs a C^5 plateau: order >= 4
        "matrix_dim": _int(2, 20, math.isqrt(_HS_DRAW_BYTES // 32)), "matrices": _int(1, 25),
        **_PLATEAU, "plateau_order": _int(4, 4),
    }),
    "ct-decay": Schema({
        "cells": _int(3), "z_real": _num(), "z_imag": _num(default=0.0),
        "max_distance": _int(1), "realization": _int(0, None),
    }),
    "gap-prob": Schema({
        "sides": Field("ints", lo=3), "alpha": _num(0.0, hi=1.0, strict=True),
        "theta0": Field("nums", default=None),
    }, ((("sides",), lambda sides: [
        f"sides[{i}]: must be odd (2l+1 cells), got {side}"
        for i, side in enumerate(sides) if _is_int(side) and side % 2 == 0]),
        (("theta0", "sides", "dimension"), lambda theta0, sides, d: theta0 is not None
         and all(map(_is_int, sides)) and _in_zone(theta0, d, max(sides))),
        (("v0_kind", "align_edge"), lambda kind, align: kind != "zero" and not align and [
            f"kind: gap-prob needs model.align_edge: true to put the lowest band at 0, "
            f"as model.v0.kind is {kind}"])), _SAMPLED),
    "theta-bounds": Schema({
        "half_width": _int(1), "energy": _num(0.0, hi=1.0, strict=True),
        "theta_resolution": _int(1, 8), "theta0": Field("nums", default=None),
        "xi": _num(0.0, lambda p: p["theta0"] is not None),
    }, ((("theta0", "half_width", "dimension"), lambda theta0, hw, d: theta0 is not None
         and hw >= 1 and _in_zone(theta0, d, 2 * hw + 1)),), _SAMPLED),
    "msa-schedule": Schema({
        "l0": _int(6), "m0": _pos(), "q0": _num(), "zeta": Field("any"),
        # a cap on the request: at zeta = 1.5 even l0 = 6 leaves the double range at step 15
        "steps": _int(1, 10, 20), "c1": _num(0.0, 0.0), "c2": _num(0.0, 0.0),
        "c3": _pos(1.0), "xi": _pos(2.0),
    }, ((("l0",), lambda l0: l0 % 3 != 0 and [f"l0: must be a multiple of 3, got {l0}"]),
        (("zeta",), lambda zeta: not (_is_num(zeta) and 1.0 < zeta < 2.0) and [
            f"zeta: must lie in ]1,2[, got {zeta!r}"]))),
    "m-regularity": Schema({
        "side": _int(6), "delta": _pos(2.0), "mass": _pos(), "energy": _num(),
        "eps_probes": Field("nums", default=[1e-1, 1e-2, 1e-3, 1e-4]),
    }, ((("side", "delta"), lambda side, delta: side < 12 * delta and [
        f"side: must be >= 12 * delta = {12 * delta}"]),
        (("eps_probes",), lambda probes: not probes and ["eps_probes: must not be empty"])),
        _SAMPLED),
}
_EXPERIMENT = Tagged("kind", _KINDS, "unknown kind {!r}; expected one of "
                     + ", ".join(sorted(_KINDS)))
_EXECUTION = Schema({
    "master_seed": _int(0), "realizations": _int(1, _OPTIONAL),
    "threads": _int(1, _OPTIONAL), "output_dir": Field("str", default="runs"),
})

EXPERIMENT_KINDS = tuple(_KINDS)


def _validate(config: Any) -> tuple[list[str], dict]:
    """Every problem found, and the config with every default filled in."""
    if not isinstance(config, dict):
        return ["config root: expected a mapping with model/experiment/execution"], {}
    blocks = ("model", "experiment", "execution")
    errors = [f"config.{key}: unknown key" for key in config if key not in blocks]
    errors += [f"config.{key}: required block is missing" for key in blocks
               if key not in config]
    exp = config.get("experiment")
    kind = exp.get("kind") if isinstance(exp, dict) else None
    kind = _KINDS.get(kind) if isinstance(kind, str) else None
    execution = (Schema(_EXECUTION.fields | {"realizations": kind.realizations})
                 if kind else _EXECUTION)
    model = config["model"] if isinstance(config.get("model"), dict) else {}
    d, p = model.get("dimension"), model.get("points_per_cell")
    v0 = model["v0"] if isinstance(model.get("v0"), dict) else {}
    v0_kind, align = v0.get("kind"), model.get("align_edge", False)
    context = {}  # model values that rules of any block may name
    if _is_int(d) and d in (1, 2) and _is_int(p) and p >= 1:
        context.update(dimension=d, points_per_cell=p)
    if isinstance(v0_kind, str) and v0_kind in _MODEL.fields["v0"].type.schemas \
            and isinstance(align, bool):
        context.update(v0_kind=v0_kind, align_edge=align)
    resolved = {key: _check_block(config[key], schema, key, errors, context)
                for key, schema in zip(blocks, (_MODEL, _EXPERIMENT, execution))
                if key in config}
    if align is True and "dimension" in context:
        try:  # align_edge scans the bands of one unit cell, whatever the kind
            GridSpec.from_cells(context["dimension"], context["points_per_cell"], 1)
        except ValueError as exc:
            errors.append(f"model.align_edge: the one-cell box of the band-minimum scan: {exc}")
    if kind and "dimension" in context and not any(e.startswith("experiment.") for e in errors):
        for key, cells in _boxes(resolved["experiment"]).items():
            try:  # GridSpec refuses a box over the solver budget
                GridSpec.from_cells(context["dimension"], context["points_per_cell"], cells)
            except ValueError as exc:
                errors.append(f"experiment.{key}: a box of {cells} cells per axis: {exc}")
    return errors, resolved


def validate_config(config: Any) -> list[str]:
    """Full range/consistency check; returns every problem found."""
    return _validate(config)[0]


def resolve_config(config: dict) -> dict:
    """Validated deep copy with every default made explicit."""
    errors, resolved = _validate(config)
    if errors:
        raise ConfigError(errors)
    resolved = json.loads(json.dumps(resolved))  # plain-type deep copy
    exp = resolved["experiment"]
    if exp["kind"] == "ids-diff" and exp["reference_half_width"] is None:
        exp["reference_half_width"] = 4 * max(exp["half_widths"])
    # results do not depend on the parallelism degree, so this default
    # never feeds the config hash
    resolved["execution"].setdefault("threads", os.cpu_count() or 1)
    return resolved


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        # libyaml's parser where PyYAML has it: the safe loader's objects, faster
        data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
