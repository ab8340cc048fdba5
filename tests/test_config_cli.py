"""Config validation, defaults, hashing, model building, and the CLI."""

import copy
import json
import math
import multiprocessing.pool
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from randschrod import hamiltonian
from randschrod import model as model_module
from randschrod import runner
from randschrod.cli import _build_parser, main
from randschrod.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    build_model,
    config_hash,
    resolve_config,
    validate_config,
)
from randschrod.hamiltonian import NumericalFailure, _cell_offsets
from randschrod.ids import mean_stderr
from randschrod.model import AndersonModel
from randschrod.runner import environment


def _ids_config():
    return {
        "model": {
            "dimension": 1,
            "points_per_cell": 2,
            "v0": {"kind": "zero"},
            "single_site": {"kind": "box", "strength": 1.0, "diameter": 1.0},
            "disorder": {"omega_max": 1.0},
        },
        "experiment": {
            "kind": "ids",
            "half_width": 2,
            "theta_resolution": 3,
            "energy_min": 0.0,
            "energy_max": 4.2,
            "energy_points": 11,
        },
        "execution": {"master_seed": 7, "realizations": 3},
    }


def _ids_dirichlet_config():
    config = _ids_config()
    config["experiment"] = {"kind": "ids", "method": "dirichlet", "cells": 20,
                            "energy_min": 0.0, "energy_max": 4.2, "energy_points": 11}
    return config


def _gap_prob_config():
    config = _ids_config()
    config["experiment"] = {"kind": "gap-prob", "sides": [5, 7], "alpha": 0.5}
    return config


def _theta_bounds_config():
    config = _ids_config()
    config["experiment"] = {"kind": "theta-bounds", "half_width": 2, "energy": 0.25,
                            "theta_resolution": 3, "theta0": [0.05], "xi": 2.0}
    return config


def _lifshitz_config():
    config = _ids_config()
    config["experiment"] = {"kind": "lifshitz", "cells": 40, "energy_min": 0.05,
                            "energy_max": 3.0, "energy_points": 12,
                            "mass_low": 0.01, "mass_high": 0.4}
    return config


def _ids_diff_config():
    config = _ids_config()
    config["experiment"] = {"kind": "ids-diff", "half_widths": [1, 2],
                            "reference_half_width": 4, "theta_resolution": 2,
                            "plateau_energy": 0.5}
    return config


def _hs_check_config():
    config = _ids_config()
    config["experiment"] = {"kind": "hs-check", "matrix_dim": 6, "matrices": 3,
                            "plateau_energy": 1.0}
    del config["execution"]["realizations"]
    return config


def _m_regularity_config():
    config = _ids_config()
    config["experiment"] = {"kind": "m-regularity", "side": 25, "energy": -1.0,
                            "mass": 0.2}
    return config


def _free_chain_config(experiment, realizations=None):
    # one point per cell and no disorder: the Dirichlet box of n sites has
    # the eigenvalue 2 - 2cos(pi/2), within rounding of 2, when n is odd
    config = _ids_config()
    config["model"]["points_per_cell"] = 1
    config["model"]["disorder"]["omega_max"] = 0.0
    config["experiment"] = experiment
    if realizations is None:
        del config["execution"]["realizations"]
    else:
        config["execution"]["realizations"] = realizations
    return config


def _msa_config(zeta=1.5):
    return {
        "model": {
            "dimension": 1,
            "points_per_cell": 2,
            "v0": {"kind": "zero"},
            "single_site": {"kind": "box", "strength": 1.0, "diameter": 1.0},
            "disorder": {"omega_max": 1.0},
        },
        "experiment": {"kind": "msa-schedule", "l0": 9, "m0": 1.0,
                       "q0": -2.0, "zeta": zeta},
        "execution": {"master_seed": 0},
    }


def _write(tmp_path, config, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return str(path)


class TestValidation:
    def test_valid_config_has_no_errors(self):
        assert validate_config(_ids_config()) == []

    def test_non_mapping_root(self):
        errors = validate_config([1, 2])
        assert len(errors) == 1
        assert "mapping" in errors[0]

    def test_missing_blocks_each_reported(self):
        errors = validate_config({})
        assert sorted(errors) == [
            "config.execution: required block is missing",
            "config.experiment: required block is missing",
            "config.model: required block is missing",
        ]

    def test_unknown_top_level_key(self):
        config = _ids_config()
        config["extra"] = 1
        assert "config.extra: unknown key" in validate_config(config)

    def test_unknown_model_key(self):
        config = _ids_config()
        config["model"]["boundary"] = "periodic"
        errors = validate_config(config)
        assert errors == ["model.boundary: unknown key"]

    def test_missing_omega_max_is_a_single_error(self):
        config = _ids_config()
        del config["model"]["disorder"]["omega_max"]
        errors = validate_config(config)
        assert errors == ["model.disorder.omega_max: required key is missing"]

    def test_zeta_range_message_names_the_open_interval(self):
        errors = validate_config(_msa_config(zeta=2.5))
        assert len(errors) == 1
        assert "experiment.zeta" in errors[0]
        assert "]1,2[" in errors[0]
        assert "2.5" in errors[0]

    def test_zeta_boundaries_rejected(self):
        assert validate_config(_msa_config(zeta=1.0))
        assert validate_config(_msa_config(zeta=2.0))
        assert validate_config(_msa_config(zeta=1.5)) == []

    def test_alpha_out_of_range_names_the_field(self):
        config = _ids_config()
        config["experiment"] = {"kind": "gap-prob", "sides": [5, 7], "alpha": 1.5}
        errors = validate_config(config)
        assert len(errors) == 1
        assert errors[0].startswith("experiment.alpha")
        assert "1.5" in errors[0]

    def test_even_gap_prob_side_is_refused(self):
        config = _ids_config()
        config["experiment"] = {"kind": "gap-prob", "sides": [5, 8], "alpha": 0.5}
        errors = validate_config(config)
        assert len(errors) == 1
        assert errors[0].startswith("experiment.sides[1]")
        assert "odd" in errors[0]

    def test_sampled_kind_requires_realizations(self):
        config = _ids_config()
        del config["execution"]["realizations"]
        errors = validate_config(config)
        assert errors == ["execution.realizations: required key is missing"]

    def test_difference_experiment_needs_two_realizations(self):
        config = _ids_config()
        config["experiment"] = {"kind": "ids-diff", "half_widths": [2, 4],
                                "plateau_energy": 0.5}
        config["execution"]["realizations"] = 1
        errors = validate_config(config)
        assert len(errors) == 1
        assert "execution.realizations" in errors[0]
        assert ">= 2" in errors[0]

    def test_inverted_energy_window(self):
        config = _ids_config()
        config["experiment"]["energy_min"] = 5.0
        errors = validate_config(config)
        assert errors == ["experiment.energy_min: must be below energy_max"]

    def test_bool_is_not_an_integer(self):
        config = _ids_config()
        config["execution"]["master_seed"] = True
        errors = validate_config(config)
        assert len(errors) == 1
        assert "execution.master_seed" in errors[0]
        assert "expected an integer" in errors[0]

    @pytest.mark.parametrize("config,field", [
        (_theta_bounds_config(), "energy"),
        (_lifshitz_config(), "energy_max"),
        (_free_chain_config({"kind": "ct-decay", "cells": 5, "z_real": 0.0,
                             "max_distance": 2}), "z_real"),
        (_msa_config(), "m0"),
    ], ids=["theta-bounds", "lifshitz", "ct-decay", "msa-schedule"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_refused(self, config, field, value):
        config["experiment"][field] = value
        errors = validate_config(config)
        assert errors == [f"experiment.{field}: must be finite, got {value}"]

    @pytest.mark.parametrize("values", [["a", "b"], [[0.1, 0.2], [0.3]], [0.1],
                                        [0.1, math.nan]])
    def test_cell_values_must_be_numbers_of_the_cell_shape(self, values):
        config = _ids_config()
        config["model"]["v0"] = {"kind": "values", "cell_values": values}
        errors = validate_config(config)
        assert len(errors) == 1
        assert errors[0].startswith("model.v0.cell_values: expected numbers of shape (2,)")

    def test_exponential_tail_floor_must_stay_below_strength(self):
        config = _ids_config()
        config["model"]["single_site"] = {"kind": "exponential", "strength": 1.0,
                                          "diameter": 1.0, "decay_rate": 2.0,
                                          "tail_floor": 10}
        assert validate_config(config) == [
            "model.single_site.tail_floor: must be below strength 1.0, got 10"]
        config["model"]["single_site"]["tail_floor"] = 0.5
        build_model(resolve_config(config))

    def test_null_is_refused_unless_it_is_the_default(self):
        config = _ids_config()
        config["model"]["points_per_cell"] = None
        config["experiment"] = {"kind": "bandstructure", "realization": None}
        assert validate_config(config) == [
            "model.points_per_cell: expected an integer, got None"]

    def test_multiple_problems_all_collected(self):
        config = _ids_config()
        config["model"]["dimension"] = 3
        config["experiment"]["energy_points"] = 1
        config["stray"] = {}
        errors = validate_config(config)
        assert len(errors) == 3


class TestResolve:
    def test_defaults_made_explicit(self):
        config = _ids_config()
        del config["experiment"]["theta_resolution"]
        resolved = resolve_config(config)
        exp = resolved["experiment"]
        assert exp["method"] == "brillouin"
        assert exp["theta_resolution"] == 8
        assert resolved["model"]["align_edge"] is False
        assert resolved["model"]["disorder"]["law"] == "uniform"
        assert resolved["execution"]["output_dir"] == "runs"

    def test_threads_default_is_cpu_count(self):
        resolved = resolve_config(_ids_config())
        assert resolved["execution"]["threads"] == (os.cpu_count() or 1)

    def test_explicit_threads_kept(self):
        config = _ids_config()
        config["execution"]["threads"] = 2
        assert resolve_config(config)["execution"]["threads"] == 2

    def test_hs_check_resolves_to_four_settable_values(self):
        config = _ids_config()
        config["experiment"] = {"kind": "hs-check", "plateau_energy": 0.3}
        del config["execution"]["realizations"]
        exp = resolve_config(config)["experiment"]
        assert exp == {"kind": "hs-check", "matrix_dim": 20, "matrices": 25,
                       "plateau_energy": 0.3, "plateau_order": 4}

    def test_difference_reference_defaults_to_four_times_largest(self):
        config = _ids_config()
        config["experiment"] = {"kind": "ids-diff", "half_widths": [2, 4, 3],
                                "plateau_energy": 0.5}
        exp = resolve_config(config)["experiment"]
        assert exp["reference_half_width"] == 16

    def test_explicit_reference_kept(self):
        config = _ids_config()
        config["experiment"] = {"kind": "ids-diff", "half_widths": [2],
                                "reference_half_width": 10,
                                "plateau_energy": 0.5}
        exp = resolve_config(config)["experiment"]
        assert exp["reference_half_width"] == 10

    def test_exponential_tail_floor_default(self):
        config = _ids_config()
        config["model"]["single_site"] = {"kind": "exponential", "strength": 1.0,
                                          "diameter": 1.0, "decay_rate": 2.0}
        resolved = resolve_config(config)
        assert resolved["model"]["single_site"]["tail_floor"] == 1e-10

    def test_input_not_mutated(self):
        config = _ids_config()
        snapshot = copy.deepcopy(config)
        resolve_config(config)
        assert config == snapshot

    def test_invalid_config_raises_with_error_list(self):
        config = _ids_config()
        config["model"]["dimension"] = 3
        with pytest.raises(ConfigError) as info:
            resolve_config(config)
        assert any("model.dimension" in e for e in info.value.errors)


class TestHash:
    def test_execution_details_do_not_affect_the_hash(self):
        base = resolve_config(_ids_config())

        varied = _ids_config()
        varied["execution"]["threads"] = 5
        varied["execution"]["output_dir"] = "elsewhere"
        assert config_hash(resolve_config(varied)) == config_hash(base)

    def test_seed_and_realizations_do_affect_the_hash(self):
        base = config_hash(resolve_config(_ids_config()))

        seeded = _ids_config()
        seeded["execution"]["master_seed"] = 8
        assert config_hash(resolve_config(seeded)) != base

        repeated = _ids_config()
        repeated["execution"]["realizations"] = 4
        assert config_hash(resolve_config(repeated)) != base

    def test_key_order_does_not_affect_the_hash(self):
        config = _ids_config()
        shuffled = {
            "execution": dict(reversed(list(config["execution"].items()))),
            "experiment": dict(reversed(list(config["experiment"].items()))),
            "model": dict(reversed(list(config["model"].items()))),
        }
        assert (config_hash(resolve_config(shuffled))
                == config_hash(resolve_config(config)))

    def test_model_change_does_affect_the_hash(self):
        base = config_hash(resolve_config(_ids_config()))
        changed = _ids_config()
        changed["model"]["disorder"]["omega_max"] = 2.0
        assert config_hash(resolve_config(changed)) != base


class TestBuildModel:
    def test_cosine_potential_sampled_at_cell_offsets(self):
        config = _ids_config()
        config["model"]["points_per_cell"] = 4
        config["model"]["v0"] = {"kind": "cosine", "amplitude": 2.0}
        model = build_model(resolve_config(config))
        offs = _cell_offsets(4)
        expected = 1.0 - np.cos(2.0 * np.pi * offs)
        np.testing.assert_allclose(model.v0.cell_values, expected, atol=1e-14)

    def test_explicit_cell_values_round_trip(self):
        config = _ids_config()
        config["model"]["v0"] = {"kind": "values", "cell_values": [0.5, 1.5]}
        model = build_model(resolve_config(config))
        np.testing.assert_array_equal(model.v0.cell_values, [0.5, 1.5])

    def test_cell_values_shape_mismatch_rejected(self):
        config = _ids_config()
        config["model"]["v0"] = {"kind": "values", "cell_values": [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError) as info:
            build_model(resolve_config(config))
        assert any("cell_values" in e for e in info.value.errors)

    def test_align_edge_moves_band_minimum_to_zero(self):
        config = _ids_config()
        config["model"]["points_per_cell"] = 4
        config["model"]["v0"] = {"kind": "cosine", "amplitude": 1.0}

        raw = build_model(resolve_config(config))
        assert raw.band_minimum() > 0.1

        config["model"]["align_edge"] = True
        aligned = build_model(resolve_config(config))
        assert abs(aligned.band_minimum()) < 1e-12

    def test_disorder_wiring(self):
        config = _ids_config()
        config["model"]["disorder"] = {"law": "beta", "omega_max": 2.0,
                                       "a": 2.0, "b": 3.0}
        model = build_model(resolve_config(config))
        assert model.disorder.omega_max == 2.0
        assert model.disorder.law == "beta"
        assert model.disorder.master_seed == 7


class TestCli:
    def test_validate_only_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, _ids_config())
        assert main(["ids", "--config", path, "--validate-only"]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["ids", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        assert main(["ids", "--config", str(path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_invalid_config_exits_two_listing_errors(self, tmp_path, capsys):
        config = _ids_config()
        del config["model"]["disorder"]["omega_max"]
        config["experiment"]["energy_points"] = 1
        path = _write(tmp_path, config)
        assert main(["ids", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2
        assert "omega_max" in err

    def test_kind_mismatch_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, _ids_config())
        assert main(["bandstructure", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "declares" in err
        assert "'ids'" in err

    def test_every_kind_parses_and_an_unknown_kind_exits_two(self, capsys):
        parser = _build_parser()
        for kind in EXPERIMENT_KINDS:
            args = parser.parse_args([kind, "--config", "c.yaml", "--seed", "3", "--threads",
                                      "2", "--out", "runs", "--validate-only"])
            assert vars(args) == {"kind": kind, "config": "c.yaml", "seed": 3, "threads": 2,
                                  "out": "runs", "validate_only": True}
        with pytest.raises(SystemExit) as exc:
            main(["no-such-kind", "--config", "c.yaml"])
        assert exc.value.code == 2
        assert "invalid choice: 'no-such-kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,message", [
        ({"kind": "bandstructure", "half_width": 0, "num_bands": 3},
         "experiment.num_bands: must be <= 2"),
        ({"kind": "gap-prob", "sides": [5, 9], "alpha": 0.5, "theta0": [0.5]},
         "experiment.theta0[0]: must lie in [-pi/9, pi/9], got 0.5"),
        ({"kind": "gap-prob", "sides": [5], "alpha": 0.5, "theta0": [0.1, 0.1]},
         "experiment.theta0: expected 1 components, got 2"),
        ({"kind": "theta-bounds", "half_width": 2, "energy": 0.25, "theta0": [0.7],
          "xi": 2.0}, "experiment.theta0[0]: must lie in [-pi/5, pi/5], got 0.7"),
        ({"kind": "m-regularity", "side": 25, "energy": -1.0, "mass": 0.2,
          "eps_probes": []}, "experiment.eps_probes: must not be empty"),
        ({**_hs_check_config()["experiment"], "plateau_order": 3},
         "experiment.plateau_order: must be >= 4, got 3"),
        ({**_hs_check_config()["experiment"], "eps_y": 1e6},
         "experiment.eps_y: unknown key"),
    ], ids=["num_bands", "gap-prob-theta0", "gap-prob-theta0-components",
            "theta-bounds-theta0", "eps_probes", "hs-check-plateau-order",
            "hs-check-quadrature-knob"])
    def test_validate_only_refuses_what_the_run_would_refuse(self, tmp_path, capsys,
                                                             experiment, message):
        config = _ids_config()
        config["experiment"] = experiment
        path = _write(tmp_path, config)
        assert main([experiment["kind"], "--config", path, "--validate-only"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,model,fix,message", [
        ({"kind": "ct-decay", "cells": 5, "z_real": -1.0, "max_distance": 2},
         {"single_site": {"kind": "exponential", "strength": 1.0, "diameter": 2.0,
                          "decay_rate": 800}},
         {"model": {"single_site": {"kind": "exponential", "strength": 1.0, "diameter": 2.0,
                                    "decay_rate": 709.7, "tail_floor": 0.95}}},
         "model.single_site.decay_rate: must keep strength * exp(decay_rate * "
         "diameter / 2) below the largest float, got 800"),
        ({"kind": "gap-prob", "sides": [5], "alpha": 0.5},
         {"v0": {"kind": "cosine", "amplitude": 1.0}},
         {"model": {"align_edge": True}},
         "experiment.kind: gap-prob needs model.align_edge: true to put the lowest "
         "band at 0, as model.v0.kind is cosine"),
        ({**_lifshitz_config()["experiment"], "cells": 2001},
         {"points_per_cell": 10}, {"model": {"points_per_cell": 1}},
         "experiment.cells: a box of 2001 cells per axis: 20010 grid points exceed the "
         "solver budget (20000)"),
        ({key: v for key, v in _ids_diff_config()["experiment"].items()
          if key != "reference_half_width"},
         {"points_per_cell": 1200}, {"model": {"points_per_cell": 2}},
         "experiment.reference_half_width: a box of 17 cells per axis: 20400 grid points "
         "exceed the solver budget (20000)"),
        ({"kind": "ids", "method": "dirichlet", "cells": 5, "energy_min": 0.0,
          "energy_max": 4.2, "energy_points": 11},
         {"single_site": {"kind": "exponential", "strength": 1.0, "diameter": 2.0,
                          "decay_rate": 1e-308}},
         {"model": {"single_site": {"kind": "exponential", "strength": 1.0,
                                    "diameter": 2.0, "decay_rate": 7}}},
         "model.single_site.tail_floor: must keep the bump's truncation radius finite and "
         "at most 10000 cells, the side of the largest box the solver budget admits, got inf"),
        (_hs_check_config()["experiment"], {"points_per_cell": 20001, "align_edge": True},
         {"model": {"align_edge": False}},
         "model.align_edge: the one-cell box of the band-minimum scan: 20001 grid points "
         "exceed the solver budget (20000)"),
        ({**_lifshitz_config()["experiment"], "mass_low": 0.3, "mass_high": 0.2}, {},
         {"experiment": {"mass_low": 0.01, "mass_high": 0.4}},
         "experiment.mass_low: must be below mass_high 0.2, got 0.3"),
        ({**_lifshitz_config()["experiment"], "energy_max": 1.6, "eigen_cutoff": 1.0}, {},
         {"experiment": {"eigen_cutoff": 1.6}},
         "experiment.eigen_cutoff: must be >= 1.6, the top of the energy grid, got 1.0"),
        # the grid ends at edge + (energy_max - edge), one ulp above 0.9 here
        ({**_lifshitz_config()["experiment"], "edge": 0.3, "energy_min": 0.35,
          "energy_max": 0.9, "eigen_cutoff": 0.9}, {},
         {"experiment": {"eigen_cutoff": 0.9000000000000001}},
         "experiment.eigen_cutoff: must be >= 0.9000000000000001, the top of the energy "
         "grid, got 0.9"),
    ], ids=["exponential-peak-overflow", "gap-prob-unaligned-edge", "box-over-budget",
            "derived-reference-over-budget", "exponential-reach-overflow",
            "align-edge-cell-over-budget", "lifshitz-mass-band", "lifshitz-eigen-cutoff",
            "lifshitz-eigen-cutoff-at-rounded-top"])
    def test_validate_only_refuses_a_model_the_run_cannot_use(
        self, tmp_path, capsys, experiment, model, fix, message
    ):
        config = _ids_config()
        config["model"].update(model)
        config["experiment"] = experiment
        path = _write(tmp_path, config)
        assert main([experiment["kind"], "--config", path, "--validate-only"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        for block, values in fix.items():
            config[block].update(values)
        path = _write(tmp_path, config)
        assert main([experiment["kind"], "--config", path, "--out", str(tmp_path)]) == 0

    def test_exponential_bump_whose_peak_over_floor_overflows_runs(self, tmp_path, capsys):
        # strength * e^(decay_rate * diameter / 2) / tail_floor overflows, yet the
        # truncation radius ln(strength / tail_floor) / decay_rate + diameter / 2
        # is 1.99 cells
        config = _ids_config()
        config["model"]["single_site"] = {"kind": "exponential", "strength": 1.0,
                                          "diameter": 2.0, "decay_rate": 700,
                                          "tail_floor": 1e-300}
        config["experiment"] = {"kind": "ids", "method": "dirichlet", "cells": 5,
                                "energy_min": 0.0, "energy_max": 4.2, "energy_points": 11}
        path = _write(tmp_path, config)
        assert main(["ids", "--config", path, "--validate-only"]) == 0
        radius = build_model(resolve_config(config)).single_site.radius
        assert radius == pytest.approx(math.log(1e300) / 700 + 1.0, rel=1e-15)
        assert round(radius, 2) == 1.99
        assert main(["ids", "--config", path, "--out", str(tmp_path)]) == 0

    def test_validate_only_builds_no_model(self, tmp_path, monkeypatch, capsys):
        def scan(*args):
            raise AssertionError("the band-minimum scan ran")

        monkeypatch.setattr(AndersonModel, "band_minimum", scan)
        config = _ids_config()
        config["model"]["align_edge"] = True
        path = _write(tmp_path, config)
        assert main(["ids", "--config", path, "--validate-only"]) == 0

    def test_validate_only_catches_build_failures(self, tmp_path, capsys):
        config = _ids_config()
        config["model"]["v0"] = {"kind": "values", "cell_values": [1.0, 2.0, 3.0]}
        path = _write(tmp_path, config)
        assert main(["ids", "--config", path, "--validate-only"]) == 2
        assert "cell_values" in capsys.readouterr().err

    def test_empty_mass_window_exits_three_with_marker(self, tmp_path, capsys):
        config = _ids_config()
        config["experiment"] = {
            "kind": "lifshitz",
            "cells": 12,
            "energy_min": 0.05,
            "energy_max": 3.0,
            "energy_points": 12,
            "mass_low": 1e-12,
            "mass_high": 1e-11,
        }
        config["execution"]["realizations"] = 2
        path = _write(tmp_path, config)
        out = tmp_path / "runs"

        assert main(["lifshitz", "--config", path, "--out", str(out)]) == 3
        assert "numerical failure:" in capsys.readouterr().err

        markers = list(out.glob("*/FAILED"))
        assert len(markers) == 1
        assert not (markers[0].parent / "result.json").exists()

    @pytest.mark.parametrize("site,message", [
        ("lifshitz_fit", "only 2 usable points"),
        ("combes_thomas", "sits on the spectrum"),
        ("m_regularity", "zero probe would be singular"),
        ("msa_schedule", "recursion stalls"),
        ("msa_exponent", "step 1 leaves the double range"),
    ])
    def test_numerical_failure_sites_exit_three(self, tmp_path, capsys, site, message):
        config = {
            "lifshitz_fit": _lifshitz_config(),
            "combes_thomas": _free_chain_config(
                {"kind": "ct-decay", "cells": 5, "z_real": 2.0, "max_distance": 2}),
            "m_regularity": _free_chain_config(
                {"kind": "m-regularity", "side": 25, "energy": 2.0, "mass": 0.2,
                 "eps_probes": [0.0]}, realizations=1),
            "msa_schedule": _msa_config(zeta=1.01),
            "msa_exponent": yaml.safe_load(
                (Path(__file__).resolve().parent.parent / "configs" / "msa_schedule.yaml")
                .read_text(encoding="utf-8")),
        }[site]
        if site == "lifshitz_fit":
            # two energies carry IDS mass in [0.01, 0.06]: too few to fit
            config["experiment"].update(mass_low=0.01, mass_high=0.06)
        if site == "msa_exponent":
            # the shipped schedule with q0 near the double range: 2 q0 log l0 overflows
            config["experiment"]["q0"] = 1e308
        kind = config["experiment"]["kind"]
        path = _write(tmp_path, config)
        assert main([kind, "--config", path, "--out", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure:" in err
        assert message in err

    def test_a_non_finite_payload_number_leaves_failed_and_exits_three(
        self, tmp_path, monkeypatch, capsys
    ):
        # a producer that returns NaN: the last mean of the ids run
        def nan_mean(samples):
            mean, stderr = mean_stderr(samples)
            mean[-1] = math.nan
            return mean, stderr

        monkeypatch.setattr(runner, "mean_stderr", nan_mean)
        config = _ids_dirichlet_config()
        config["execution"]["threads"] = 1
        with pytest.raises(NumericalFailure, match=r"^ids\.csv: column N is not finite$"):
            runner.run(config, out_root=str(tmp_path / "run"))
        (run_dir,) = (tmp_path / "run").iterdir()
        assert (run_dir / "FAILED").read_text(encoding="utf-8") == (
            "NumericalFailure: ids.csv: column N is not finite\n")
        assert sorted(p.name for p in run_dir.iterdir()) == ["FAILED", "resolved_config.yaml"]

        path = _write(tmp_path, config)
        assert main(["ids", "--config", path, "--out", str(tmp_path / "cli")]) == 3
        assert "numerical failure: ids.csv: column N is not finite" in capsys.readouterr().err
        assert len(list((tmp_path / "cli").glob("*/FAILED"))) == 1

    @pytest.mark.parametrize("errors, passed", [((1e-9, 0.0), True), ((2e-6, 0.0), False)])
    def test_hs_check_with_exact_refined_errors_writes_a_null_gain(
        self, tmp_path, monkeypatch, errors, passed
    ):
        # every refined error 0 leaves no gain to measure: the error bound decides
        monkeypatch.setattr(runner, "_hs_error", lambda *args: errors)
        config = _hs_check_config()
        config["execution"]["threads"] = 1
        envelope = runner.run(config, out_root=str(tmp_path))
        body = json.loads((Path(envelope.directory) / "hs_check.json").read_text("ascii"))
        assert body["refinement_gain"] is None
        assert body["passed"] is passed and envelope.check_passed is passed
        assert envelope.summary.endswith("refined errors all 0, the error bound alone decides")

    @pytest.mark.parametrize("block, key, value", [
        ("model", "dimension", 2), ("experiment", "xi", 0.9), ("experiment", "xi", 1.0),
        ("experiment", "steps", 13), ("experiment", "steps", 40),
    ])
    def test_msa_schedule_mutants_exit_two_or_write_finite_payloads(
        self, tmp_path, capsys, block, key, value
    ):
        shipped = Path(__file__).resolve().parent.parent / "configs" / "msa_schedule.yaml"
        config = yaml.safe_load(shipped.read_text(encoding="utf-8"))
        config[block][key] = value
        out = tmp_path / "runs"
        code = main(["msa-schedule", "--config", _write(tmp_path, config), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            (run_dir,) = out.iterdir()

            def refuse(constant):
                raise AssertionError(f"schedule.json holds {constant}")

            body = json.loads((run_dir / "schedule.json").read_text(encoding="ascii"),
                              parse_constant=refuse)
            assert all(map(math.isfinite, body["masses"] + body["exponents"]))
            rows = (run_dir / "schedule.csv").read_text(encoding="ascii").splitlines()
            values = [float(v) for row in rows if row[0].isdigit() for v in row.split(",")[2:]]
            assert len(values) == 2 * (config["experiment"]["steps"] + 1)
            assert all(map(math.isfinite, values))

    @pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
    def test_other_exceptions_are_not_numerical_failures(self, tmp_path, monkeypatch,
                                                         error):
        def broken(*args):
            raise error("injected")

        monkeypatch.setitem(runner._DISPATCH, "ids", broken)
        path = _write(tmp_path, _ids_config())
        with pytest.raises(error, match="injected"):
            main(["ids", "--config", path, "--out", str(tmp_path / "runs")])

    def test_failing_check_exits_four(self, tmp_path, capsys):
        config = _ids_config()
        config["model"]["disorder"]["omega_max"] = 0.0
        config["experiment"] = {
            "kind": "theta-bounds",
            "half_width": 2,
            "energy": 4.1e-4,
            "theta_resolution": 2,
            "theta0": [0.02],
            "xi": 0.0,
        }
        config["execution"]["realizations"] = 1
        path = _write(tmp_path, config)
        out = tmp_path / "runs"

        assert main(["theta-bounds", "--config", path, "--out", str(out)]) == 4
        assert "check failed" in capsys.readouterr().err

    def _run_and_read(self, tmp_path, name, threads, config=None):
        config = config or _ids_config()
        kind = config["experiment"]["kind"]
        path = _write(tmp_path, config, name=f"{name}.yaml")
        out = tmp_path / name
        code = main([kind, "--config", path, "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        results = list(out.glob("*/result.json"))
        assert len(results) == 1
        return json.loads(results[0].read_text(encoding="ascii"))

    @pytest.mark.parametrize(
        "config",
        [_ids_config(), _gap_prob_config(), _theta_bounds_config(), _lifshitz_config(),
         _ids_diff_config(), _hs_check_config(), _m_regularity_config()],
        ids=["ids", "gap-prob", "theta-bounds", "lifshitz", "ids-diff", "hs-check",
             "m-regularity"],
    )
    def test_thread_count_does_not_change_payloads(self, tmp_path, capsys, config):
        serial = self._run_and_read(tmp_path, "serial", threads=1, config=config)
        threaded = self._run_and_read(tmp_path, "threaded", threads=2, config=config)

        assert serial["payloads"] == threaded["payloads"]
        assert serial["config_hash"] == threaded["config_hash"]
        for name, entry in serial["payloads"].items():
            assert set(entry) == {"path", "sha256"}
            assert len(entry["sha256"]) == 64

    @pytest.mark.parametrize(
        "config",
        [_ids_config(), _ids_dirichlet_config(), _gap_prob_config(), _theta_bounds_config(),
         _lifshitz_config(), _ids_diff_config(), _hs_check_config(), _m_regularity_config()],
        ids=["ids", "ids-dirichlet", "gap-prob", "theta-bounds", "lifshitz", "ids-diff",
             "hs-check", "m-regularity"],
    )
    def test_a_run_starts_at_most_one_pool(self, tmp_path, monkeypatch, config):
        starts = []
        init = multiprocessing.pool.Pool.__init__

        def counted(self, *args, **kwargs):
            starts.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counted)
        config["execution"]["threads"] = 2
        runner.run(config, out_root=str(tmp_path))
        assert len(starts) <= 1

    @pytest.mark.parametrize("config", [
        _gap_prob_config(),
        {**_gap_prob_config(), "experiment": {**_gap_prob_config()["experiment"],
                                              "theta0": [0.1]}},
        _theta_bounds_config(),
        _ids_config(),
        _ids_diff_config(),
        {**_ids_config(), "experiment": {"kind": "bandstructure", "half_width": 1,
                                         "resolution": 9, "num_bands": 2}},
    ], ids=["gap-prob", "gap-prob-theta0", "theta-bounds", "ids-brillouin", "ids-diff",
            "bandstructure"])
    def test_no_run_assembles_a_sparse_wrapped_box(self, tmp_path, monkeypatch, config):
        # every wrapped box of a run is the Bloch operator of zone_spectra
        def sparse(*args):
            raise AssertionError("a run assembled a sparse wrapped box")

        monkeypatch.setattr(model_module, "assemble_periodic_approx", sparse)
        runner.run(copy.deepcopy(config), out_root=str(tmp_path))

    def test_theta_bounds_counts_every_ring_in_one_sweep(self, tmp_path, monkeypatch):
        # both checks read one count of each realization at the zone nodes and
        # theta0; the 1D rings are counted without eigenvalues
        sweeps = []
        sturm_count = model_module._sturm_count

        def counted(diag, off, energies, wrap=None):
            sweeps.append((np.shape(diag), wrap is not None))
            return sturm_count(diag, off, energies, wrap)

        def solved(*args):
            raise AssertionError("a 1D wrapped box was counted from its eigenvalues")

        monkeypatch.setattr(model_module, "_sturm_count", counted)
        monkeypatch.setattr(hamiltonian.AssembledHamiltonian, "bloch_spectra", solved)
        config = _theta_bounds_config()
        config["execution"]["threads"] = 1  # the counter lives in this process
        runner.run(config, out_root=str(tmp_path))
        m = config["execution"]["realizations"]
        exp = config["experiment"]
        points = (2 * exp["half_width"] + 1) * config["model"]["points_per_cell"]
        # one thread maps one chunk: every (realization, node) ring in one call
        assert sweeps == [((m, exp["theta_resolution"] + 1, points), True)]

    def test_lifshitz_assembles_h0_once_for_all_realizations(self, tmp_path, monkeypatch):
        # every realization adds its couplings to one shared Dirichlet H0
        calls = []

        def counted(*args):
            calls.append(args)
            return hamiltonian.assemble_h0(*args)

        model_module._h0_memo.cache_clear()
        monkeypatch.setattr(model_module, "assemble_h0", counted)
        config = _lifshitz_config()
        config["execution"]["threads"] = 1  # the counter lives in this process
        runner.run(config, out_root=str(tmp_path))
        assert config["execution"]["realizations"] > 1
        assert len(calls) == 1

    def test_result_envelope_fields(self, tmp_path, capsys):
        body = self._run_and_read(tmp_path, "envelope", threads=1)
        assert set(body) >= {"kind", "config_hash", "version", "wall_time_s",
                             "directory", "payloads", "summary", "environment",
                             "check"}
        assert body["kind"] == "ids"
        assert body["environment"] == environment()
        assert body["wall_time_s"] >= 0.0
