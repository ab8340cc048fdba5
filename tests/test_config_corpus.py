"""Mutation corpus for config validation.

Each shipped config is mutated one step at a time: every key deleted,
every leaf set to a string, True, None, 0, -1, a large value and a
one-element list, an unknown key added to every block, and every tag
(``kind``, ``law``, ``method``) switched to each other value.  The test
pins, for each mutant, the sorted ``validate_config`` messages and, when
it validates, the sha256 of its resolved config.  Validation never
raises, and every mutant that validates resolves and builds its model.

Regenerate the recorded file only when a validation rule changes on
purpose, and list every moved entry in CHANGES.md:

    PYTHONPATH=src python tests/test_config_corpus.py --record
"""

import copy
import hashlib
import json
import os
import sys
from pathlib import Path
from unittest import mock

import yaml

from randschrod.config import (
    EXPERIMENT_KINDS,
    build_model,
    load_config,
    resolve_config,
    validate_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CORPUS = Path(__file__).resolve().parent / "config_corpus.json"

_LEAF_VALUES = ("x", True, None, 0, -1, 10**6)
_TAGS = {
    "kind": {"experiment": EXPERIMENT_KINDS,
             "v0": ("zero", "cosine", "values"),
             "single_site": ("box", "exponential")},
    "law": {"disorder": ("uniform", "beta")},
    "method": {"experiment": ("brillouin", "dirichlet")},
}


def _name(path):
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else ("." if text else "") + part
    return text or "config"


def _holder(config, path):
    """The block or list that holds the item at ``path``."""
    for part in path[:-1]:
        config = config[part]
    return config


def _mutants(base):
    """Yield (label, config) for every one-step mutation of ``base``."""
    blocks, leaves, tags = [], [], []

    def walk(node, path):
        blocks.append(path)
        for key, value in node.items():
            if isinstance(value, dict):
                walk(value, path + (key,))
                continue
            leaves.append(path + (key,))
            if isinstance(value, list):
                leaves.extend(path + (key, i) for i in range(len(value)))
            owner = path[-1] if path else ""
            if owner in _TAGS.get(key, {}):
                tags.append((path + (key,), _TAGS[key][owner], value))

    walk(base, ())
    for path in blocks[1:] + leaves:
        if isinstance(path[-1], str):
            config = copy.deepcopy(base)
            del _holder(config, path)[path[-1]]
            yield f"delete {_name(path)}", config
    for path in leaves:
        original = _holder(base, path)[path[-1]]
        for value in _LEAF_VALUES + ([original],):
            config = copy.deepcopy(base)
            _holder(config, path)[path[-1]] = copy.deepcopy(value)
            yield f"set {_name(path)}={value!r}", config
    for path in blocks:
        config = copy.deepcopy(base)
        _holder(config, path + ("unknown_key",))["unknown_key"] = 1
        yield f"unknown key in {_name(path)}", config
    for path, values, current in tags:
        for value in values:
            if value != current:
                config = copy.deepcopy(base)
                _holder(config, path)[path[-1]] = value
                yield f"switch {_name(path)}={value}", config


def _outcome(config):
    """(sorted messages, resolved digest); a config that validates must
    also resolve and build its model."""
    errors = sorted(validate_config(config))
    if errors:
        return errors, None
    resolved = resolve_config(config)
    build_model(resolved)
    text = json.dumps(resolved, sort_keys=True)
    return errors, hashlib.sha256(text.encode("utf-8")).hexdigest()


def generate():
    """Map 'config | mutation' to its validation record."""
    records = {}
    # the threads default is os.cpu_count(); pin it so the digests do not
    # depend on the machine
    with mock.patch.object(os, "cpu_count", return_value=1):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            base = load_config(str(path))
            base["execution"]["threads"] = 1
            for label, config in [("unchanged", base), *_mutants(base)]:
                errors, digest = _outcome(config)
                records[f"{path.stem} | {label}"] = {"errors": errors, "resolved": digest}
    return records


def test_mutation_corpus_matches_the_record():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    records = generate()
    assert sorted(records) == sorted(recorded)
    moved = [key for key in records if records[key] != recorded[key]]
    assert not moved, "\n".join(
        f"{key}: {recorded[key]} -> {records[key]}" for key in moved[:20]
    )


def test_libyaml_writes_what_the_python_dumper_does():
    # a run writes resolved_config.yaml with libyaml's emitter where PyYAML
    # has it: every shipped config and mutant, raw and resolved, must come
    # out as the pure-Python dumper writes it
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        base = load_config(str(path))
        for label, config in [("unchanged", base), *_mutants(base)]:
            documents = [config] if validate_config(config) else [config, resolve_config(config)]
            for doc in documents:
                text = yaml.safe_dump(doc, sort_keys=True)
                assert yaml.dump(doc, Dumper=dumper, sort_keys=True) == text, label



def _typed(node):
    """``node`` with the type of every value beside it, so 1 and 1.0 and True differ."""
    if isinstance(node, dict):
        return {key: _typed(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_typed(value) for value in node]
    return type(node).__name__, node


def test_libyaml_reads_what_the_python_loader_does():
    # load_config parses with libyaml where PyYAML has it: every shipped
    # file and every mutant, dumped to YAML, must give the pure-Python
    # loader's objects, types included
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        base = yaml.safe_load(text)
        assert _typed(yaml.load(text, Loader=loader)) == _typed(base), path.name
        for label, config in _mutants(base):
            text = yaml.safe_dump(config, sort_keys=True)
            assert _typed(yaml.load(text, Loader=loader)) == _typed(yaml.safe_load(text)), label


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    records = generate()
    lines = (f"{json.dumps(key)}: {json.dumps(records[key])}" for key in sorted(records))
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
