"""Every BENCH_*.json at the repository root has the layout that
tools/bench_pairs.py writes; nothing is run."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def test_every_bench_file_has_the_schema():
    assert BENCH_FILES, "the BENCH trajectory has no file"
    for path in BENCH_FILES:
        doc = json.loads(path.read_text(encoding="ascii"))
        assert bench_pairs.check_bench_file(doc, RUN_SECONDS) == [], path.name
        assert path.name == f"BENCH_{doc['change'][:7]}.json"
        for name, entry in doc["workloads"].items():
            for metric, m in entry["metrics"].items():
                # the recorded verdict follows from the recorded runs
                again = bench_pairs.compare(m["parent"]["runs"], m["change"]["runs"], m["better"])
                assert again["gain_shown"] == m["gain_shown"], (path.name, name, metric)


def test_the_schema_check_finds_damage():
    doc = json.loads(BENCH_FILES[0].read_text(encoding="ascii"))
    workload = next(iter(doc["workloads"]))
    damaged = copy.deepcopy(doc)
    del damaged["machine"]
    entry = damaged["workloads"][workload]
    entry["parent"]["failed"] = entry["parent"]["attempted"] + 1
    metric = next(iter(entry["metrics"].values()))
    metric["change"]["runs"].pop()
    metric["parent"]["q1"] = metric["parent"]["q3"] + 1.0
    damaged["settings"].update(pairs=1, seconds=RUN_SECONDS / 2, shipped_runs=3)
    problems = bench_pairs.check_bench_file(damaged, RUN_SECONDS)
    assert any(p.startswith("machine") for p in problems)
    assert any("failed outside" in p for p in problems)
    assert any("not one run per pair" in p for p in problems)
    assert any("quartiles out of order" in p for p in problems)
    for key in ("pairs", "seconds", "shipped_runs"):
        assert any(p.startswith(f"settings.{key}: expected") for p in problems), key


def test_a_file_of_fewer_pairs_is_refused():
    doc = json.loads(BENCH_FILES[0].read_text(encoding="ascii"))
    for entry in doc["workloads"].values():
        for m in entry["metrics"].values():
            m["pairs"] = 1
            m["change_better"] = min(m["change_better"], 1)
            for side in bench_pairs.SIDES:
                m[side] = bench_pairs.summary(m[side]["runs"][:1])
    problems = bench_pairs.check_bench_file(doc, RUN_SECONDS)
    assert any(p.endswith(".pairs: expected 10, got 1") for p in problems)


def _shipped_blocks(doc):
    """The shipped-config blocks of ``doc`` that hold runs."""
    return [entry[side] for entry in doc["shipped"].values() for side in bench_pairs.SIDES
            if "runs" in entry[side]]


def test_process_seconds_are_checked_where_recorded():
    # files written before tools/bench_pairs.py timed whole CLI processes
    # carry no shipped process_s and stay valid (the schema test above
    # checks them all); a file that has it must give a sound summary with
    # one run per wall_time_s run
    docs = [json.loads(path.read_text(encoding="ascii")) for path in BENCH_FILES]
    older = [doc for doc in docs if not any("process_s" in b for b in _shipped_blocks(doc))]
    assert len(older) >= 4
    doc = older[0]
    blocks = _shipped_blocks(doc)
    for block in blocks:
        block["process_s"] = bench_pairs.summary([v + 0.5 for v in block["runs"]])
    assert bench_pairs.check_bench_file(doc, RUN_SECONDS) == []
    blocks[0]["process_s"]["runs"].pop()
    blocks[1]["process_s"]["q1"] = "fast"
    problems = bench_pairs.check_bench_file(doc, RUN_SECONDS)
    assert any(p.endswith("process_s: expected one run per wall_time_s run") for p in problems)
    assert any(p.endswith("process_s.q1: expected a number") for p in problems)


def test_failed_seeds_are_checked_where_recorded():
    # files written before tools/bench_pairs.py kept the failed master seeds
    # and the rounds of each pair have neither and stay valid (the schema
    # test above checks them all); a file that has them must give master
    # seeds no more than the failed rounds, and one round count per pair
    docs = [json.loads(path.read_text(encoding="ascii")) for path in BENCH_FILES]
    older = [doc for doc in docs if not any(
        "failed_seeds" in entry[side] for entry in doc["workloads"].values()
        for side in bench_pairs.SIDES)]
    assert len(older) >= 6
    doc = older[-1]
    for entry in doc["workloads"].values():
        for side in bench_pairs.SIDES:
            counts = entry[side]
            counts["failed_seeds"] = list(range(61000, 61000 + counts["failed"]))
            counts["rounds"] = [counts["attempted"] // bench_pairs.PAIRS] * bench_pairs.PAIRS
    assert bench_pairs.check_bench_file(doc, RUN_SECONDS) == []
    first, second = (entry["change"] for entry in list(doc["workloads"].values())[:2])
    first["failed_seeds"].extend([1, 2] * (first["attempted"] + 1))
    second["rounds"] = second["rounds"][:-1] + ["many"]
    problems = bench_pairs.check_bench_file(doc, RUN_SECONDS)
    assert any(p.endswith("failed_seeds: more seeds than failed rounds") for p in problems)
    assert any(p.endswith(f"rounds: expected {bench_pairs.PAIRS} round counts")
               for p in problems)


def test_failed_rounds_are_read_from_the_bench_log():
    log = ("round 3: randschrod exited 4: refinement gain 3.1 below 4\n"
           "round 17: randschrod exited 4: refinement gain 2.9 below 4\n"
           "hs-quadrature: 20 round(s), wall_s per round [0.04]\n")
    assert bench_pairs.round_failures(log, 61) == ([61003, 61017], 20)
    assert bench_pairs.round_failures("", 5) == ([], None)


def test_seeds_failed_on_one_side_count_only_rounds_both_sides_ran():
    # pair 0 (seed 7): the parent ran rounds 0..4 and the change 0..2, so
    # the parent's seed 7004 says nothing of the change
    doc = {"settings": {"seed_base": 7}, "workloads": {"w": {
        "parent": {"failed_seeds": [7001, 7004, 8000], "rounds": [5, 3]},
        "change": {"failed_seeds": [7001, 8002], "rounds": [3, 3]}}}}
    assert bench_pairs.one_sided_seeds(doc, "w") == {"parent": [8000], "change": [8002]}
