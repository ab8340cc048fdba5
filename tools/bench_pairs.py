"""Alternating parent/change pairs of the benchmark, written to BENCH_<short-sha>.json.

    python tools/bench_pairs.py --parent REV [--change REV] [--seed-base 0]
        [--workloads a,b]

Run from a randschrod git checkout.  Both revisions are unpacked with
``git archive`` into a work directory, and ``bench/run.py`` of each tree is
run there exactly as it is, for ``run_seconds`` of BENCHMARK.json, once per
side for each of 10 pairs and every workload.  Odd pairs run the parent
first and even pairs the change; pair i uses the seed ``seed_base + i`` on
both sides.  Then each shipped config under ``configs/`` runs 5 times per
side, alternating in the same way, at 1 thread.  Its ``wall_time_s`` is
read from result.json and starts after the model is built; ``process_s``
times the whole CLI process, interpreter start and imports included.

The file holds a machine block, the per-workload metrics (median and
quartiles of each side, pairs where the change was lower, failed and
attempted operations, the master seeds of the failed rounds and the rounds
of each pair) and the shipped-config wall and process times.  A gain counts
when the change is better in at least 9 of 10 pairs and the medians differ
by more than the parent's interquartile range (``gain_shown``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = 1
SIDES = ("parent", "change")
PAIRS = 10  # alternating pairs per workload
SHIPPED_RUNS = 5  # runs per side of each shipped config
GAIN_SHARE = 0.9  # share of pairs the change must win for a gain
# bench/run.py gives round k of a run at --seed N the master seed 1000 N + k
ROUND_SEEDS = 1000
# BLAS pinned as bench/run.py pins it, for the shipped-config runs
_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(repo: Path, rev: str, dest: Path) -> Path:
    """The tree of ``rev`` written out under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
    }


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs, and the runs."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pairs the change won, and whether that shows a gain by the pair rule."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p, c = summary(parent), summary(change)
    shift = sign * (p["median"] - c["median"])
    return {
        "change_better": wins,
        "pairs": len(parent),
        "parent_iqr_share": (p["q3"] - p["q1"]) / p["median"] if p["median"] else None,
        "median_change_share": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "gain_shown": wins >= GAIN_SHARE * len(parent) and shift > p["q3"] - p["q1"],
    }


def round_failures(stderr: str, seed: int) -> tuple[list[int], int | None]:
    """(master seeds of the failed rounds, rounds run) of one bench/run.py run
    at ``--seed seed``, read from its standard error: a failed round k
    prints ``round k: randschrod exited N``, and the run ends with
    ``<workload>: R round(s), ...``."""
    failed = [ROUND_SEEDS * seed + int(k)
              for k in re.findall(r"^round (\d+): randschrod exited", stderr, re.M)]
    rounds = re.search(r"^\S+: (\d+) round\(s\),", stderr, re.M)
    return failed, int(rounds.group(1)) if rounds else None


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=600 + 20 * seconds,
    )
    if out.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {out.returncode}: {out.stderr[-2000:]}")
    failed_seeds, rounds = round_failures(out.stderr, seed)
    return {**json.loads(out.stdout.strip().splitlines()[-1]),
            "failed_seeds": failed_seeds, "rounds": rounds}


def shipped_once(tree: Path, config: Path,
                 out_root: Path) -> tuple[float | None, float, int]:
    """(wall_time_s from result.json or None, seconds of the whole process,
    exit code) of one CLI run at 1 thread."""
    import yaml

    kind = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]["kind"]
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "randschrod.cli", kind, "--config", str(config), "--threads",
         "1", "--out", str(out_root)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
    )
    process_s = time.perf_counter() - started
    results = list(out_root.glob("*/result.json"))
    wall = json.loads(results[0].read_text())["wall_time_s"] if len(results) == 1 else None
    return wall, process_s, out.returncode


def _alternate(index: int) -> tuple[str, str]:
    """Sides in the order pair ``index`` runs them: odd pairs run the parent first."""
    return SIDES if index % 2 == 1 else SIDES[::-1]


def run_pairs(trees: dict, spec: dict, args) -> dict:
    workloads = {}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in _alternate(i):
                runs[side].append(bench_once(trees[side], workload, args.seed_base + i,
                                             spec["run_seconds"]))
            print(f"{workload} pair {i}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics']['wall_s']['value']:.4g} s"
                for side in SIDES), file=sys.stderr)
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **{side: summary(values[side]) for side in SIDES},
                **compare(values["parent"], values["change"], metric["better"]),
            }
        workloads[workload] = {
            "metrics": metrics,
            **{side: {"failed": sum(r["failed"] for r in runs[side]),
                      "attempted": sum(r["attempted"] for r in runs[side]),
                      "correct": all(r["correct"] for r in runs[side]),
                      "failed_seeds": [s for r in runs[side] for s in r["failed_seeds"]],
                      "rounds": [r["rounds"] for r in runs[side]]} for side in SIDES},
        }
    return workloads


def run_shipped(trees: dict, work: Path) -> dict:
    shipped = {}
    configs = sorted((trees["change"] / "configs").glob("*.yaml"))
    for config in configs:
        walls = {side: [] for side in SIDES}
        processes = {side: [] for side in SIDES}
        failed = {side: 0 for side in SIDES}
        for i in range(SHIPPED_RUNS):
            for side in _alternate(i):
                out_root = work / "shipped" / f"{config.stem}-{side}-{i}"
                wall, process_s, code = shipped_once(
                    trees[side], trees[side] / "configs" / config.name, out_root)
                failed[side] += code != 0
                if wall is not None:
                    walls[side].append(wall)
                    processes[side].append(process_s)
        shipped[config.stem] = {
            side: {**summary(walls[side]), "process_s": summary(processes[side]),
                   "failed": failed[side], "attempted": SHIPPED_RUNS} if walls[side] else
                  {"failed": failed[side], "attempted": SHIPPED_RUNS}
            for side in SIDES}
        print(f"{config.stem}: " + ", ".join(
            f"{side} {shipped[config.stem][side].get('median', math.nan):.4g} s"
            for side in SIDES), file=sys.stderr)
    return shipped


def one_sided_seeds(doc: dict, workload: str) -> dict:
    """Per side, the failed master seeds of ``workload`` that the other side
    ran and passed; empty lists where the file has no seeds or rounds."""
    entry = doc["workloads"][workload]
    if not all("failed_seeds" in entry[s] and "rounds" in entry[s] for s in SIDES):
        return {side: [] for side in SIDES}
    seed_base = doc["settings"]["seed_base"]

    def ran(side: str, master: int) -> bool:
        pair, k = divmod(master, ROUND_SEEDS)
        rounds = entry[side]["rounds"]
        return 0 <= pair - seed_base < len(rounds) and k < (rounds[pair - seed_base] or 0)

    failed = {side: set(entry[side]["failed_seeds"]) for side in SIDES}
    return {side: sorted(s for s in failed[side] - failed[other] if ran(other, s))
            for side, other in zip(SIDES, SIDES[::-1])}


def report(doc: dict) -> None:
    """Each workload metric against its bound, with the parent's own spread,
    then each side's failed share of rounds."""
    print(f"{'workload':16} {'metric':12} {'parent':>10} {'change':>10} {'move':>8} "
          f"{'better':>7} {'IQR/med':>8} {'bound':>6}  gain")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            iqr = m["parent_iqr_share"]
            move = m["median_change_share"]
            print(f"{workload:16} {name:12} {m['parent']['median']:10.4g} "
                  f"{m['change']['median']:10.4g} "
                  f"{'' if move is None else f'{move:+.1%}':>8} "
                  f"{m['change_better']:>3}/{m['pairs']:<3} "
                  f"{'' if iqr is None else f'{iqr:.1%}':>8} {m['bound']:6.0%}  "
                  f"{'yes' if m['gain_shown'] else 'no'}")
    for workload, entry in doc["workloads"].items():
        shares = {side: entry[side]["failed"] / entry[side]["attempted"]
                  if entry[side]["attempted"] else 0.0 for side in SIDES}
        only = one_sided_seeds(doc, workload)
        print(f"{workload:16} failed " + "  ".join(
            f"{side} {entry[side]['failed']}/{entry[side]['attempted']} ({shares[side]:.2%})"
            for side in SIDES)
            + ("  CHANGE HIGHER" if shares["change"] > shares["parent"] else "")
            + "".join(f"  {side} only: {only[side]}" for side in SIDES if only[side]))
    for stem, entry in doc["shipped"].items():
        print(f"shipped {stem:24} " + "  ".join(
            f"{side} {entry[side].get('median', math.nan):.4g} s "
            f"(process {entry[side].get('process_s', {}).get('median', math.nan):.4g} s)"
            for side in SIDES))


def _check_summary(where: str, block, problems: list[str]) -> None:
    if not isinstance(block, dict):
        problems.append(f"{where}: expected a summary object")
        return
    for key in ("median", "q1", "q3"):
        if not isinstance(block.get(key), (int, float)):
            problems.append(f"{where}.{key}: expected a number")
    runs = block.get("runs")
    if not isinstance(runs, list) or not runs or not all(
            isinstance(v, (int, float)) for v in runs):
        problems.append(f"{where}.runs: expected a nonempty list of numbers")
    elif not all(isinstance(block.get(k), (int, float)) for k in ("q1", "median", "q3")):
        return
    elif not min(runs) <= block["q1"] <= block["median"] <= block["q3"] <= max(runs):
        problems.append(f"{where}: quartiles out of order")


def _check_rounds(where: str, counts: dict, problems: list[str]) -> None:
    """The failed seeds and rounds per pair of one side, where recorded:
    files written before they were recorded have neither."""
    seeds = counts.get("failed_seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not all(
                isinstance(s, int) and s >= 0 for s in seeds):
            problems.append(f"{where}.failed_seeds: expected a list of master seeds")
        elif len(seeds) > counts["failed"]:
            problems.append(f"{where}.failed_seeds: more seeds than failed rounds")
    rounds = counts.get("rounds")
    if rounds is not None:
        if not isinstance(rounds, list) or len(rounds) != PAIRS or not all(
                isinstance(r, int) and r >= 0 for r in rounds):
            problems.append(f"{where}.rounds: expected {PAIRS} round counts")
        elif sum(rounds) > counts["attempted"]:
            problems.append(f"{where}.rounds: more rounds than attempted operations")


def check_bench_file(doc, run_seconds: float) -> list[str]:
    """Every problem with one BENCH file: its layout, and settings other
    than 10 pairs of ``run_seconds`` runs and 5 shipped runs per side.
    Empty when it is sound."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["root: expected an object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema: expected {SCHEMA}")
    for key in ("parent", "change"):
        if not isinstance(doc.get(key), str) or len(doc.get(key, "")) < 7:
            problems.append(f"{key}: expected a commit id")
    settings = doc.get("settings")
    if not isinstance(settings, dict) or not all(
            isinstance(settings.get(k), (int, float)) for k in
            ("pairs", "seconds", "seed_base", "shipped_runs")):
        problems.append("settings: expected pairs, seconds, seed_base and shipped_runs")
    else:
        if settings["pairs"] != PAIRS:
            problems.append(f"settings.pairs: expected {PAIRS}, got {settings['pairs']}")
        if settings["seconds"] != run_seconds:
            problems.append(f"settings.seconds: expected {run_seconds}, got {settings['seconds']}")
        if settings["shipped_runs"] != SHIPPED_RUNS:
            problems.append(f"settings.shipped_runs: expected {SHIPPED_RUNS}, "
                            f"got {settings['shipped_runs']}")
    mach = doc.get("machine")
    if not isinstance(mach, dict) or not all(
            k in mach for k in ("cpu", "cpu_count", "python", "numpy", "scipy", "blas")):
        problems.append("machine: expected cpu, cpu_count, python, numpy, scipy and blas")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict):
        problems.append("workloads: expected an object")
        workloads = {}
    for name, entry in workloads.items():
        where = f"workloads.{name}"
        for side in SIDES:
            counts = entry.get(side) if isinstance(entry, dict) else None
            if not isinstance(counts, dict) or not all(
                    isinstance(counts.get(k), int) for k in ("failed", "attempted")):
                problems.append(f"{where}.{side}: expected failed and attempted counts")
            elif not 0 <= counts["failed"] <= counts["attempted"]:
                problems.append(f"{where}.{side}: failed outside [0, attempted]")
            else:
                _check_rounds(f"{where}.{side}", counts, problems)
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        if not isinstance(metrics, dict) or not metrics:
            problems.append(f"{where}.metrics: expected a nonempty object")
            continue
        for metric, m in metrics.items():
            at = f"{where}.metrics.{metric}"
            if not isinstance(m, dict):
                problems.append(f"{at}: expected an object")
                continue
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"{at}.better: expected lower or higher")
            for side in SIDES:
                _check_summary(f"{at}.{side}", m.get(side), problems)
            pairs, wins = m.get("pairs"), m.get("change_better")
            if not (isinstance(pairs, int) and isinstance(wins, int) and 0 <= wins <= pairs):
                problems.append(f"{at}: expected 0 <= change_better <= pairs")
            elif pairs != PAIRS:
                problems.append(f"{at}.pairs: expected {PAIRS}, got {pairs}")
            elif any(isinstance(m.get(s), dict) and len(m[s].get("runs", ())) != pairs
                     for s in SIDES):
                problems.append(f"{at}: a side has not one run per pair")
            if not isinstance(m.get("gain_shown"), bool):
                problems.append(f"{at}.gain_shown: expected a boolean")
    shipped = doc.get("shipped")
    if not isinstance(shipped, dict):
        problems.append("shipped: expected an object")
        shipped = {}
    for stem, entry in shipped.items():
        for side in SIDES:
            block = entry.get(side) if isinstance(entry, dict) else None
            if not isinstance(block, dict) or block.get("attempted") != SHIPPED_RUNS:
                problems.append(f"shipped.{stem}.{side}: expected {SHIPPED_RUNS} attempted runs")
            elif "runs" in block:
                _check_summary(f"shipped.{stem}.{side}", block, problems)
                # files written before process_s was recorded have none
                process = block.get("process_s")
                if process is not None:
                    where = f"shipped.{stem}.{side}.process_s"
                    _check_summary(where, process, problems)
                    runs = process.get("runs") if isinstance(process, dict) else None
                    if (isinstance(runs, list) and isinstance(block["runs"], list)
                            and len(runs) != len(block["runs"])):
                        problems.append(f"{where}: expected one run per wall_time_s run")
    return problems


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="revision measured as the parent")
    p.add_argument("--change", default="HEAD", help="revision measured as the change")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--workloads", default=None,
                   help="comma-separated workloads (default: all of BENCHMARK.json)")
    p.add_argument("--work", default=None, help="directory for the unpacked trees")
    p.add_argument("--out", default=None, help="output file (default: BENCH_<sha>.json)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    shas = {"parent": _git("rev-parse", args.parent, cwd=repo),
            "change": _git("rev-parse", args.change, cwd=repo)}
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        work = Path(tmp)
        trees = {side: unpack(repo, shas[side], work / side) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        args.workloads = names if args.workloads is None else args.workloads.split(",")
        unknown = set(args.workloads) - set(names)
        if unknown:
            raise SystemExit(f"unknown workload(s): {sorted(unknown)}")
        started = time.time()
        doc = {
            "schema": SCHEMA,
            **shas,
            "settings": {"pairs": PAIRS, "seconds": spec["run_seconds"],
                         "seed_base": args.seed_base,
                         "shipped_runs": SHIPPED_RUNS,
                         "order": "odd pairs run the parent first",
                         "gain_rule": f"change better in >= {GAIN_SHARE:.0%} of pairs and "
                                      "the medians apart by more than the parent IQR"},
            "machine": machine(),
            "workloads": run_pairs(trees, spec, args),
            "shipped": run_shipped(trees, work),
        }
        doc["settings"]["elapsed_s"] = round(time.time() - started, 1)
    problems = check_bench_file(doc, spec["run_seconds"])
    if problems:
        raise SystemExit("bench_pairs: malformed output: " + "; ".join(problems))
    out = Path(args.out) if args.out else repo / f"BENCH_{shas['change'][:7]}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")
    report(doc)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
