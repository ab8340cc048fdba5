"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the result line is well formed and names every metric BENCHMARK.json
declares, with its unit.  Then checks that the correctness checks catch a
deliberately wrong count: one Dirichlet count off by one, and a zone-theta
report whose eigenvalue count is one too high.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def _fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def check_result_lines(root: Path, spec: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                 timeout=180)
            if out.returncode != 0:
                _fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True:
                _fail(f"{workload} trace={trace}: a correctness check failed: {out.stderr}")
            probes = result["attempted"] // 2 if workload == "dirichlet-tail" else 0
            if result["attempted"] < 1 or result["failed"] != probes:
                _fail(f"{workload}: {result['failed']} of {result['attempted']} failed")
            metrics = result["metrics"]
            units = {k: v["unit"] for k, v in metrics.items()}
            if units != declared[trace]:
                _fail(f"{workload} trace={trace}: metrics {units} != {declared[trace]}")
            for name, m in metrics.items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    _fail(f"{workload}: {name} = {m['value']}")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                _fail(f"{workload}: an end-to-end metric is not positive: {metrics}")
            print(f"ok   {workload} trace={trace}: {result['attempted']} attempted, "
                  f"{len(metrics)} metrics")


def check_wrong_counts_fail(root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    import yaml

    import workloads
    from randschrod import cli
    from randschrod.config import build_model, load_config, resolve_config

    # a Dirichlet count off by one
    w = workloads.WORKLOADS["dirichlet-tail"]
    resolved = resolve_config(workloads.apply_sizes(load_config(str(root / w.config)), w.tiny))
    program, oracle = workloads.dirichlet_counts(resolved, build_model(resolved), 0)
    if workloads.compare_counts(program, oracle, "counts"):
        _fail("Dirichlet counts of the program and the dense solve differ")
    wrong = program.copy()
    wrong[len(wrong) // 2] += 1
    if not workloads.compare_counts(wrong, oracle, "counts"):
        _fail("a Dirichlet count off by one passed the check")
    print("ok   a wrong Dirichlet count fails its check")

    # a zone-theta report that counts one eigenvalue too many
    w = workloads.WORKLOADS["zone-theta"]
    config = workloads.apply_sizes(load_config(str(root / w.config)), w.tiny)
    config["execution"]["threads"] = 1
    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        path = work / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["theta-bounds", "--config", str(path), "--out", str(work / "runs")])
        if code != 0:
            _fail(f"tiny zone-theta run exited {code}")
        (run_dir,) = (work / "runs").iterdir()
        resolved = resolve_config(config)
        model = build_model(resolved)
        if workloads.check_zone_theta(resolved, run_dir, model):
            _fail("the untouched zone-theta report fails its check")
        report_path = run_dir / "theta_bounds.json"
        report = json.loads(report_path.read_text())
        exp = resolved["experiment"]
        length = 2 * exp["half_width"] + 1
        one_count = 2 * math.pi / (length * exp["theta_resolution"]
                                   * resolved["execution"]["realizations"])
        report["average"]["rhs"] += one_count
        report_path.write_text(json.dumps(report))
        if not workloads.check_zone_theta(resolved, run_dir, model):
            _fail("a zone-theta report with one extra count passed the check")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ok   a wrong zone-theta count fails its check")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_result_lines(root, spec)
    check_wrong_counts_fail(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
