"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--trace 1]

Run from the repository root.  Each run is ``bench/run.py`` with the
``run_seconds`` of BENCHMARK.json.  For every metric it prints the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (third minus first quartile, as a share of the median), then the
share of failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares, correct = set(), True
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        shares.add(f"{result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}"
                                           for k, m in result["metrics"].items()), flush=True)

    for name, v in values.items():
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name} [{units[name]}]: median {median:.6g} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
    failed = {tuple(map(int, s.split("/"))) for s in shares}
    print(f"{args.workload}: correct {correct}; failed/attempted per run {sorted(shares)}; "
          f"failed share {sorted({f / a for f, a in failed})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
