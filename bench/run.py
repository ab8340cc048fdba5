"""Benchmark of the randschrod experiment pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a randschrod checkout.  The workload's shipped config
is cut down (see workloads.py) and driven in-process through
``randschrod.cli.main`` in whole rounds until S seconds have passed; each
round is one experiment run with master seed derived from N, followed by
the workload's correctness checks.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (setup_s, wall_s, cpu_s, peak_rss_mb);
with --trace 1 the layers are traced and the per-layer metrics reported.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes instead of benchmark sizes")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def master_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _setup_seconds(root: Path, config_path: Path) -> float:
    """Median over fresh interpreters of import + config + model build."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), str(root / "src"),
             str(config_path)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _payload_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file())


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "randschrod" / "cli.py").is_file():
        raise SystemExit("bench: run from a randschrod checkout (src/randschrod is missing)")
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]

    import yaml

    import workloads
    from randschrod import cli
    from randschrod.config import build_model, load_config, resolve_config

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    config_file = root / workload.config
    if not config_file.is_file():
        raise SystemExit(f"bench: {workload.config} is missing")
    threads = min(workload.threads, len(os.sched_getaffinity(0)))

    work = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = workloads.apply_sizes(load_config(str(config_file)),
                                       workload.tiny if args.tiny else workload.sizes)
        config["execution"]["threads"] = threads
        config_path = work / "config.yaml"
        config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")

        tracer = None
        if not args.trace:
            setup_s = _setup_seconds(root, config_path)
        else:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)

        kind = config["experiment"]["kind"]
        tie_model = build_model(resolve_config(config)) if workload.tie_probe else None
        problems: list[str] = []
        walls, cpus, layer_rounds, spans = [], [], [], []
        attempted = failed = 0
        tie_miss = None  # (counted, exact) when the tie probe fails
        checked = None  # (resolved config, model) of round 0, for check_once
        started = time.perf_counter()
        round_index = 0
        while True:
            seed = master_seed(args.seed, round_index)
            out_root = work / f"round-{round_index}"
            argv = [kind, "--config", str(config_path), "--seed", str(seed),
                    "--threads", str(threads), "--out", str(out_root)]
            captured = io.StringIO()
            if tracer:
                tracer.enabled = True
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            if tracer:
                tracer.enabled = False
                round_spans = tracer.take()
            attempted += 1
            if code != 0:
                failed += 1
                print(f"round {round_index}: randschrod exited {code}: "
                      f"{captured.getvalue().strip()}", file=sys.stderr)
            else:
                walls.append(wall)
                cpus.append(cpu)
                (run_dir,) = out_root.iterdir()
                resolved = resolve_config(
                    workloads.apply_sizes(config, {"execution": {"master_seed": seed}}))
                model = build_model(resolved)
                if checked is None:
                    checked = (resolved, model)
                problems += [f"round {round_index}: {p}" for p in
                             workload.check_round(resolved, run_dir, model)]
                if tracer:
                    spans.append(round_spans)
                    layer_rounds.append(tracing.layer_metrics(round_spans,
                                                              _payload_bytes(run_dir)))
            shutil.rmtree(out_root, ignore_errors=True)

            if workload.tie_probe:
                attempted += 1
                got, exact = workloads.tie_probe(tie_model)
                if got != exact:
                    failed += 1
                    tie_miss = (got, exact)

            round_index += 1
            if time.perf_counter() - started >= args.seconds:
                break

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.check_once and checked is not None:
            problems += workload.check_once(*checked)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if tie_miss:
            print(f"tie probe failed: {tie_miss[0]} eigenvalues counted below E = "
                  f"{workloads.TIE_ENERGY} on the free {workloads.TIE_SITES}-site chain, "
                  f"exactly {tie_miss[1]} lie there", file=sys.stderr)
        if tracer:
            tracer.dump(str(root / ".bench_work" / f"trace-{workload.name}-{args.seed}.json"),
                        spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{workload.name}: {round_index} round(s), wall_s per round "
          f"{[round(w, 4) for w in walls]}", file=sys.stderr)
    if not walls:
        raise SystemExit("bench: no experiment run succeeded")
    if tracer:
        metrics = {
            name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
            for name, (unit, _, _) in tracing.PER_LAYER.items()
        }
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    result = run(_parse(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
