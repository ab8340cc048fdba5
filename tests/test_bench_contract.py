"""The benchmark under bench/ binds names of the package; these runs fail
when one of them is renamed, removed or called with another shape."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checkout(tmp_path):
    """A checkout root whose src and configs are this repository's, so
    that the benchmark's work files land in ``tmp_path``."""
    for name in ("src", "configs"):
        (tmp_path / name).symlink_to(ROOT / name)
    return tmp_path


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_tracer_installs_on_every_layer():
    code = ("import sys; sys.path[:0] = ['src', 'bench']; import tracing; "
            "tracing.install(tracing.Tracer())")
    out = _run(["-c", code], ROOT)
    assert out.returncode == 0, out.stderr


def test_traced_tiny_dirichlet_tail_round(tmp_path):
    out = _run([str(ROOT / "bench" / "run.py"), "--workload", "dirichlet-tail", "--seed",
                "0", "--seconds", "0", "--trace", "1", "--tiny"], _checkout(tmp_path))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    # 2001 cells and the one-site margin of the box bump on each side
    assert result["metrics"]["disorder.sites_drawn"]["value"] == 2003


def test_traced_tiny_hs_quadrature_round(tmp_path):
    out = _run([str(ROOT / "bench" / "run.py"), "--workload", "hs-quadrature", "--seed",
                "0", "--seconds", "0", "--trace", "1", "--tiny"], _checkout(tmp_path))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # "failed" is left unasserted: on one matrix the program's own
    # refinement-gain check can fail a correct quadrature
    assert result["correct"], out.stderr
    assert result["attempted"] == 1


def test_traced_tiny_zone_theta_round(tmp_path):
    out = _run([str(ROOT / "bench" / "run.py"), "--workload", "zone-theta", "--seed",
                "0", "--seconds", "0", "--trace", "1", "--tiny"], _checkout(tmp_path))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["attempted"] == 1 and result["failed"] == 0
    # one map over one chunk of the two realizations, which share one assembled H0
    metrics = result["metrics"]
    assert metrics["hamiltonian.assemble_h0_calls"]["value"] == 1
    assert metrics["runner.map_items"]["value"] == 1
