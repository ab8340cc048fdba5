"""Import cost: a run imports only the scipy modules its kind calls.

Each function that calls scipy imports the module it needs where it calls
it, so ``import randschrod`` loads numpy, yaml and the top-level scipy
package only.  The import checks run in a fresh interpreter, since this
test session has imported scipy for the oracles long before.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import yaml

from randschrod import runner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "randschrod"
LAZY = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.special")


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the LAZY modules it left loaded,
    and the value it bound to ``result``, if any."""
    script = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\nresult = None\n{code}\n"
        f"print(json.dumps({{'loaded': [m for m in {LAZY!r} if m in sys.modules], "
        f"'result': result}}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _scipy_imports(tree):
    """(line, module) of every scipy import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.startswith("scipy"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            yield node.lineno, node.module


def test_importing_the_package_loads_no_scipy_submodule():
    assert _loaded_after("import randschrod")["loaded"] == []


def test_hs_check_and_msa_schedule_runs_load_no_scipy_submodule(tmp_path):
    argv = []
    for name, sizes in (("hs_check", {"matrix_dim": 6, "matrices": 3}),
                        ("msa_schedule", {"steps": 3})):
        config = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8"))
        config["experiment"].update(sizes)
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        argv.append([config["experiment"]["kind"], "--config", str(path), "--threads", "1",
                     "--out", str(tmp_path / "runs")])
    probe = _loaded_after(
        "import contextlib, io\nfrom randschrod.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = [main(a) for a in {argv!r}]"
    )
    assert probe == {"loaded": [], "result": [0, 0]}


def test_a_pool_imports_every_lazy_module_before_it_forks():
    probe = _loaded_after("from randschrod.runner import parallel_map\n"
                          "result = parallel_map(2)(abs, [1, -2])")
    assert probe == {"loaded": list(LAZY), "result": [1, 2]}


def test_the_prefork_tuple_names_every_scipy_module_a_function_imports():
    in_functions, at_module_level = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_functions.update(module for _, module in _scipy_imports(node))
        # only the top-level package may load with the module
        at_module_level += [f"{path.name}:{line} {module}" for stmt in tree.body
                            if isinstance(stmt, (ast.Import, ast.ImportFrom))
                            for line, module in _scipy_imports(stmt) if module != "scipy"]
    assert at_module_level == []
    assert in_functions == set(LAZY)
    assert set(runner._SCIPY_MODULES) == in_functions
