import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import agestruct

MODULES = sorted(m.name for m in pkgutil.iter_modules(agestruct.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"agestruct.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"agestruct.{name}.__all__ names {missing}"


STUDIES_WITHOUT_SCIPY = """
import sys
import agestruct, agestruct.harness, agestruct.acceptance, agestruct.cli
from agestruct.harness import ExperimentConfig, run_clt, run_lln

split = {"family": "classical", "birth": 0.0, "death": 1.0,
         "life_law": {"kind": "deterministic", "k": 0},
         "split_law": {"kind": "deterministic", "k": 2}}
uniform = {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0}
sizes = dict(horizon=0.5, dt=0.01, dt_out=0.5, k_values=[50], replicates=4, seed=5)
lln = run_lln(ExperimentConfig(model=split, initial={"kind": "atoms", "ages": [0.0],
                                                     "masses": [1.0]},
                               panel=["1", "bump"], **sizes), workers=1)
clt = run_clt(ExperimentConfig(model=split, initial=uniform, perturbation=uniform,
                               panel=["1", "exp:0.5"], n_spde_paths=8, spde_block=8,
                               **sizes), workers=1)
stats = {r.stat for r in lln.rows + clt.rows}
assert {"lln_mean", "spde_var_vs_oracle"} <= stats, stats
for prefix in ("scipy", "multiprocessing", "concurrent.futures.process"):
    print(sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + ".")))
"""


@pytest.fixture(scope="module")
def studies_modules():
    """The modules a fresh interpreter holds after the single-worker studies,
    one line per package: scipy, multiprocessing, concurrent.futures.process."""
    src = str(Path(agestruct.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", STUDIES_WITHOUT_SCIPY], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()


def test_studies_do_not_import_scipy(studies_modules):
    # scipy is a test dependency only: importing the package and running the
    # classical LLN (atom base) and CLT oracles must leave it unloaded
    assert studies_modules[0] == "[]"


def test_single_worker_studies_do_not_import_process_pools(studies_modules):
    # the process pool and its multiprocessing imports load only for workers > 1
    assert studies_modules[1:] == ["[]", "[]"]


def module_bindings(tree: ast.Module):
    """(name, line) for every name a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_test_module_binds_a_name_twice():
    # a second binding silently replaces the first for every reader, such as a
    # shared spec or a test function of the same name
    twice = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        first = {}
        for name, line in module_bindings(ast.parse(path.read_text(), str(path))):
            if name in first:
                twice.append(f"{path.name}: {name} at lines {first[name]} and {line}")
            first.setdefault(name, line)
    assert not twice, twice


def test_package_imports_sit_at_module_level():
    # a package-relative import inside a function hides a module's dependencies
    # and repeats its lookup per call; stdlib imports may stay lazy on purpose
    src = Path(agestruct.__file__).resolve().parent
    local = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not local, local


def test_every_private_module_name_is_used():
    # a module-level _name that occurs only where it is bound is dead code,
    # such as a config reader left behind when its caller moved on
    paths = sorted(Path(agestruct.__file__).resolve().parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    seen = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen[node.name] += 1
            elif isinstance(node, ast.alias):
                seen[node.asname or node.name] += 1
    dead = [f"{name}: {symbol} at line {line}" for name, tree in trees.items()
            for symbol, line in module_bindings(tree)
            if symbol.startswith("_") and not symbol.startswith("__") and seen[symbol] < 2]
    assert not dead, dead
