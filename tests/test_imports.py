"""Every name a denoise1d module imports is used there, exported through
``__all__`` (the package ``__init__``), or marked ``# noqa: F401`` for
bench/tracing.py, which wraps it by name in that module; every private
name a module defines is used somewhere in the package; importing the
CLI does not load concurrent.futures; and numpy is the package's
one third-party import, so the CLI imports and the Tikhonov oracle
runs without scipy."""

import ast
import importlib.util
import os
import subprocess
import sys

import pytest

import denoise1d

PKG = os.path.dirname(os.path.abspath(denoise1d.__file__))
TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def _imports(tree):
    # (bound name, line) of each import but those from __future__.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), a.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), a.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PKG, module + ".py"), encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(denoise1d.__all__) if module == "__init__" else set()
    traced = set(_traced().get("denoise1d" if module == "__init__" else f"denoise1d.{module}", ()))
    unused = []
    for name, line in _imports(tree):
        if "# noqa: F401" in lines[line - 1]:
            if name not in traced:
                unused.append(f"{module}.py:{line} {name} (noqa, but not traced)")
        elif name not in used and name not in exported:
            unused.append(f"{module}.py:{line} {name}")
    assert not unused, unused


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    # Module-level functions, classes and constants that __all__ does not
    # export, and methods named _x.
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        yield from (n for n in names if n not in denoise1d.__all__ and not n.endswith("__"))
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body
                        if isinstance(m, ast.FunctionDef) and _is_private(m.name))


def test_every_private_name_is_used():
    # A private name is read (as a name or an attribute) somewhere in the
    # package besides its definition; an import alone does not count.
    trees = {}
    for module in MODULES:
        with open(os.path.join(PKG, module + ".py"), encoding="utf-8") as fh:
            trees[module] = ast.parse(fh.read())
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    assert ("diffusion", "_last") in defined  # the walk sees the definitions
    unused = [f"{module}.py {name}" for module, name in defined if name not in read]
    assert not unused, unused


def _python(code):
    # Exit status of ``code`` run in a fresh interpreter that imports this tree.
    src = os.path.dirname(PKG)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_importing_the_cli_does_not_load_concurrent_futures():
    # The parts of a long pass run on threads started with _thread.  With a
    # ThreadPoolExecutor, concurrent.futures was first imported in the
    # middle of a run, and its lasting allocations between the long arrays
    # pushed long-signal peak_rss_mb from 85.7 to 94.5 MiB.
    assert _python("import sys, denoise1d, denoise1d.cli; sys.exit('concurrent.futures' in sys.modules)") == 0


def test_every_absolute_import_is_numpy_or_the_standard_library():
    # pyproject.toml lists numpy as the one runtime dependency.
    foreign = []
    for module in MODULES:
        with open(os.path.join(PKG, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{module}.py:{node.lineno} {name}" for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_the_oracle_runs_without_scipy():
    # A None entry in sys.modules makes any import of scipy raise.
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import numpy as np, denoise1d, denoise1d.cli\n"
            "u = denoise1d.tikhonov_solve_oracle(denoise1d.Signal1D([0.0, 1.0]), 0.25).values\n"
            "sys.exit(not np.allclose(u, [1 / 6, 5 / 6], rtol=0, atol=1e-12))")
    assert _python(code) == 0
