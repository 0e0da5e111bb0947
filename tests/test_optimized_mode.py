"""The exactness contract holds under ``python -O``, which drops ``assert``
statements: the package checks its invariants with explicit raises."""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricmld"


def _assertions(tree):
    """``assert`` statements and raises of ``AssertionError``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node


def test_no_module_checks_an_invariant_with_assert():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in _assertions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == []


def _deferred_imports(tree):
    """(function, module) for each package-relative import inside a function."""
    seen = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level and node not in seen:
                    seen.add(node)
                    yield fn.name, node.module


def test_only_import_cycles_defer_an_import():
    """A module imports from the package inside a function only where a
    cycle forces it, and there is no cycle: no module defers an import."""
    found = sorted(
        f"{path.name}:{name}:{module}"
        for path in PACKAGE.rglob("*.py")
        for name, module in _deferred_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    )
    assert found == []


def _package_imports(name):
    """The package modules that ``name`` imports, at module or function level."""
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}


def test_lattice_imports_only_errors_and_rationals():
    """The lattice layer, dual lattice and Hilbert basis included, sits
    below every other module: it imports from the package, at module or
    function level, only the exceptions and the rational helpers."""
    assert _package_imports("lattice.py") == {"errors", "rationals"}


def test_germ_imports_only_errors_lattice_and_rationals():
    """The germ layer sits on the lattice layer alone: it holds no data of
    the modules built on it (the flat builder's included), so it imports
    from the package only the exceptions, the lattice and the rational
    helpers."""
    assert _package_imports("germ.py") == {"errors", "lattice", "rationals"}


def _cached_properties(tree):
    """Line numbers that bind or read ``functools.cached_property``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cached_property" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "cached_property":
            yield node.lineno


def test_no_module_uses_the_locking_cached_property():
    """Cached fields are ``lattice.cached_field``: Python 3.11's
    ``functools.cached_property`` takes a lock on every first fill."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in _cached_properties(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == []


def test_flat_binds_no_program():
    """The flat builder reads rho and its ray normal off the vertex list and
    v(x) off ``Lattice.newton_generators``: it imports nothing from
    ``linprog``, binds no ``_first_intersection`` and reads no whole Hilbert
    basis, by name or as an attribute."""
    path = PACKAGE / "flat.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    names = {alias.asname or alias.name for node in imports for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "linprog" not in modules and not any("linprog" in name for name in names), (modules, names)
    assert not names & {"_first_intersection", "dual_hilbert_basis", "hilbert_basis"}, names


def test_check_gives_the_same_report_under_optimize(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"dims": [1, 2, 3], "max_index": 3}')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "toricmld", "check", "--corpus-config", str(config)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0, plain.stderr
    assert '"checked": 1028' in plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
