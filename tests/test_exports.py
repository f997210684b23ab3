import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import supergram


def test_exported_names_resolve_to_one_object():
    # tracing wrappers look up every name in these __all__ lists, so a
    # stale entry would fail there first
    for info in pkgutil.iter_modules(supergram.__path__):
        mod = importlib.import_module(f"supergram.{info.name}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"supergram.{info.name}.__all__ names {missing}"
    for name, obj in vars(supergram).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"supergram.{name} is not exported by {obj.__module__}"
        assert getattr(home, name) is obj, f"supergram.{name} is not {obj.__module__}.{name}"


def test_oracles_stay_independent():
    # the oracles check the library, so they import only numpy and derive
    # eigenvalues and permutations themselves
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "numpy"}, imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
            assert not name.startswith("eig"), f"oracles.py calls {name}"
            assert name != "permutations", "oracles.py calls permutations"


def test_every_tolerance_is_used():
    # each module-level *_TOL in gram.py decides something somewhere in the
    # package: a load of its name or attribute other than its assignment
    src = Path(supergram.__file__).parent
    tols = {
        target.id
        for node in ast.parse((src / "gram.py").read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    }
    assert "GAP_TOL" in tols and "GRAD_TOL" not in tols  # the gap alone stops the solver
    used = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert tols <= used, f"unused tolerances: {sorted(tols - used)}"
