"""Every name a ``repro`` module lists in ``__all__`` exists, so a deletion
that leaves a stale export fails here instead of at a user's import; and
the package stands without the test suite."""

import ast
import importlib
import pathlib
import pkgutil

import repro


def test_every_all_name_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, f"__all__ names nothing: {missing}"


def test_no_src_module_imports_the_tests():
    """Test support (``tests/faults.py``) lives with the tests: no module
    under ``src/repro`` imports from the ``tests`` package."""
    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     and not node.level else [])
            found += [f"{path.relative_to(root)}: {name}" for name in names
                      if name == "tests" or name.startswith("tests.")]
    assert not found, f"src imports the test suite: {found}"
