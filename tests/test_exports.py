"""Every name a ``repro`` module lists in ``__all__`` exists, so a deletion
that leaves a stale export fails here instead of at a user's import."""

import importlib
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
