"""The public surface matches what the library ships.

* Every ``examples/*.py`` script imports cleanly.  The examples are the
  only callers of some public names, and each is ``main``-guarded, so
  importing one runs its imports and definitions but not its workload.
* Every name in every ``repro`` module's ``__all__`` resolves, so a
  deletion cannot leave a stale export behind.
* A package attribute named after a submodule is that submodule.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_every_export_resolves():
    stale = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        stale += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not stale, f"__all__ names with no binding: {stale}"


def test_submodule_attribute_is_the_module():
    # A package that re-exported a function under its submodule's name
    # would bind the function here, and patching ``m.<name>`` would miss.
    import repro.finn.streamline as m

    assert m is importlib.import_module("repro.finn.streamline")
    assert callable(m.streamline)
