"""Every docstring example in the library runs and prints what it shows.

Walks every ``repro`` module the way ``tests/test_public_surface.py``
does and runs :func:`doctest.testmod` on each, so the examples stay true
without a ``--doctest-modules`` flag on the test command.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False, report=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
