"""The package ships one engine per stage.

The object Algorithm 2 translator and the dict-of-objects graph core
are differential oracles; they live in ``tests/compile_reference.py``
and ``tests/graph_dict_reference.py``.  Neither may come back into
``src/``, and no public option or wrapper may select them.
"""

import dataclasses
import importlib.util

import pytest

import repro
import repro.core.rewriting
from repro.core.compiler import CompilerOptions
from repro.core.cost import CompiledPlim


@pytest.mark.parametrize("module", ["repro.core.translate", "repro.mig.graph_dict"])
def test_oracle_modules_are_not_shipped(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize("options", [CompilerOptions, CompiledPlim])
def test_no_implementation_option(options):
    assert "implementation" not in {field.name for field in dataclasses.fields(options)}


def test_rewrite_depth_wrapper_is_gone():
    assert not hasattr(repro, "rewrite_depth")
    assert "rewrite_depth" not in repro.__all__
    assert not hasattr(repro.core.rewriting, "rewrite_depth")
