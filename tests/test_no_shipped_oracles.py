"""The package ships one engine per stage.

The object Algorithm 2 translator and its heap-backed candidate
schedulers, the dict-of-objects graph core, the whole-graph Algorithm 1
pass pipeline and the round-by-round verifier are differential oracles;
they live in ``tests/compile_reference.py``,
``tests/graph_dict_reference.py``, ``tests/rewrite_reference.py`` and
``tests/verify_reference.py``.  None may come back into ``src/``, and no
public option or wrapper may select them.
"""

import asyncio
import dataclasses
import importlib.util
import inspect
import io

import pytest

import repro
import repro.core.rewriting
import repro.core.schedule
import repro.mig.algebra
import repro.plim.verify
from repro.cli import build_parser
from repro.core.compiler import CompilerOptions
from repro.core.cost import CompiledPlim
from repro.core.rewriting import RewriteOptions
from repro.errors import ReproError
from repro.eval.fig3 import fig3b
from repro.mig.graph import Mig
from repro.mig.io_mig import write_mig
from repro.serve.app import PlimServer, ServerConfig
from repro.serve.protocol import Request, canonical_json


@pytest.mark.parametrize("module", ["repro.core.translate", "repro.mig.graph_dict"])
def test_oracle_modules_are_not_shipped(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize(
    "name", ["PriorityScheduler", "IndexScheduler", "make_scheduler", "Scheduler"]
)
def test_scheduler_objects_live_in_the_reference(name):
    """The compilation loop owns its candidate heap; the object schedulers
    are the reference compiler's (``tests/compile_reference.py``)."""
    assert not hasattr(repro.core.schedule, name)


@pytest.mark.parametrize("options", [CompilerOptions, CompiledPlim])
def test_no_implementation_option(options):
    assert "implementation" not in {field.name for field in dataclasses.fields(options)}


def test_rewrite_depth_wrapper_is_gone():
    assert not hasattr(repro, "rewrite_depth")
    assert "rewrite_depth" not in repro.__all__
    assert not hasattr(repro.core.rewriting, "rewrite_depth")


def test_no_rebuild_passes_in_algebra():
    names = set(dir(repro.mig.algebra))
    assert not {name for name in names if name.startswith("pass_")}
    assert "effective_children" not in names


def test_no_rebuild_pass_in_rewriting():
    assert not hasattr(repro.core.rewriting, "pass_inverter_cost_aware")


def test_mig_rebuild_takes_no_gate_fn():
    parameters = inspect.signature(Mig.rebuild).parameters
    assert "gate_fn" not in parameters
    assert "keep_dead" not in parameters


def test_verify_has_no_round_loop():
    """The round-by-round check lives in ``tests/verify_reference.py``."""
    assert not hasattr(repro.plim.verify, "_run_round")


def test_rebuild_engine_option_rejected():
    with pytest.raises(ReproError, match="unknown rewrite engine"):
        RewriteOptions(engine="rebuild")


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "c.mig", "--engine", "rebuild"],
        ["table1", "--engine", "rebuild"],
    ],
    ids=["compile", "table1"],
)
def test_cli_has_no_engine_flag(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "--engine" in capsys.readouterr().err


def test_serve_rejects_rebuild_engine():
    buf = io.StringIO()
    write_mig(fig3b(), buf)
    body = canonical_json(
        {"circuit": buf.getvalue(), "format": "mig", "options": {"engine": "rebuild"}}
    )
    app = PlimServer(ServerConfig())
    response = asyncio.run(app.handle(Request("POST", "/compile", body)))
    assert response.status == 400
    assert response.json()["error"]["code"] == "bad-request"
