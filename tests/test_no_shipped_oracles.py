"""The package ships one engine per stage.

The object Algorithm 2 translator and its heap-backed candidate
schedulers, the dict-of-objects graph core, the whole-graph Algorithm 1
pass pipeline and the round-by-round verifier are differential oracles;
they live in ``tests/compile_reference.py``,
``tests/graph_dict_reference.py``, ``tests/rewrite_reference.py`` and
``tests/verify_reference.py``.  None may come back into ``src/``, and no
public option or wrapper may select them.  The same holds for the
object RRAM allocator (``tests/compile_reference.py``) and the pool's
fault injector (``tests/faults.py``).  Rewriting objectives have one
vocabulary, the cost-model aliases, no module under ``src/`` imports a
name it never uses, and every function, class and method under ``src/``
has a reader.  Settings no caller changed stay removed.  An objective
is a name: no entry point takes a cost-model instance.
"""

import ast
import asyncio
import dataclasses
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

import repro
import repro.core
import repro.core.cost
import repro.core.resilience
import repro.core.rewriting
import repro.core.schedule
import repro.eval.ablations
import repro.mig.algebra
import repro.plim.verify
from repro.cli import build_parser
from repro.core.batch import compile_many, parallel_imap, parallel_map
from repro.core.compiler import CompilerOptions
from repro.core.pipeline import compile_mig
from repro.core.pareto import pareto_sweep
from repro.core.cost import CompiledPlim, measure_program
from repro.core.rewriting import RewriteOptions, compile_cost_loop
from repro.errors import CompilationError, ReproError
from repro.eval.fig3 import fig3b
from repro.eval.ablations import allocator_ablation, selection_ablation
from repro.eval.table1 import measure_mig, run_benchmark, run_table1
from repro.mig.algebra import try_associativity_depth
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.mig.io_mig import write_mig
from repro.plim.program import Program
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


@pytest.mark.parametrize(
    "name", ["Fault", "FaultPlan", "SimulatedCrash", "InjectedFault"]
)
def test_fault_injector_lives_in_the_tests(name):
    assert not hasattr(repro.core.resilience, name)


@pytest.mark.parametrize(
    "surface",
    [parallel_imap, parallel_map, compile_many, pareto_sweep, run_table1],
    ids=lambda fn: fn.__name__,
)
def test_no_fault_plan_parameter(surface):
    assert "fault_plan" not in inspect.signature(surface).parameters


def test_server_config_has_no_fault_plan():
    assert "fault_plan" not in {f.name for f in dataclasses.fields(ServerConfig)}


def test_object_allocator_is_not_exported():
    assert not hasattr(repro.core, "RramAllocator")
    assert "RramAllocator" not in repro.core.__all__
    assert importlib.util.find_spec("repro.core.allocator") is None


@pytest.mark.parametrize("name", ["estimate", "CostEstimate"])
def test_no_estimate_bundle(name):
    """``estimate_instructions`` is the estimate."""
    assert not hasattr(repro.core.cost, name)


@pytest.mark.parametrize("name", ["OBJECTIVES", "MODEL_OBJECTIVES"])
def test_no_second_objective_vocabulary(name):
    """Every objective name is in ``repro.core.cost.OBJECTIVE_NAMES``."""
    assert not hasattr(repro.core.rewriting, name)


SRC = Path(repro.__file__).resolve().parent


def _names_in(node: ast.AST) -> set:
    """Every bare name ``node`` reads, including names inside string
    annotations such as ``"Optional[SynthesisCache]"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of each import in ``source`` that nothing reads.

    A name counts as read when the module loads it anywhere, names it in
    an annotation (also as a string, so ``TYPE_CHECKING`` imports count),
    or lists it in ``__all__``.
    """
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)
            }
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_check_sees_string_annotations():
    source = (
        "from typing import TYPE_CHECKING, Optional, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.cache import SynthesisCache\n"
        "def f(cache: 'Optional[SynthesisCache]' = None) -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == [(1, "Sequence")]


def test_no_unused_imports():
    """``__init__.py`` files re-export, so they are not checked."""
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ----------------------------------------------------------------------
# every shipped definition has a reader
# ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
#: the trees whose code may call into ``src/``
READER_TREES = ("src", "tests", "benchmarks", "perfbench", "examples", "tools")


def _docstrings(tree: ast.AST) -> set:
    """The ids of the docstring constants of ``tree``'s module, classes
    and functions (prose, not references)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _references(tree: ast.AST) -> list:
    """``(name, line)`` of every reference in ``tree``: a name, an
    attribute, an import alias, or a non-docstring string constant that
    is an identifier (``monkeypatch.setattr(module, "name", …)``)."""
    skip = _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.extend((part, node.lineno) for part in node.name.split("."))
            if node.asname:
                found.append((node.asname, node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            found.append((node.value, node.lineno))
    return found


def dead_definitions(root: Path) -> list:
    """``(path:line, qualified name)`` of every function, class and method
    under ``root/src`` (dunders excepted) that nothing references outside
    its own definition, in any of :data:`READER_TREES`."""
    counts: dict = {}
    shipped = []  # (path, tree, {name: [reference lines]}) per src file
    for tree_name in READER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            lines: dict = {}
            for name, line in _references(tree):
                counts[name] = counts.get(name, 0) + 1
                lines.setdefault(name, []).append(line)
            if tree_name == "src":
                shipped.append((path, tree, lines))
    dead = []
    for path, tree, lines in shipped:
        stack = [(tree, "")]
        while stack:
            parent, prefix = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    stack.append((node, prefix))
                    continue
                name = node.name
                stack.append((node, f"{prefix}{name}."))
                if name.startswith("__") and name.endswith("__"):
                    continue
                inside = sum(
                    node.lineno <= line <= node.end_lineno for line in lines.get(name, ())
                )
                if counts.get(name, 0) <= inside:
                    where = f"{path.relative_to(root / 'src')}:{node.lineno}"
                    dead.append((where, prefix + name))
    return sorted(dead)


def test_dead_definition_scan_sees_a_dead_method(tmp_path):
    for tree_name in READER_TREES:
        (tmp_path / tree_name).mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "class Live:\n"
        "    def used(self):\n"
        "        '''unused is not a reference here'''\n"
        "        return self.used\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    def patched(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "t.py").write_text(
        "from m import Live, helper\n"
        "Live().used()\n"
        "setattr(Live, 'patched', None)\n"
    )
    assert dead_definitions(tmp_path) == [("m.py:5", "Live.unused")]


def test_every_shipped_definition_is_referenced():
    assert dead_definitions(REPO) == []


@pytest.mark.parametrize(
    ("owner", "name"),
    [
        (repro.mig.algebra, "try_push_inverters"),
        (Program, "append_encoded"),
        (AnalysisContext, "fanout"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_dead_definitions_stay_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    ("options", "field"),
    [
        (RewriteOptions, "size_rules"),
        (RewriteOptions, "inverter_rules"),
        (CompilerOptions, "clean"),
        (CompiledPlim, "input_seed"),
    ],
)
def test_unchanged_settings_stay_gone(options, field):
    """Settings no shipped caller changed were removed, not deprecated."""
    assert field not in {f.name for f in dataclasses.fields(options)}


@pytest.mark.parametrize(
    ("function", "parameter"),
    [(compile_mig, "context"), (try_associativity_depth, "depth_budget")],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_ignored_parameters_stay_gone(function, parameter):
    assert parameter not in inspect.signature(function).parameters


@pytest.mark.parametrize(
    ("function", "parameter"),
    [
        (measure_mig, "objective"),
        (measure_mig, "compiler_options"),
        (run_benchmark, "objective"),
        (run_benchmark, "shuffle_seed"),
        (run_table1, "objective"),
        (run_table1, "shuffle_seed"),
        (selection_ablation, "shuffle_seed"),
        (allocator_ablation, "input_seed"),
        (measure_program, "input_seed"),
        (compile_cost_loop, "compiler_options"),
        (compile_cost_loop, "objective"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_unused_parameters_stay_gone(function, parameter):
    """Parameters no shipped caller set were removed, not deprecated."""
    assert parameter not in inspect.signature(function).parameters


@pytest.mark.parametrize(
    ("owner", "name"),
    [
        (repro.core.rewriting, "_normalize_objective"),
        (repro.core.rewriting, "_rewrite_guided"),
        (repro.eval.ablations, "cost_loop_ablation"),
        (repro, "CostModel"),
        (repro, "NodeCount"),
        (repro, "Depth"),
        (repro, "StaticPlim"),
        (repro, "resolve_cost_model"),
        (repro.core.cost, "CostModel"),
        (repro.core.cost, "NodeCount"),
        (repro.core.cost, "Depth"),
        (repro.core.cost, "StaticPlim"),
        (repro.core.cost, "resolve_cost_model"),
        (repro.core.cost, "COST_MODELS"),
        (repro.core.cost, "estimate_extra_rrams"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_objective_instance_machinery_is_gone(owner, name):
    """Objectives are names, and the only measured one is ``"plim"``:
    the cost-model classes, their registry and the estimate only
    ``static-plim`` read are gone from the package."""
    assert not hasattr(owner, name)
    assert not hasattr(repro.core.cost, name)
    if owner is repro:
        assert name not in repro.__all__


def test_compiled_plim_carries_no_memo():
    assert [f.name for f in dataclasses.fields(CompiledPlim)] == [
        "paper_accounting", "allocator_policy",
    ]
    assert "__getstate__" not in vars(CompiledPlim)


def test_serve_worker_imports_no_private_name():
    tree = ast.parse((SRC / "serve" / "worker.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]


def test_dfs_reorder_mode_is_gone():
    """``reorder="best"`` compiles the DFS image itself; alone, it is
    ``reorder="none"`` on ``reorder_dfs`` of the cleaned graph."""
    with pytest.raises(CompilationError, match="unknown reorder mode"):
        CompilerOptions(reorder="dfs")
