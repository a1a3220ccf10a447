"""Documentation health: public-API doctests, intra-repo links and
docstring cross-references.

Three rot gates, all also run by the CI ``docs`` job:

* every runnable example in the public-API docstrings (the exports of
  ``repro/__init__.py`` plus the modules that carry them) must still
  produce its documented output;
* every intra-repo link in ``README.md`` and ``docs/*.md``, and every
  ``*.md`` name in a ``src/`` file, must resolve
  (``tools/check_links.py``);
* every Sphinx cross-reference in a ``src/`` docstring that names a
  ``repro.*`` object must resolve to a module or attribute.
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: modules whose docstring examples are part of the public contract —
#: the ``repro`` package docstring itself, the modules defining the
#: re-exported API (compile_mig, compile_many, RewriteOptions,
#: rewrite_for_plim, CompiledPlim, pareto_sweep, Mig), and the modules
#: that carried doctests before this gate existed
DOCTEST_MODULES = [
    "repro",
    "repro.core.batch",
    "repro.core.cache",
    "repro.core.cost",
    "repro.core.pareto",
    "repro.core.pipeline",
    "repro.core.resilience",
    "repro.core.rewriting",
    "repro.mig.graph",
    "repro.mig.signal",
    "repro.mig.simulate",
    "repro.utils.bits",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_public_api_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {module_name}"


def test_public_exports_have_docstrings():
    """Every name re-exported from ``repro`` carries a docstring."""
    repro = importlib.import_module("repro")
    missing = [
        name
        for name in repro.__all__
        if name != "__version__" and not (getattr(repro, name).__doc__ or "").strip()
    ]
    assert not missing, f"exports without docstrings: {missing}"


def _load_check_links():
    """Import tools/check_links.py by path (tools/ is not a package)."""
    path = REPO_ROOT / "tools" / "check_links.py"
    spec = importlib.util.spec_from_file_location("check_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    for page in ("architecture.md", "rewriting.md", "cli.md"):
        assert (REPO_ROOT / "docs" / page).is_file(), f"docs/{page} missing"


def test_readme_links_docs_tree():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for page in ("docs/architecture.md", "docs/rewriting.md", "docs/cli.md"):
        assert page in readme, f"README.md does not link {page}"


def test_intra_repo_links_resolve():
    checker = _load_check_links()
    errors = checker.check_links(REPO_ROOT)
    assert not errors, "\n".join(errors)


def test_link_checker_catches_breakage(tmp_path):
    """The gate itself must fail on a dangling target (meta-test)."""
    checker = _load_check_links()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/good.md) and [bad](docs/missing.md)", encoding="utf-8"
    )
    (tmp_path / "docs" / "good.md").write_text(
        "[back](../README.md)", encoding="utf-8"
    )
    errors = checker.check_links(tmp_path)
    assert len(errors) == 1 and "docs/missing.md" in errors[0]


def test_link_checker_catches_dangling_source_references(tmp_path):
    """A ``*.md`` name in a ``src/`` file must name a repo file (from the
    root), and its fragment a heading of it."""
    checker = _load_check_links()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "cli.md").write_text("## plimc ablate\n", encoding="utf-8")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See docs/cli.md#plimc-ablate and docs/cli.md.\n\n'
        'Status per DESIGN.md §4; ablations in docs/cli.md#plimc-gone."""\n',
        encoding="utf-8",
    )
    errors = checker.check_links(tmp_path)
    assert sorted(errors) == [
        "src/pkg/mod.py:3: broken link -> DESIGN.md",
        "src/pkg/mod.py:3: dangling anchor -> docs/cli.md#plimc-gone",
    ]


def test_link_checker_catches_dangling_anchors(tmp_path):
    """A fragment must name a heading of its target: GitHub slugs, ``-1``
    on a repeated heading, and no headings from inside fenced code."""
    checker = _load_check_links()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# Top\n\n## Top\n\n[a](docs/page.md#some-section-2) "
        "[b](docs/page.md#gone) [c](#top-1) [d](#nowhere)\n",
        encoding="utf-8",
    )
    (tmp_path / "docs" / "page.md").write_text(
        "## Some *Section* (#2)\n\n```sh\n# gone\n```\n", encoding="utf-8"
    )
    errors = checker.check_links(tmp_path)
    assert sorted(e.split(" -> ")[1] for e in errors) == [
        "#nowhere", "docs/page.md#gone",
    ]


#: a Sphinx cross-reference role whose target names a ``repro.*`` object
#: (``~`` shortens the rendered name; the target may not span lines)
_XREF = re.compile(r":(?:mod|func|class|meth|data|attr):`~?(repro\.[^`]*)`")


def _resolve(target: str) -> bool:
    """True when ``target`` is an importable module or an attribute path
    under one (dataclass fields and slots count as attributes)."""
    if not re.fullmatch(r"[A-Za-z_][\w.]*", target):
        return False
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            fields = getattr(obj, "__dataclass_fields__", {})
            slots = getattr(obj, "__slots__", ())
            if hasattr(obj, name):
                obj = getattr(obj, name)
            elif name in fields or name in slots:
                obj = None
            else:
                return False
        return True
    return False


def _docstring_xrefs() -> list[tuple[str, str]]:
    refs = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _XREF.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            refs.append((f"{path.relative_to(REPO_ROOT)}:{line}", match.group(1)))
    return refs


def test_docstring_cross_references_resolve():
    """Every ``:mod:``/``:func:``/``:class:``/``:meth:``/``:data:``/``:attr:``
    target naming a ``repro.*`` object in ``src/`` resolves."""
    refs = _docstring_xrefs()
    assert len(refs) > 100  # the scan sees the docstrings at all
    broken = [f"{where}: {target!r}" for where, target in refs if not _resolve(target)]
    assert not broken, "unresolved cross-references:\n" + "\n".join(broken)


def test_cross_reference_check_catches_breakage():
    assert _resolve("repro.mig.simulate.simulate_outputs")
    assert _resolve("repro.core.compiler.PlimCompiler._compile_ordered")
    assert _resolve("repro.core.rewriting.RewriteOptions.objective")
    assert not _resolve("repro.core.allocator")
    assert not _resolve("repro.core.compiler.PlimCompiler.\n    _compile_ordered")
    assert not _resolve("repro.mig.simulate.no_such_function")
