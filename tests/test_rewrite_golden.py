"""Golden byte-identity pin for Algorithm 1, independent of any oracle.

Each entry of ``golden/rewrite_golden.json`` is the SHA-256 of the
rewritten graph's :meth:`~repro.mig.graph.Mig.fingerprint` and the
``.plim`` text Algorithm 2 compiles from it.  Performance work on the
rewriting engine must keep every digest: the same fingerprints and the
same programs mean cache entries stay valid and ``ALGORITHM_REVISION``
does not move.

The cases cover the 18 registry circuits at ci scale under four option
sets, plus the three circuits of the benchmark's ``pipeline`` workload
at default scale (``mem_ctrl`` with 80 outputs).  After an intended
algorithm change, regenerate the fixture and bump ``ALGORITHM_REVISION``:

    PYTHONPATH=src python tests/test_rewrite_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.compiler import PlimCompiler
from repro.core.rewriting import RewriteOptions, rewrite_for_plim

FIXTURE = Path(__file__).parent / "golden" / "rewrite_golden.json"

#: option sets applied to every registry circuit at ci scale
OPTIONS = {
    "size": RewriteOptions(),
    "size-po2": RewriteOptions(po_negation_cost=2),
    "size-psi": RewriteOptions(use_psi=True),
    "depth": RewriteOptions(objective="depth"),
}
#: the benchmark's pipeline circuits: default scale, effort 4, objective
#: size, complemented outputs charged 2 instructions
PIPELINE = {"mem_ctrl": {"num_outputs": 80}, "voter": {}, "sin": {}}


def _cases() -> dict[str, tuple]:
    cases = {}
    for name in BENCHMARK_NAMES:
        for label, options in OPTIONS.items():
            cases[f"{name}@ci/{label}"] = (name, "ci", {}, options)
    for name, overrides in PIPELINE.items():
        cases[f"{name}@default/pipeline"] = (
            name, "default", overrides, OPTIONS["size-po2"],
        )
    return cases


CASES = _cases()


def digest(name: str, scale: str, overrides: dict, options: RewriteOptions) -> str:
    """SHA-256 over the rewritten fingerprint and the compiled program."""
    rewritten = rewrite_for_plim(build(name, scale, **overrides), options)
    program = PlimCompiler().compile(rewritten)
    payload = rewritten.fingerprint() + "\n" + program.to_text()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rewrite_is_byte_identical(case, golden):
    assert digest(*CASES[case]) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_rewrite_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {case: digest(*args) for case, args in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}")
