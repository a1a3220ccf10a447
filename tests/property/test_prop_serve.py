"""Property: the server is a pure transport over ``compile_mig``.

For arbitrary circuits and option combinations, a ``POST /compile``
response must be *equivalence-identical* to running the library pipeline
directly with the same options: same counts, same rewritten graph text,
same program text.  Anything else means the serving layer grew compiler
behavior of its own — the one thing it must never do.
"""

from __future__ import annotations

import asyncio
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import compile_mig
from repro.eval.fig3 import fig3b
from repro.serve.app import PlimServer, ServerConfig
from repro.serve.protocol import Request, canonical_json
from repro.serve.worker import build_record, request_option_sets
from repro.mig.io_mig import read_mig, write_mig

from .strategies import migs

FAST = settings(max_examples=15, deadline=None)

option_sets = st.fixed_dictionaries(
    {},
    optional={
        "rewrite": st.booleans(),
        "effort": st.integers(0, 3),
        "engine": st.just("worklist"),
        "objective": st.sampled_from(["size", "depth"]),
    },
)


def test_balanced_objective_is_a_bad_request():
    """Objective names are the cost-model aliases; ``balanced`` is not one."""
    buf = io.StringIO()
    write_mig(fig3b(), buf)
    payload = {
        "circuit": buf.getvalue(), "format": "mig", "options": {"objective": "balanced"}
    }
    response = asyncio.run(
        PlimServer(ServerConfig()).handle(
            Request("POST", "/compile", canonical_json(payload))
        )
    )
    assert response.status == 400
    assert response.json()["error"]["code"] == "bad-request"


@FAST
@given(mig=migs(max_gates=15), options=option_sets)
def test_server_response_equals_direct_compile(mig, options):
    buf = io.StringIO()
    write_mig(mig, buf)
    payload = {"circuit": buf.getvalue(), "format": "mig", "options": options}

    app = PlimServer(ServerConfig())
    response = asyncio.run(
        app.handle(Request("POST", "/compile", canonical_json(payload)))
    )
    assert response.status == 200, response.body
    served = response.json()

    # the ground truth: the pipeline run directly on the same parse with
    # the same normalized options
    from repro.serve.protocol import compile_options

    normalized = compile_options({"options": options})
    parsed = read_mig(io.StringIO(payload["circuit"]))
    ropts, copts = request_option_sets(normalized)
    direct = build_record(
        parsed.name,
        compile_mig(
            parsed,
            rewrite=normalized["rewrite"],
            rewrite_options=ropts,
            compiler_options=copts,
        ),
    )

    assert served["num_gates"] == direct["num_gates"]
    assert served["num_instructions"] == direct["num_instructions"]
    assert served["num_rrams"] == direct["num_rrams"]
    assert served["mig"] == direct["mig"]
    assert served["program"] == direct["program"]
    # the timing fields are wall-clock (nondeterministic); compare the
    # records with them normalized away, after checking shape
    timing_fields = (
        "rewrite_seconds", "schedule_seconds", "translate_seconds",
        "verify_seconds",
    )
    for record in (served, direct):
        for fld in timing_fields:
            value = record.pop(fld)
            assert isinstance(value, float) and value >= 0.0, (fld, value)
    served.pop("cached")
    assert served == direct
