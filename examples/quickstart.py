#!/usr/bin/env python3
"""Quickstart: build a function, compile it to PLiM, run it, verify it.

Walks the full journey of the paper (plus this reproduction's
multi-objective extensions) in ~80 lines:

1. build an MIG for a full adder — first the AOIG-style transposition
   (paper Fig. 1(a)), then the majority-native form (Fig. 1(b));
2. rewrite it for the PLiM architecture — the paper's size objective and
   the ``objective="depth"`` critical-path rewriter — and sweep the full
   (#N, #D) Pareto frontier;
3. compile it to RM3 instructions (Algorithm 2) and print the paper-style
   listing;
4. execute the program on the PLiM machine model and check it against the
   MIG on every input combination.

Run:  python examples/quickstart.py
"""

from repro import compile_mig, pareto_sweep
from repro.mig.analysis import stats
from repro.mig.build import LogicBuilder
from repro.plim.machine import PlimMachine
from repro.plim.verify import verify_program


def build_full_adder(style: str):
    builder = LogicBuilder(style=style, name=f"fa-{style}")
    a, b, cin = builder.input("a"), builder.input("b"), builder.input("cin")
    total, carry = builder.full_adder(a, b, cin)
    builder.output(total, "sum")
    builder.output(carry, "cout")
    return builder.mig


def main():
    # -- Fig. 1: the same function, two MIG shapes ----------------------
    aoig = build_full_adder("aoig")
    maj = build_full_adder("maj")
    print("Fig. 1 — AOIG transposition vs majority-native MIG:")
    print(f"  AOIG-style: {stats(aoig)}")
    print(f"  MAJ-native: {stats(maj)}")

    # -- Algorithms 1+2: rewrite and compile ----------------------------
    result = compile_mig(aoig, effort=4)
    print(
        f"\nCompiled {result.source_mig.num_gates}-gate MIG "
        f"(rewritten to {result.num_gates} gates) into "
        f"{result.num_instructions} RM3 instructions using "
        f"{result.num_rrams} work RRAMs:\n"
    )
    print(result.program.listing())

    # -- beyond the paper: objectives and the (#N, #D) frontier ---------
    # "depth" shortens the critical path — what a target that executes
    # gates in parallel pays for; serial PLiM only pays for #N, which
    # "size" minimizes.
    shallow = compile_mig(aoig, objective="depth")
    print(
        f"\nobjective='depth': {shallow.num_gates} gates, "
        f"{shallow.num_instructions} instructions"
    )
    # A mini Pareto sweep: every non-dominated (#N, #D) operating point,
    # each compiled through Algorithm 2 and equivalence-checked.  The
    # SynthesisCache memoizes the sweep under the MIG's structural
    # fingerprint — the second call is a lookup (give it a directory,
    # SynthesisCache("path"), to persist across runs).
    from repro import SynthesisCache

    cache = SynthesisCache()
    front = pareto_sweep(aoig, workers=1, cache=cache)
    pareto_sweep(aoig, workers=1, cache=cache)  # front-cache hit
    print(
        f"(#N, #D) frontier of {front.circuit} "
        f"(cache: {cache.stats.hits} hit / {cache.stats.misses} miss):"
    )
    for point in front:
        print(
            f"  {point.label:>10s}: N={point.num_gates} D={point.depth} "
            f"-> I={point.num_instructions} R={point.num_rrams} "
            f"[{point.equivalence}]"
        )

    # -- Fig. 2: execute on the PLiM machine ----------------------------
    program = result.program
    machine = PlimMachine.for_program(program)
    outputs = machine.run_program(program, {"a": 1, "b": 1, "cin": 0})
    print(f"\n1 + 1 + 0 on the machine: sum={outputs['sum']} cout={outputs['cout']}")
    print(
        f"controller ran {machine.instruction_count} instructions "
        f"({machine.cycle_count} cycles)"
    )

    # -- and prove it computes the right function everywhere ------------
    check = verify_program(aoig, program)
    print(
        f"\nverification: {'OK' if check.ok else 'FAILED'} "
        f"({check.mode}, {check.patterns_checked} input patterns)"
    )
    assert check.ok


if __name__ == "__main__":
    main()
