"""Shared test helpers: random MIG generation and word-level I/O."""

from __future__ import annotations

import random

import pytest

from repro.mig.graph import Mig
from repro.mig.signal import Signal


def random_mig(
    seed: int,
    num_pis: int = 5,
    num_gates: int = 20,
    num_pos: int = 3,
    invert_probability: float = 0.3,
    allow_const: bool = True,
) -> Mig:
    """Deterministic random MIG used across unit and property tests."""
    rng = random.Random(seed)
    mig = Mig(name=f"random{seed}")
    signals: list[Signal] = [mig.add_pi(f"x{i}") for i in range(num_pis)]
    if allow_const:
        signals.append(Signal.CONST0)
    attempts = 0
    gates_created = 0
    while gates_created < num_gates and attempts < num_gates * 20:
        attempts += 1
        picks = rng.sample(range(len(signals)), 3) if len(signals) >= 3 else None
        if picks is None:
            break
        children = []
        for index in picks:
            signal = signals[index]
            if rng.random() < invert_probability:
                signal = ~signal
            children.append(signal)
        before = len(mig)
        result = mig.add_maj(*children)
        if len(mig) > before:
            signals.append(result)
            gates_created += 1
    # Outputs: prefer late gates so most of the graph stays live.
    pool = signals[-max(num_pos * 2, 4):]
    for i in range(num_pos):
        signal = pool[rng.randrange(len(pool))]
        if rng.random() < invert_probability:
            signal = ~signal
        mig.add_po(signal, f"f{i}")
    return mig


@pytest.fixture
def measure_reference(monkeypatch):
    """:func:`~repro.eval.table1.measure_mig` with its rewriting step run
    by the whole-graph oracle in ``tests/rewrite_reference.py``."""
    from repro.eval import table1
    from rewrite_reference import rewrite_reference

    def measure(mig, name, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(
                table1,
                "rewrite_for_plim",
                lambda mig, options, cache=None: rewrite_reference(mig, options),
            )
            return table1.measure_mig(mig, name, **kwargs)

    return measure


def word_assignment(prefix: str, value: int, width: int) -> dict[str, int]:
    """PI assignment dict for a little-endian input word."""
    return {f"{prefix}{i}": (value >> i) & 1 for i in range(width)}


def read_word(outputs: dict[str, int], prefix: str, width: int) -> int:
    """Assemble an integer from little-endian output bits."""
    value = 0
    for i in range(width):
        value |= (outputs[f"{prefix}{i}"] & 1) << i
    return value


@pytest.fixture
def small_random_mig() -> Mig:
    """A fixed small random MIG for quick structural tests."""
    return random_mig(seed=11, num_pis=4, num_gates=12, num_pos=2)
