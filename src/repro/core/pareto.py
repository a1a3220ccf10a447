"""Pareto-front (#N, #D) synthesis sweep over depth-budgeted rewriting.

The paper's Algorithm 1 minimizes MIG *size* (#N) because serial PLiM
programs execute one RM3 per cycle; depth (#D) is what parallel in-memory
targets pay for.  The two objectives conflict — Ω.D restructuring shrinks
the graph but can deepen it — so a single operating point is the wrong
deliverable.  :func:`pareto_sweep` explores the whole trade-off instead:

1. anchor the sweep with the two extreme points — unconstrained
   ``objective="size"`` rewriting (best #N, depth ``d_max``) and
   ``objective="depth"`` rewriting (best depth ``d_min``);
2. for every depth budget ``d`` in ``[d_min, d_max)``, run size rewriting
   under the hard depth ceiling (``RewriteOptions.depth_budget`` — the
   ``try_*`` rules reject any candidate that could push a PO level past
   ``d``).  Each budget is one cold rewrite, seeded with the depth
   anchor's rewritten graph when the raw input is deeper than ``d`` and
   with the raw input otherwise;
3. compile every candidate through Algorithm 2 so each point is also
   reported in PLiM terms (#I instructions, #R work RRAMs), and
   equivalence-check it against the input;
4. deduplicate to the non-dominated set on the sweep's ``axes`` — the
   classic (#N, #D) pair by default, or any combination from
   :data:`PARETO_AXES` ((#I, #R), (#D, wear), …); executed axes
   additionally run each candidate on the machine model for cycle and
   endurance-wear metrics.

Every sweep point is one independent task (rewrite, Algorithm 2 compile,
equivalence check), so the points fan out over the same process-pool
seam as :func:`repro.core.batch.compile_many` (``workers``) and results
are identical for any worker count.  With a
:class:`~repro.core.cache.SynthesisCache` (``cache=``) the whole front
is memoized under the input's :meth:`~repro.mig.graph.Mig.fingerprint`,
so repeated sweeps of one circuit family are lookups — a hit changes the
sweep's wall time, never its output.

Example::

    >>> from repro.core.pareto import pareto_sweep
    >>> front = pareto_sweep(("i2c", "ci"), workers=1)
    >>> len(front.points) >= 1
    True
    >>> all(p.budget is None or p.depth <= p.budget for p in front)
    True
    >>> front.points == tuple(sorted(front.points, key=lambda p: p.depth))
    True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.batch import CircuitSpec, _resolve_spec, parallel_imap
from repro.core.cache import SynthesisCache
from repro.core.cost import measure_program
from repro.core.resilience import TaskFailure, TaskPolicy
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.errors import MigError
from repro.mig.analysis import depth as mig_depth
from repro.mig.equivalence import equivalent
from repro.mig.graph import Mig

#: metric names ``pareto_sweep(axes=...)`` accepts.  The first four are
#: free (every point carries them); ``cycles``/``wear`` additionally
#: execute each candidate's program on the machine model (width 1,
#: deterministic seeded inputs) — ``wear`` compares max per-cell writes
#: from the :mod:`repro.plim.endurance` report.
PARETO_AXES = (
    "num_gates", "depth", "num_instructions", "num_rrams", "cycles", "wear"
)
_DEFAULT_AXES = ("num_gates", "depth")
#: axes that need a machine execution per candidate
_EXECUTED_AXES = frozenset({"cycles", "wear"})


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate operating point of the (#N, #D) sweep.

    ``num_gates``/``depth`` are the MIG-level coordinates the dominance
    filter runs on; ``num_instructions``/``num_rrams`` are the same point
    carried through Algorithm 2 (the #I'/#R' columns of Table 1, and
    ``depth`` doubles as #D' — Algorithm 2 is structure-preserving, so the
    compiled MIG's depth equals the rewritten MIG's).
    """

    #: "size" / "depth" for the two unconstrained extremes, "budget=<d>"
    #: for depth-budgeted size rewriting
    label: str
    #: the depth budget used (``None`` for the two unconstrained extremes)
    budget: Optional[int]
    num_gates: int  # the paper's #N
    depth: int  # #D (== #D': Algorithm 2 does not change the MIG)
    num_instructions: int  # #I
    num_rrams: int  # #R
    #: equivalence-check mode against the input ("exhaustive"/"random"),
    #: or ``None`` when the sweep ran with ``verify=False``
    equivalence: Optional[str]
    seconds: float
    #: machine cycles of one execution (3 per RM3), measured only when an
    #: executed axis ("cycles"/"wear") is swept; ``None`` otherwise
    cycles: Optional[int] = None
    #: max per-cell write count over the work cells (the endurance
    #: hotspot), measured only when an executed axis is swept
    max_writes: Optional[int] = None

    @property
    def counts(self) -> tuple[int, int]:
        """The (#N, #D) coordinate (kept for the default-axes consumers)."""
        return (self.num_gates, self.depth)

    def metric(self, axis: str) -> int:
        """The point's value on one sweep axis (see :data:`PARETO_AXES`)."""
        value = self.max_writes if axis == "wear" else getattr(self, axis, None)
        if value is None:
            raise MigError(
                f"pareto point {self.label!r} carries no {axis!r} metric "
                f"(executed axes need a sweep with that axis requested)"
            )
        return value

    def coordinate(self, axes: tuple = _DEFAULT_AXES) -> tuple:
        """The point's coordinate on the sweep's axes."""
        return tuple(self.metric(a) for a in axes)

    def dominates(self, other: "ParetoPoint", axes: tuple = _DEFAULT_AXES) -> bool:
        """Strict Pareto dominance on ``axes``: no worse anywhere, better
        somewhere (all metrics are minimized)."""
        mine = self.coordinate(axes)
        theirs = other.coordinate(axes)
        return mine != theirs and all(m <= t for m, t in zip(mine, theirs))

    def to_dict(self) -> dict:
        """JSON-ready row (shared by ``plimc pareto --json``, the bench
        snapshot and the synthesis cache so the schemas cannot drift)."""
        return {
            "label": self.label,
            "budget": self.budget,
            "num_gates": self.num_gates,
            "depth": self.depth,
            "num_instructions": self.num_instructions,
            "num_rrams": self.num_rrams,
            "equivalence": self.equivalence,
            "seconds": round(self.seconds, 6),
            "cycles": self.cycles,
            "max_writes": self.max_writes,
        }

    @staticmethod
    def from_dict(data: dict) -> "ParetoPoint":
        """Inverse of :meth:`to_dict` (used by the synthesis cache)."""
        return ParetoPoint(
            label=data["label"],
            budget=data["budget"],
            num_gates=data["num_gates"],
            depth=data["depth"],
            num_instructions=data["num_instructions"],
            num_rrams=data["num_rrams"],
            equivalence=data["equivalence"],
            seconds=data["seconds"],
            cycles=data.get("cycles"),
            max_writes=data.get("max_writes"),
        )

    def __repr__(self) -> str:
        return (
            f"<ParetoPoint {self.label}: N={self.num_gates} D={self.depth} "
            f"I={self.num_instructions} R={self.num_rrams}>"
        )


@dataclass(frozen=True)
class ParetoFront:
    """Result of one :func:`pareto_sweep` run.

    ``points`` is the non-dominated (#N, #D) set in ascending-depth order
    (so descending #N along the frontier); ``dominated`` keeps the losing
    candidates for reporting.
    """

    circuit: str
    effort: int
    points: tuple[ParetoPoint, ...]
    dominated: tuple[ParetoPoint, ...]
    seconds: float
    #: True when one or more sweep tasks failed permanently under a skip
    #: policy — the frontier is then a *partial* (but still verified and
    #: staircase-valid) view of the trade-off
    incomplete: bool = False
    #: labels of the points lost to failed tasks ("size"/"depth" anchors,
    #: then "budget=<d>" points in ascending-budget order)
    failed_budgets: tuple = ()
    #: the structured failure records behind ``failed_budgets``, 1:1
    failures: tuple = ()
    #: the metric pair (or tuple) the dominance filter ran on; the classic
    #: (#N, #D) sweep by default
    axes: tuple = _DEFAULT_AXES

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def size_point(self) -> ParetoPoint:
        """The minimum-#N end of the frontier."""
        return min(self.points, key=lambda p: (p.num_gates, p.depth))

    @property
    def depth_point(self) -> ParetoPoint:
        """The minimum-#D end of the frontier."""
        return min(self.points, key=lambda p: (p.depth, p.num_gates))

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "effort": self.effort,
            "points": [p.to_dict() for p in self.points],
            "dominated": [p.to_dict() for p in self.dominated],
            "seconds": round(self.seconds, 6),
            "incomplete": self.incomplete,
            "failed_budgets": list(self.failed_budgets),
            "failures": [f.to_dict() for f in self.failures],
            "axes": list(self.axes),
        }

    @staticmethod
    def from_dict(data: dict) -> "ParetoFront":
        """Inverse of :meth:`to_dict` (used by the synthesis cache)."""
        return ParetoFront(
            circuit=data["circuit"],
            effort=data["effort"],
            points=tuple(ParetoPoint.from_dict(p) for p in data["points"]),
            dominated=tuple(ParetoPoint.from_dict(p) for p in data["dominated"]),
            seconds=data["seconds"],
            incomplete=data.get("incomplete", False),
            failed_budgets=tuple(data.get("failed_budgets", ())),
            failures=tuple(
                TaskFailure.from_dict(f) for f in data.get("failures", ())
            ),
            axes=tuple(data.get("axes", _DEFAULT_AXES)),
        )

    def __repr__(self) -> str:
        if not self.points:
            return f"<ParetoFront {self.circuit}: empty (incomplete)>"
        span = (
            f"D {self.depth_point.depth}..{self.size_point.depth}, "
            f"N {self.size_point.num_gates}..{self.depth_point.num_gates}"
        )
        flag = ", incomplete" if self.incomplete else ""
        return (
            f"<ParetoFront {self.circuit}: {len(self.points)} points "
            f"({span}{flag})>"
        )


def _compile_point(
    mig: Mig,
    rewritten: Mig,
    label: str,
    budget: Optional[int],
    verify: bool,
    fix_polarity: bool,
    start: float,
    execute: bool = False,
) -> ParetoPoint:
    """Algorithm 2 + equivalence check for one rewritten sweep point.

    ``execute=True`` additionally runs the compiled program once on the
    machine model (width 1, deterministic seeded inputs) to measure
    cycles and endurance wear — required when an executed axis
    ("cycles"/"wear") is swept.
    """
    program = PlimCompiler(
        CompilerOptions(fix_output_polarity=fix_polarity)
    ).compile(rewritten)
    cycles = max_writes = None
    if execute:
        machine, wear = measure_program(program, rewritten.pi_names())
        cycles, max_writes = machine.cycle_count, wear.max_writes
    equivalence = None
    if verify:
        check = equivalent(mig, rewritten)
        if not check:
            raise MigError(
                f"pareto sweep point {label!r} is not equivalent to the "
                f"input (mode={check.mode}, output="
                f"{check.failing_output!r}, counterexample="
                f"{check.counterexample})"
            )
        equivalence = check.mode
    return ParetoPoint(
        label=label,
        budget=budget,
        num_gates=rewritten.num_gates,
        depth=mig_depth(rewritten),
        num_instructions=program.num_instructions,
        num_rrams=program.num_rrams,
        equivalence=equivalence,
        seconds=time.perf_counter() - start,
        cycles=cycles,
        max_writes=max_writes,
    )


def _point_task(payload, cache=None):
    """One sweep point, run inside a worker: a cold rewrite of ``seed``
    under ``options``, then Algorithm 2 and the equivalence check.

    ``seed`` is ``None`` for the raw input (rebuilt from ``spec``) or the
    depth anchor's rewritten graph for budgets below the input's depth;
    verification always runs against the raw input.  The depth anchor
    ships its rewritten graph back, since it seeds those budgets.  Returns
    ``(point, shipped_rewritten_or_None)``.
    """
    spec, label, options, seed, verify, fix_polarity, execute = payload
    _, mig = _resolve_spec(spec)
    start = time.perf_counter()
    rewritten = rewrite_for_plim(mig if seed is None else seed, options, cache=cache)
    point = _compile_point(
        mig, rewritten, label, options.depth_budget, verify, fix_polarity,
        start, execute,
    )
    shipped = rewritten if options.objective == "depth" else None
    return point, shipped


def _subsample(budgets: list[int], max_points: Optional[int]) -> list[int]:
    """Evenly subsample ``budgets`` to at most ``max_points``.

    Both ends are kept whenever two or more points fit; with exactly one,
    the low (tightest-budget) end wins.  ``0`` keeps no intermediate
    budgets — the sweep then consists of the two extremes only.
    """
    if max_points is None or len(budgets) <= max_points:
        return budgets
    if max_points <= 0:
        return []
    if max_points == 1:
        return budgets[:1]
    span = len(budgets) - 1
    picked = {round(i * span / (max_points - 1)) for i in range(max_points)}
    return [budgets[i] for i in sorted(picked)]


def _non_dominated(
    candidates: list[ParetoPoint],
    axes: tuple = _DEFAULT_AXES,
) -> tuple[list[ParetoPoint], list[ParetoPoint]]:
    """Split candidates into (frontier, dominated-or-duplicate) on ``axes``.

    Candidates are ranked by (reversed axes, #I, #R, label) — for the
    default (#N, #D) axes exactly the classic (depth, #N, #I, #R, label)
    staircase order, so default sweeps are bit-identical to the
    historical 2-axis filter — and filtered by strict Pareto dominance
    over the full candidate set (N-dimensional: no candidate may be ≤
    everywhere and < somewhere).  Duplicate coordinates keep the
    best-ranked point; the ranking is total (label last), so the split is
    deterministic for any candidate arrival order.
    """
    ranked = sorted(
        candidates,
        key=lambda p: (
            p.coordinate(tuple(reversed(axes))),
            p.num_instructions,
            p.num_rrams,
            p.label,
        ),
    )
    front: list[ParetoPoint] = []
    dominated: list[ParetoPoint] = []
    seen: set = set()
    for point in ranked:
        coord = point.coordinate(axes)
        if coord in seen or any(q.dominates(point, axes) for q in ranked):
            dominated.append(point)
            continue
        front.append(point)
        seen.add(coord)
    return front, dominated


def pareto_sweep(
    circuit: Union[Mig, CircuitSpec],
    *,
    effort: int = 4,
    workers: Optional[int] = None,
    max_points: Optional[int] = None,
    verify: bool = True,
    paper_accounting: bool = True,
    cache: Optional[SynthesisCache] = None,
    policy: Optional[TaskPolicy] = None,
    axes: tuple = _DEFAULT_AXES,
    progress: Optional[Callable[[ParetoPoint], None]] = None,
) -> ParetoFront:
    """Sweep the cost trade-off of ``circuit`` and return the frontier.

    ``axes`` selects the metric pair (or tuple) the dominance filter
    minimizes — the classic MIG-level ``("num_gates", "depth")`` by
    default, or any combination from :data:`PARETO_AXES`, e.g.
    ``("num_instructions", "num_rrams")`` for the compiled-program
    trade-off or ``("depth", "wear")`` for latency vs. endurance.  The
    candidate generator is unchanged (depth-budgeted rewriting between
    the size and depth extremes — the diversity knob); only the
    measurement and the dominance filter follow the axes, and executed
    axes ("cycles"/"wear") additionally run every candidate's program on
    the machine model with deterministic seeded inputs.  Results remain
    deterministic for any worker count, and a cache hit never changes the
    output (fronts are keyed per-axes, on top of the cache's
    ``ALGORITHM_REVISION``).

    ``circuit`` is anything :func:`repro.core.batch.compile_many` accepts:
    an :class:`~repro.mig.graph.Mig`, a registry name, or a
    ``(name, scale)`` pair (name specs are resolved inside the workers, so
    only a tiny payload crosses the process boundary — except budgets
    below the raw input's depth, whose payload carries the shared
    depth-rewritten seed graph; ``max_points`` bounds how many).
    ``workers`` fans the sweep points out over a process pool (``None``,
    the default, means one worker per CPU — the same convention as
    :func:`~repro.core.batch.compile_many`); results are deterministic
    for any worker count.  ``max_points`` caps the number of intermediate
    depth budgets (evenly subsampled; ``0`` sweeps the two extremes
    only); ``verify=True`` equivalence-checks every point against the
    input inside its worker and raises :class:`~repro.errors.MigError` on
    any mismatch.  ``paper_accounting=False`` charges output-polarity
    fix-ups in the Algorithm 2 compile (#I/#R), like ``plimc --honest``.

    ``cache`` attaches a :class:`~repro.core.cache.SynthesisCache`: the
    finished front is memoized under the input's fingerprint and the
    sweep parameters, and every per-point rewrite under its own content
    address, so repeated sweeps of one circuit family — even across
    processes, with a ``cache_dir`` — reuse points.  For a given build of
    a circuit a cache hit never changes the sweep's output, only its wall
    time.
    Note the address is the *content* fingerprint, which canonicalizes
    gate-creation order: sweeping a reordered build of an already-cached
    circuit returns the cached representative's front (functionally
    identical, possibly not bit-identical to what a cold sweep of the
    reordered build would produce).  Order-sensitivity studies must
    therefore run uncached — exactly as ``run_table1`` does for its
    ``shuffled=True`` rows.

    ``policy`` attaches a :class:`~repro.core.resilience.TaskPolicy` to
    the sweep's pools.  Under ``on_error="skip"``/``"degrade"`` a
    permanently failed task — a crashed or hung worker, a raised
    exception after all retries — no longer aborts the sweep: the
    surviving points are staircase-filtered as usual and the front comes
    back flagged ``incomplete=True`` with the lost point labels in
    ``failed_budgets``, one label per failure (an anchor failure loses
    that extreme and every intermediate budget).  Partial fronts are
    *never* cached, so a later healthy sweep recomputes the full
    frontier.  ``progress`` is an optional callback invoked with each
    :class:`ParetoPoint` as it completes (anchors first, then budgets, in
    input order; a cached front replays its points) — the serve layer
    streams these through ``GET /jobs/<id>``.

    Example::

        >>> from repro import pareto_sweep
        >>> front = pareto_sweep(("ctrl", "ci"), workers=1)
        >>> front.depth_point.depth <= front.size_point.depth
        True
        >>> any(p.dominates(q) for p in front for q in front)
        False
    """
    axes = tuple(axes)
    if len(axes) < 2:
        raise MigError(f"pareto axes need at least two metrics, got {axes!r}")
    if len(set(axes)) != len(axes):
        raise MigError(f"pareto axes must be distinct, got {axes!r}")
    unknown = [a for a in axes if a not in PARETO_AXES]
    if unknown:
        raise MigError(
            f"unknown pareto axes {unknown!r}; expected a subset of "
            f"{PARETO_AXES}"
        )
    execute = bool(_EXECUTED_AXES.intersection(axes))
    name, mig = _resolve_spec(circuit)
    # Ship the resolved MIG to the workers when the caller passed one;
    # name/(name, scale) specs are rebuilt worker-side instead.
    spec = mig if isinstance(circuit, Mig) else circuit
    wall_start = time.perf_counter()
    fix_polarity = not paper_accounting

    fingerprint = None
    front_params = None
    if cache is not None:
        fingerprint = mig.fingerprint()
        front_params = {
            "circuit": name,
            "effort": effort,
            "max_points": max_points,
            "verify": verify,
            "paper_accounting": paper_accounting,
            "axes": list(axes),
        }
        hit = cache.get_front(fingerprint, front_params)
        if hit is not None:
            if progress is not None:
                # A cache hit replays the front's points through the
                # progress hook so streaming consumers (the serve layer's
                # job progress feed) observe the same shape either way.
                for point in hit.points:
                    progress(point)
            return hit

    failures: list[TaskFailure] = []
    failed_labels: list[str] = []

    def run_phase(points: list) -> dict:
        """Run one phase's ``(label, options, seed)`` points as pool tasks;
        returns ``{label: (point, shipped)}`` for the ones that finished."""
        outcomes = parallel_imap(
            _point_task,
            [
                (spec, label, options, seed, verify, fix_polarity, execute)
                for label, options, seed in points
            ],
            workers=workers,
            cache=cache,
            policy=policy,
        )
        done = {}
        for (label, _, _), outcome in zip(points, outcomes):
            if isinstance(outcome, TaskFailure):
                failures.append(outcome)
                failed_labels.append(label)
                continue
            point, shipped = outcome
            if progress is not None:
                progress(point)
            done[label] = (point, shipped)
        return done

    # The two unconstrained extremes anchor the budget range.  The depth
    # anchor's rewritten graph seeds every budget below the raw input's
    # depth (the rewrite is deterministic), so no worker re-derives it.
    anchors = run_phase(
        [
            ("size", RewriteOptions(effort=effort), None),
            ("depth", RewriteOptions(effort=effort, objective="depth"), None),
        ],
    )
    candidates = [point for point, _ in anchors.values()]
    # Intermediate budgets need both anchors: the depth extreme is the
    # range's floor, the size extreme its ceiling.  Losing either
    # degrades to the surviving extreme(s) only.
    if len(anchors) == 2:
        (size_pt, _), (depth_pt, depth_seed) = anchors["size"], anchors["depth"]
        input_depth = mig_depth(mig.cleanup()[0])
        budgets = run_phase(
            [
                (
                    f"budget={b}",
                    RewriteOptions(effort=effort, depth_budget=b),
                    depth_seed if input_depth > b else None,
                )
                for b in _subsample(
                    list(range(depth_pt.depth, size_pt.depth)), max_points
                )
            ],
        )
        candidates += [point for point, _ in budgets.values()]
    front, dominated = _non_dominated(candidates, axes)
    result = ParetoFront(
        circuit=name,
        effort=effort,
        points=tuple(front),
        dominated=tuple(dominated),
        seconds=time.perf_counter() - wall_start,
        incomplete=bool(failures),
        failed_budgets=tuple(failed_labels),
        failures=tuple(failures),
        axes=axes,
    )
    if cache is not None and not result.incomplete:
        # partial fronts are never cached: a later healthy sweep must
        # recompute the budgets this one lost
        cache.put_front(fingerprint, front_params, result)
    return result
