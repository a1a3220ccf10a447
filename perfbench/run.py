"""perfbench: the repository's end-to-end and per-layer benchmark.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

``--trace 1`` adds a traced pass (or, for ``serve_mix``, an in-process
traced replay), prints a per-layer self-time table, writes a Chrome trace
to ``perfbench/results/`` and reports the per-layer metrics instead of
the end-to-end ones.  ``--workload all`` runs every workload, each in a
fresh process, and prints every end-to-end metric by name with its unit.
``--compare OLD NEW`` compares two result files or directories of them.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("pipeline", "compile_only", "serve_mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files or directories of them")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required (or --compare OLD NEW)")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    spec = common.load_spec()
    if args.compare:
        import compare

        return compare.compare(args.compare[0], args.compare[1], spec)
    common.require_source_tree()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return _run_all(spec, args.seed, seconds, args.trace)
    return _run_one(spec, args.workload, args.seed, seconds, bool(args.trace))


def _run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    common.RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = common.RESULTS_DIR / f"trace-{workload}-seed{seed}.json"
    if workload == "serve_mix":
        import serve_workload

        try:
            outcome = serve_workload.run(seed, seconds, trace, trace_path)
        except serve_workload.InvalidRun as error:
            print(f"perfbench: invalid run: {error}", file=sys.stderr)
            return 3
    else:
        import compile_workloads

        outcome = compile_workloads.run(workload, seed, seconds, trace, trace_path)

    if trace:
        # layers a workload never reaches (the server's on a compile
        # workload, the verifier's on serve_mix) read zero
        metrics = {
            m["name"]: outcome["per_layer"].get(m["name"], common.metric(0, m["unit"]))
            for m in spec["per_layer"]
        }
    else:
        metrics = {m["name"]: outcome["e2e"][m["name"]] for m in spec["end_to_end"]}
    attempted = outcome["attempted"]
    failed = min(len(outcome["failures"]), attempted)
    for line in outcome["report"]:
        print(line)
    for problem in outcome["failures"] + outcome["errors"]:
        print(f"  FAILED: {problem}")
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"  {name:<24} {value['value']:>16.6g} {value['unit']}")
    result = {
        "correct": not outcome["failures"] and not outcome["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        layers=outcome["layers"],
        problems=outcome["failures"] + outcome["errors"],
    )
    out = common.RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


def _run_all(spec: dict, seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process; a summary of every metric."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print()
    print(f"{'metric':<24} {'unit':<9}" + "".join(f"{w:>20}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<24} {unit:<9}" + "".join(
            f"{results[w]['metrics'][name]['value']:>20.6g}" for w in WORKLOADS))
    print(f"{'error_rate':<24} {'ratio':<9}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>20.4g}" for w in WORKLOADS))
    print(f"{'correct':<24} {'':<9}" + "".join(f"{str(results[w]['correct']):>20}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
