"""Compare two sets of perfbench result files, workload by workload.

Each side is a result file written by ``run.py`` or a directory of them;
several runs of one workload are reduced to their median.  For every
workload present on both sides this prints each end-to-end metric's delta
against its BENCHMARK.json bound, each per-layer metric's delta and each
traced layer's self time and share of the traced wall time.  A layer that
takes at least :data:`MIN_LAYER_SHARE` of the traced wall time and whose
share grew by more than :data:`LAYER_BOUND` is flagged, even when the
end-to-end numbers hide it; any flag or end-to-end regression makes the
exit status 1.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: layers below this share of the traced wall time are reported, not flagged
MIN_LAYER_SHARE = 0.05
#: growth of a layer's share of the traced wall time (relative to the old
#: median share) that flags it; the largest bound BENCHMARK.json allows.
#: The share, unlike the self time, cancels the host's speed swings: over
#: five seeds on a 2-vCPU shared host, the self time of a layer spread by
#: 0.28-0.62 (quartile distance / median), its share by 0.04-0.26.
LAYER_BOUND = 0.25


def _load(path: str) -> dict:
    """workload → {"metrics": {name: [values]}, "self": {layer: [s]},
    "share": {layer: [share of the traced wall]}, "wall": [s]}"""
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    runs: dict = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if "workload" not in record:  # Chrome traces share the directory
            continue
        side = runs.setdefault(
            record["workload"], {"metrics": {}, "self": {}, "share": {}, "wall": []}
        )
        for name, value in record["metrics"].items():
            side["metrics"].setdefault(name, []).append(value["value"])
        layers = record.get("layers") or {}
        if layers:
            side["wall"].append(layers["wall_s"])
            for layer, row in layers["self"].items():
                side["self"].setdefault(layer, []).append(row["self_s"])
                side["share"].setdefault(layer, []).append(row["self_s"] / layers["wall_s"])
    return runs


def _delta(old: float, new: float) -> float:
    return (new - old) / abs(old) if old else 0.0


def _worse(delta: float, better: str) -> float:
    """How much worse ``delta`` is, as a positive share (0 if better)."""
    return max(0.0, delta if better == "lower" else -delta)


def compare(old_path: str, new_path: str, spec: dict) -> int:
    old, new = _load(old_path), _load(new_path)
    directions = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    for workload in sorted(set(old) & set(new)):
        a, b = old[workload], new[workload]
        print(f"== {workload}")
        print(f"  {'metric':<24} {'unit':<9} {'old':>14} {'new':>14} {'delta':>8}")
        for name in sorted(set(a["metrics"]) & set(b["metrics"])):
            info = directions.get(name, {"unit": "", "better": "lower"})
            x = statistics.median(a["metrics"][name])
            y = statistics.median(b["metrics"][name])
            delta = _delta(x, y)
            verdict = ""
            if "bound" in info and _worse(delta, info["better"]) > info["bound"]:
                verdict = f"  REGRESSION (bound {info['bound']:.0%})"
                flagged += 1
            print(f"  {name:<24} {info['unit']:<9} {x:>14.6g} {y:>14.6g} {delta:>+8.1%}{verdict}")
        if a["wall"] and b["wall"]:
            print(
                f"  {'layer self time':<30} {'old s':>9} {'new s':>9} {'delta':>8}"
                f" {'old share':>9} {'new share':>9} {'delta':>8}"
            )
            for layer in sorted(set(a["self"]) | set(b["self"])):
                x = statistics.median(a["self"].get(layer, [0.0]))
                y = statistics.median(b["self"].get(layer, [0.0]))
                u = statistics.median(a["share"].get(layer, [0.0]))
                v = statistics.median(b["share"].get(layer, [0.0]))
                verdict = ""
                if u >= MIN_LAYER_SHARE and _delta(u, v) > LAYER_BOUND:
                    verdict = f"  LAYER REGRESSION (bound {LAYER_BOUND:.0%} of share)"
                    flagged += 1
                print(
                    f"  {layer:<30} {x:>9.4f} {y:>9.4f} {_delta(x, y):>+8.1%}"
                    f" {u:>9.1%} {v:>9.1%} {_delta(u, v):>+8.1%}{verdict}"
                )
    only = sorted(set(old) ^ set(new))
    if only:
        print(f"workloads on one side only: {', '.join(only)}")
    print(f"{flagged} regression(s) flagged")
    return 1 if flagged else 0
