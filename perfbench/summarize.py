"""Summarize the result records under perfbench/out/ into one JSON document.

    python3 perfbench/summarize.py > perfbench/baseline.json

For every workload and metric it gives the median, the quartiles and the
spread (interquartile distance over the median) of the plain runs (and of
the raw, unscaled timing figures), the
per-layer figures of the traced runs, and the seeds and environment they
came from.  Later changes compare their own summary against baseline.json.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main() -> int:
    plain, traced = defaultdict(list), defaultdict(list)
    for path in sorted(OUT.glob("*-result.json")):
        record = json.loads(path.read_text())
        (traced if record["trace"] else plain)[record["workload"]].append(record)
    summary = {}
    for workload in sorted(set(plain) | set(traced)):
        runs = plain.get(workload, [])
        entry = {
            "seeds": [r["seed"] for r in runs],
            "environment": (runs or traced[workload])[0]["environment"],
            "error_rate_max": max((r["error_rate"]["value"] for r in runs), default=None),
            "unknown_rate_max": max((r["unknown_rate"]["value"] for r in runs), default=None),
            "tail_percentile": sorted({r["tail_percentile"] for r in runs}),
            "end_to_end": {},
            "raw": {},
            "per_layer": {},
        }
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], **_stats(values)}
        for name in runs[0].get("raw", {}) if runs else []:
            values = [r["raw"][name]["value"] for r in runs]
            entry["raw"][name] = {"unit": runs[0]["raw"][name]["unit"], **_stats(values)}
        layer_runs = traced.get(workload, [])
        for name in layer_runs[0]["metrics"] if layer_runs else []:
            values = [r["metrics"][name]["value"] for r in layer_runs]
            entry["per_layer"][name] = {"unit": layer_runs[0]["metrics"][name]["unit"], **_stats(values)}
        entry["traced_seeds"] = [r["seed"] for r in layer_runs]
        summary[workload] = entry
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
