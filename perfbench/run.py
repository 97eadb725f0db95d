"""ihull benchmark: one seeded closed-loop workload, checked, with metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/ihull`).
Workloads: hull-query, series-expand, oracle, cli-cold (see README.md).

--trace 0 prints the end-to-end metrics.  The workload is set up in
SETUP_RUNS fresh processes (set-up time is their median); the last one then
serves the query pool in a closed loop (one client, one query at a time) in
whole passes for about S seconds, and at least once over.  The latency
figures are taken over each query's median latency across the passes, and
the throughput over the time spent in queries.  Times are scaled to the
reference host speed by a calibration kernel (calibration.py); the record
also holds the raw figures.  The run and every process it starts are pinned
to one core, so that the kernel and the queries see the same core.  Every distinct answer is
checked, and a corrupted copy of one answer of each kind must fail its check.

--trace 1 prints the per-layer metrics.  One plain process and two traced
processes each get S/3 seconds, in whole passes over the pool, at least
one; the layer figures are per pass.  Count metrics must agree exactly
between the two traced processes; the tracing overhead is the drop in
throughput from the plain process to the first traced one.

The last line of standard output is the result object; the line before it
is the full record (rates, tail percentile, sample counts, environment),
which is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hull-query", "series-expand", "oracle", "cli-cold")
SETUP_RUNS = 5
TAIL_LADDER = (50, 75, 90, 95, 99)
#: every worker of one run must have ended this long after the run started
RUN_BUDGET_S = 170
_START = time.monotonic()


def _worker(workload, seed, seconds, mode, tag, spans=False) -> dict:
    out_dir = HERE / "out"
    out_path = out_dir / f"{workload}-seed{seed}-{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode, str(out_path)]
    if spans:
        argv.append(str(out_dir / f"{workload}-seed{seed}-{tag}-spans.json"))
    budget = max(1.0, RUN_BUDGET_S - (time.monotonic() - _START))
    # own process group, so a timeout also ends the CLI children of cli-cold
    with subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            _, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{mode} exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(out_path.read_text())


def _tail(latencies: list[float]) -> tuple[int, float]:
    """Highest ladder percentile with at least ten distinct queries beyond
    it, and its value over the per-query `latencies` (nearest rank).

    The percentile depends on the pool size only, so a faster program, which
    serves more passes, is measured at the same percentile."""
    pool_size = len(latencies)
    percentile = max(p for p in TAIL_LADDER if p == TAIL_LADDER[0] or pool_size * (100 - p) >= 1000)
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return percentile, ordered[rank - 1]


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ihull").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def _problems(rec: dict) -> list[str]:
    problems = list(rec["messages"])
    if rec["self_test"]["missed"]:
        problems.append(f"self-test: corrupted answers passed for {rec['self_test']['missed']}")
    if not rec["self_test"]["kinds"]:
        problems.append("self-test: no correct answer to corrupt")
    if rec["enclosure_bits_min"] is None:
        problems.append("no non-exact enclosure was reported")
    return problems


def _timing(rec: dict, setups: list[float], key: str) -> tuple[dict, int]:
    lat = [statistics.median(samples) for samples in rec[key]]
    percentile, tail = _tail(lat)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "throughput_qps": (rec["samples"] / sum(map(sum, rec[key])), "1/s"),
    }, percentile


def _plain(args) -> tuple[dict, dict]:
    setups = [
        _worker(args.workload, args.seed, args.seconds, "setup", f"setup{k}")
        for k in range(SETUP_RUNS - 1)
    ]
    rec = _worker(args.workload, args.seed, args.seconds, "plain", "plain")
    setups.append(rec)
    metrics, percentile = _timing(rec, [r["setup_s"] for r in setups], "latencies_s")
    raw, _ = _timing(rec, [r["raw_setup_s"] for r in setups], "raw_latencies_s")
    metrics.update(
        peak_rss_mb=(rec["peak_rss_kb"] / 1024, "MB"),
        enclosure_bits_min=(rec["enclosure_bits_min"] or 0.0, "bits"),
    )
    record = {
        "setup_runs_s": [r["setup_s"] for r in setups],
        "calibration": rec["calibration"],
        # the timing metrics without the host-speed scaling
        "raw": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
        # the two end-to-end metrics that are 0 when all is well, so they
        # cannot be listed in BENCHMARK.json; printed here with their unit
        "error_rate": {"value": rec["failed_samples"] / rec["samples"], "unit": "ratio"},
        "unknown_rate": {"value": rec["unknown_samples"] / rec["samples"], "unit": "ratio"},
        "tail_percentile": percentile,
        "samples": rec["samples"],
        "pool_size": rec["pool_size"],
        "passes": rec["passes"],
        "problems": _problems(rec),
        "self_test_kinds": rec["self_test"]["kinds"],
    }
    return metrics, {"record": record, "attempted": rec["samples"], "failed": rec["failed_samples"]}


def _per_pass(rec: dict) -> dict:
    """Per-layer metrics of one traced record, per pass over the pool."""
    trace, passes = rec["trace"], rec["passes"]
    calls, total, self_time, counts = trace["calls"], trace["total"], trace["self"], trace["counts"]
    n = lambda d, k: d.get(k, 0) / passes
    harness_probes = counts.get("hull.harness_probes", 0)
    hull_distances = calls.get("hull.hull_distance", 0)
    distances = calls.get("cover.distance", 0)
    computed = n(counts, "lcf.terms_computed")
    read = rec["terms_read_per_pass"]
    return {
        "intervals.mul_calls": (n(calls, "intervals.mul"), "count"),
        "intervals.add_calls": (n(calls, "intervals.add"), "count"),
        "intervals.self_s": (n(self_time, "intervals.mul") + n(self_time, "intervals.add"), "s"),
        "intervals.max_endpoint_bits": (rec["max_endpoint_bits"], "bits"),
        "intervals.enclosure_bits_min_all": (rec["enclosure_bits_min_all"] or 0.0, "bits"),
        "lcf.mul_calls": (n(calls, "lcf.mul"), "count"),
        "lcf.mul_self_s": (n(self_time, "lcf.mul"), "s"),
        "lcf.sqrt_calls": (n(calls, "lcf.sqrt"), "count"),
        "lcf.sqrt_s": (n(total, "lcf.sqrt"), "s"),
        "lcf.inverse_s": (n(total, "lcf.inverse"), "s"),
        "lcf.cos_sin_s": (n(total, "lcf.cos") + n(total, "lcf.sin"), "s"),
        "lcf.terms_computed": (computed, "count"),
        "lcf.terms_read": (read, "count"),
        "lcf.useful_term_ratio": (read / computed if computed else 1.0, "ratio"),
        "lcf.indeterminate_raised": (n(counts, "raised.IndeterminateComparison"), "count"),
        "cover.branch_indeterminate": (n(counts, "raised.BranchIndeterminate"), "count"),
        "cover.distance_calls": (n(calls, "cover.distance"), "count"),
        "cover.distance_s": (n(total, "cover.distance"), "s"),
        "cover.distance_self_s": (n(self_time, "cover.distance"), "s"),
        "cover.chord_share": (calls.get("cover.chord", 0) / distances if distances else 0.0, "ratio"),
        "cover.classify_calls": (n(calls, "cover.classify"), "count"),
        "cover.classify_s": (n(total, "cover.classify"), "s"),
        "hull.in_galaxy_calls": (n(calls, "hull.in_galaxy"), "count"),
        "hull.in_galaxy_s": (n(total, "hull.in_galaxy"), "s"),
        "hull.distance_calls_per_hull_distance": (
            counts.get("hull.distances_in_hull_distance", 0) / hull_distances if hull_distances else 0.0,
            "ratio",
        ),
        "spaces.oracle_calls_per_probe": (
            counts.get("spaces.oracle_calls_in_harness", 0) / harness_probes if harness_probes else 0.0,
            "ratio",
        ),
        "probes.gen_s": (rec["setup_trace"]["total"].get("probes.gen", 0.0), "s"),
        "gridoracle.nodes": (n(counts, "gridoracle.nodes"), "count"),
        "gridoracle.edges": (n(counts, "gridoracle.edges"), "count"),
        "gridoracle.build_s": (n(total, "gridoracle.build"), "s"),
        "gridoracle.dijkstra_s": (n(total, "gridoracle.dijkstra"), "s"),
        "parsing.parse_s": (n(total, "parsing.parse") + n(total, "parsing.parse_expression"), "s"),
        "parsing.format_s": (n(total, "parsing.format"), "s"),
        "cli.import_s": (rec["extra"].get("cli.import_s", 0.0), "s"),
        "cli.scipy_import_s": (rec["extra"].get("cli.scipy_import_s", 0.0), "s"),
    }


def _traced(args) -> tuple[dict, dict]:
    share = args.seconds / 3
    plain = _worker(args.workload, args.seed, share, "plain", "trace-plain")
    traced = [
        _worker(args.workload, args.seed, share, "traced", f"trace{k}", spans=True) for k in (1, 2)
    ]
    layers = [_per_pass(rec) for rec in traced]
    counts = [name for name, (_, unit) in layers[0].items() if unit in ("count", "bits", "ratio")]
    mismatched = [name for name in counts if layers[0][name][0] != layers[1][name][0]]
    plain_qps = plain["samples"] / plain["elapsed_s"]
    traced_qps = traced[0]["samples"] / traced[0]["elapsed_s"]
    metrics = dict(layers[0])
    metrics["trace.plain_qps"] = (plain_qps, "1/s")
    metrics["trace.traced_qps"] = (traced_qps, "1/s")
    metrics["trace.overhead_ratio"] = (1 - traced_qps / plain_qps, "ratio")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    recs = [plain, *traced]
    problems = [p for rec in recs for p in _problems(rec)]
    if mismatched:
        problems.append(f"count metrics differ between traced runs: {mismatched}")
    record = {
        "passes": [rec["passes"] for rec in traced],
        "pool_size": plain["pool_size"],
        "problems": problems,
    }
    return metrics, {
        "record": record,
        "attempted": sum(rec["samples"] for rec in recs),
        "failed": sum(rec["failed_samples"] for rec in recs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ihull" / "__init__.py").is_file():
        print(f"perfbench: no ihull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    metrics, result = (_traced if args.trace else _plain)(args)
    record = result["record"]
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=_environment(),
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    correct = not record["problems"] and result["failed"] == 0
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-result.json").write_text(
        json.dumps(record, indent=2)
    )
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
