"""One measured process of a workload: set up, run the closed loop, check.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE OUT_JSON [SPANS_JSON]

MODE is `setup` (set up, report the set-up time, exit), `plain` (serve the
pool) or `traced` (install the tracer, then serve the pool).  Both serve
whole passes over the pool, at least one, and start another only while it
is expected to end within half a pass of SECONDS, so every query has the
same weight in the figures and the run length stays near SECONDS.  In
`setup` and `plain` mode the times are scaled to the reference host speed
(see calibration.py); the raw times are recorded too.
The record goes to OUT_JSON; run.py turns records into metrics.
"""

import time

_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
from calibration import SETUP_SAMPLES, Calibrator  # noqa: E402

MODULES = {
    "hull-query": "hull_query",
    "series-expand": "series_expand",
    "oracle": "oracle",
    "cli-cold": "cli_cold",
}

#: calibration kernel of each workload (see calibration.py)
CALIBRATION = {
    "hull-query": "python",
    "series-expand": "python",
    "oracle": "numpy",
    "cli-cold": "child",
}

_MAX_MESSAGES = 20


class Crashed:
    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


def _serve(queries, seconds: float, tracer, calibrator):
    """Whole passes over `queries`; per query, the start and latency of each
    pass.  `elapsed` leaves out the calibration kernel's time."""
    clock = time.perf_counter
    outputs: dict = {}
    starts: list[list[float]] = [[] for _ in queries]
    latencies: list[list[float]] = [[] for _ in queries]
    passes = 0
    start = last_sample = clock()
    if calibrator is not None:
        calibrator.sample()
    while True:
        for index, query in enumerate(queries):
            if tracer is not None:
                tracer.query_id = passes * len(queries) + index
            if calibrator is not None and clock() - last_sample >= calibrator.cadence:
                calibrator.sample()
                last_sample = clock()
            t0 = clock()
            try:
                out = query.run()
            except common.UNKNOWN_ERRORS as exc:
                out = common.Unknown(str(exc))
            except Exception as exc:  # a crash is a failed query; keep measuring
                out = Crashed(exc)
            latencies[index].append(clock() - t0)
            starts[index].append(t0)
            outputs.setdefault(index, out)
        passes += 1
        spent = calibrator.spent if calibrator is not None else 0.0
        elapsed = clock() - start - spent
        if elapsed + 0.5 * elapsed / passes > seconds:
            if calibrator is not None:
                calibrator.sample()
            return outputs, starts, latencies, passes, elapsed


def _scaled(calibrator, starts, latencies):
    return [
        [lat * calibrator.factor(t0, t0 + lat) for t0, lat in zip(ts, lats)]
        for ts, lats in zip(starts, latencies)
    ]


def _check_all(queries, outputs):
    failed, unknown, messages = set(), set(), []
    for i, out in outputs.items():
        query = queries[i]
        if isinstance(out, Crashed):
            failed.add(i)
            messages.append(f"query {i} ({query.kind}) crashed: {out.reason}")
            continue
        if isinstance(out, common.Unknown) or query.is_unknown(out):
            unknown.add(i)
            continue
        try:
            query.check(out, outputs)
        except common.CheckFailed as exc:
            failed.add(i)
            messages.append(f"query {i} ({query.kind}): {exc}")
    return failed, unknown, messages


def _self_test(queries, outputs, good):
    """Feed one corrupted answer of each query kind back to its check."""
    tested, missed = [], []
    for i in sorted(good):
        query = queries[i]
        if query.kind in tested:
            continue
        tested.append(query.kind)
        try:
            query.check(query.corrupt(outputs[i]), outputs)
        except common.CheckFailed:
            continue
        missed.append(query.kind)
    return tested, missed


def main(argv) -> int:
    workload, seed, seconds, mode, out_path = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    seed, seconds = int(seed), float(seconds)
    module = importlib.import_module(MODULES[workload])
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    queries = module.build(seed, tracer)
    setup_s = time.perf_counter() - _START
    record = {"workload": workload, "seed": seed, "mode": mode, "setup_s": setup_s, "raw_setup_s": setup_s}
    calibrator = None
    if mode != "traced":
        calibrator = Calibrator(CALIBRATION[workload])
        for _ in range(SETUP_SAMPLES):
            calibrator.sample()
        record["setup_s"] = setup_s * calibrator.nominal / statistics.median(calibrator.durations)
        calibrator.spent = 0.0
    if mode == "setup":
        Path(out_path).write_text(json.dumps(record))
        return 0

    setup_trace = None
    if tracer is not None:
        setup_trace = tracer.snapshot()
        tracer.reset()
    outputs, starts, raw_latencies, passes, elapsed = _serve(queries, seconds, tracer, calibrator)
    latencies = raw_latencies if calibrator is None else _scaled(calibrator, starts, raw_latencies)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.enabled = False
        if spans_path:
            tracer.write_spans(spans_path)

    failed, unknown, messages = _check_all(queries, outputs)
    good = set(outputs) - failed - unknown
    tested, missed = _self_test(queries, outputs, good)

    bits, bits_all, endpoint_bits = [], [], []
    for i in good:
        query, out = queries[i], outputs[i]
        enclosures = query.enclosures(out)
        parts = query.standard_parts(out) if query.standard_parts else enclosures
        bits += [b for b in map(common.enclosure_bits, parts) if b is not None]
        bits_all += [b for b in map(common.enclosure_bits, enclosures) if b is not None]
        endpoint_bits += map(common.endpoint_bits, enclosures)

    record.update(
        pool_size=len(queries),
        samples=passes * len(queries),
        passes=passes,
        elapsed_s=elapsed,
        latencies_s=latencies,
        raw_latencies_s=raw_latencies,
        calibration=None if calibrator is None else {
            "kernel": calibrator.kind,
            "nominal_s": calibrator.nominal,
            "samples": len(calibrator.durations),
            "median_s": statistics.median(calibrator.durations),
        },
        peak_rss_kb=usage,
        failed_samples=passes * len(failed),
        unknown_samples=passes * len(unknown),
        messages=messages[:_MAX_MESSAGES],
        self_test={"kinds": tested, "missed": missed},
        enclosure_bits_min=min(bits) if bits else None,
        enclosure_bits_min_all=min(bits_all) if bits_all else None,
        max_endpoint_bits=max(endpoint_bits) if endpoint_bits else 0,
        terms_read_per_pass=sum(queries[i].terms_read(outputs[i]) for i in good),
    )
    if tracer is not None:
        record["trace"] = tracer.snapshot()
        record["setup_trace"] = setup_trace
        extra = getattr(module, "extra_metrics", None)
        record["extra"] = extra() if extra is not None else {}
    Path(out_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
