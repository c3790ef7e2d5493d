"""Benchmark child process: one fresh interpreter per set-up probe or measurement.

    python3 bench/worker.py setup   <workload>
    python3 bench/worker.py measure <workload> <seed> <seconds> <trace 0|1> <outdir>

``setup`` times ``import ghlin`` plus the workload's set-up calls and prints
the reference values.  ``measure`` runs ``ghlin.cli.run`` in process, one
untimed warm-up run and then timed runs until ``seconds`` have passed,
checks every run's outputs, and prints one JSON object on its last line.
With trace 1 it alternates untraced and traced runs, so the traced run's
per-layer metrics and the tracing overhead come from the same process.

``run.py`` starts these with BLAS/OpenMP threads pinned to 1 and ``src`` on
``PYTHONPATH``; ghlin must come from the checkout this file sits in.
"""

import sys
import time

MIN_RUNS = 3  # timed runs (or traced pairs), even when --seconds is short


def reference_loop(n: int = 6000) -> float:
    """Fixed mix of small numpy products, dict traffic and libm calls.

    Timed before and after every untraced run so that ``run.py`` can express
    run time in units of this loop: on a shared host the speed of this loop
    and of the workloads drift together by tens of percent within a minute.
    """
    import math

    import numpy as np

    a = np.full((6, 6), 0.1)
    v = np.ones(6)
    table: dict[int, float] = {}
    s = 0.0
    for i in range(n):
        v = a @ v + 0.5
        table[i & 63] = math.sin(s)
        s += 0.25 * table.get((i * 7) & 63, 0.0) + float(v[i % 6]) * 1e-3
    return s


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def _import_ghlin():
    import os

    import ghlin
    import ghlin.cli

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(ghlin.__file__).startswith(src + os.sep):
        raise SystemExit(f"ghlin imported from {ghlin.__file__}, not from {src}")
    return ghlin.cli


def setup(name: str) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    _import_ghlin()
    ref = workloads.set_up(workload)
    ref["setup_s"] = time.perf_counter() - t0
    return ref


def measure(name: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    import gc
    import os
    import resource
    import statistics

    import outputs
    import workloads
    from tracer import Tracer

    cli = _import_ghlin()
    workload = workloads.WORKLOADS[name]
    ref = workloads.set_up(workload)
    per_run = outputs.checks_per_run(workload.command)
    prefix = os.path.join(outdir, "run")
    tally = {"attempted": 0, "failed": 0, "checks": 0, "checks_failed": 0,
             "checks_uncertified": 0, "problems": [], "errors": [], "output_bytes": 0}
    first_output: list[str] = []

    def one_run(tracer=None):
        """Run the command once; return its wall time, or None if it raised."""
        for ext in ("report.json", "samples.csv"):
            if os.path.exists(f"{prefix}.{ext}"):
                os.remove(f"{prefix}.{ext}")
        config = workload.config_for(seed)
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.run(workload.command, config, prefix)
        except Exception as exc:  # a raising run is counted as failed, not fatal
            rc = exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        tally["attempted"] += 1
        tally["checks"] += per_run
        if isinstance(rc, Exception):
            tally["failed"] += 1
            tally["checks_failed"] += per_run
            tally["errors"].append(repr(rc))
            return None
        try:
            report, rows, canonical = outputs.read(prefix)
            found = outputs.problems(workload.command, workload.samples, rc, report, rows, ref)
            for check in outputs.certified_checks(workload.command, report):
                failed, uncertified = outputs.outcome(check)
                tally["checks_failed"] += failed
                tally["checks_uncertified"] += uncertified
            tally["output_bytes"] = outputs.output_bytes(prefix)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
            canonical = None
        if not first_output:
            first_output.append(canonical)
        elif canonical != first_output[0]:
            found.append("output differs from the first run of the same input")
        tally["problems"].extend(found)
        return elapsed

    one_run()  # warm-up: checked, not timed
    times, reference_times, traced_times, layers = [], [], [], []
    runs = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or runs < MIN_RUNS:
        runs += 1
        reference_times.append(_time_reference())
        elapsed = one_run()
        reference_times.append(_time_reference())
        if elapsed is not None:
            times.append(elapsed)
        if trace:
            tracer = Tracer()
            traced_times.append(one_run(tracer))
            layers.append(tracer.metrics())
    tally["times"] = times
    tally["reference_times"] = reference_times
    tally["traced_times"] = [t for t in traced_times if t is not None]
    if layers:
        tally["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    tally["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally["ref"] = ref
    return tally


def main(argv: list[str]) -> int:
    import json

    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1])
    elif argv[:1] == ["measure"] and len(argv) == 6:
        result = measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
