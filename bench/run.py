"""ghlin benchmark: certified-result throughput of whole CLI commands.

    python3 bench/run.py --workload shift-conjugate --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one after another

Run from anywhere; the package is taken from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each invocation starts fresh child processes (``worker.py``) with BLAS and
OpenMP pinned to one thread: a warm-up set-up probe that is discarded,
``SETUP_PROBES`` timed set-up probes (trace 0 only), and one measuring
process.  Outputs go to a temporary directory under ``.bench_out/`` that is
removed at exit.  Exit code 1 means the benchmark could not run and no
result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 8
REFERENCE_LOOPS_PER_REF_S = 50  # one reference second = 50 runs of worker.reference_loop
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402  -- imports nothing from ghlin


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}"


def bench_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    probes = []
    if not trace:  # half the probes before the measurement, half after: host speed drifts
        _child(["setup", name], timeout=120)  # warm-up: fills the file cache, discarded
        probes = [_child(["setup", name], timeout=120) for _ in range(SETUP_PROBES // 2)]
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_root)
    try:
        m = _child(["measure", name, str(seed), repr(seconds), "1" if trace else "0", outdir],
                   timeout=seconds + 120)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if not trace:
        probes += [_child(["setup", name], timeout=120) for _ in range(SETUP_PROBES - len(probes))]
    ref = m["ref"]
    for probe in probes:
        same = {k: probe[k] for k in ref}
        if same != ref:
            raise BenchError(f"set-up probe disagrees with the measuring process: {same} vs {ref}")

    rates = [workload.samples / t for t in m["times"]]
    if not rates:
        raise BenchError(f"no run completed: {m['errors'][:3]}")
    checks = m["checks"]
    fail_ratio = m["checks_failed"] / checks
    uncertified_ratio = m["checks_uncertified"] / checks
    print(f"{name}: seed {seed}, {len(rates)} timed runs of {workload.samples} points "
          f"(+1 warm-up), {m['attempted']} attempted, {m['failed']} raised")
    if trace:
        untraced, traced = statistics.median(m["times"]), statistics.median(m["traced_times"])
        values = dict(m["layers"], **{"cli.output_bytes": m["output_bytes"],
                                      "trace.overhead_s": traced - untraced})
        print(f"  traced run {traced:.4f} s vs untraced {untraced:.4f} s per command "
              f"(medians of {len(m['traced_times'])} and {len(m['times'])})")
        wanted = spec["per_layer"]
    else:
        setup_times = [p["setup_s"] for p in probes]
        ref_s = REFERENCE_LOOPS_PER_REF_S * statistics.fmean(m["reference_times"])
        values = {
            "setup_s": statistics.median(setup_times),
            "points_per_ref_s": workload.samples * len(rates) * ref_s / sum(m["times"]),
            "peak_rss_mb": m["peak_rss_mb"],
            "pass_ratio": 1.0 - fail_ratio,
            "certified_ratio": 1.0 - uncertified_ratio,
            "err_fwd": ref["err_fwd"],
            "err_bwd": ref["err_bwd"],
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh processes; {_quartiles(setup_times)}",
            "points_per_ref_s": f"{len(rates)} runs, 1 ref_s = {ref_s:.4g} s; wall-clock points_per_s "
                                f"{workload.samples * len(rates) / sum(m['times']):.4g}, per run: "
                                f"median {statistics.median(rates):.4g}, {_quartiles(rates)}",
            "pass_ratio": f"fail_ratio {fail_ratio:.6g} 1 = {m['checks_failed']}/{checks} checks",
            "certified_ratio": f"uncertified_ratio {uncertified_ratio:.6g} 1 = "
                               f"{m['checks_uncertified']}/{checks} checks",
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        note = "" if trace else notes.get(entry["name"], "")
        print(f"  {entry['name']:38s} {value:<14.6g} {entry['unit']:8s} {note}")
    for problem in sorted(set(m["problems"]))[:10]:
        print(f"  INCORRECT: {problem}")
    for error in sorted(set(m["errors"]))[:10]:
        print(f"  RAISED: {error}")
    return {"correct": not m["problems"], "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ghlin" / "__init__.py").is_file():
        print(f"bench: no ghlin sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: bench_one(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    except (BenchError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
