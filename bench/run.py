"""trajtomo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fluorescence_cli --seed 1 --seconds 60 --trace 0

Run from a source checkout: trajtomo is imported from ``src/`` next to
this directory, never from an installed copy.  The run

1. times the set-up (a fresh process importing trajtomo and building
   the model) several times in child processes and keeps the median;
2. repeats iterations of the workload until ``--seconds`` are used up,
   each drawing the same records from ``--seed`` (on some workloads
   several times, each draw timed) and checking the outputs;
3. prints an ``{"env": ...}`` line, then as its last line
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
iterations).  With ``--trace 1`` every iteration runs twice on the same
records, once plain and once with spans around each call into a
trajtomo layer; the metrics are then the per-layer self times and
counts, plus the tracing overhead (traced minus plain tomography time).
The spans are written to ``.bench_out/`` when the run ends.
"""
import os

# Pin BLAS to one thread before NumPy loads: spinning BLAS threads on a
# busy core slow small matrix products by orders of magnitude.  Child
# processes inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 20_260_815
SETUP_PROBES = 7
MIN_ITERATIONS = 3  # plain runs; a traced run makes at least two plain/traced pairs
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "tomography_s": "s",
    "peak_rss_mb": "MiB",
}

# traced span -> per-layer metric holding its self time
SPAN_METRICS = {
    "continuous.simulate_sme": "continuous.simulate_sme.s",
    "continuous.backward_continuous_batch": "continuous.backward_continuous_batch.s",
    "continuous.forward_filter_batch": "continuous.forward_filter_batch.s",
    "io.write_records": "io.write_records.s",
    "io.read_records": "io.read_records.s",
    "io.validate_records": "io.validate_records.s",
    "io.write_results_csv": "io.write_results_csv.s",
    "filtering.sample_records": "filtering.sample_records.s",
    "filtering.backward_sweep_batch": "filtering.backward_sweep_batch.s",
    "maxlike.solve_maxlike": "maxlike.solve_maxlike.s",
    "confidence.build_r_matrix": "confidence.build_r_matrix.s",
    "confidence.interval": "confidence.interval.s",
    "cli.simulate": "cli.simulate.self_s",
    "cli.tomography": "cli.tomography.self_s",
}

PER_LAYER_UNITS = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "io.other.s": "s",
    "io.archive_mb": "MB",
    "continuous.us_per_record_step": "us",
    "filtering.us_per_record_step": "us",
    "maxlike.iterations": "count",
    "maxlike.certified_ratio": "ratio",
    "confidence.rank_deficient": "count",
    "models.build.s": "s",
    "setup.import.s": "s",
    "records": "count",
    "record_steps": "count",
    "start_times": "count",
    "effects": "count",
    "trace.overhead_s": "s",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="Run one trajtomo benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced problem sizes, for checking the harness itself")
    p.add_argument("--probe", type=Path, default=None, help=argparse.SUPPRESS)
    return p


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "load1_at_start": load1,
        "idle_at_start": load1 <= 0.5 * nproc,
    }


def probe(workload: str, work_dir: Path, quick: bool) -> int:
    """Set-up in this fresh process; report when it finished."""
    t0 = time.monotonic()
    import workloads

    t1 = time.monotonic()
    work_dir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[workload](work_dir, quick)
    t2 = time.monotonic()
    print(json.dumps({"ready": t2, "import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


def measure_setup(args, work_dir: Path) -> list[dict]:
    """Spawn fresh processes that only set up; time each from its start."""
    samples = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--probe", str(work_dir / f"probe{k}")]
        if args.quick:
            cmd.append("--quick")
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        report["setup_s"] = report.pop("ready") - t0
        samples.append(report)
    return samples


def _median(values) -> float:
    return float(statistics.median(values))


def per_layer(tracer, traced, plain, probes) -> dict[str, float]:
    """Medians over the traced iterations of each layer's self time and counts."""
    selfs = [tracer.self_times(trace_id) for trace_id, _ in traced]
    out = {}
    for span, metric in SPAN_METRICS.items():
        out[metric] = _median(s.get(span, 0.0) for s in selfs)
    out["io.other.s"] = _median(
        sum(t for name, t in s.items() if name.startswith("io.") and name not in SPAN_METRICS)
        for s in selfs
    )
    counts = [it.counts for _, it in traced]
    for per_step, span in (
        ("continuous.us_per_record_step", "continuous.backward_continuous_batch"),
        ("filtering.us_per_record_step", "filtering.backward_sweep_batch"),
    ):
        out[per_step] = _median(
            1e6 * s.get(span, 0.0) / c["record_steps"] for s, c in zip(selfs, counts)
        )
    out["io.archive_mb"] = _median(c.get("archive_mb", 0.0) for c in counts)
    out["maxlike.iterations"] = _median(c["maxlike_iterations"] for c in counts)
    out["maxlike.certified_ratio"] = (
        sum(c["certified"] for c in counts) / sum(c["solves"] for c in counts)
    )
    out["confidence.rank_deficient"] = _median(c["rank_deficient"] for c in counts)
    out["models.build.s"] = _median(p["build_s"] for p in probes)
    out["setup.import.s"] = _median(p["import_s"] for p in probes)
    for size in ("records", "record_steps", "start_times", "effects"):
        out[size] = _median(c[size] for c in counts)
    out["trace.overhead_s"] = _median(
        t.tomography_s - p.tomography_s for (_, t), p in zip(traced, plain)
    )
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "trajtomo" / "__init__.py").is_file():
        print(f"error: no trajtomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe is not None:
        return probe(args.workload, args.probe, args.quick)

    import workloads
    from tracing import Tracer, instrument

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    if not env["idle_at_start"]:
        print(f"warning: 1-minute load average {env['load1_at_start']:.2f} on "
              f"{env['nproc']} CPUs; timings may be inflated", file=sys.stderr)
    print(json.dumps({"env": env}))

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    attempted = failed = 0
    try:
        work_dir.mkdir(parents=True)
        probes = measure_setup(args, work_dir)
        workload = workloads.WORKLOADS[args.workload](work_dir, args.quick)
        origin = time.perf_counter()
        durations = []
        while True:
            enough = len(durations) >= (2 if args.trace else MIN_ITERATIONS)
            if enough and (time.perf_counter() - origin + _median(durations)
                           > args.seconds):
                break
            t0 = time.perf_counter()
            modes = (None, tracer) if args.trace else (None,)
            for mode in modes:
                if mode is not None:
                    mode.trace_id = len(traced)
                try:
                    with instrument(mode):
                        it = workload.run(args.seed, mode)
                except Exception:
                    # one iteration failing must not hide the others' results
                    traceback.print_exc()
                    attempted += workload.operations
                    failed += workload.operations
                    continue
                attempted += it.attempted
                failed += it.failed
                for problem in it.problems:
                    print(f"check failed: {problem}", file=sys.stderr)
                if mode is None:
                    plain.append(it)
                else:
                    traced.append((mode.trace_id, it))
            durations.append(time.perf_counter() - t0)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    samples = {
        "setup_s": [p["setup_s"] for p in probes],
        "simulate_s": [t for it in plain for t in it.simulate_s],
        "tomography_s": [it.tomography_s for it in plain],
    }
    if not correct:
        metrics = {}
    elif args.trace:
        values = per_layer(tracer, traced, plain, probes)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"env": env, "per_layer": values, "spans": tracer.dump(origin)}
        ))
    else:
        values = {name: _median(times) for name, times in samples.items()}
        values["peak_rss_mb"] = peak_rss_mib
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"{len(plain)} plain and {len(traced)} traced iterations, "
          f"{len(probes)} set-up probes", file=sys.stderr)
    for name, times in samples.items():
        print(f"{name}: {len(times)} samples in run order: "
              + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
