"""Run every benchmark workload and print every metric.

    python3 bench/check.py            # full size, BENCHMARK.json's run length
    python3 bench/check.py --quick    # reduced sizes: the harness self-check

Each workload runs untraced on two seeds (the default and a second
one) and traced on the default seed.  Every metric is printed with its
unit, along with operations attempted and failed.  The exit code is 1
when a run fails, fails its correctness gate, or emits a set of metric
names other than the one BENCHMARK.json declares.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SECOND_SEED = 2
RUN_TIMEOUT_S = 180
# Runnable by name but not listed in BENCHMARK.json: a third listed
# workload would cut every run to 40 seconds, too short to hold the
# other two steady on a shared host.  Checked here all the same.
EXTRA_WORKLOADS = ("qnd_mixed",)


def run(workload: str, seed: int, trace: int, seconds: float, quick: bool):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        env = json.loads(lines[0])["env"]
    except (IndexError, json.JSONDecodeError, KeyError):
        result = env = None
    return done, env, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true", help="reduced sizes, 1 s per run")
    args = p.parse_args(argv)
    seconds = 1 if args.quick else SPEC["run_seconds"]
    declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    problems = []
    for name in [w["name"] for w in SPEC["workloads"]] + list(EXTRA_WORKLOADS):
        for seed, trace in ((DEFAULT_SEED, 0), (SECOND_SEED, 0), (DEFAULT_SEED, 1)):
            label = f"{name} seed={seed} trace={trace}"
            done, env, result = run(name, seed, trace, seconds, args.quick)
            if result is None or done.returncode != 0:
                problems.append(f"{label}: exit code {done.returncode}")
                print(f"{label}: FAILED\n{done.stderr}")
                continue
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}, load {env['load1_at_start']:.2f} "
                  f"on {env['nproc']} CPUs, BLAS threads {env['openblas_num_threads']}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed operations")
            metrics = result["metrics"]
            for m in declared[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                    continue
                if got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} in {got['unit']}, declared {m['unit']}")
                print(f"    {m['name']:<42} {got['value']:>14.6g} {got['unit']}")
            extra = set(metrics) - {m["name"] for m in declared[trace]}
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("all workloads passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
