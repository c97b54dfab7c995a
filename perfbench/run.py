"""Run one benchmark workload, or all of them, each in a process of its own.

    python3 perfbench/run.py --workload train-toy-32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first form prints the workload's metrics and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics. The
second prints every end-to-end metric of every workload, by name with its
unit. Run from the root of a checkout: the library is imported from
``src/`` there, and results go to ``perfbench/out/``.

The BLAS thread count of the workload process is pinned to the number of
CPUs this process may run on, through the environment variables below,
because numpy's BLAS reads them once, when it loads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent / "bench.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# beyond --seconds: set-up, the ops a run makes past --seconds and the
# float64 checks; about 75 s on infer at 10 s, so at most 180 s in all
CHILD_ALLOWANCE_S = 160


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_workload(name, seed, seconds, trace, capture=False):
    """(exit code, captured stdout or None) of one workload process."""
    cmd = [sys.executable, str(BENCH), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE if capture else None, text=True)
    timeout = CHILD_ALLOWANCE_S + seconds
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {name} did not finish within {timeout:g} s", file=sys.stderr)
        return 1, None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def run_all(spec, seed, seconds):
    """Every workload with tracing off; prints each metric by name, with its unit."""
    status = 0
    for wl in spec["workloads"]:
        code, out = run_workload(wl["name"], seed, seconds, 0, capture=True)
        lines = (out or "").strip().splitlines()
        print("\n".join(lines[:-1]))
        print(f"{wl['name']} correct {code == 0}", flush=True)
        status |= code != 0
    return int(status)


def main(argv=None):
    spec = benchmark_spec()
    names = [wl["name"] for wl in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dmfnet" / "__init__.py").is_file():
        print(f"perfbench: no dmfnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
