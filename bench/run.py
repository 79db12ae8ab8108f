"""End-to-end benchmark of the residuum command line, with a traced mode.

    python3 bench/run.py --workload torus_cli --seed 1 --seconds 25 --trace 0

One client in one thread calls `residuum.cli.main(argv)` in-process, each op
when the previous one returns (a closed loop).  Inputs are generated from
the seed before any timing, sized so that PASSES passes over them take
about `--seconds` on the host the benchmark was tuned on, and every output
is checked against an oracle in bench/oracles.py.  An op's latency is its
minimum over the passes.  The last stdout line is the JSON result; the line
before it records the environment.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 makes
one untraced pass, then wraps residuum's public functions (bench/spans.py),
makes one traced pass, and prints the per-layer metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads here and inherited by the
# set-up interpreters.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PASSES = 3
SETUP_RUNS = 5
SELF_SUM_RANGE = (0.9, 1.0 + 1e-9)

SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import residuum
{models}
print(time.perf_counter() - t0)
"""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    if not (SRC / "residuum" / "__init__.py").is_file():
        fail(f"no residuum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import residuum
    from residuum import cli

    if Path(residuum.__file__).resolve().parent != (SRC / "residuum").resolve():
        fail(f"imported residuum from {residuum.__file__}, not from {SRC}")
    return cli


class Runner:
    """Closed-loop executor.  A pass runs every op of the pool once, in
    order; an op's latency is the minimum over the passes that timed it.
    The first op of each kind is warm-up and untimed in the first pass."""

    def __init__(self, cli, spec: dict):
        self.cli = cli
        self.spec = spec
        self.seen = set()
        self.warmup = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: Dict[int, List[float]] = {}
        self.kinds: Dict[int, tuple] = {}
        self.bad = set()

    def run_op(self, op, ctx: dict) -> Tuple[float, Optional[str]]:
        allowed = self.spec["ops"][op.kind]
        if op.cls != allowed["class"] or op.expect not in allowed["exit"]:
            fail(f"op {op.kind} ({op.cls}, exit {op.expect}) is not in design.json")
        out, err = io.StringIO(), io.StringIO()
        error: Optional[str] = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback is a failed op, not a crash
            code, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if error is None and code != op.expect:
            error = f"exit {code}, expected {op.expect}: {err.getvalue().strip()}"
        if error is None:
            try:
                error = op.check(out.getvalue(), ctx)
            except (ValueError, KeyError, IndexError, OSError) as e:
                error = f"unreadable output ({type(e).__name__}: {e})"
        return dt, error

    def run_pass(self, rounds) -> List[float]:
        """One pass over the pool; returns the latencies it timed."""
        timed: List[float] = []
        index = 0
        for sessions in rounds:
            for session in sessions:
                ctx: dict = {}
                for op in session:
                    dt, error = self.run_op(op, ctx)
                    self.attempted += 1
                    self.kinds[index] = (op.kind, op.cls)
                    if error is not None:
                        self.bad.add(index)
                        self.failures.append(f"{op.kind} {' '.join(op.argv)}: {error}")
                    if op.kind in self.seen:
                        self.samples.setdefault(index, []).append(dt)
                        timed.append(dt)
                    else:
                        self.seen.add(op.kind)
                        self.warmup += 1
                    index += 1
        return timed

    def latencies(self, select=lambda kind, cls: True) -> List[float]:
        return [min(v) for i, v in self.samples.items() if select(*self.kinds[i])]

    def ok_count(self) -> int:
        return sum(1 for i in self.samples if i not in self.bad)


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure_setup(models: str) -> float:
    script = SETUP_SCRIPT.format(models=models)
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            fail(f"set-up interpreter failed: {proc.stderr.strip()}")
        if i:  # the first run only warms the bytecode cache
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(args, runner: Runner, rounds: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "warmup_ops": runner.warmup, "timed_ops": len(runner.samples),
        "pool_rounds": rounds, "failures": runner.failures[:5],
        "kind_p50_ms": {
            kind: statistics.median(runner.latencies(lambda k, c: k == kind)) * 1e3
            for kind in sorted({k for k, _ in runner.kinds.values()})
        },
    }


def end_to_end(runner: Runner, setup_s: float) -> Dict[str, float]:
    lat_ms = [t * 1e3 for t in runner.latencies()]
    return {
        "setup_s": setup_s,
        "ops_per_s": runner.ok_count() / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": percentile(lat_ms, 90),
        "build_p50_ms": statistics.median(runner.latencies(lambda k, c: c == "build")) * 1e3,
        "query_p50_ms": statistics.median(runner.latencies(lambda k, c: c == "query")) * 1e3,
        "ok_ratio": runner.ok_count() / len(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec, names: List[str], overhead: float, traced_wall: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            out[name] = overhead
        elif name == "trace.wall_s":
            out[name] = traced_wall
        elif name == "trace.self_sum_ratio":
            out[name] = sum(s[1] for s in rec.stats.values()) / 1e9 / traced_wall
        elif name == "periods.points_per_integral":
            calls = rec.stats.get("periods.contour_integral", [0])[0]
            out[name] = rec.contour_points / calls if calls else 0.0
        elif name == "periods.quadrature_errors":
            out[name] = float(rec.quadrature_errors)
        elif name.startswith("layer."):
            module = name.split(".")[1]
            out[name] = sum(s[1] for k, s in rec.stats.items() if k.split(".")[0] == module) / 1e9
        else:
            stat = rec.stats.get(prefix)
            if stat is None:
                fail(f"per-layer metric {name} names no recorded span")
            out[name] = {"calls": stat[0], "self_s": stat[1] / 1e9, "points": stat[2]}[field]
    return out


def coverage_errors(values: Dict[str, float], workload: str, predictions: dict) -> List[str]:
    errors = []
    for name, value in values.items():
        pred = predictions.get(name, {})
        if workload in pred.get("fires_on", ()) and value == 0:
            errors.append(f"{name} is 0 on {workload}, predicted to fire")
        if workload in pred.get("zero_on", ()) and value != 0:
            errors.append(f"{name} is {value} on {workload}, predicted 0")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        design = json.loads((BENCH / "design.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark description: {e}")
    if args.workload not in design["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    cli = load_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    rounds = workloads.pool_rounds(args.workload, args.seconds / PASSES)
    try:
        pool = workloads.build(args.workload, args.seed, work, rounds)
        runner = Runner(cli, design["workloads"][args.workload])
        if args.trace == 0:
            setup_s = measure_setup(workloads.setup_code(args.workload))
            for _ in range(PASSES):
                runner.run_pass(pool)
            values = end_to_end(runner, setup_s)
            units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
            errors: List[str] = []
        else:
            import spans

            untraced = runner.run_pass(pool)
            rec = spans.Recorder()
            spans.install(rec)
            traced = runner.run_pass(pool)
            units = {m["name"]: m["unit"] for m in contract["per_layer"]}
            overhead = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
            values = per_layer(rec, list(units), overhead, sum(traced))
            errors = coverage_errors(values, args.workload, design["predictions"])
            ratio = values.get("trace.self_sum_ratio", 1.0)
            if not SELF_SUM_RANGE[0] <= ratio <= SELF_SUM_RANGE[1]:
                errors.append(f"span self times cover {ratio:.3f} of traced op time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    for e in errors:
        print(f"bench: {e}", file=sys.stderr)
    for f in runner.failures[:5]:
        print(f"bench: failed op: {f}", file=sys.stderr)
    correct = not runner.bad and not errors
    print(json.dumps({"environment": environment(args, runner, rounds)}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
