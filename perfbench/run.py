"""entkit benchmark: one command, four workloads, a separate traced run.

    python3 perfbench/run.py --workload {invariance,classify,stars,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; entkit is imported from ./src.
Each run is a closed loop with one caller: it repeats whole rounds of
the workload's operations until the operations have taken ``--seconds``
(and at least enough of them ran for the tail percentile), checking
every answer between operations, outside the timed region.  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the operations of all four
workloads run under the tracer and the line carries the per-layer
metrics.  See README.md for the workloads, metrics and figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("invariance", "classify", "stars", "cli")
#: set-up is repeated this often and its median reported
SETUP_REPEATS = 3
#: fewest operations a run may report a tail from
MIN_OPS = 40
#: one BLAS thread: the load is one caller, and it keeps runs steady
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def min_ops(q: float) -> int:
    """Fewest samples with at least ten beyond the q-quantile, and >= MIN_OPS."""
    n = MIN_OPS
    while n - math.ceil(q * n) < 10:
        n += 1
    return n


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus that of its largest child (KiB -> MB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(env: dict) -> float:
    """Time of ``import entkit`` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import entkit; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return float(out)


class Tally:
    """Attempted and failed operations, and the problems that make a run wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op, out, exc) -> None:
        self.attempted += 1
        problems = [f"raised {exc!r}"] if exc is not None else op.check(out)
        if problems:
            self.failed += 1
            if not op.known_fault:
                self.errors.append(f"{op.label}: {'; '.join(problems[:3])}")


def call(fn):
    try:
        return fn(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, exc


def timed_run(workload, seed: int, seconds: float, work: Path):
    env = child_env()
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds(env))
        t0 = time.perf_counter()
        inputs = workload.build(seed, work)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)
    expect = workload.expect(inputs)
    kwargs = {"env": env} if workload.name == "cli" else {}

    for op in workload.ops(inputs, expect, 0, **kwargs):  # warm-up, unrecorded
        call(op.run)

    tally, times = Tally(), []
    need, r = min_ops(workload.tail_q), 1
    while sum(times) < seconds or len(times) < need:
        for op in workload.ops(inputs, expect, r, **kwargs):
            t0 = time.perf_counter()
            out, exc = call(op.run)
            times.append(time.perf_counter() - t0)
            tally.record(op, out, exc)
        r += 1
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(times, workload.tail_q) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli"), "MB"),
    }
    return tally, metrics


#: per-layer metric -> (workload whose operations it is averaged over, span, field)
PER_OP = {
    "sampling.trial_rng.calls": ("invariance", "sampling.trial_rng", 0),
    "sampling.trial_rng.ms": ("invariance", "sampling.trial_rng", 1),
    "sampling.unitary_draw.calls": ("invariance", "sampling.unitary_draw", 0),
    "sampling.unitary_draw.ms": ("invariance", "sampling.unitary_draw", 1),
    "sampling.invariance_suite.self_ms": ("invariance", "sampling.invariance_suite", 2),
    "states.LocalUnitary.calls": ("invariance", "states.LocalUnitary", 0),
    "states.LocalUnitary.ms": ("invariance", "states.LocalUnitary", 1),
    "states.apply_local_unitary.calls": ("invariance", "states.apply_local_unitary", 0),
    "states.apply_local_unitary.ms": ("invariance", "states.apply_local_unitary", 1),
    "states.StateVector.calls": ("invariance", "states.StateVector", 0),
    "states.StateVector.ms": ("invariance", "states.StateVector", 1),
    "hyperdet.cayley_hyperdeterminant.ms": ("invariance", "hyperdet.cayley_hyperdeterminant", 1),
    "schmidt.schmidt_decompose.calls": ("classify", "schmidt.schmidt_decompose", 0),
    "schmidt.schmidt_decompose.ms": ("classify", "schmidt.schmidt_decompose", 1),
    "classify.classify_state.self_ms": ("classify", "classify.classify_state", 2),
    "majorana.symmetrize_check.ms": ("classify", "majorana.symmetrize_check", 1),
    "majorana.majorana_polynomial.ms": ("stars", "majorana.majorana_polynomial", 1),
    "majorana.find_stars.self_ms": ("stars", "majorana.find_stars", 2),
    "majorana.binary_discriminant.ms": ("stars", "majorana.binary_discriminant", 1),
    "majorana.dicke_state.ms": ("cli", "majorana.dicke_state", 1),
    "stateio.write_state.ms": ("cli", "stateio.write_state", 1),
    "stateio.read_state.ms": ("cli", "stateio.read_state", 1),
}


def traced_run(seed: int, seconds: float, work: Path):
    """Rounds of all four workloads under the tracer, cli.main in-process."""
    import tracing
    import workloads

    setups = []
    for name in WORKLOAD_NAMES:
        w = workloads.WORKLOADS[name]
        inputs = w.build(seed, work)
        kwargs = {"runner": workloads.run_cli_inprocess} if name == "cli" else {}
        setups.append((w, inputs, w.expect(inputs), kwargs))
    for w, inputs, expect, kwargs in setups:  # warm-up, untraced
        for op in w.ops(inputs, expect, 0, **kwargs):
            call(op.run)

    tracer = tracing.Tracer()
    totals = {name: {} for name in WORKLOAD_NAMES}
    n_ops = dict.fromkeys(WORKLOAD_NAMES, 0)
    n80 = []
    import_ms = []
    tally, busy, op_id, r = Tally(), 0.0, 0, 1
    env = child_env()
    tracer.install()
    try:
        while busy < seconds or r <= 2:
            for w, inputs, expect, kwargs in setups:
                for op in w.ops(inputs, expect, r, **kwargs):
                    t0 = time.perf_counter()
                    out, exc = call(lambda: tracer.run_op(op_id, "op." + w.name, op.run))
                    busy += time.perf_counter() - t0
                    op_id += 1
                    tally.record(op, out, exc)
                    n_ops[w.name] += 1
                    for span, stats in tracer.op_stats.items():
                        acc = totals[w.name].setdefault(span, [0, 0.0, 0.0])
                        for i in range(3):
                            acc[i] += stats[i]
                    if w.name == "stars" and op.n == 80:
                        n80.append(tracer.op_stats["majorana.find_stars"][1])
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import entkit.cli"], env=env, check=True)
            import_ms.append((time.perf_counter() - t0) * 1e3)
            r += 1
    finally:
        tracer.uninstall()
    tracer.dump(OUT / "trace-spans.jsonl")

    metrics = {}
    for metric, (owner, span, field) in PER_OP.items():
        value = totals[owner].get(span, [0, 0.0, 0.0])[field] / n_ops[owner]
        metrics[metric] = (value, "count") if field == 0 else (value * 1e3, "ms")
    metrics["majorana.find_stars.n80_ms"] = (statistics.mean(n80) * 1e3, "ms")
    metrics["cli.import_ms"] = (statistics.median(import_ms), "ms")
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entkit" / "__init__.py").is_file():
        print(f"error: no entkit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            tally, metrics = traced_run(args.seed, args.seconds, work)
        else:
            w = workloads.WORKLOADS[args.workload]
            tally, metrics = timed_run(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in tally.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
