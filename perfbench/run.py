#!/usr/bin/env python3
"""iseeq benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload retrieve-20k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed`` into a scratch directory under ``.perfbench-work/`` (removed
at exit); the program reads only those files. Load is closed-loop: one
client in this process issues the next operation when the previous one
returns. Every operation's output is checked against references
computed independently from the planted truth.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a
separate pass over the same inputs: half the time untraced, half with
spans around iseeq's public functions, then the workload's extra calls;
it prints the per-layer metrics and writes the spans to
``.perfbench-out/``. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# BLAS reads its thread count at load time, so this precedes the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _want = int(os.environ.get(_var) or NPROC)
    os.environ[_var] = str(max(1, min(_want, NPROC)))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

SLICES = 3
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the maximum
    when no percentile at or above the median has that many."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return ordered[rank - 1], f"p{100 * rank / n:.1f}"
    return ordered[-1], "max"


def facts(warmup_s: float) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src" / "iseeq").glob("*.py"))
    )
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "nproc": NPROC,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_iseeq_lines": src_lines,
        "git_commit": commit,
        "warmup_s": round(warmup_s, 4),
    }


def timed_setup(wl, durations: list[float]):
    """One set-up; appends its duration. Callers drop the previous state first."""
    gc.collect()
    started = time.perf_counter()
    state = wl.setup()
    durations.append(time.perf_counter() - started)
    return state


def op_loop(wl, state, seconds: float, tracer=None):
    """Closed loop for ``seconds``, at least one op. Returns (item, result
    or None, error or None, seconds) per op and the loop's wall time."""
    items = wl.items(state)
    records = []
    started = time.perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                result = wl.op(state, item)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append((item, result, error, t1 - t0))
        i += 1
        if t1 - started >= seconds:
            return records, time.perf_counter() - started


def check_records(wl, state, records) -> list[str]:
    problems = []
    for item, result, error, _ in records:
        found = [error] if error else wl.check(state, item, result)
        if found:
            problems.append(found[0] + (f" (+{len(found) - 1} more)" if len(found) > 1 else ""))
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_pass(wl, seconds: float):
    """The op loop runs in up to SLICES slices. Before each, set-ups repeat
    for at least one slice length, so the measured seconds spread over
    about twice as much wall time and sample more of the machine's speed
    swings. There are at least SLICES set-ups."""
    slice_s = seconds / SLICES
    setups, records, wall, state = [], [], 0.0, None
    for k in range(SLICES):
        remaining = slice_s * (k + 1) - wall
        gap_started = time.perf_counter()
        while len(setups) <= k or (remaining > 0 and time.perf_counter() - gap_started < slice_s):
            state = None
            state = timed_setup(wl, setups)
        if k == 0:
            started = time.perf_counter()
            wl.warmup(state)
            warmup_s = time.perf_counter() - started
        if remaining > 0:
            part, part_wall = op_loop(wl, state, remaining)
            records += part
            wall += part_wall
    rss = peak_rss_mb()
    problems = check_records(wl, state, records)
    times = [r[3] for r in records]
    tail_value, tail_label = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_tail": (1000 * tail_value, "ms"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"setup_s median of {len(setups)} set-ups (min {min(setups):.4f} s, max {max(setups):.4f} s)",
        f"op_ms_tail is the {tail_label} of n={len(times)} operations",
        f"fail_rate {len(problems)}/{len(records)}",
    ]
    return metrics, len(records), problems, warmup_s, notes


def traced_pass(wl, seconds: float, spans_path: Path):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(layers.KEEP_ARGS)
    try:
        state = wl.setup()
    finally:
        tracer.remove()
    started = time.perf_counter()
    wl.warmup(state)
    warmup_s = time.perf_counter() - started
    plain, _ = op_loop(wl, state, seconds / 2)
    tracer.install(layers.KEEP_ARGS)
    try:
        traced, _ = op_loop(wl, state, seconds / 2, tracer=tracer)
        tracer.op_id = "extras"
        extra, extra_attempted, extra_problems = wl.extras(
            state, [(r[0], r[1]) for r in plain + traced if r[1] is not None]
        )
    finally:
        tracer.remove()
    problems = check_records(wl, state, plain + traced) + extra_problems

    measured = layers.span_metrics(tracer, {i: r[3] for i, r in enumerate(traced)})
    measured.update(wl.layer_facts(state, [(r[0], r[1]) for r in traced if r[1] is not None], tracer))
    measured.update(extra)
    plain_p50 = statistics.median(r[3] for r in plain)
    measured["trace.overhead_share"] = statistics.median(r[3] for r in traced) / plain_p50 - 1.0
    tracer.write(spans_path)

    metrics = {name: (float(measured.get(name, 0.0)), layers.unit(name)) for name in layers.PER_LAYER}
    attempted = len(plain) + len(traced) + extra_attempted
    notes = [
        f"traced ops {len(traced)}, untraced ops {len(plain)}, spans {len(tracer.spans)} -> {spans_path}",
        "self ms per op: " + ", ".join(
            f"{layer} {measured[f'{layer}.self_ms_per_op']:.2f}" for layer in layers.LAYERS
            if measured[f"{layer}.self_ms_per_op"]
        ),
        f"fail_rate {len(problems)}/{attempted}",
    ]
    return metrics, attempted, problems, warmup_s, notes


def run_all(args) -> int:
    """Every workload in its own process, one after another; the last line
    merges their results with metric names prefixed by the workload."""
    import subprocess

    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "iseeq" / "__init__.py").is_file():
        print(f"error: no iseeq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.ERROR)
    if args.workload == "all":
        return run_all(args)

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        started = time.perf_counter()
        wl.generate()
        gen_s = time.perf_counter() - started
        gc.collect()
        if args.trace:
            spans = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
            metrics, attempted, problems, warmup_s, notes = traced_pass(wl, args.seconds, spans)
        else:
            metrics, attempted, problems, warmup_s, notes = untraced_pass(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in facts(warmup_s).items():
        print(f"# {key}: {value}")
    print(f"# generate_s: {gen_s:.3f}")
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
