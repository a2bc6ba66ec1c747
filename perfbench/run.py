"""gradvoc's benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload synth-base --seed 1 --seconds 20 --trace 0

Run from the root of a gradvoc checkout: the program is imported from its
``src/``.  Inputs are generated once per checkout into ``.bench_build/`` by
a child process (untimed).  A run then sets up ``setup_repeats`` times
(median reported as ``setup_s``), runs operations back to back until
``--seconds`` have passed, checks every output against the recorded
reference, and prints one JSON result as the last line of standard output.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
pairs untraced and traced operations on the same items, and reports
per-layer metrics and the tracing overhead (``layers.py``).

``--record`` rewrites the reference outputs from the checkout's code
(``record.py``).  ``--train-fixture`` retrains the sweep workload's committed
checkpoint; run ``--record`` after it.
"""

from __future__ import annotations

import os

# One BLAS thread: a run's figures must not depend on what else runs on the
# machine's other cores.  Set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Work counts of a traced operation that must repeat exactly.
EXACT_COUNTS = (
    "tensor.conv1d.calls", "tensor.conv1d.gflop", "tensor.conv1d.mib",
    "net.forward.calls", "sample.reverse_step.calls", "dsp.track_pitch.frames",
    "dsp.mel_spectrogram.calls",
)


def _cache_dir() -> Path:
    """Per-checkout directory for prepared inputs, keyed by the code that makes them."""
    digest = hashlib.sha256()
    inputs = sorted(SRC.glob("gradvoc/*.py")) + [
        HERE / name for name in ("workloads.py", "layers.py", "spans.py", "sweep-toy.ckpt")
    ]
    for path in inputs:
        digest.update(path.read_bytes() if path.exists() else b"")
    cache = ROOT / ".bench_build" / "perfbench" / digest.hexdigest()[:16]
    cache.mkdir(parents=True, exist_ok=True)
    return cache


def _prepare(name: str, dtype: str = "float32") -> Path:
    """Build a workload's inputs in a child process, so that their memory
    does not count in this run's peak."""
    cache = _cache_dir()
    marker = cache / f"prepared-{name}-{dtype}"
    if not marker.exists():
        cmd = [sys.executable, str(Path(__file__)), "--prepare", name, "--dtype", dtype]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    return cache


def _env() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Ask numpy's bundled OpenBLAS for its thread count; None if there is none."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _due_ops(wl, contexts, order, seconds):
    """Yield ``(key, [op per context])`` over the pool in ``order``, cycling,
    until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    for item in itertools.cycle(order):
        for pairs in zip(*(wl.ops(ctx, item) for ctx in contexts)):
            if time.perf_counter() >= deadline:
                return
            yield pairs[0][0], [op for _, op in pairs]


def _run_op(wl, ref, key, op):
    """Time and check one operation: (key, wall seconds, output, why it failed or None)."""
    expected, tol = ref
    start = time.perf_counter()
    try:
        out = op()
    except Exception:  # an operation that raises counts as failed
        wall, out, err = time.perf_counter() - start, None, traceback.format_exc()
    else:
        wall = time.perf_counter() - start
        dist = wl.error(expected[json.dumps(key)], wl.parse(out))
        err = None if dist <= tol else f"output off its reference by {dist:.3g}"
    if err is not None:
        print(f"{wl.name} operation {key} failed: {err}", file=sys.stderr)
    return key, wall, out, err


def _setup(wl, cache, tracer=None):
    """Set up ``setup_repeats`` times; return the last context and the times."""
    times, ctx = [], None
    for r in range(wl.setup_repeats):
        if tracer is not None:
            tracer.op = -(r + 1)
        ctx = None
        start = time.perf_counter()
        ctx = wl.setup(cache, "float32")
        times.append(time.perf_counter() - start)
    return ctx, times


def _perturbation_caught(wl, ref, records) -> bool:
    """Self-test: a deliberately perturbed output must fail its check."""
    expected, tol = ref
    for key, _, out, err in records:
        if err is None:
            bad = wl.perturb(wl.parse(out), tol)
            return not wl.error(expected[json.dumps(key)], bad) <= tol
    return True


def untraced(wl, cache, ref, order, seconds):
    ctx, setup_times = _setup(wl, cache)
    records = [_run_op(wl, ref, key, ops[0]) for key, ops in _due_ops(wl, [ctx], order, seconds)]
    walls = [r[1] for r in records]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "rtf": (statistics.median(walls) / wl.audio_s, "s/s"),
    }
    problems = [] if _perturbation_caught(wl, ref, records) else ["perturbed output passed"]
    return records, metrics, problems


def traced(wl, cache, ref, order, seconds):
    import numpy as np

    import gradvoc
    from layers import install, layer_metrics, probe_forward
    from spans import Tracer

    ctx, _ = _setup(wl, cache)
    probe = probe_forward(wl.probe(ctx))
    tracer = Tracer()
    install(tracer, gradvoc)
    try:
        traced_ctx, _ = _setup(wl, cache, tracer)
    finally:
        tracer.uninstall()

    def run_traced(key, op):
        tracer.op = len(records)
        install(tracer, gradvoc)
        try:
            return _run_op(wl, ref, key, op)
        finally:
            tracer.uninstall()

    # Pair an untraced and a traced operation on the same item, and swap
    # which runs first from one pair to the next, so that drift in the
    # machine's speed and any gain from running second cancel out of the
    # overhead.
    plain, records = [], []
    for i, (key, (op, traced_op)) in enumerate(_due_ops(wl, [ctx, traced_ctx], order, seconds)):
        if i % 2:
            records.append(run_traced(key, traced_op))
            plain.append(_run_op(wl, ref, key, op))
        else:
            plain.append(_run_op(wl, ref, key, op))
            records.append(run_traced(key, traced_op))
    ctx = traced_ctx = None
    problems = [] if _perturbation_caught(wl, ref, plain) else ["perturbed output passed"]

    for (key, _, a, _), (_, _, b, _) in zip(plain, records):
        same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        if not same:
            problems.append(f"traced output of {key} differs from untraced")
    try:
        metrics, counts = layer_metrics(tracer, len(records), probe)
    except ValueError as exc:  # span self-check
        return plain + records, {}, problems + [str(exc)]

    per_op = [{k: c.get(k, 0.0) for k in EXACT_COUNTS} for c in counts]
    if any(c != per_op[0] for c in per_op):
        problems.append("work counts differ between operations")
    exact = {**per_op[0], "net.forward.pycalls": probe["pycalls"]}
    counts_file = cache / f"counts-{wl.name}.json"
    if counts_file.exists():
        if json.loads(counts_file.read_text()) != exact:
            problems.append(f"work counts differ from an earlier run: {counts_file}")
    else:
        counts_file.write_text(json.dumps(exact, indent=1))

    ratio = sum(r[1] for r in records) / sum(r[1] for r in plain)
    metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    (cache / "traces").mkdir(exist_ok=True)
    tracer.write(cache / "traces" / f"{wl.name}.jsonl")
    return plain + records, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--dtype", default="float32", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs from this checkout")
    parser.add_argument("--train-fixture", action="store_true",
                        help="retrain perfbench/sweep-toy.ckpt (then --record)")
    args = parser.parse_args(argv)

    if not (SRC / "gradvoc" / "__init__.py").is_file():
        print(f"error: no gradvoc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import record
    from workloads import WORKLOADS

    if args.prepare:
        WORKLOADS[args.prepare].prepare(_cache_dir(), args.dtype)
        (_cache_dir() / f"prepared-{args.prepare}-{args.dtype}").touch()
        return 0
    if args.train_fixture:
        WORKLOADS["sweep-toy"].train_fixture(_cache_dir())
        return 0
    if args.record:
        record.record(WORKLOADS, _prepare, HERE)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    import numpy as np

    wl = WORKLOADS[args.workload]
    cache = _prepare(wl.name)
    ref = record.load(HERE, wl.name)
    order = [int(i) for i in np.random.default_rng(args.seed).permutation(wl.pool)]
    run = traced if args.trace else untraced
    records, metrics, problems = run(wl, cache, ref, order, args.seconds)

    failed = sum(r[3] is not None for r in records)
    for p in problems:
        print(f"{wl.name} self-test failed: {p}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = _env()
    (cache / "results").mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (cache / "results" / f"{stem}.json").write_text(
        json.dumps({"env": env, "workload": wl.name, "seed": args.seed, **result}, indent=1)
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
