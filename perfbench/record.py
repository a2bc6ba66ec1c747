"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/run.py --record

Runs every operation of every pool item once in float32 (the outputs become
the reference) and, for workloads with a model, once more with the model in
float64.  A workload's tolerance is ``TOL_FACTOR`` times the largest
float32/float64 gap seen, so a change that reorders float32 arithmetic
passes and a wrong result does not; ``eval-base`` computes in float64 only
and gets ``DSP_TOL``.  Writes ``reference.json`` and, for waveform outputs,
``<workload>.npy`` next to this file.  The sweep workload's checkpoint,
``sweep-toy.ckpt``, is a fixed input and is not rewritten here
(``run.py --train-fixture`` retrains it).
"""

from __future__ import annotations

import json

import numpy as np

TOL_FACTOR = 10.0
DSP_TOL = 1e-9
DTYPES = {"synth-base": ("float32", "float64"), "train-toy": ("float32", "float64"),
          "sweep-toy": ("float32", "float64"), "eval-base": ("float32",)}


def _outputs(wl, prepare, dtype) -> dict:
    cache = prepare(wl.name, dtype)
    ctx = wl.setup(cache, dtype)
    return {
        json.dumps(key): wl.parse(op())
        for item in range(wl.pool)
        for key, op in wl.ops(ctx, item)
    }


def record(workloads, prepare, here) -> None:
    references = {}
    for wl in workloads.values():
        runs = {dtype: _outputs(wl, prepare, dtype) for dtype in DTYPES[wl.name]}
        outputs = runs["float32"]
        if "float64" in runs:
            gap = max(wl.error(runs["float64"][k], outputs[k]) for k in outputs)
            tolerance = float(f"{TOL_FACTOR * gap:.1e}")
        else:
            gap, tolerance = 0.0, DSP_TOL
        if any(wl.error(outputs[k], wl.perturb(outputs[k], tolerance)) <= tolerance
               for k in outputs):
            raise SystemExit(f"{wl.name}: tolerance {tolerance} accepts a perturbed output")
        entry = {"gap_float32_float64": gap, "tolerance": tolerance}
        arrays = [v for v in outputs.values() if isinstance(v, np.ndarray)]
        if arrays:
            np.save(here / f"{wl.name}.npy", np.stack(arrays).astype(np.float32))
            outputs = {k: row for row, k in enumerate(outputs)}
            entry["npy_rows"] = True
        entry["outputs"] = outputs
        references[wl.name] = entry
        print(f"{wl.name}: gap {gap:.3g}, tolerance {tolerance:.3g}", flush=True)
    (here / "reference.json").write_text(json.dumps(references, indent=1) + "\n")


def load(here, name) -> tuple[dict, float]:
    """Parsed reference outputs by JSON-encoded key, and the tolerance."""
    entry = json.loads((here / "reference.json").read_text())[name]
    outputs = entry["outputs"]
    if entry.get("npy_rows"):
        rows = np.load(here / f"{name}.npy")
        outputs = {k: rows[i] for k, i in outputs.items()}
    return outputs, entry["tolerance"]
