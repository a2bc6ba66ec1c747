"""Where the traced run wraps gradvoc, and the per-layer metrics it derives.

Every wrapper sits where the caller looks the function up: ``net`` calls
``tensor.conv1d`` through the module, ``cli`` calls the names it imported
into its own namespace, ``sample.synthesize`` calls ``model.predict`` on the
instance.  Models built while tracing is on get their forward, predict and
block objects wrapped, so each block's time is its own span.
"""

from __future__ import annotations

import sys
import tracemalloc

from spans import Tracer

# (gradvoc submodule, attribute, span name) of every plain wrapped entry point.
ENTRY_POINTS = [
    ("tensor", "leaky_relu", "tensor.leaky_relu"),
    ("tensor", "nearest_upsample", "tensor.resample"),
    ("tensor", "downsample", "tensor.resample"),
    *[("tensor", op, "tensor.elementwise")
      for op in ("add", "sub", "mul", "scale", "add_channel_bias", "mean_abs")],
    ("sample", "reverse_step", "sample.reverse_step"),
    ("sample", "synthesize", "sample.synthesize"),
    ("cli", "synthesize", "sample.synthesize"),
    ("train", "make_batch", "train.make_batch"),
    ("train", "train_step", "train.step"),
    ("train", "forward_diffuse", "diffusion.forward_diffuse"),
    ("train", "load_state", "train.load_state"),
    ("cli", "load_state", "train.load_state"),
    ("dsp", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("train", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("cli", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("cli", "ls_mse", "dsp.ls_mse"),
    ("cli", "mcd", "dsp.mcd"),
    ("cli", "ffe", "dsp.ffe"),
    ("dsp", "wav_read", "dsp.wav_read"),
    ("data", "wav_read", "dsp.wav_read"),
    ("cli", "wav_read", "dsp.wav_read"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_eval", "cli.eval"),
]

MAX_DBLOCKS, MAX_UBLOCKS = 4, 5  # the base profile's block counts


def _conv_work(args, out):
    """FLOPs and bytes of one conv1d, computed from its operand shapes."""
    x, weight = args[0], args[1]
    c_out, c_in, kernel = weight.shape
    moved = x.data.nbytes + weight.data.nbytes + out.data.nbytes
    return {
        "tensor.conv1d.gflop": 2.0 * c_out * c_in * kernel * out.shape[1] / 1e9,
        "tensor.conv1d.mib": moved / 2**20,
    }


def _archive_mib(args, result):
    return {"checkpoint.load_tensors.mib": sum(a.nbytes for a in result[0].values()) / 2**20}


def _pitch_frames(args, result):
    return {"dsp.track_pitch.frames": float(result[0].size)}


class _Timed:
    """Stands in for a model block: times each call, delegates everything else."""

    def __init__(self, tracer, name, inner):
        self._call = tracer.wrap(name, inner)
        self._inner = inner

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def install(tracer: Tracer, gradvoc) -> None:
    for module, attr, name in ENTRY_POINTS:
        tracer.patch(getattr(gradvoc, module), attr, name)
    tracer.patch(gradvoc.tensor, "conv1d", "tensor.conv1d", _conv_work)
    tracer.patch(gradvoc.tensor.Tensor, "backward", "tensor.backward")
    tracer.patch(gradvoc.train, "load_tensors", "checkpoint.load_tensors", _archive_mib)
    tracer.patch(gradvoc.dsp, "track_pitch", "dsp.track_pitch", _pitch_frames)

    model_cls = gradvoc.net.DenoiserModel
    timed_init = tracer.wrap("net.init", model_cls.__init__)

    def init(model, *args, **kwargs):
        timed_init(model, *args, **kwargs)
        model.forward = tracer.wrap("net.forward", model.forward)
        model.predict = tracer.wrap("net.predict", model.predict)
        for attr in ("pre_conv", "mel_conv", "post_conv"):
            setattr(model, attr, _Timed(tracer, f"net.{attr}", getattr(model, attr)))
        for attr, prefix in (("dblocks", "dblock"), ("films", "film"), ("ublocks", "ublock")):
            blocks = getattr(model, attr)
            setattr(model, attr, [_Timed(tracer, f"net.{prefix}{i}", b) for i, b in enumerate(blocks)])

    tracer.replace(model_cls, "__init__", init)


def probe_forward(probe) -> dict:
    """Python calls of one forward, and the traced-memory peak of one predict."""
    if probe is None:
        return {"pycalls": 0, "peak_mib": 0.0}
    model, y, mel, level = probe
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        model.forward(y, mel, level)
    finally:
        sys.setprofile(None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.predict(y, mel, level)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {"pycalls": calls, "peak_mib": peak / 2**20}


def layer_metrics(tracer: Tracer, n_ops: int, probe: dict) -> dict:
    """Per-layer metrics, per timed operation unless named as per set-up.

    Raises ValueError if the spans fail their self-check.
    """
    calls, incl, own, _ = tracer.totals(setup=False)
    _, s_incl, _, n_setups = tracer.totals(setup=True)
    counts = tracer.op_counts(n_ops)

    def per_op(table, name, scale=1e-6):
        return table.get(name, 0) * scale / n_ops

    def per_setup(name):
        return s_incl.get(name, 0) * 1e-6 / max(n_setups, 1)

    def counter(key):
        return sum(c.get(key, 0.0) for c in counts) / n_ops

    steps = sorted(tracer.durations("train.step"))
    m = {
        "tensor.conv1d.calls": (per_op(calls, "tensor.conv1d", 1), "count"),
        "tensor.conv1d.ms": (per_op(incl, "tensor.conv1d"), "ms"),
        "tensor.conv1d.gflop": (counter("tensor.conv1d.gflop"), "GFLOP"),
        "tensor.conv1d.mib": (counter("tensor.conv1d.mib"), "MiB"),
        "tensor.leaky_relu.ms": (per_op(incl, "tensor.leaky_relu"), "ms"),
        "tensor.resample.ms": (per_op(incl, "tensor.resample"), "ms"),
        "tensor.elementwise.ms": (per_op(incl, "tensor.elementwise"), "ms"),
        "tensor.backward.ms": (per_op(incl, "tensor.backward"), "ms"),
        "net.forward.calls": (per_op(calls, "net.forward", 1), "count"),
        "net.forward.ms": (per_op(incl, "net.forward"), "ms"),
        "net.forward.self_ms": (per_op(own, "net.forward"), "ms"),
        "net.forward.pycalls": (probe["pycalls"], "count"),
        "net.predict.peak_mib": (probe["peak_mib"], "MiB"),
        "net.init.ms": (per_setup("net.init"), "ms"),
        "net.pre_conv.ms": (per_op(incl, "net.pre_conv"), "ms"),
        **{f"net.dblock{i}.ms": (per_op(incl, f"net.dblock{i}"), "ms")
           for i in range(MAX_DBLOCKS)},
        "net.mel_conv.ms": (per_op(incl, "net.mel_conv"), "ms"),
        **{f"net.film{j}.ms": (per_op(incl, f"net.film{j}"), "ms") for j in range(MAX_UBLOCKS)},
        **{f"net.ublock{j}.ms": (per_op(incl, f"net.ublock{j}"), "ms")
           for j in range(MAX_UBLOCKS)},
        "net.post_conv.ms": (per_op(incl, "net.post_conv"), "ms"),
        "sample.synthesize.ms": (per_op(incl, "sample.synthesize"), "ms"),
        "sample.steps": (per_op(calls, "sample.reverse_step", 1), "count"),
        "sample.predict.ms": (per_op(incl, "net.predict"), "ms"),
        "sample.self_ms": (
            per_op(incl, "sample.synthesize") - per_op(incl, "net.predict"), "ms"),
        "train.make_batch.ms": (per_op(incl, "train.make_batch"), "ms"),
        "train.step.self_ms": (per_op(own, "train.step"), "ms"),
        "train.step_ms_p90": (steps[int(0.9 * (len(steps) - 1))] * 1e-6 if steps else 0.0, "ms"),
        "diffusion.forward_diffuse.ms": (per_op(incl, "diffusion.forward_diffuse"), "ms"),
        "dsp.mel_spectrogram.calls": (per_op(calls, "dsp.mel_spectrogram", 1), "count"),
        "dsp.mel_spectrogram.ms": (per_op(incl, "dsp.mel_spectrogram"), "ms"),
        "dsp.ls_mse.ms": (per_op(incl, "dsp.ls_mse"), "ms"),
        "dsp.mcd.ms": (per_op(incl, "dsp.mcd"), "ms"),
        "dsp.ffe.ms": (per_op(incl, "dsp.ffe"), "ms"),
        "dsp.track_pitch.ms": (per_op(incl, "dsp.track_pitch"), "ms"),
        "dsp.track_pitch.frames": (counter("dsp.track_pitch.frames"), "count"),
        "dsp.wav_read.ms": (per_op(incl, "dsp.wav_read"), "ms"),
        "checkpoint.load_tensors.ms": (per_setup("checkpoint.load_tensors"), "ms"),
        "checkpoint.load_tensors.mib": (
            sum(v for (op, k), v in tracer.counters.items()
                if op < 0 and k == "checkpoint.load_tensors.mib") / max(n_setups, 1), "MiB"),
        "train.load_state.ms": (per_setup("train.load_state"), "ms"),
        "cli.sweep.self_ms": (per_op(own, "cli.sweep"), "ms"),
        "cli.eval.self_ms": (per_op(own, "cli.eval"), "ms"),
    }
    return m, counts
