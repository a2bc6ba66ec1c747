"""The benchmark's four workloads, their inputs and their output checks.

Every input comes from a fixed pool of items that ``prepare`` or ``setup``
generates from fixed seeds (synthetic audio from ``gradvoc.data``), so the
outputs of every item can be checked against values recorded from a known
commit (``reference.json`` and ``synth-base.npy``, written by
``run.py --record``).  A run's ``--seed`` chooses the order in which the run
visits the pool.  All items of a workload have the same shapes, so the seed
changes the audio but not the amount of work.

A workload provides:

- ``prepare(cache, dtype)``: untimed, once per checkout; writes checkpoints
  and the training corpora.
- ``setup(cache, dtype)``: timed as ``setup_s``; loads the model and the
  corpora, or writes the input files that the operations read.
- ``ops(ctx, item)``: yields ``(key, op)``; each ``op()`` is one timed operation.
- ``parse(out)``: the comparable part of an output, as recorded in the reference.
- ``error(expected, got)``: the distance of a parsed output from its reference;
  an output passes when it is within the workload's recorded tolerance.
- ``perturb(got, tol)``: a copy of a parsed output that must fail that test.
- ``probe(ctx)``: ``(model, y, mel, sqrt_alpha_bar)`` for one forward, or ``None``.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from gradvoc import cli, data, dsp, net, sample, train

TOY_MEL = cli.MEL_PROFILES["toy"]()
FULL_MEL = dsp.MelConfig()
HERE = Path(__file__).resolve().parent
CANDIDATES = HERE / "candidates.txt"


def _ckpt(cache: Path, profile: str, dtype: str) -> Path:
    return cache / f"{profile}-{dtype}.ckpt"


def _rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-12)


def _cli(argv: list[str], out_csv: Path) -> str:
    """Run one gradvoc command in-process; return the CSV it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out_csv)])
    if rc != 0:
        raise RuntimeError(f"gradvoc {argv[0]} exited with {rc}")
    return out_csv.read_text()


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class SynthBase:
    """Base-profile synthesis of 0.5 s, 24 kHz utterances with ``manual6``."""

    name = "synth-base"
    pool = 6
    audio_s = 0.5  # one 40-frame utterance per operation
    setup_repeats = 3
    samples = 12000

    def prepare(self, cache, dtype):
        model = net.DenoiserModel(net.ModelConfig(dtype=dtype), seed=0)
        state = train.TrainState(model=model, config=train.TrainConfig())
        train.save_state(_ckpt(cache, "base", dtype), state, mel_cfg=FULL_MEL)
        data.generate_corpus(cache / "synth", self.pool, self.samples, 24000, seed=500)

    def setup(self, cache, dtype):
        state, mel_cfg = train.load_state(_ckpt(cache, "base", dtype))
        paths = sorted((cache / "synth").glob("*.wav"))
        mels = [dsp.mel_spectrogram(dsp.wav_read(p), mel_cfg).values for p in paths]
        return state.model, mels, cli.resolve_schedule("manual6")

    def ops(self, ctx, item):
        model, mels, schedule = ctx
        request = sample.SynthRequest(
            mel=mels[item], inference_schedule=schedule, model=model, seed=item
        )
        yield item, lambda: sample.synthesize(request)

    def parse(self, out):
        return out

    def error(self, expected, got):
        """Relative L2 distance of the waveforms."""
        expected = np.asarray(expected, dtype=np.float64)
        if got.shape != expected.shape:
            return math.inf
        return float(np.linalg.norm(got - expected) / np.linalg.norm(expected))

    def perturb(self, got, tol):
        bad = got.copy()
        bad[bad.size // 2] += 10.0 * tol * np.linalg.norm(got)
        return bad

    def probe(self, ctx):
        model, mels, schedule = ctx
        y = np.random.default_rng(0).standard_normal(self.samples)
        return model, y, mels[0], math.sqrt(float(schedule.alpha_bars[-1]))


class TrainToy:
    """Toy-profile training from a fresh seed-0 model; one operation is one step.

    Each pool item is a corpus of 8 one-second 4 kHz utterances and a training
    seed; a visit trains ``steps`` steps from the initial weights, so the loss
    of every step has a recorded reference.
    """

    name = "train-toy"
    pool = 8
    steps = 40
    batch_size = 4
    segment = 256
    audio_s = batch_size * segment / 4000
    setup_repeats = 150

    def prepare(self, cache, dtype):
        for k in range(self.pool):
            data.generate_corpus(cache / f"train/{k}", 8, 4000, 4000, seed=100 + k)

    def setup(self, cache, dtype):
        model = net.DenoiserModel(net.ModelConfig.toy(dtype), seed=0)
        initial = {k: p.data.copy() for k, p in model.parameters().items()}
        corpora = [data.load_corpus(cache / f"train/{k}", 4000) for k in range(self.pool)]
        return model, initial, corpora

    def ops(self, ctx, item):
        model, initial, corpora = ctx
        for name, p in model.parameters().items():
            p.data = initial[name].copy()
        config = train.TrainConfig(
            batch_size=self.batch_size, segment_samples=self.segment,
            learning_rate=2e-3, max_steps=self.steps, seed=item,
        )
        state = train.TrainState(model=model, config=config)

        def step():
            rng = train.step_rng(item, state.step + 1)
            batch = train.make_batch(
                corpora[item], rng, self.batch_size, self.segment, TOY_MEL
            )
            return train.train_step(state, batch, rng)[1]

        for i in range(self.steps):
            yield (item, i), step

    def parse(self, out):
        return out

    def error(self, expected, got):
        """Relative error of the step's loss."""
        return _rel_err(got, expected)

    def perturb(self, got, tol):
        return got * (1.0 + 10.0 * tol)

    def probe(self, ctx):
        model, _, corpora = ctx
        y = corpora[0][0].samples[: self.segment]
        mel = dsp.mel_spectrogram(dsp.Waveform(y, 4000), TOY_MEL).values
        return model, y, mel, 0.5


class SweepToy:
    """``gradvoc sweep`` over a fixed candidate list and 4 held-out utterances.

    The checkpoint is a committed fixture (``sweep-toy.ckpt``, 400 steps of
    seed-0 toy training), so the recorded scores depend on the sweep alone:
    400 steps of float32 training amplify rounding differences to ~2 % of
    the scores, which would leave a check too loose to catch anything.
    """

    name = "sweep-toy"
    pool = 8
    audio_s = 5 * 4 * 1.0  # candidates x utterances x seconds each
    setup_repeats = 40
    fixture = HERE / "sweep-toy.ckpt"

    def train_fixture(self, cache):
        """Rewrite the fixture checkpoint (``run.py --train-fixture``)."""
        data.generate_corpus(cache / "sweep-train", 8, 4000, 4000, seed=0)
        corpus = data.load_corpus(cache / "sweep-train", 4000)
        config = train.TrainConfig(
            batch_size=4, segment_samples=256, learning_rate=2e-3, max_steps=400, seed=0
        )
        state = train.TrainState(model=net.DenoiserModel(net.ModelConfig.toy(), seed=0),
                                 config=config)
        state = train.run_training(state, corpus, TOY_MEL)
        train.save_state(self.fixture, state, mel_cfg=TOY_MEL)

    def _ckpt(self, cache, dtype):
        return self.fixture if dtype == "float32" else _ckpt(cache, "toy", dtype)

    def prepare(self, cache, dtype):
        if dtype != "float32":  # the fixture's weights, computed in another dtype
            state, mel_cfg = train.load_state(self.fixture)
            model = net.DenoiserModel(net.ModelConfig.toy(dtype), seed=0)
            weights = state.model.parameters()
            for name, p in model.parameters().items():
                p.data = weights[name].data.astype(dtype)
            state = train.TrainState(model=model, config=state.config)
            train.save_state(self._ckpt(cache, dtype), state, mel_cfg=mel_cfg)

    def setup(self, cache, dtype):
        """Load the model (as ``sweep`` does first) and write the validation
        corpora that the operations read."""
        state, _ = train.load_state(self._ckpt(cache, dtype))
        for k in range(self.pool):
            data.generate_corpus(cache / f"sweep/{k}", 4, 4000, 4000, seed=200 + k)
        return cache, dtype, state.model

    def ops(self, ctx, item):
        cache, dtype, _ = ctx
        argv = [
            "sweep", "--checkpoint", str(self._ckpt(cache, dtype)),
            "--validation-dir", str(cache / f"sweep/{item}"),
            "--candidates-file", str(CANDIDATES), "--seed", str(item),
        ]
        yield item, lambda: _cli(argv, cache / "sweep-out.csv")

    def parse(self, out):
        """Ranked ``[betas, ls_mse]`` rows."""
        return [[r[2], float(r[1])] for r in _csv_rows(out)]

    def error(self, expected, got):
        """Largest relative LS-MSE error; infinite if the ranking differs."""
        if [b for b, _ in got] != [b for b, _ in expected]:
            return math.inf
        return max(_rel_err(g, e) for (_, g), (_, e) in zip(got, expected))

    def perturb(self, got, tol):
        (betas, score), *rest = got
        return [[betas, score * (1.0 + 10.0 * tol)], *rest]

    def probe(self, ctx):
        cache, _, model = ctx
        wav = data.load_corpus(cache / "sweep/0", 4000)[0]
        mel = dsp.mel_spectrogram(wav, TOY_MEL).values
        y = np.random.default_rng(0).standard_normal(len(wav))
        return model, y, mel, 0.5


class EvalBase:
    """``gradvoc eval`` on 4 pairs of fully voiced 1 s, 24 kHz utterances."""

    name = "eval-base"
    pool = 8
    audio_s = 4 * 1.0  # reference seconds scored per operation
    setup_repeats = 7

    def prepare(self, cache, dtype):
        pass

    def setup(self, cache, dtype):
        """Write the WAV pairs that the operations read (``eval`` itself has
        no set-up: it reads its inputs inside the timed operation)."""
        for k in range(self.pool):
            data.generate_corpus(cache / f"eval/{k}/ref", 4, 24000, 24000, seed=300 + k)
            data.generate_corpus(cache / f"eval/{k}/hyp", 4, 24000, 24000, seed=400 + k)
        return cache

    def ops(self, ctx, item):
        cache = ctx
        argv = ["eval", "--ref-dir", str(cache / f"eval/{item}/ref"),
                "--hyp-dir", str(cache / f"eval/{item}/hyp")]
        yield item, lambda: _cli(argv, cache / "eval-out.csv")

    def parse(self, out):
        """``{utterance or "mean": [ls_mse, mcd, ffe]}``."""
        return {r[0]: [float(v) for v in r[1:]] for r in _csv_rows(out)}

    def error(self, expected, got):
        """Largest error over all scores, relative above 1 and absolute below."""
        if sorted(got) != sorted(expected):
            return math.inf
        return max(
            abs(g - e) / max(1.0, abs(e))
            for name in got for g, e in zip(got[name], expected[name])
        )

    def perturb(self, got, tol):
        bad = {name: list(values) for name, values in got.items()}
        v = bad["mean"][0]
        bad["mean"][0] = v + 10.0 * tol * max(1.0, abs(v))
        return bad

    def probe(self, ctx):
        return None


WORKLOADS = {w.name: w for w in (SynthBase(), TrainToy(), SweepToy(), EvalBase())}
