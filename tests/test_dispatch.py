"""Dispatch guard: the Python and C calls of one toy forward and one toy
training step stay near today's counts, a step builds each conv's column
matrix once, and its backward copies no more first gradients than it must.

The toy workloads are bound by per-call overhead, not arithmetic, so a change
that adds calls per op or per item (a per-item loop in place of the batch
axis, say) shows here as a failed test rather than only as a slower
benchmark.  The counts are deterministic for a given Python and numpy; each
call pin allows 10 % above the count measured when it was set.  The profile
hook sees no numpy ufunc call (``np.add``, ``np.sqrt``, ``@``), since a ufunc
is not a builtin function, so the pins bound Python and builtin calls only.
"""

import sys

import numpy as np

from gradvoc import tensor as T
from gradvoc.dsp import MelConfig, Waveform, mel_spectrogram
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.train import TrainConfig, TrainState, train_step

# measured with Python 3.11 and numpy 2.4 when each was pinned: 680 calls per
# forward, which has made 710 since conv1d took the upsample factor, and 1857
# per step of batch 4, whose batch is the arrays the forward takes (1910 when
# it was a list of pairs to stack) and whose backward walks only the nodes it
# replays (pushing every leaf too, it took 2453)
FORWARD_CALLS = 680
STEP_CALLS = 1857
SLACK = 1.1
# column matrices per toy step: one per phase group of each conv, whose
# backward reuses it: one for each of the 19 plain convs and two for each of
# the two upsampling convs (factor 2)
COLUMN_BUILDS = 23
# first gradients that backward copies per toy step: the second operand's of
# each of the 5 residual ``add``s, which pass one gradient to both operands.
# The call counter cannot see these copies, which run in numpy.
COPIED_GRADIENTS = 5


def count_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def toy_inputs():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(256)
    mel = mel_spectrogram(Waveform(y, 4000), MelConfig.toy()).values
    batch = (rng.standard_normal((4, 256)), np.stack([mel] * 4))
    return y, mel, batch


def test_one_toy_forward_stays_lean():
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    y, mel, _ = toy_inputs()
    model.forward(y, mel, 0.5)  # first calls fill caches
    calls = count_calls(lambda: model.forward(y, mel, 0.5))
    assert calls <= SLACK * FORWARD_CALLS, calls


def test_one_toy_training_step_stays_lean():
    """A step of batch 4 is one forward, one loss and one backward."""
    _, _, batch = toy_inputs()
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0),
                       config=TrainConfig(batch_size=4, segment_samples=256))
    train_step(state, batch, np.random.default_rng(1))
    calls = count_calls(lambda: train_step(state, batch, np.random.default_rng(1)))
    assert calls <= SLACK * STEP_CALLS, calls


def test_a_toy_training_step_builds_each_column_matrix_once(monkeypatch):
    _, _, batch = toy_inputs()
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0),
                       config=TrainConfig(batch_size=4, segment_samples=256))
    built, columns = [], T._columns
    monkeypatch.setattr(T, "_columns", lambda *args: built.append(args) or columns(*args))
    train_step(state, batch, np.random.default_rng(1))
    assert len(built) == COLUMN_BUILDS


def test_a_toy_training_step_copies_only_the_gradients_it_passes_twice(monkeypatch):
    _, _, batch = toy_inputs()
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0),
                       config=TrainConfig(batch_size=4, segment_samples=256))
    copied, accumulate = [], T._accumulate

    def counting(t, g, owned):
        first = t.grad is None
        accumulate(t, g, owned)
        if first and t.grad is not g:
            copied.append(t.shape)

    monkeypatch.setattr(T, "_accumulate", counting)
    train_step(state, batch, np.random.default_rng(1))
    assert len(copied) == COPIED_GRADIENTS, copied
