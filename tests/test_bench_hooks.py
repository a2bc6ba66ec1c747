"""The names the benchmark's traced run wraps must exist in gradvoc.

``perfbench/layers.py`` patches gradvoc functions and model attributes by
name; a rename in ``src/`` would otherwise surface only when the traced
benchmark runs.  The file is imported as it is, with a recording tracer in
place of the real one, so nothing in gradvoc is patched.
"""

import numpy as np

import gradvoc
import gradvoc.cli  # layers wraps names that cli imported
from conftest import load_perfbench
from gradvoc.net import DenoiserModel, ModelConfig


class RecordingTracer:
    """Checks each patched name exists and records replacements unapplied."""

    def __init__(self):
        self.patched = []
        self.replaced = {}

    def wrap(self, name, fn, count=None):
        assert callable(fn), name
        return fn

    def patch(self, owner, attr, name, count=None):
        assert hasattr(owner, attr), f"{owner!r} has no {attr!r} (span {name})"
        self.patched.append((owner, attr))

    def replace(self, owner, attr, value):
        assert hasattr(owner, attr), f"{owner!r} has no {attr!r}"
        self.replaced[(owner, attr)] = value


def test_every_traced_name_exists():
    layers = load_perfbench("layers")
    tracer = RecordingTracer()
    layers.install(tracer, gradvoc)

    for module, attr, _ in layers.ENTRY_POINTS:
        assert (getattr(gradvoc, module), attr) in tracer.patched
    for owner, attr in [(gradvoc.tensor, "conv1d"), (gradvoc.tensor.Tensor, "backward"),
                        (gradvoc.train, "load_tensors"), (gradvoc.dsp, "track_pitch")]:
        assert (owner, attr) in tracer.patched

    # the replacement __init__ wraps the model's forward, predict and blocks
    # by attribute name; run it on a fresh toy model, then use the model
    init = tracer.replaced[(DenoiserModel, "__init__")]
    model = DenoiserModel.__new__(DenoiserModel)
    init(model, ModelConfig.toy(), seed=0)
    assert isinstance(model.pre_conv, layers._Timed)
    assert all(isinstance(b, layers._Timed) for b in model.dblocks + model.films + model.ublocks)
    mel = np.zeros((8, 4))
    assert model.predict(np.zeros(16), mel, 0.5).shape == (16,)
