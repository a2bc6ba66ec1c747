"""Tensor archives: the checkpoint schema, .mel files, and malformed input."""

import hashlib
import json
import struct
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradvoc.checkpoint import CheckpointError, load_tensors, save_tensors
from gradvoc.cli import EXIT_DATA, main
from gradvoc.dsp import MelConfig, MelSpectrogram, load_mel, save_mel
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.schedule import linear_schedule, schedule_to_text
from gradvoc.train import TrainConfig, TrainState, load_state, save_state

MAGIC = b"GVMODEL1\n"


def archive_bytes(manifest, payload: bytes = b"") -> bytes:
    raw = json.dumps(manifest).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(raw)) + raw + payload


def manifest_for(entries, payload: bytes = b"", meta=None) -> dict:
    return {
        "entries": entries,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "meta": meta or {},
    }


@pytest.fixture
def toy_ckpt(tmp_path):
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=TrainConfig())
    path = tmp_path / "toy.ckpt"
    save_state(path, state, mel_cfg=MelConfig.toy())
    return path


def rewrite(src, dst, edit):
    """Copy a checkpoint through load/save_tensors, letting ``edit`` alter it."""
    tensors, meta = load_tensors(src)
    edit(tensors, meta)
    save_tensors(dst, tensors, meta=meta)
    return dst


# -- load_tensors ------------------------------------------------------------------


def test_tensor_round_trip_all_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal(5),
        "c": np.arange(6, dtype=np.int64).reshape(2, 3),
        "empty": np.zeros((0, 2)),
    }
    save_tensors(tmp_path / "t.bin", tensors, meta={"k": "v"})
    back, meta = load_tensors(tmp_path / "t.bin")
    assert meta == {"k": "v"}
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype and np.array_equal(back[name], arr)


@pytest.mark.parametrize(
    "data",
    [
        MAGIC + b"\x00\x00\x00",  # the 12-byte file: truncated length field
        MAGIC + struct.pack("<Q", 1000) + b"{}",  # manifest longer than the file
        archive_bytes([]),  # manifest is not a mapping
        archive_bytes({"sha256": hashlib.sha256(b"").hexdigest()}),  # no entries
        archive_bytes(manifest_for({"not": "a list"})),
        archive_bytes(manifest_for([], meta=None) | {"meta": [1]}),
        archive_bytes(
            manifest_for([{"name": "x", "dtype": "<f8", "shape": [2], "offset": 8,
                           "nbytes": 16}], b"\0" * 16),
            b"\0" * 16,
        ),  # entry runs past the payload
        archive_bytes(
            manifest_for([{"name": "x", "dtype": "<f8", "shape": [3], "offset": 0,
                           "nbytes": 16}], b"\0" * 16),
            b"\0" * 16,
        ),  # byte count does not match the shape
        archive_bytes(
            manifest_for([{"name": "x", "dtype": "<f8", "shape": [2], "offset": -8,
                           "nbytes": 16}], b"\0" * 16),
            b"\0" * 16,
        ),
        archive_bytes(
            manifest_for([{"name": "x", "dtype": "<f8", "shape": [0, 2**70],
                           "offset": 0, "nbytes": 0}])
        ),
        archive_bytes(
            manifest_for([{"name": "x", "dtype": "<f8", "shape": [0], "offset": 0,
                           "nbytes": 0}] * 2)
        ),  # repeated name
        archive_bytes(manifest_for([{"name": "x", "dtype": ["<f8"], "shape": [0],
                                     "offset": 0, "nbytes": 0}])),
    ],
)
def test_malformed_archive_raises_checkpoint_error(tmp_path, data):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(CheckpointError):
        load_tensors(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
entries = st.fixed_dictionaries({
    "name": st.sampled_from(["mel", "x"]) | json_values,
    "dtype": st.sampled_from(["<f4", "<f8", "<i8", ">f8"]) | json_values,
    "shape": st.lists(st.integers(-1, 4), max_size=3) | json_values,
    "offset": st.integers(-1, 40) | json_values,
    "nbytes": st.integers(-1, 40) | json_values,
})


@st.composite
def archive_like(draw):
    """Arbitrary bytes, biased towards archives that pass the early checks."""
    kind = draw(st.sampled_from(["bytes", "magic", "manifest"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "magic":
        return MAGIC + draw(st.binary(max_size=64))
    payload = draw(st.binary(max_size=40))
    meta = draw(st.just({"mel_config": asdict(MelConfig.toy())}) | json_values)
    listed = draw(st.lists(entries, max_size=3) | json_values)
    manifest = manifest_for(listed, payload, meta)
    data = archive_bytes(draw(st.just(manifest) | json_values), payload)
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@settings(max_examples=400, deadline=None)
@given(data=archive_like())
def test_any_bytes_load_or_raise_checkpoint_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    for load in (load_tensors, load_mel):
        try:
            load(path)
        except CheckpointError:
            pass


# -- the checkpoint schema ---------------------------------------------------------


def test_meta_field_order(toy_ckpt):
    """The manifest keeps key order, and that order fixes the bytes written."""
    _, meta = load_tensors(toy_ckpt)
    assert list(meta) == ["step", "model_config", "conditioning_mode", "training_prior",
                          "train", "mel_config"]
    assert list(meta["train"]) == [
        "batch_size", "segment_samples", "learning_rate", "max_steps", "seed",
        "checkpoint_every",
    ]


def test_state_round_trip_discrete_with_moments(tmp_path):
    config = TrainConfig(discrete_schedule=linear_schedule(1e-4, 0.05, 50), seed=9)
    model = DenoiserModel(ModelConfig.toy("float64"), seed=2)
    moments = {k: np.full_like(p.data, 0.5) for k, p in model.parameters().items()}
    state = TrainState(model=model, config=config, step=7, adam_m=moments, adam_v=moments)
    save_state(tmp_path / "s.ckpt", state)
    back, mel_cfg = load_state(tmp_path / "s.ckpt")
    assert mel_cfg is None and back.step == 7
    assert back.config.seed == 9
    assert back.config.discrete_schedule == config.discrete_schedule
    for name, p in model.parameters().items():
        assert np.array_equal(back.model.parameters()[name].data, p.data)
        assert np.array_equal(back.adam_m[name], moments[name])


def drop_param(tensors, meta):
    del tensors["param/post_conv.bias"]


def extra_param(tensors, meta):
    tensors["param/extra.weight"] = np.zeros(3, dtype=np.float32)


def wrong_shape(tensors, meta):
    tensors["param/post_conv.bias"] = np.zeros(2, dtype=np.float32)


def wrong_moment_shape(tensors, meta):
    tensors["adam_m/post_conv.bias"] = np.zeros(2, dtype=np.float32)


def stray_entry(tensors, meta):
    tensors["mel"] = np.zeros((8, 2))


def no_prior(tensors, meta):
    del meta["training_prior"]


def bad_train_field(tensors, meta):
    meta["train"]["no_such_field"] = 1


def bad_model_config(tensors, meta):
    meta["model_config"]["dblock_factors"] = [3]


def negative_factors(tensors, meta):
    meta["model_config"]["upsample_factors"] = [-2, -2]


def fractional_factor(tensors, meta):
    meta["model_config"]["upsample_factors"] = [2.5, 2]


def zero_dilation(tensors, meta):
    meta["model_config"]["ublock_dilations"][0] = [0, 2, 4, 8]


def unknown_conditioning(tensors, meta):
    meta["conditioning_mode"] = "stepwise"


@pytest.mark.parametrize(
    "edit",
    [drop_param, extra_param, wrong_shape, wrong_moment_shape, stray_entry, no_prior,
     bad_train_field, bad_model_config, negative_factors, fractional_factor, zero_dilation,
     unknown_conditioning],
)
def test_load_state_rejects_mismatched_checkpoint(toy_ckpt, tmp_path, edit):
    bad = rewrite(toy_ckpt, tmp_path / "bad.ckpt", edit)
    with pytest.raises(CheckpointError):
        load_state(bad)


def stray_schedule(tensors, meta):
    meta["discrete_schedule"] = schedule_to_text(linear_schedule(1e-4, 0.05, 50))


def test_continuous_checkpoint_ignores_a_stray_schedule(toy_ckpt, tmp_path):
    state, _ = load_state(rewrite(toy_ckpt, tmp_path / "stray.ckpt", stray_schedule))
    assert state.config.discrete_schedule is None


def oversized(tensors, meta):
    meta["model_config"]["ublock_channels"] = [4096, 4096]


def test_oversized_model_config_is_refused_before_allocating(toy_ckpt, corpus_dirs, tmp_path,
                                                             capsys):
    # this config implies gigabytes of weights; the toy arrays do not match
    # their shapes, and that shows before any of them is allocated or drawn
    bad = rewrite(toy_ckpt, tmp_path / "big.ckpt", oversized)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="shape"):
            load_state(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    inp = sorted(corpus_dirs[1].glob("*.wav"))[0]
    code = main(["synth", "--checkpoint", str(bad), "--input", str(inp),
                 "--schedule", "manual6", "--out", str(tmp_path / "o.wav")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1


# the fixture the sweep-toy benchmark loads: 400 steps of seed-0 toy training,
# written before the DBlock lists were derived and the optimizer settings fixed
FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "sweep-toy.ckpt"


def test_benchmark_fixture_loads():
    state, mel_cfg = load_state(FIXTURE)
    assert state.model.config == ModelConfig.toy()
    assert mel_cfg == MelConfig.toy()
    assert state.step == 400
    assert state.config == TrainConfig(
        batch_size=4, segment_samples=256, learning_rate=2e-3, max_steps=400, seed=0
    )


def fixed_slope(tensors, meta):
    meta["model_config"]["leaky_slope"] = 0.1


def fixed_eps(tensors, meta):
    meta["train"]["adam_eps"] = 1e-6


@pytest.mark.parametrize("edit", [fixed_slope, fixed_eps])
def test_retired_key_must_hold_the_fixed_value(tmp_path, edit):
    with pytest.raises(CheckpointError, match="this version uses"):
        load_state(rewrite(FIXTURE, tmp_path / "bad.ckpt", edit))


def older_schema(tensors, meta):
    """The metadata as archives written before this schema carried it."""
    model = meta["model_config"]
    meta["model_config"] = {
        "upsample_factors": model["upsample_factors"],
        "ublock_channels": model["ublock_channels"],
        "dblock_channels": [8],
        "dblock_factors": [2],
        "ublock_dilations": model["ublock_dilations"],
        "dblock_dilations": [1, 2, 4],
        "mel_bins": model["mel_bins"],
        "pre_conv_channels": model["pre_conv_channels"],
        "mel_conv_channels": model["mel_conv_channels"],
        "positional_scale": 5000.0,
        "leaky_slope": 0.2,
        "dtype": model["dtype"],
    }
    train = meta["train"]
    meta["train"] = {
        "batch_size": train["batch_size"],
        "segment_samples": train["segment_samples"],
        "learning_rate": train["learning_rate"],
        "adam_beta1": 0.9,
        "adam_beta2": 0.999,
        "adam_eps": 1e-8,
        "clip_norm": 1.0,
        "max_steps": train["max_steps"],
        "seed": train["seed"],
        "checkpoint_every": train["checkpoint_every"],
    }


def test_older_schema_loads_identically(toy_ckpt, tmp_path):
    old = rewrite(toy_ckpt, tmp_path / "old.ckpt", older_schema)
    (state, mel_cfg), (back, back_mel) = load_state(toy_ckpt), load_state(old)
    assert back.model.config == state.model.config and back.config == state.config
    assert back_mel == mel_cfg and back.step == state.step
    for name, p in state.model.parameters().items():
        assert np.array_equal(back.model.parameters()[name].data, p.data)


def test_load_state_rejects_mel_file(tmp_path):
    values = np.zeros((8, 3))
    save_mel(tmp_path / "m.mel", MelSpectrogram(values=values, config=MelConfig.toy()))
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_state(tmp_path / "m.mel")


# -- .mel files --------------------------------------------------------------------


def test_mel_file_is_a_tensor_archive(tmp_path):
    values = np.random.default_rng(1).standard_normal((8, 5))
    save_mel(tmp_path / "m.mel", MelSpectrogram(values=values, config=MelConfig.toy()))
    tensors, meta = load_tensors(tmp_path / "m.mel")
    assert list(tensors) == ["mel"] and tensors["mel"].dtype == np.float64
    assert np.array_equal(tensors["mel"], values)
    assert MelConfig(**meta["mel_config"]) == MelConfig.toy()


@pytest.mark.parametrize(
    "tensors, meta",
    [
        ({"values": np.zeros((8, 2))}, {"mel_config": asdict(MelConfig.toy())}),
        ({"mel": np.zeros(8)}, {"mel_config": asdict(MelConfig.toy())}),
        ({"mel": np.zeros((8, 2))}, {}),
        ({"mel": np.zeros((8, 2))}, {"mel_config": {"hop": 4}}),
        ({"mel": np.zeros((8, 2))}, {"mel_config": [1, 2]}),
    ],
)
def test_load_mel_rejects_other_archives(tmp_path, tensors, meta):
    save_tensors(tmp_path / "x.mel", tensors, meta=meta)
    with pytest.raises(CheckpointError):
        load_mel(tmp_path / "x.mel")


def test_load_mel_rejects_model_checkpoint(toy_ckpt):
    with pytest.raises(CheckpointError, match="not a mel file"):
        load_mel(toy_ckpt)
