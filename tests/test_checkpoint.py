"""Tensor archives: the checkpoint schema, .mel files, and malformed input."""

import hashlib
import json
import os
import struct
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradvoc import checkpoint
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


def root_buffer(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``arr`` views."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def test_loaded_arrays_are_views_of_one_buffer(tmp_path):
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    moments = {k: np.full_like(p.data, 0.5) for k, p in model.parameters().items()}
    state = TrainState(model=model, config=TrainConfig(), adam_m=moments, adam_v=moments)
    save_state(tmp_path / "s.ckpt", state, mel_cfg=MelConfig.toy())
    back, _ = load_state(tmp_path / "s.ckpt")
    arrays = [p.data for p in back.model.parameters().values()]
    arrays += [*back.adam_m.values(), *back.adam_v.values()]
    buffer = root_buffer(arrays[0])
    assert buffer.nbytes <= sum(a.nbytes for a in arrays) + 64  # the payload, once
    for arr in arrays:
        assert root_buffer(arr) is buffer and np.shares_memory(arr, buffer)
        assert arr.flags.aligned and arr.flags.c_contiguous


def test_a_flipped_payload_byte_is_refused_before_any_array_is_made(toy_ckpt, tmp_path,
                                                                    monkeypatch):
    data = bytearray(toy_ckpt.read_bytes())
    data[-5] ^= 0x10
    (tmp_path / "flipped.ckpt").write_bytes(data)
    made = []
    entry_array = checkpoint._entry_array
    monkeypatch.setattr(checkpoint, "_entry_array",
                        lambda *args: made.append(args) or entry_array(*args))
    with pytest.raises(CheckpointError, match="checksum"):
        load_tensors(tmp_path / "flipped.ckpt")
    assert made == []
    load_tensors(toy_ckpt)
    assert made


def test_a_float64_entry_off_its_alignment_loads_equal_values(tmp_path):
    # three float32 values put the float64 entry at offset 12, 4 mod 8
    tensors = {"a": np.arange(3, dtype=np.float32), "b": np.linspace(-1.0, 1.0, 5),
               "c": np.arange(2, dtype=np.float32)}
    save_tensors(tmp_path / "t.bin", tensors)
    raw = (tmp_path / "t.bin").read_bytes()
    (size,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    manifest = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + size])
    assert [entry["offset"] for entry in manifest["entries"]] == [0, 12, 52]
    back, _ = load_tensors(tmp_path / "t.bin")
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype and np.array_equal(back[name], arr)
        assert back[name].flags.aligned
    # the float64 entry is copied; the float32 ones are views
    assert root_buffer(back["a"]) is root_buffer(back["c"])
    assert not np.shares_memory(root_buffer(back["a"]), back["b"])


def test_an_archive_read_from_a_pipe_loads(toy_ckpt, tmp_path):
    """A pipe (``--checkpoint <(cat x.ckpt)``) has no file size; it is read to
    its end, as a regular file is."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(toy_ckpt.read_bytes()),
                              daemon=True)
    writer.start()
    try:
        back, meta = load_tensors(fifo)
    finally:
        writer.join(timeout=10)
    want, want_meta = load_tensors(toy_ckpt)
    assert meta == want_meta and list(back) == list(want)
    for name, arr in want.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes()
        assert back[name].flags.aligned


# -- the checkpoint schema ---------------------------------------------------------


def test_meta_field_order(toy_ckpt):
    """The manifest keeps key order, and that order fixes the bytes written."""
    _, meta = load_tensors(toy_ckpt)
    assert list(meta) == ["step", "model_config", "training_prior", "train", "mel_config"]
    assert list(meta["train"]) == [
        "batch_size", "segment_samples", "learning_rate", "max_steps", "seed",
        "checkpoint_every",
    ]


def test_state_round_trip_discrete_with_moments(tmp_path):
    config = TrainConfig(discrete_schedule=linear_schedule(1e-4, 0.05, 50), seed=9)
    model = DenoiserModel(ModelConfig.toy("float64"), seed=2)
    moments = {k: np.full_like(p.data, 0.5) for k, p in model.parameters().items()}
    state = TrainState(model=model, config=config, step=7, adam_m=moments, adam_v=moments)
    save_state(tmp_path / "s.ckpt", state, mel_cfg=MelConfig.toy())
    back, mel_cfg = load_state(tmp_path / "s.ckpt")
    assert mel_cfg == MelConfig.toy() and back.step == 7
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


def no_mel_config(tensors, meta):
    del meta["mel_config"]


def mel_hop_8(tensors, meta):  # the toy model takes 4 samples per frame
    meta["mel_config"]["hop_length"] = 8


def mel_bins_16(tensors, meta):  # the toy model takes 8 mel bins
    meta["mel_config"]["n_mels"] = 16


def zero_log_floor(tensors, meta):
    meta["mel_config"]["log_floor"] = 0.0


def fmin_above_fmax(tensors, meta):
    meta["mel_config"].update(fmin=3000.0, fmax=2000.0)


@pytest.mark.parametrize(
    "edit",
    [drop_param, extra_param, wrong_shape, wrong_moment_shape, stray_entry, no_prior,
     bad_train_field, bad_model_config, negative_factors, fractional_factor, zero_dilation,
     unknown_conditioning, no_mel_config, mel_hop_8, mel_bins_16, zero_log_floor,
     fmin_above_fmax],
)
def test_load_state_rejects_mismatched_checkpoint(toy_ckpt, tmp_path, edit):
    bad = rewrite(toy_ckpt, tmp_path / "bad.ckpt", edit)
    with pytest.raises(CheckpointError):
        load_state(bad)


def stray_schedule(tensors, meta):  # an older archive's mode key, and a schedule
    meta["conditioning_mode"] = "continuous"
    meta["discrete_schedule"] = schedule_to_text(linear_schedule(1e-4, 0.05, 50))


def test_continuous_checkpoint_with_a_stray_schedule_is_refused(toy_ckpt, tmp_path):
    # the schedule's presence says discrete and the retired key says continuous
    with pytest.raises(CheckpointError, match="discrete_schedule"):
        load_state(rewrite(toy_ckpt, tmp_path / "stray.ckpt", stray_schedule))


@pytest.mark.parametrize("schedule", [None, linear_schedule(1e-4, 0.05, 50)])
def test_an_agreeing_conditioning_mode_still_loads(schedule, tmp_path):
    # archives written before the key was retired carry it
    config = TrainConfig(discrete_schedule=schedule)
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=config)
    save_state(tmp_path / "new.ckpt", state, mel_cfg=MelConfig.toy())

    def old_mode(tensors, meta):
        meta["conditioning_mode"] = "continuous" if schedule is None else "discrete"

    old = rewrite(tmp_path / "new.ckpt", tmp_path / "old.ckpt", old_mode)
    assert load_state(old)[0].config == config


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
    mel = load_mel(tmp_path / "m.mel")
    assert mel.values.dtype == np.float64 and np.array_equal(mel.values, values)


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
