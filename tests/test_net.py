"""Denoiser architecture: blocks, conditioning, shapes, and serialization."""

import hashlib
import itertools
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from gradvoc import tensor as T
from gradvoc.dsp import MelConfig
from gradvoc.net import (
    Conv1d,
    DBlock,
    DenoiserModel,
    FiLM,
    ModelConfig,
    POSITIONAL_SCALE,
    UBlock,
    init_weights,
    positional_encoding,
)
from gradvoc.tensor import Tensor
from gradvoc.train import TrainConfig, TrainState, load_state, save_state, train_step

BASE_PARAM_COUNT = 17_230_657  # frozen at first build; FiLM widths dominate
TOY_PARAM_COUNT = 3_617


@pytest.fixture(scope="module")
def base_model():
    return DenoiserModel(ModelConfig(), seed=0)


def identity_kernel(channels, kernel):
    w = np.zeros((channels, channels, kernel))
    w[np.arange(channels), np.arange(channels), kernel // 2] = 1.0
    return w


def make_identity(conv: Conv1d):
    c_out, c_in, k = conv.weight.data.shape
    assert c_out == c_in
    conv.weight.data = identity_kernel(c_out, k).astype(conv.weight.data.dtype)
    if conv.bias is not None:
        conv.bias.data = np.zeros_like(conv.bias.data)


# -- positional encoding -----------------------------------------------------------


def test_encoding_origin_limit():
    emb = positional_encoding(1e-300, 8)
    assert np.allclose(emb[:4], 0.0, atol=1e-12)
    assert np.allclose(emb[4:], 1.0, atol=1e-12)


def test_encoding_at_unit_level():
    emb = positional_encoding(1.0, 128)
    assert np.all(np.isfinite(emb))
    assert np.all(np.abs(emb) <= 1.0)
    # the highest-frequency component sits exactly at position 5000
    assert emb[0] == pytest.approx(math.sin(5000.0), abs=1e-12)
    assert emb[64] == pytest.approx(math.cos(5000.0), abs=1e-12)


def test_encoding_lipschitz_smoothness():
    dim, scale = 16, POSITIONAL_SCALE
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * (2.0 / dim) * np.arange(half))
    bound = scale * float(np.linalg.norm(freqs))
    levels = np.linspace(0.3, 0.3001, 50)
    embs = np.array([positional_encoding(v, dim) for v in levels])
    dists = np.linalg.norm(np.diff(embs, axis=0), axis=1)
    assert np.all(dists <= bound * (levels[1] - levels[0]) * (1 + 1e-6))


def test_encoding_rejects_bad_args():
    with pytest.raises(ValueError):
        positional_encoding(0.5, 7)
    with pytest.raises(ValueError):
        positional_encoding(1.5, 8)


# -- FiLM ---------------------------------------------------------------------------


def test_film_zero_inputs_zero_outputs():
    rng = np.random.default_rng(0)
    film = FiLM(4, 6)
    init_weights(film, rng, np.float64)
    out = film(Tensor(np.zeros((4, 10))), Tensor(np.zeros(6)))
    # biases are zero-initialized, so the whole map is linear and vanishes
    assert not out.data.any()


def test_film_output_channels_match_modulated_stage():
    """gamma and xi, stacked: twice the modulated stage's channels."""
    film = FiLM(3, 8)
    init_weights(film, np.random.default_rng(1), np.float64)
    assert film(Tensor(np.ones((3, 12))), Tensor(np.ones(8))).shape == (16, 12)
    assert film(Tensor(np.ones((2, 3, 12))), Tensor(np.ones((2, 8)))).shape == (2, 16, 12)


FILM_RTOL = {np.float64: 1e-12, np.float32: 1e-6}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_film_gamma_and_xi_are_the_two_convs_of_the_features(dtype):
    """The two channel halves of FiLM's one GEMM of the stacked weights are
    what the two convs give alone, byte for byte at the toy model's FiLM
    widths.

    BLAS may sum a product with twice the rows in another order (it does for
    FiLM(3, 6) in float64 with OpenBLAS 0.3), so another width is held to
    rounding error only.
    """
    rng = np.random.default_rng(11)
    widths = [(8, 8, True), (4, 8, True), (3, 6, False)]  # (c_in, c_out, byte-equal)
    for (c_in, c_out, exact), batch in itertools.product(widths, ((), (2,))):
        film = FiLM(c_in, c_out)
        init_weights(film, np.random.default_rng(12), dtype)
        for conv in (film.gamma_conv, film.xi_conv):
            conv.bias.data = rng.standard_normal(c_out).astype(dtype)
        f = Tensor(rng.standard_normal((*batch, c_in, 16)).astype(dtype))
        e = Tensor(rng.standard_normal((*batch, c_out)).astype(dtype))
        out = film(f, e).data
        gamma, xi = out[..., :c_out, :], out[..., c_out:, :]
        h = T.add_channel_bias(T.leaky_relu(film.input_conv(f)), e)
        for got, want in ((gamma, film.gamma_conv(h).data), (xi, film.xi_conv(h).data)):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= FILM_RTOL[dtype] * np.max(np.abs(want))


def fd_entries(loss, p, tol=1e-5):
    """Compare ``p.grad`` with central differences of the scalar ``loss()``."""
    flat, got = p.data.reshape(-1), p.grad.reshape(-1).copy()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + 1e-6
        up = float(loss().data)
        flat[i] = orig - 1e-6
        dn = float(loss().data)
        flat[i] = orig
        fd = (up - dn) / 2e-6
        assert abs(got[i] - fd) <= tol * max(abs(fd), abs(got[i]), 1e-6)


def test_film_gradients_reach_both_convs():
    rng = np.random.default_rng(14)
    film = FiLM(2, 4)
    init_weights(film, np.random.default_rng(13), np.float64)
    f, e = Tensor(rng.standard_normal((2, 7))), Tensor(rng.standard_normal(4))
    params = [film.gamma_conv.weight, film.gamma_conv.bias, film.xi_conv.weight, film.xi_conv.bias]
    for p in params:
        p.data = rng.standard_normal(p.shape)
    weights = Tensor(np.repeat([1.0, 2.0], 4)[:, None] * np.ones((8, 7)))  # xi counts twice

    def loss():
        return T.mean_abs(T.mul(film(f, e), weights))

    loss().backward()
    for p in params:
        fd_entries(loss, p)


def test_ublock_gradient_reaches_both_halves_of_film():
    """Each of the three affine maps sends g * x to gamma's half of the film
    and g to xi's half; their sum matches central differences."""
    rng = np.random.default_rng(15)
    block = UBlock(3, 2, 2, (1, 2, 1, 2))
    init_weights(block, np.random.default_rng(16), np.float64)
    x = Tensor(rng.standard_normal((3, 5)))
    film = Tensor(rng.standard_normal((4, 10)), requires_grad=True)

    def loss():
        return T.mean_abs(block(x, film))

    loss().backward()
    assert film.grad[:2].any() and film.grad[2:].any()
    fd_entries(loss, film)


def test_neutral_affine_is_identity():
    """The fused FiLM affine map and leaky ReLU, with gamma = 1 and xi = 0,
    is exactly the leaky ReLU."""
    x = Tensor(np.random.default_rng(2).standard_normal((4, 9)))
    out = T.affine_leaky_relu(x, neutral_film(4, 9))
    assert np.array_equal(out.data, T.leaky_relu(x).data)


# -- UBlock -------------------------------------------------------------------------


def neutral_film(channels, t):
    """gamma = 1 stacked on xi = 0."""
    return Tensor(np.concatenate([np.ones((channels, t)), np.zeros((channels, t))]))


def test_ublock_hand_trace_identity_wiring():
    """Factor-1 block, identity convs, neutral FiLM on a positive signal.

    main = x, skip = x, first sum = 2x; the second residual reproduces 2x,
    so the output is 4x.  Hand-traced on a 3-sample signal.
    """
    block = UBlock(1, 1, 1, (1, 1, 1, 1))
    init_weights(block, np.random.default_rng(4), np.float64)
    for conv in (block.main1, block.main2, block.res2a, block.res2b, block.skip):
        make_identity(conv)
    x = np.array([[0.1, 0.7, 0.4]])
    out = block(Tensor(x), neutral_film(1, 3))
    assert np.allclose(out.data, 4 * x, atol=1e-15)


def test_ublock_upsamples_by_factor():
    block = UBlock(3, 2, 5, (1, 2, 4, 8))
    init_weights(block, np.random.default_rng(5), np.float64)
    out = block(Tensor(np.random.default_rng(6).standard_normal((3, 7))), neutral_film(2, 35))
    assert out.shape == (2, 35)


def test_ublock_dilations_honored():
    block = UBlock(2, 2, 1, (1, 2, 4, 8))
    init_weights(block, np.random.default_rng(7), np.float64)
    got = (block.main1.dilation, block.main2.dilation,
           block.res2a.dilation, block.res2b.dilation)
    assert got == (1, 2, 4, 8)


def test_conv_dilation_receptive_span():
    # impulse response of a dilated size-3 kernel spans (3-1)*d + 1 samples
    for d in (1, 2, 4, 8):
        x = np.zeros((1, 64))
        x[0, 32] = 1.0
        w = Tensor(np.ones((1, 1, 3)))
        y = T.conv1d(Tensor(x), w, dilation=d).data[0]
        nz = np.flatnonzero(y)
        assert nz.max() - nz.min() + 1 == 2 * d + 1


# -- DBlock -------------------------------------------------------------------------


def test_dblock_hand_trace_identity_wiring():
    block = DBlock(1, 1, 1, (1, 1, 1))
    init_weights(block, np.random.default_rng(8), np.float64)
    for conv in (block.main1, block.main2, block.main3, block.skip):
        make_identity(conv)
    x = np.array([[0.2, 0.5, 0.1, 0.9]])
    out = block(Tensor(x))
    assert np.allclose(out.data, 2 * x, atol=1e-15)


def test_dblock_zero_input_zero_output():
    block = DBlock(3, 5, 2, (1, 2, 4))
    init_weights(block, np.random.default_rng(9), np.float64)
    out = block(Tensor(np.zeros((3, 12))))
    assert np.allclose(out.data, 0.0, atol=0)


def test_dblock_chain_7200_to_120(base_model):
    x = Tensor(np.random.default_rng(10).standard_normal((1, 7200)).astype(np.float32))
    h = base_model.pre_conv(x)
    for block in base_model.dblocks:
        h = block(h)
    assert h.shape == (512, 120)


# -- full model ---------------------------------------------------------------------


def test_base_forward_shape(base_model):
    mel = np.zeros((128, 24), dtype=np.float32)
    out = base_model.predict(np.zeros(7200), mel, 0.5)
    assert out.shape == (7200,)
    assert np.all(np.isfinite(out))


def test_base_parameter_count(base_model):
    count = sum(p.data.size for p in base_model.parameters().values())
    assert count == BASE_PARAM_COUNT
    # the intended scale for this configuration is roughly 15M parameters
    assert 0.8 * 15e6 <= count <= 1.4 * 15e6


def test_film_pairing_channels(base_model):
    cfg = base_model.config
    chain = [cfg.pre_conv_channels, *cfg.dblock_channels]
    n_up = len(cfg.upsample_factors)
    for j, film in enumerate(base_model.films):
        assert film.input_conv.weight.data.shape[1] == chain[n_up - 1 - j]
        assert film.gamma_conv.weight.data.shape[0] == cfg.ublock_channels[j]


def test_toy_shape_contract():
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    assert sum(p.data.size for p in model.parameters().values()) == TOY_PARAM_COUNT
    rng = np.random.default_rng(11)
    y = rng.standard_normal(24)
    mel = rng.standard_normal((8, 6))
    out = model.predict(y, mel, 0.7)
    assert out.shape == y.shape
    # doubling the conditioning doubles the output length
    out2 = model.predict(np.concatenate([y, y]), np.concatenate([mel, mel], axis=1), 0.7)
    assert out2.shape == (48,)


def _conv_names(prefix):
    return [f"{prefix}.weight", f"{prefix}.bias"]


# checkpoints store parameters under these names, in this order
TOY_PARAM_NAMES = [
    *_conv_names("pre_conv"),
    *_conv_names("dblock0.main1"), *_conv_names("dblock0.main2"),
    *_conv_names("dblock0.main3"), "dblock0.skip.weight",
    *_conv_names("mel_conv"),
    *[name for j in range(2) for name in (
        *_conv_names(f"ublock{j}.main1"), *_conv_names(f"ublock{j}.main2"),
        *_conv_names(f"ublock{j}.res2a"), *_conv_names(f"ublock{j}.res2b"),
        f"ublock{j}.skip.weight",
    )],
    *[name for j in range(2) for name in (
        *_conv_names(f"film{j}.input_conv"), *_conv_names(f"film{j}.gamma_conv"),
        *_conv_names(f"film{j}.xi_conv"),
    )],
    *_conv_names("post_conv"),
]


def test_toy_parameter_names_and_order():
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    assert list(model.parameters()) == TOY_PARAM_NAMES


# sha256 over the name, dtype, shape and bytes of every seed-0 toy parameter in
# walk order, recorded when each layer drew its own weights at construction:
# a change in draw order or in the init policy shows here
TOY_WEIGHTS_SHA256 = {
    "float32": "2822f4ebfb3e11ab7a609aeb7651f79d89b5bc5317ed175816617c06c4a8c037",
    "float64": "2f06424c3fc97f08ffdc3dda2f1dbc93f58898827ee10220c49549cdad79f4bb",
}


@pytest.mark.parametrize("dtype", sorted(TOY_WEIGHTS_SHA256))
def test_seed0_toy_weights_are_pinned(dtype):
    digest = hashlib.sha256()
    for name, p in DenoiserModel(ModelConfig.toy(dtype), seed=0).parameters().items():
        digest.update(f"{name}|{p.data.dtype.str}|{p.data.shape}|".encode())
        digest.update(np.ascontiguousarray(p.data).tobytes())
    assert digest.hexdigest() == TOY_WEIGHTS_SHA256[dtype]


def test_loading_draws_no_weights(base_model, tmp_path, monkeypatch):
    path = tmp_path / "base.ckpt"
    save_state(path, TrainState(model=base_model, config=TrainConfig()), mel_cfg=MelConfig())
    calls = []
    draw = T.orthogonal_init

    def counted(*args, **kwargs):
        calls.append(args[0])
        return draw(*args, **kwargs)

    monkeypatch.setattr(T, "orthogonal_init", counted)
    DenoiserModel(ModelConfig.toy(), seed=0)
    assert len(calls) == sum(name.endswith(".weight") for name in TOY_PARAM_NAMES)
    calls.clear()
    state, _ = load_state(path)
    assert calls == []
    loaded = state.model.parameters()
    for name, p in base_model.parameters().items():
        assert np.array_equal(loaded[name].data, p.data), name


class _Delegating:
    """Wraps a block the way a profiler does: calls and attributes pass through."""

    def __init__(self, inner):
        self._inner = inner

    def __call__(self, *args):
        return self._inner(*args)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def test_parameter_names_survive_delegating_wrappers():
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    before = model.parameters()
    for attr in ("pre_conv", "mel_conv", "post_conv"):
        setattr(model, attr, _Delegating(getattr(model, attr)))
    for attr in ("dblocks", "films", "ublocks"):
        setattr(model, attr, [_Delegating(b) for b in getattr(model, attr)])
    after = model.parameters()
    assert list(after) == TOY_PARAM_NAMES
    assert all(after[name] is before[name] for name in TOY_PARAM_NAMES)


def test_forward_rejects_misaligned_lengths():
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    with pytest.raises(ValueError):
        model.predict(np.zeros(25), np.zeros((8, 6)), 0.5)
    with pytest.raises(ValueError):
        model.predict(np.zeros(24), np.zeros((7, 6)), 0.5)
    with pytest.raises(ValueError, match="frames >= 1"):
        model.predict(np.zeros(0), np.zeros((8, 0)), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_refuses_a_non_finite_mel(bad):
    """A non-finite mel is the caller's data, not a network failure."""
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    y, mel = toy_input(6)
    mel[5, 4] = bad
    with pytest.raises(ValueError, match="non-finite mel"):
        model.predict(y, mel, 0.5)
    with pytest.raises(ValueError, match="non-finite mel"):
        model.forward(np.stack([y, y]), np.stack([toy_input(6)[1], mel]), np.array([0.5, 0.5]))


def test_no_cross_input_state():
    """Outputs depend only on the current input: no batch statistics."""
    cfg = ModelConfig.toy()
    rng = np.random.default_rng(12)
    a = rng.standard_normal(24)
    b = rng.standard_normal(24)
    mel = rng.standard_normal((8, 6))
    model = DenoiserModel(cfg, seed=3)
    model.predict(a, mel, 0.4)  # interleaved extra input
    seen_after_a = model.predict(b, mel, 0.4)
    fresh = DenoiserModel(cfg, seed=3).predict(b, mel, 0.4)
    assert np.array_equal(seen_after_a, fresh)


# -- tape-free inference against the tracked forward -------------------------------


def toy_input(frames, seed=16):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(4 * frames), rng.standard_normal((8, frames))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict_equals_tracked_forward(dtype):
    model = DenoiserModel(ModelConfig.toy(dtype=dtype), seed=2)
    y, mel = toy_input(6)
    got = model.predict(y, mel, 0.7)
    want = model.forward(y, mel, 0.7).data[0]
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes()


def test_predict_records_no_tape(monkeypatch):
    made = []
    untraced = T._result

    def recording(data, parents, backward):
        made.append(untraced(data, parents, backward))
        return made[-1]

    monkeypatch.setattr(T, "_result", recording)
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    y, mel = toy_input(6)
    model.forward(y, mel, 0.5)
    assert made and all(t.requires_grad and t._parents for t in made)
    n_ops = len(made)
    made.clear()
    model.predict(y, mel, 0.5)
    assert len(made) == n_ops
    assert not any(t.requires_grad or t._parents or t._backward for t in made)


def test_failed_predict_leaves_training_tracked():
    """A predict that raises inside the untracked mode still restores tracking."""
    y, mel = toy_input(6)
    batch = (y[None], mel[None])

    def step(model):
        state = TrainState(model=model, config=TrainConfig())
        _, loss = train_step(state, batch, np.random.default_rng(17))
        return loss, {k: p.grad.copy() for k, p in model.parameters().items()}

    fresh_loss, fresh_grads = step(DenoiserModel(ModelConfig.toy(), seed=0))
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    bad_mel = mel.copy()
    bad_mel[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite mel"):  # refused inside the forward
        model.predict(y, bad_mel, 0.5)
    bias = model.post_conv.bias
    saved, bias.data = bias.data, np.full_like(bias.data, np.nan)
    assert np.isnan(model.predict(y, mel, 0.5)).all()  # refused by the sampler, not here
    bias.data = saved
    loss, grads = step(model)
    assert loss == fresh_loss
    assert list(grads) == list(fresh_grads)
    assert all(np.array_equal(grads[k], fresh_grads[k]) for k in grads)


def test_predict_keeps_no_activations_alive():
    """A long predict peaks well under the tracked forward on the same input."""
    model = DenoiserModel(ModelConfig.toy(dtype="float64"), seed=0)
    y, mel = toy_input(1000)

    def traced_peak(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    tracked = traced_peak(lambda: model.forward(y, mel, 0.5))
    untracked = traced_peak(lambda: model.predict(y, mel, 0.5))
    assert untracked < 0.35 * tracked, (untracked, tracked)


def test_base_predict_peak_is_held(base_model):
    """One float32 base predict of 40 frames (0.5 s at 24 kHz) peaks at 37.3
    MiB of traced memory: its activations, one tile of column matrix at a
    time, each DBlock output only until its FiLM has read it, and the affine
    map's activation in place.  Each of these alone, undone, reads 52.8,
    44.5 and 41.1 MiB; all three read 60.0 MiB."""
    rng = np.random.default_rng(3)
    mel = rng.standard_normal((128, 40))
    y = rng.standard_normal(40 * base_model.config.samples_per_frame)
    tracemalloc.start()
    try:
        base_model.predict(y, mel, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, peak / 2**20


# -- a batch of items against the items one at a time -------------------------------

# relative agreement of a batched forward or gradient with the single items
BATCH_RTOL = {"float64": 1e-12, "float32": 1e-6}


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batched_forward_equals_single_items(dtype):
    """Outputs and parameter gradients of one batched graph equal those of
    the items one at a time, each at its own noise level."""
    model = DenoiserModel(ModelConfig.toy(dtype=dtype), seed=4)
    params = model.parameters()
    rng = np.random.default_rng(20)
    ys, mels = rng.standard_normal((3, 28)), rng.standard_normal((3, 8, 7))
    levels = np.array([0.05, 0.6, 1.0])
    cotangent = rng.standard_normal((3, 1, 28)).astype(dtype)

    def grads_of(out, g):
        for p in params.values():
            p.grad = None
        T.mean_abs(T.mul(out, Tensor(g))).backward()
        return {k: p.grad.copy() for k, p in params.items()}

    batch = model.forward(ys, mels, levels)
    assert batch.shape == (3, 1, 28) and batch.dtype == np.dtype(dtype)
    batch_grads = grads_of(batch, cotangent)
    summed = {k: 0.0 for k in params}
    for i in range(3):
        single = model.forward(ys[i], mels[i], levels[i])
        assert rel_err(batch.data[i], single.data) <= BATCH_RTOL[dtype]
        for k, g in grads_of(single, cotangent[i] / 3).items():
            summed[k] = summed[k] + g
    for k in params:
        assert rel_err(batch_grads[k], summed[k]) <= BATCH_RTOL[dtype], k


def test_batched_forward_rejects_mismatched_items():
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 25)), np.zeros((2, 8, 6)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 24)), np.zeros((2, 8, 6)), np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="frames >= 1"):
        model.forward(np.zeros((2, 0)), np.zeros((2, 8, 0)), np.array([0.5, 0.5]))


def test_batched_model_finite_difference():
    """Central finite differences through a batch of two toy items at 64-bit,
    three sampled entries per parameter, as in acceptance criterion 5."""
    model = DenoiserModel(ModelConfig.toy(dtype="float64"), seed=1)
    rng = np.random.default_rng(21)
    ys, mels = rng.standard_normal((2, 12)), rng.standard_normal((2, 8, 3))
    levels = np.array([0.3, 0.9])
    params = model.parameters()

    def loss():
        return T.mean_abs(model.forward(ys, mels, levels))

    loss().backward()
    grads = {k: p.grad.copy() for k, p in params.items()}
    pick = np.random.default_rng(22)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for i in pick.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + 1e-6
            up = float(loss().data)
            flat[i] = orig - 1e-6
            dn = float(loss().data)
            flat[i] = orig
            fd = (up - dn) / 2e-6
            got = grads[name].reshape(-1)[i]
            assert abs(got - fd) / max(abs(fd), abs(got), 1e-6) <= 1e-4, f"{name}[{i}]"


def test_batched_embedding_rows_are_single_embeddings():
    levels = np.array([0.01, 0.5, 1.0])
    rows = positional_encoding(levels, 16)
    assert rows.shape == (3, 16)
    for row, level in zip(rows, levels):
        assert row.tobytes() == positional_encoding(float(level), 16).tobytes()


def test_large_config_alignment():
    cfg = ModelConfig.large()
    model = DenoiserModel(cfg, seed=0)
    assert cfg.samples_per_frame == 300
    assert len(model.ublocks) == 10 and len(model.dblocks) == 9
    assert all(d == (1, 2, 4, 8) for d in cfg.ublock_dilations)


def test_config_rejects_misaligned_factors():
    """The UBlock lists must match the factors; the DBlock lists derive from them."""
    toy = asdict(ModelConfig.toy())
    for field, value in [("ublock_channels", (8,)), ("ublock_channels", (8, 8, 8)),
                         ("ublock_dilations", ((1, 2, 4, 8),))]:
        with pytest.raises(ValueError):
            ModelConfig(**{**toy, field: value})
    with pytest.raises(ValueError, match="at least one UBlock"):
        ModelConfig(**{**toy, "upsample_factors": (), "ublock_channels": (), "ublock_dilations": ()})


def test_config_rejects_odd_ublock_channels():
    """Each UBlock's channel count is the width of a sine/cosine noise embedding."""
    with pytest.raises(ValueError, match="even"):
        ModelConfig(**{**asdict(ModelConfig.toy()), "ublock_channels": (7, 7)})


def test_full_model_finite_difference():
    """Central finite differences through the entire toy model at 64-bit."""
    model = DenoiserModel(ModelConfig.toy(dtype="float64"), seed=1)
    rng = np.random.default_rng(13)
    y = rng.standard_normal(12)
    mel = rng.standard_normal((8, 3))
    params = model.parameters()

    loss = T.mean_abs(model.forward(y, mel, 0.6))
    loss.backward()
    grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    assert set(grads) == set(params)

    rng_pick = np.random.default_rng(14)
    step = 1e-6
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idxs = rng_pick.choice(flat.size, size=min(3, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            up = float(T.mean_abs(model.forward(y, mel, 0.6)).data)
            flat[i] = orig - step
            dn = float(T.mean_abs(model.forward(y, mel, 0.6)).data)
            flat[i] = orig
            fd = (up - dn) / (2 * step)
            got = grads[name].reshape(-1)[i]
            denom = max(abs(fd), abs(got), 1e-6)
            assert abs(got - fd) / denom <= 1e-4, f"{name}[{i}]: {got} vs {fd}"
            checked += 1
    assert checked > 100


def test_save_load_round_trip(tmp_path):
    model = DenoiserModel(ModelConfig.toy(), seed=5)
    path = tmp_path / "model.ckpt"
    save_state(path, TrainState(model=model, config=TrainConfig()), mel_cfg=MelConfig.toy())
    state, mel_cfg = load_state(path)
    back = state.model
    assert mel_cfg == MelConfig.toy() and back.config == model.config
    rng = np.random.default_rng(15)
    y = rng.standard_normal(24)
    mel = rng.standard_normal((8, 6))
    assert np.array_equal(model.predict(y, mel, 0.3), back.predict(y, mel, 0.3))
