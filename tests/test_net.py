"""Denoiser architecture: blocks, conditioning, shapes, and serialization."""

import math

import numpy as np
import pytest

from gradvoc import tensor as T
from gradvoc.net import (
    Conv1d,
    DBlock,
    DenoiserModel,
    FiLM,
    ModelConfig,
    UBlock,
    positional_encoding,
)
from gradvoc.tensor import Tensor
from gradvoc.train import TrainConfig, TrainState, load_state, save_state

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
    emb = positional_encoding(1e-300, 8, scale=5000.0)
    assert np.allclose(emb[:4], 0.0, atol=1e-12)
    assert np.allclose(emb[4:], 1.0, atol=1e-12)


def test_encoding_at_unit_level():
    emb = positional_encoding(1.0, 128, scale=5000.0)
    assert np.all(np.isfinite(emb))
    assert np.all(np.abs(emb) <= 1.0)
    # the highest-frequency component sits exactly at position 5000
    assert emb[0] == pytest.approx(math.sin(5000.0), abs=1e-12)
    assert emb[64] == pytest.approx(math.cos(5000.0), abs=1e-12)


def test_encoding_lipschitz_smoothness():
    dim, scale = 16, 5000.0
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * (2.0 / dim) * np.arange(half))
    bound = scale * float(np.linalg.norm(freqs))
    levels = np.linspace(0.3, 0.3001, 50)
    embs = np.array([positional_encoding(v, dim, scale) for v in levels])
    dists = np.linalg.norm(np.diff(embs, axis=0), axis=1)
    assert np.all(dists <= bound * (levels[1] - levels[0]) * (1 + 1e-6))


def test_encoding_rejects_bad_args():
    with pytest.raises(ValueError):
        positional_encoding(0.5, 7, 5000.0)
    with pytest.raises(ValueError):
        positional_encoding(1.5, 8, 5000.0)


# -- FiLM ---------------------------------------------------------------------------


def test_film_zero_inputs_zero_outputs():
    rng = np.random.default_rng(0)
    film = FiLM(4, 6, rng, np.float64)
    gamma, xi = film(Tensor(np.zeros((4, 10))), Tensor(np.zeros(6)))
    # biases are zero-initialized, so the whole map is linear and vanishes
    assert np.allclose(gamma.data, 0.0, atol=0) and np.allclose(xi.data, 0.0, atol=0)


def test_film_output_channels_match_modulated_stage():
    film = FiLM(3, 8, np.random.default_rng(1), np.float64)
    gamma, xi = film(Tensor(np.ones((3, 12))), Tensor(np.ones(8)))
    assert gamma.shape == (8, 12) and xi.shape == (8, 12)


def test_neutral_affine_is_identity():
    x = Tensor(np.random.default_rng(2).standard_normal((4, 9)))
    block = UBlock(4, 4, 1, (1, 2, 1, 2), np.random.default_rng(3), np.float64)
    out = block._affine(x, Tensor(np.ones((4, 9))), Tensor(np.zeros((4, 9))))
    assert np.array_equal(out.data, x.data)


# -- UBlock -------------------------------------------------------------------------


def test_ublock_hand_trace_identity_wiring():
    """Factor-1 block, identity convs, neutral FiLM on a positive signal.

    main = x, skip = x, first sum = 2x; the second residual reproduces 2x,
    so the output is 4x.  Hand-traced on a 3-sample signal.
    """
    block = UBlock(1, 1, 1, (1, 1, 1, 1), np.random.default_rng(4), np.float64)
    for conv in (block.main1, block.main2, block.res2a, block.res2b, block.skip):
        make_identity(conv)
    x = np.array([[0.1, 0.7, 0.4]])
    ones, zeros = Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3)))
    out = block(Tensor(x), ones, zeros)
    assert np.allclose(out.data, 4 * x, atol=1e-15)


def test_ublock_upsamples_by_factor():
    block = UBlock(3, 2, 5, (1, 2, 4, 8), np.random.default_rng(5), np.float64)
    out = block(
        Tensor(np.random.default_rng(6).standard_normal((3, 7))),
        Tensor(np.ones((2, 35))),
        Tensor(np.zeros((2, 35))),
    )
    assert out.shape == (2, 35)


def test_ublock_dilations_honored():
    block = UBlock(2, 2, 1, (1, 2, 4, 8), np.random.default_rng(7), np.float64)
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
    block = DBlock(1, 1, 1, (1, 1, 1), np.random.default_rng(8), np.float64)
    for conv in (block.main1, block.main2, block.main3, block.skip):
        make_identity(conv)
    x = np.array([[0.2, 0.5, 0.1, 0.9]])
    out = block(Tensor(x))
    assert np.allclose(out.data, 2 * x, atol=1e-15)


def test_dblock_zero_input_zero_output():
    block = DBlock(3, 5, 2, (1, 2, 4), np.random.default_rng(9), np.float64)
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


def test_large_config_alignment():
    cfg = ModelConfig.large()
    model = DenoiserModel(cfg, seed=0)
    assert cfg.samples_per_frame == 300
    assert len(model.ublocks) == 10 and len(model.dblocks) == 9
    assert all(d == (1, 2, 4, 8) for d in cfg.ublock_dilations)


def test_config_rejects_misaligned_factors():
    with pytest.raises(ValueError):
        ModelConfig(
            upsample_factors=(2, 2),
            ublock_channels=(8, 8),
            dblock_channels=(8,),
            dblock_factors=(3,),
            ublock_dilations=((1, 2, 4, 8), (1, 2, 1, 2)),
            mel_bins=8,
        )


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
    save_state(path, TrainState(model=model, config=TrainConfig()))
    state, mel_cfg = load_state(path)
    back = state.model
    assert mel_cfg is None and back.config == model.config
    rng = np.random.default_rng(15)
    y = rng.standard_normal(24)
    mel = rng.standard_normal((8, 6))
    assert np.array_equal(model.predict(y, mel, 0.3), back.predict(y, mel, 0.3))
