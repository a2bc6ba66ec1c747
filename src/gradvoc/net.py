"""The noise-prediction network.

A stack of downsampling blocks (DBlocks) extracts features from the noisy
waveform at progressively coarser rates; feature-wise linear modulation
(FiLM) combines each with a sinusoidal embedding of the noise level to
produce per-channel scale/shift pairs; upsampling blocks (UBlocks) grow the
mel conditioning signal up to audio rate while applying those affine
modulations.  No operation uses batch statistics, so each sample's output is
independent of whatever else is processed alongside it.

Channel/timing layout (base configuration, 300 audio samples per mel frame):

    waveform 1xT --5x1 conv--> 32xT --DBlock/2--> 128 --/2--> 128 --/3--> 256 --/5--> 512
    mel 128xF --3x1 conv--> 768xF --UBlock x5--> 512 --x5--> 512 --x3--> 256 --x2--> 128 --x2--> 128xT --3x1 conv--> 1xT

UBlock stage j is modulated by the DBlock-chain output whose temporal length
matches that stage's post-upsample length; the noise embedding width equals
the stage's channel count so FiLM can add it directly to the conv features.
The exact op order inside UBlock/DBlock is frozen by golden hand-trace tests.

Every layer is a ``Module``, whose ``parameters()`` finds the weights by
walking the layer's attributes in assignment order: a ``Tensor`` is a
parameter, an object with a ``parameters`` method is a sub-layer, and the
items of a list ``xs`` are named ``x0``, ``x1``, ....  The walk fixes every
parameter name, and the order in which checkpoints store them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "DenoiserModel",
    "positional_encoding",
    "FiLM",
    "UBlock",
    "DBlock",
]


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= int(x)
    return out


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and wiring of the denoiser.

    Defaults are the base configuration (17.23M parameters).  The DBlock
    factors/channels mirror the reversed tail of the UBlock stack so that
    every FiLM sees temporally aligned features.
    """

    upsample_factors: tuple = (5, 5, 3, 2, 2)
    ublock_channels: tuple = (512, 512, 256, 128, 128)
    dblock_channels: tuple = (128, 128, 256, 512)
    dblock_factors: tuple = (2, 2, 3, 5)
    ublock_dilations: tuple = (
        (1, 2, 4, 8),
        (1, 2, 4, 8),
        (1, 2, 4, 8),
        (1, 2, 1, 2),
        (1, 2, 1, 2),
    )
    dblock_dilations: tuple = (1, 2, 4)
    mel_bins: int = 128
    pre_conv_channels: int = 32
    mel_conv_channels: int = 768
    positional_scale: float = 5000.0
    leaky_slope: float = 0.2  # value inherited from the GAN generator lineage
    dtype: str = "float32"

    def __post_init__(self):
        n_up = len(self.upsample_factors)
        if len(self.ublock_channels) != n_up or len(self.ublock_dilations) != n_up:
            raise ValueError("ublock channel/dilation lists must match factor count")
        if len(self.dblock_channels) != n_up - 1 or len(self.dblock_factors) != n_up - 1:
            raise ValueError("need exactly one DBlock per UBlock after the first")
        # temporal alignment: the DBlock chain prefix products must mirror the
        # UBlock suffix products, otherwise FiLM shapes cannot line up
        for j in range(1, n_up + 1):
            if _prod(self.dblock_factors[: n_up - j]) != _prod(
                self.upsample_factors[j:]
            ):
                raise ValueError(
                    "dblock_factors misaligned with upsample_factors "
                    f"(stage {j}); use the reversed tail of the UBlock factors"
                )
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    @property
    def samples_per_frame(self) -> int:
        return _prod(self.upsample_factors)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @classmethod
    def large(cls, base: "ModelConfig | None" = None) -> "ModelConfig":
        """Double every UBlock/DBlock: each original block is followed by a
        same-channel block that does not resample, and all UBlocks use the
        (1, 2, 4, 8) dilation pattern."""
        base = base or cls()
        up = tuple(f for factor in base.upsample_factors for f in (factor, 1))
        channels = tuple(c for ch in base.ublock_channels for c in (ch, ch))
        dil = tuple((1, 2, 4, 8) for _ in up)
        return cls(
            upsample_factors=up,
            ublock_channels=channels,
            dblock_channels=tuple(reversed(channels[1:])),
            dblock_factors=tuple(reversed(up[1:])),
            ublock_dilations=dil,
            dblock_dilations=base.dblock_dilations,
            mel_bins=base.mel_bins,
            pre_conv_channels=base.pre_conv_channels,
            mel_conv_channels=base.mel_conv_channels,
            positional_scale=base.positional_scale,
            leaky_slope=base.leaky_slope,
            dtype=base.dtype,
        )

    @classmethod
    def toy(cls, dtype: str = "float32") -> "ModelConfig":
        """Small profile for tests and the bundled synthetic corpus."""
        return cls(
            upsample_factors=(2, 2),
            ublock_channels=(8, 8),
            dblock_channels=(8,),
            dblock_factors=(2,),
            ublock_dilations=((1, 2, 4, 8), (1, 2, 1, 2)),
            mel_bins=8,
            pre_conv_channels=4,
            mel_conv_channels=8,
            dtype=dtype,
        )


def positional_encoding(sqrt_alpha_bar: float, dim: int, scale: float) -> np.ndarray:
    """Sinusoidal embedding of the noise level at position scale * sqrt_alpha_bar.

    First dim/2 entries are sines, the rest cosines, with the usual geometric
    frequency ladder.
    """
    if dim % 2 != 0:
        raise ValueError("embedding dimension must be even")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if not (0.0 < sqrt_alpha_bar <= 1.0):
        raise ValueError(f"sqrt_alpha_bar must be in (0, 1], got {sqrt_alpha_bar}")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * (2.0 / dim) * np.arange(half))
    angles = scale * sqrt_alpha_bar * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


class Module:
    """A layer whose parameters are found by walking its attributes."""

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[prefix + name] = value
            elif hasattr(value, "parameters"):
                out.update(value.parameters(f"{prefix}{name}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out.update(item.parameters(f"{prefix}{name[:-1]}{i}."))
        return out


class Conv1d(Module):
    """Convolution layer with orthogonally initialized weights."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel: int,
        rng: np.random.Generator,
        dtype,
        bias: bool = True,
        stride: int = 1,
        dilation: int = 1,
    ):
        self.stride = stride
        self.dilation = dilation
        w = T.orthogonal_init((c_out, c_in, kernel), rng, dtype=dtype)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = (
            Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True) if bias else None
        )

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(
            x, self.weight, self.bias, stride=self.stride, dilation=self.dilation
        )


class FiLM(Module):
    """Two-branch combiner producing per-channel scale and shift maps.

    The waveform-derived features go through a 3x1 conv and leaky ReLU, the
    noise embedding is added channel-wise, and two parallel 3x1 convs emit
    gamma and xi at the modulated stage's channel count.
    """

    def __init__(self, c_in, c_out, rng, dtype, slope=0.2):
        self.slope = slope
        self.input_conv = Conv1d(c_in, c_out, 3, rng, dtype)
        self.gamma_conv = Conv1d(c_out, c_out, 3, rng, dtype)
        self.xi_conv = Conv1d(c_out, c_out, 3, rng, dtype)

    def __call__(self, features: Tensor, noise_embedding: Tensor):
        h = T.leaky_relu(self.input_conv(features), self.slope)
        h = T.add_channel_bias(h, noise_embedding)
        return self.gamma_conv(h), self.xi_conv(h)


class UBlock(Module):
    """Upsampling residual block with two FiLM-modulated residual stages.

    Main branch: LReLU, upsample, conv(d0), affine, LReLU, conv(d1); skip:
    upsample then unbiased 1x1 conv.  Their sum feeds a second residual of
    affine, LReLU, conv(d2), affine, LReLU, conv(d3).
    """

    def __init__(self, c_in, c_out, factor, dilations, rng, dtype, slope=0.2):
        self.factor = factor
        self.slope = slope
        d0, d1, d2, d3 = dilations
        self.main1 = Conv1d(c_in, c_out, 3, rng, dtype, dilation=d0)
        self.main2 = Conv1d(c_out, c_out, 3, rng, dtype, dilation=d1)
        self.res2a = Conv1d(c_out, c_out, 3, rng, dtype, dilation=d2)
        self.res2b = Conv1d(c_out, c_out, 3, rng, dtype, dilation=d3)
        self.skip = Conv1d(c_in, c_out, 1, rng, dtype, bias=False)

    def _affine(self, x, gamma, xi):
        return T.add(T.mul(gamma, x), xi)

    def __call__(self, x: Tensor, gamma: Tensor, xi: Tensor) -> Tensor:
        skip = self.skip(T.nearest_upsample(x, self.factor))
        h = T.leaky_relu(x, self.slope)
        h = T.nearest_upsample(h, self.factor)
        h = self.main1(h)
        h = self._affine(h, gamma, xi)
        h = T.leaky_relu(h, self.slope)
        h = self.main2(h)
        first = T.add(skip, h)
        h = self._affine(first, gamma, xi)
        h = T.leaky_relu(h, self.slope)
        h = self.res2a(h)
        h = self._affine(h, gamma, xi)
        h = T.leaky_relu(h, self.slope)
        h = self.res2b(h)
        return T.add(first, h)


class DBlock(Module):
    """Downsampling residual block: decimation plus three dilated convs,
    with an unbiased stride-f 1x1 skip."""

    def __init__(self, c_in, c_out, factor, dilations, rng, dtype, slope=0.2):
        self.factor = factor
        self.slope = slope
        d0, d1, d2 = dilations
        self.main1 = Conv1d(c_in, c_out, 3, rng, dtype, dilation=d0)
        self.main2 = Conv1d(c_out, c_out, 3, rng, dtype, dilation=d1)
        self.main3 = Conv1d(c_out, c_out, 3, rng, dtype, dilation=d2)
        self.skip = Conv1d(c_in, c_out, 1, rng, dtype, bias=False, stride=factor)

    def __call__(self, y: Tensor) -> Tensor:
        skip = self.skip(y)
        h = T.downsample(y, self.factor)
        h = self.main1(T.leaky_relu(h, self.slope))
        h = self.main2(T.leaky_relu(h, self.slope))
        h = self.main3(T.leaky_relu(h, self.slope))
        return T.add(skip, h)


class DenoiserModel(Module):
    """Predicts the noise component of a diffused waveform.

    Inputs: the noisy waveform, the mel conditioning matrix, and the
    continuous noise level; output has the waveform's length.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        dtype = config.np_dtype
        slope = config.leaky_slope
        n_up = len(config.upsample_factors)

        self.pre_conv = Conv1d(1, config.pre_conv_channels, 5, rng, dtype)
        chain = [config.pre_conv_channels, *config.dblock_channels]
        self.dblocks = [
            DBlock(
                chain[i],
                chain[i + 1],
                config.dblock_factors[i],
                config.dblock_dilations,
                rng,
                dtype,
                slope,
            )
            for i in range(n_up - 1)
        ]
        self.mel_conv = Conv1d(config.mel_bins, config.mel_conv_channels, 3, rng, dtype)
        u_in = [config.mel_conv_channels, *config.ublock_channels[:-1]]
        self.ublocks = [
            UBlock(
                u_in[j],
                config.ublock_channels[j],
                config.upsample_factors[j],
                config.ublock_dilations[j],
                rng,
                dtype,
                slope,
            )
            for j in range(n_up)
        ]
        # FiLM for UBlock j reads the DBlock-chain output at index n_up-1-j
        self.films = [
            FiLM(chain[n_up - 1 - j], config.ublock_channels[j], rng, dtype, slope)
            for j in range(n_up)
        ]
        self.post_conv = Conv1d(config.ublock_channels[-1], 1, 3, rng, dtype)

    def forward(self, y_noisy, mel, sqrt_alpha_bar: float) -> Tensor:
        """Graph-building forward pass; returns a (1, T) tensor."""
        cfg = self.config
        dtype = cfg.np_dtype
        y = np.asarray(y_noisy, dtype=dtype).reshape(1, -1)
        x = np.asarray(mel, dtype=dtype)
        if x.ndim != 2 or x.shape[0] != cfg.mel_bins:
            raise ValueError(f"mel must be ({cfg.mel_bins}, frames), got {x.shape}")
        expected = x.shape[1] * cfg.samples_per_frame
        if y.shape[1] != expected:
            raise ValueError(
                f"waveform length {y.shape[1]} != {cfg.samples_per_frame} x "
                f"{x.shape[1]} mel frames"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite noisy waveform")

        chain = [self.pre_conv(Tensor(y))]
        for block in self.dblocks:
            chain.append(block(chain[-1]))

        n_up = len(self.ublocks)
        u = self.mel_conv(Tensor(x))
        for j, (ublock, film) in enumerate(zip(self.ublocks, self.films)):
            emb = positional_encoding(
                sqrt_alpha_bar, self.config.ublock_channels[j], cfg.positional_scale
            ).astype(dtype)
            gamma, xi = film(chain[n_up - 1 - j], Tensor(emb))
            u = ublock(u, gamma, xi)
        out = self.post_conv(u)
        if not np.all(np.isfinite(out.data)):
            raise FloatingPointError("non-finite network output")
        return out

    def predict(self, y_noisy, mel, sqrt_alpha_bar: float) -> np.ndarray:
        """Inference-only forward returning a plain 1-D array."""
        return self.forward(y_noisy, mel, sqrt_alpha_bar).data[0].copy()

    def output_length(self, mel) -> int:
        """Waveform samples produced for a (mel bins, frames) conditioning."""
        return int(np.shape(mel)[1]) * self.config.samples_per_frame
