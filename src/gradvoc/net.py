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
A UBlock's first main conv takes the upsample before it as its
``factor`` and runs at the input rate, and its skip conv runs before the
upsample: both give the same result as the order above for fewer FLOPs.

Every layer is a ``Module``, whose ``parameters()`` finds the weights by
walking the layer's attributes in assignment order: a ``Tensor`` is a
parameter, an object with a ``parameters`` method is a sub-layer, and the
items of a list ``xs`` are named ``x0``, ``x1``, ....  Layers declare only
shapes; the walk fixes every parameter name, the order in which checkpoints
store them, and the order in which ``init_weights`` draws their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import is_int
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "DenoiserModel",
    "positional_encoding",
    "FiLM",
    "UBlock",
    "DBlock",
    "init_weights",
]


# Fixed by the architecture rather than configured.
DBLOCK_DILATIONS = (1, 2, 4)
POSITIONAL_SCALE = 5000.0


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and wiring of the denoiser.

    Defaults are the base configuration (17.23M parameters).  The UBlock
    stack defines the model: the DBlock factors and channels are derived as
    the reversed tail of the UBlock factors and channels, so that every FiLM
    sees temporally aligned features.  Every DBlock uses the dilations
    ``DBLOCK_DILATIONS``, the noise embedding sits at ``POSITIONAL_SCALE``
    times the noise level, and every leaky ReLU has slope ``tensor.LEAKY_SLOPE``.
    """

    upsample_factors: tuple = (5, 5, 3, 2, 2)
    ublock_channels: tuple = (512, 512, 256, 128, 128)
    ublock_dilations: tuple = (
        (1, 2, 4, 8),
        (1, 2, 4, 8),
        (1, 2, 4, 8),
        (1, 2, 1, 2),
        (1, 2, 1, 2),
    )
    mel_bins: int = 128
    pre_conv_channels: int = 32
    mel_conv_channels: int = 768
    dtype: str = "float32"

    def __post_init__(self):
        n_up = len(self.upsample_factors)
        if n_up < 1:
            raise ValueError("need at least one UBlock")
        if len(self.ublock_channels) != n_up or len(self.ublock_dilations) != n_up:
            raise ValueError("ublock channel/dilation lists must match factor count")
        sizes = (*self.upsample_factors, *(d for ds in self.ublock_dilations for d in ds),
                 *self.ublock_channels, self.mel_bins, self.pre_conv_channels,
                 self.mel_conv_channels)
        if not all(is_int(v, 1) for v in sizes):
            raise ValueError("factors, dilations, channels and mel bins must be integers >= 1")
        if any(c % 2 for c in self.ublock_channels):  # each is a noise-embedding width
            raise ValueError(f"UBlock channels must be even, got {self.ublock_channels}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    @property
    def dblock_channels(self) -> tuple:
        return tuple(reversed(self.ublock_channels[1:]))

    @property
    def dblock_factors(self) -> tuple:
        return tuple(reversed(self.upsample_factors[1:]))

    @property
    def samples_per_frame(self) -> int:
        return math.prod(self.upsample_factors)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @classmethod
    def large(cls) -> "ModelConfig":
        """Double every UBlock (and so every DBlock): each base block is
        followed by a same-channel block that does not resample, and all
        UBlocks use the (1, 2, 4, 8) dilation pattern."""
        base = cls()
        up = tuple(f for factor in base.upsample_factors for f in (factor, 1))
        return cls(
            upsample_factors=up,
            ublock_channels=tuple(c for ch in base.ublock_channels for c in (ch, ch)),
            ublock_dilations=tuple((1, 2, 4, 8) for _ in up),
        )

    @classmethod
    def toy(cls, dtype: str = "float32") -> "ModelConfig":
        """Small profile for tests and the bundled synthetic corpus."""
        return cls(
            upsample_factors=(2, 2),
            ublock_channels=(8, 8),
            ublock_dilations=((1, 2, 4, 8), (1, 2, 1, 2)),
            mel_bins=8,
            pre_conv_channels=4,
            mel_conv_channels=8,
            dtype=dtype,
        )


def positional_encoding(sqrt_alpha_bar, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the noise level at position POSITIONAL_SCALE * sqrt_alpha_bar.

    First dim/2 entries are sines, the rest cosines, with the usual geometric
    frequency ladder.  A float level gives a (dim,) vector; B levels give
    one row each, (B, dim).
    """
    if dim % 2 != 0:
        raise ValueError("embedding dimension must be even")
    level = np.asarray(sqrt_alpha_bar, dtype=np.float64)
    if not np.all((0.0 < level) & (level <= 1.0)):
        raise ValueError(f"sqrt_alpha_bar must be in (0, 1], got {sqrt_alpha_bar}")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * (2.0 / dim) * np.arange(half))
    angles = POSITIONAL_SCALE * level[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


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
    """Convolution layer; a call with a ``factor`` convolves the input's
    nearest upsample (``tensor.conv1d``).  Its weight (c_out, c_in, kernel)
    and bias (c_out,) start as placeholders that hold no memory, zero-stride
    views of one zero, until ``init_weights`` draws them or a checkpoint load
    replaces them."""

    def __init__(self, c_in: int, c_out: int, kernel: int, bias: bool = True,
                 dilation: int = 1):
        self.dilation = dilation
        self.weight = Tensor(np.broadcast_to(0.0, (c_out, c_in, kernel)), requires_grad=True)
        self.bias = Tensor(np.broadcast_to(0.0, c_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor, factor: int = 1) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, dilation=self.dilation, factor=factor)


def init_weights(module: Module, rng: np.random.Generator, dtype) -> None:
    """Draw every parameter of ``module`` in walk order: weights (3-D) get
    orthogonal values, biases (1-D) zeros."""
    for p in module.parameters().values():
        p.data = (T.orthogonal_init(p.shape, rng, dtype=dtype) if p.data.ndim == 3
                  else np.zeros(p.shape, dtype=dtype))


class FiLM(Module):
    """Two-branch combiner producing per-channel scale and shift maps.

    The waveform-derived features go through a 3x1 conv and leaky ReLU, the
    noise embedding is added channel-wise, and two parallel 3x1 convs emit
    gamma and xi at the modulated stage's channel count.  Both read the same
    features, so they run as one conv of their stacked weights, and FiLM
    returns its output whole.  ``tensor.affine_leaky_relu`` owns the channel
    order, gamma's half first and xi's second, and the weights are stacked
    in that order.
    """

    def __init__(self, c_in, c_out):
        self.input_conv = Conv1d(c_in, c_out, 3)
        self.gamma_conv = Conv1d(c_out, c_out, 3)
        self.xi_conv = Conv1d(c_out, c_out, 3)

    def __call__(self, features: Tensor, noise_embedding: Tensor) -> Tensor:
        h = T.leaky_relu(self.input_conv(features))
        h = T.add_channel_bias(h, noise_embedding)
        g, x = self.gamma_conv, self.xi_conv
        return T.conv1d(h, T.concat([g.weight, x.weight]), T.concat([g.bias, x.bias]))


class UBlock(Module):
    """Upsampling residual block with two FiLM-modulated residual stages.

    Main branch: LReLU, upsample, conv(d0), affine, LReLU, conv(d1); skip:
    upsample then unbiased 1x1 conv.  Their sum feeds a second residual of
    affine, LReLU, conv(d2), affine, LReLU, conv(d3).  Every affine map
    scales by gamma and shifts by xi, the two channel halves of the FiLM
    output ``film``.

    Two steps run in a cheaper order with the same result: the upsample and
    conv(d0) are one conv with the upsample's factor, run at the input rate,
    and the skip's 1x1 conv, which commutes with a nearest upsample, runs
    before it (the skip is upsampled only where the main branch joins it).
    """

    def __init__(self, c_in, c_out, factor, dilations):
        self.factor = factor
        d0, d1, d2, d3 = dilations
        self.main1 = Conv1d(c_in, c_out, 3, dilation=d0)
        self.main2 = Conv1d(c_out, c_out, 3, dilation=d1)
        self.res2a = Conv1d(c_out, c_out, 3, dilation=d2)
        self.res2b = Conv1d(c_out, c_out, 3, dilation=d3)
        self.skip = Conv1d(c_in, c_out, 1, bias=False)

    def __call__(self, x: Tensor, film: Tensor) -> Tensor:
        skip = self.skip(x)  # kept at the input rate until the add
        h = self.main1(T.leaky_relu(x), self.factor)
        h = T.affine_leaky_relu(h, film)
        h = self.main2(h)
        first = T.add(T.nearest_upsample(skip, self.factor), h)
        h = T.affine_leaky_relu(first, film)
        h = self.res2a(h)
        h = T.affine_leaky_relu(h, film)
        h = self.res2b(h)
        return T.add(first, h)


class DBlock(Module):
    """Downsampling residual block: decimation, then three dilated convs
    beside an unbiased 1x1 skip conv.  The skip conv commutes with the
    decimation, so both branches read one decimated signal."""

    def __init__(self, c_in, c_out, factor, dilations):
        self.factor = factor
        d0, d1, d2 = dilations
        self.main1 = Conv1d(c_in, c_out, 3, dilation=d0)
        self.main2 = Conv1d(c_out, c_out, 3, dilation=d1)
        self.main3 = Conv1d(c_out, c_out, 3, dilation=d2)
        self.skip = Conv1d(c_in, c_out, 1, bias=False)

    def __call__(self, y: Tensor) -> Tensor:
        h = T.downsample(y, self.factor)
        skip = self.skip(h)
        h = self.main1(T.leaky_relu(h))
        h = self.main2(T.leaky_relu(h))
        h = self.main3(T.leaky_relu(h))
        return T.add(skip, h)


class DenoiserModel(Module):
    """Predicts the noise component of a diffused waveform.

    Inputs: the noisy waveform, the mel conditioning matrix, and the
    continuous noise level; output has the waveform's length.
    """

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        """``seed=None`` draws nothing: a checkpoint load fills the placeholders."""
        self.config = config
        n_up = len(config.upsample_factors)

        self.pre_conv = Conv1d(1, config.pre_conv_channels, 5)
        chain = [config.pre_conv_channels, *config.dblock_channels]
        self.dblocks = [
            DBlock(chain[i], chain[i + 1], config.dblock_factors[i], DBLOCK_DILATIONS)
            for i in range(n_up - 1)
        ]
        self.mel_conv = Conv1d(config.mel_bins, config.mel_conv_channels, 3)
        u_in = [config.mel_conv_channels, *config.ublock_channels[:-1]]
        self.ublocks = [
            UBlock(u_in[j], config.ublock_channels[j], config.upsample_factors[j],
                   config.ublock_dilations[j])
            for j in range(n_up)
        ]
        # FiLM for UBlock j reads the DBlock-chain output at index n_up-1-j
        self.films = [FiLM(chain[n_up - 1 - j], config.ublock_channels[j]) for j in range(n_up)]
        self.post_conv = Conv1d(config.ublock_channels[-1], 1, 3)
        if seed is not None:
            init_weights(self, np.random.default_rng(seed), config.np_dtype)

    def forward(self, y_noisy, mel, sqrt_alpha_bar) -> Tensor:
        """Graph-building forward pass.

        One item, a waveform (T,), a mel (bins, frames) and a float noise
        level, gives a (1, T) tensor.  A batch, waveforms (B, T), mels
        (B, bins, frames) and B levels, gives (B, 1, T), each item computed
        as it would be alone.
        """
        cfg = self.config
        dtype = cfg.np_dtype
        x = np.asarray(mel, dtype=dtype)
        if x.ndim not in (2, 3) or x.shape[-2] != cfg.mel_bins or x.shape[-1] < 1:
            raise ValueError(f"mel must be ([B,] {cfg.mel_bins}, frames >= 1), got {x.shape}")
        y = np.asarray(y_noisy, dtype=dtype).reshape(*x.shape[:-2], 1, -1)
        expected = x.shape[-1] * cfg.samples_per_frame
        if y.shape[-1] != expected:
            raise ValueError(
                f"waveform length {y.shape[-1]} != {cfg.samples_per_frame} x "
                f"{x.shape[-1]} mel frames"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite noisy waveform")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite mel")

        chain = [self.pre_conv(Tensor(y))]
        for block in self.dblocks:
            chain.append(block(chain[-1]))

        u = self.mel_conv(Tensor(x))
        for j, (ublock, film) in enumerate(zip(self.ublocks, self.films)):
            emb = positional_encoding(sqrt_alpha_bar, self.config.ublock_channels[j]).astype(dtype)
            # FiLM j reads DBlock-chain output n_up-1-j, always the last one
            # left, which is freed once read (a tape still holds it).  Its own
            # output is held until the next FiLM replaces it: freeing it before
            # that call raised base synthesis's peak RSS by ~6 MiB (glibc heap
            # placement)
            mod = film(chain.pop(), Tensor(emb))
            u = ublock(u, mod)
        return self.post_conv(u)

    def predict(self, y_noisy, mel, sqrt_alpha_bar: float) -> np.ndarray:
        """Inference: ``forward`` under ``tensor.no_grad``, as a plain 1-D array.

        Records no tape, so each activation is freed as soon as no later layer
        needs it; the values are those of the tracked ``forward``.
        """
        with T.no_grad():
            return self.forward(y_noisy, mel, sqrt_alpha_bar).data[0]

    def output_length(self, mel) -> int:
        """Waveform samples produced for a (mel bins, frames) conditioning."""
        return int(np.shape(mel)[1]) * self.config.samples_per_frame
