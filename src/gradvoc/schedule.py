"""Noise schedules: construction, validation, noise-level sampling, diagnostics.

A schedule is the sequence of per-step variance increments ``beta_1..beta_N``
together with its derived trajectories: ``alpha_n = 1 - beta_n``, the
cumulative signal-retention fraction ``alpha_bar_n = prod(alpha_1..alpha_n)``,
and the noise-level boundaries ``ell_s = sqrt(alpha_bar_s)`` with
``ell_0 = 1``.  All schedule arithmetic is done in float64 regardless of the
network precision; alpha_bar products underflow in float32 for long schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseSchedule",
    "linear_schedule",
    "fibonacci_schedule",
    "manual_schedule",
    "default_training_prior",
    "sample_noise_level",
    "kl_terminal_diagnostic",
    "parse_schedule_spec",
    "schedule_to_text",
    "schedule_from_text",
]


class ScheduleError(ValueError):
    """Invalid schedule construction or query."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable beta sequence with derived alpha, alpha_bar and ell arrays.

    ``ell`` has length N+1 and includes the leading exact 1.0 boundary.
    Instances are safe to share across threads.
    """

    betas: np.ndarray
    kind: str = "manual"
    params: tuple = ()
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)
    ell: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ScheduleError("schedule needs at least one beta entry")
        if not np.all(np.isfinite(betas)):
            raise ScheduleError("betas must be finite")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ScheduleError("every beta must lie strictly inside (0, 1)")
        betas = betas.copy()
        betas.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        ell = np.empty(betas.size + 1, dtype=np.float64)
        ell[0] = 1.0
        ell[1:] = np.sqrt(alpha_bars)
        for arr in (alphas, alpha_bars, ell):
            arr.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        object.__setattr__(self, "ell", ell)

    def __len__(self) -> int:
        return int(self.betas.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoiseSchedule):
            return NotImplemented
        return self.betas.shape == other.betas.shape and bool(
            np.all(self.betas == other.betas)
        )

    def __hash__(self):
        return hash(self.betas.tobytes())


def linear_schedule(beta_start: float, beta_end: float, n: int) -> NoiseSchedule:
    """Arithmetic progression of betas from ``beta_start`` to ``beta_end``.

    ``n == 1`` degenerates to the single entry ``beta_start``.
    """
    if not (math.isfinite(beta_start) and math.isfinite(beta_end)):
        raise ScheduleError("endpoints must be finite")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ScheduleError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    if n < 1:
        raise ScheduleError("n must be >= 1")
    if n == 1:
        betas = np.array([beta_start], dtype=np.float64)
    else:
        betas = np.linspace(beta_start, beta_end, n, dtype=np.float64)
    return NoiseSchedule(betas, kind="linear", params=(beta_start, beta_end, n))


def fibonacci_schedule(n: int) -> NoiseSchedule:
    """Fibonacci-recurrence betas: 1e-6, 2e-6, then each the sum of the last two."""
    if n < 2:
        raise ScheduleError("fibonacci schedule needs n >= 2")
    # run the recurrence in exact integer units of 1e-6 so entries match the
    # hand-unrolled sequence bit for bit
    units = [1, 2]
    while len(units) < n:
        units.append(units[-1] + units[-2])
    betas = np.array(units, dtype=np.float64) * 1e-6
    if betas[-1] >= 1.0:
        raise ScheduleError(f"fibonacci schedule exceeds the (0, 1) range at n={n}")
    return NoiseSchedule(betas, kind="fibonacci", params=(n,))


def manual_schedule(betas) -> NoiseSchedule:
    """Wrap an explicit beta sequence verbatim."""
    return NoiseSchedule(np.asarray(betas, dtype=np.float64), kind="manual")


def default_training_prior() -> NoiseSchedule:
    """The S=1000 prior used for hierarchical noise-level sampling."""
    return linear_schedule(1e-6, 0.01, 1000)


def sample_noise_level(
    training_prior: NoiseSchedule, rng: np.random.Generator
) -> float:
    """Hierarchically sample a continuous noise level sqrt(alpha_bar).

    A segment s is drawn uniformly from {1..S}, then the level uniformly from
    the open interval (ell_s, ell_{s-1}).  Exact endpoint hits (possible only
    with degenerate generators) are rejected and redrawn.
    """
    s = int(rng.integers(1, len(training_prior) + 1))
    lo = training_prior.ell[s]
    hi = training_prior.ell[s - 1]
    while True:
        value = lo + (hi - lo) * rng.random()
        if lo < value < hi:
            return float(value)


def kl_terminal_diagnostic(schedule: NoiseSchedule, y0: np.ndarray) -> float:
    """KL divergence (nats) from the terminal forward marginal to N(0, I).

    For the closed-form marginal N(sqrt(abar_N) * y0, (1 - abar_N) I) this is

        0.5 * sum_i [ abar_N * y0_i^2 + (1 - abar_N) - 1 - ln(1 - abar_N) ]

    Small values indicate the schedule injects enough terminal noise that
    starting inference from pure Gaussian noise is consistent with training.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    abar = float(schedule.alpha_bars[-1])
    if 1.0 - abar <= 0.0:
        raise ScheduleError(
            "terminal alpha_bar is 1: the schedule injects zero terminal noise, "
            "so the KL diagnostic is undefined (log singularity)"
        )
    quad = abar * float(np.sum(y0 * y0))
    dim = y0.size
    return 0.5 * (quad + dim * (-abar - math.log1p(-abar)))


# -- serialization ------------------------------------------------------------
#
# Plain-text key-value format: `kind`, `params` and the explicit beta list at
# full decimal precision, one beta per line.


def schedule_to_text(schedule: NoiseSchedule) -> str:
    lines = [
        f"kind = {schedule.kind}",
        "params = " + ",".join(repr(float(p)) for p in schedule.params),
    ]
    lines += [f"beta = {float(beta)!r}" for beta in schedule.betas]
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> NoiseSchedule:
    kind = "manual"
    params: tuple = ()
    betas = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScheduleError(f"malformed schedule line: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "kind":
            kind = value
        elif key == "params":
            params = tuple(float(v) for v in value.split(",") if v)
        elif key == "beta":
            betas.append(float(value))
        else:
            raise ScheduleError(f"unknown schedule key: {key!r}")
    if not betas:
        raise ScheduleError("schedule text contains no beta entries")
    return NoiseSchedule(np.asarray(betas, dtype=np.float64), kind=kind, params=params)


def parse_schedule_spec(spec: str) -> NoiseSchedule:
    """Parse a command-line schedule spec.

    Accepted forms:
      - ``linear(beta_start,beta_end,n)``
      - ``fibonacci(n)``
      - ``manual(b1,b2,...)`` or a bare comma-separated beta list
      - ``@path`` to load a serialized schedule file
    """
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="ascii") as fh:
            return schedule_from_text(fh.read())
    try:
        return _parse_inline_spec(spec)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule spec {spec!r}: {exc}") from exc


def _parse_inline_spec(spec: str) -> NoiseSchedule:
    lowered = spec.lower()
    if lowered.endswith(")") and "(" in lowered:
        name, _, rest = lowered.partition("(")
        args = [a for a in rest[:-1].split(",") if a.strip()]
        name = name.strip()
        if name == "linear":
            if len(args) != 3:
                raise ScheduleError("linear spec needs (beta_start, beta_end, n)")
            return linear_schedule(float(args[0]), float(args[1]), int(args[2]))
        if name == "fibonacci":
            if len(args) != 1:
                raise ScheduleError("fibonacci spec needs (n)")
            return fibonacci_schedule(int(args[0]))
        if name == "manual":
            return manual_schedule([float(a) for a in args])
        raise ScheduleError(f"unknown schedule kind: {name!r}")
    return manual_schedule([float(a) for a in spec.split(",") if a.strip()])
