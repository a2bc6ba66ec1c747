"""Reverse-process sampler: step identities, oracle sampling, determinism."""

import math

import numpy as np
import pytest

from gradvoc.diffusion import forward_diffuse
from gradvoc.sample import (
    SamplerError, SynthRequest, reverse_chain, reverse_step, sigma, synthesize,
)
from gradvoc.schedule import linear_schedule, manual_schedule
from oracles import optimal_gaussian_epsilon

# independent plain-python evaluation of the posterior-variance formula at
# n = 1000 for Linear(1e-4, 0.005, 1000)
SIGMA_1000_GOLDEN = 0.07069569866125998


class GaussianOracle:
    """Perfect noise predictor for y0 ~ N(mu, s2); ignores the conditioning."""

    def __init__(self, mu, s2, output_length):
        self.mu = mu
        self.s2 = s2
        self.length = output_length

    def output_length(self, mel):
        return self.length

    def predict(self, y_noisy, mel, sqrt_alpha_bar):
        return optimal_gaussian_epsilon(y_noisy, sqrt_alpha_bar, self.mu, self.s2)


class TrueNoiseOracle:
    """Returns the exact noise used by the forward process (for N = 1 tests)."""

    def __init__(self, eps):
        self.eps = eps

    def output_length(self, mel):
        return len(self.eps)

    def predict(self, y_noisy, mel, sqrt_alpha_bar):
        return self.eps


# -- sigma -------------------------------------------------------------------------


def test_sigma_vanishes_for_gentle_first_steps():
    s = manual_schedule([1e-12, 0.3])
    assert sigma(s, 2) == pytest.approx(0.0, abs=1e-5)


def test_sigma_uniform_tiny_series_expansion():
    beta = 1e-8
    s = manual_schedule([beta] * 10)
    for n in range(2, 11):
        expected = math.sqrt(beta) * math.sqrt((n - 1) / n)
        assert sigma(s, n) == pytest.approx(expected, rel=1e-4)


def test_sigma_golden_value():
    s = linear_schedule(1e-4, 0.005, 1000)
    assert sigma(s, 1000) == pytest.approx(SIGMA_1000_GOLDEN, rel=1e-13)


def test_sigma_rejects_final_step():
    s = linear_schedule(1e-4, 0.05, 50)
    with pytest.raises(ValueError):
        sigma(s, 1)
    with pytest.raises(ValueError):
        sigma(s, 51)


# -- reverse_step -------------------------------------------------------------------


def test_noop_step_in_beta_zero_limit():
    s = manual_schedule([1e-12, 0.1])
    y = np.random.default_rng(0).standard_normal(8)
    out = reverse_step(y, np.zeros(8), s, 1)
    assert np.allclose(out, y, rtol=0, atol=1e-11)


def test_exact_recovery_single_step():
    """N = 1 with the true noise recovers y0 to 1e-12 over 100 random pairs."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        beta = float(rng.uniform(1e-6, 0.999))
        s = manual_schedule([beta])
        dim = int(rng.integers(1, 40))
        y0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        y_noisy = forward_diffuse(y0, float(s.ell[1]), eps)
        recon = reverse_step(y_noisy, eps, s, 1)
        worst = max(worst, float(np.max(np.abs(recon - y0))))
    assert worst <= 1e-12


def test_step_requires_z_when_noisy():
    s = linear_schedule(1e-4, 0.05, 50)
    with pytest.raises(ValueError):
        reverse_step(np.zeros(4), np.zeros(4), s, 5, z=None)


def test_step_shape_mismatch():
    s = manual_schedule([0.1])
    with pytest.raises(ValueError):
        reverse_step(np.zeros(4), np.zeros(5), s, 1)


# -- synthesize ---------------------------------------------------------------------


def test_gaussian_oracle_population_statistics():
    """10^4 oracle-sampled scalars match the target normal distribution.

    The target is the standard normal: with 50 reverse steps the chain still
    carries a visible remnant of its N(0, 1) starting point, so a nonzero
    target mean cannot meet the 3-standard-error tolerance at this depth.
    """
    mu, s2 = 0.0, 1.0
    n = 10_000
    oracle = GaussianOracle(mu, s2, output_length=n)
    schedule = linear_schedule(1e-4, 0.02, 50)
    samples = synthesize(
        SynthRequest(
            mel=np.zeros((1, 1)), inference_schedule=schedule, model=oracle, seed=0
        )
    )
    assert abs(float(samples.mean()) - mu) < 3 * math.sqrt(s2) / math.sqrt(n)
    assert abs(float(samples.var()) - s2) / s2 < 0.05


def test_manual_six_step_schedule_runs():
    oracle = GaussianOracle(0.0, 1.0, output_length=64)
    schedule = manual_schedule([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
    out = synthesize(
        SynthRequest(
            mel=np.zeros((1, 1)), inference_schedule=schedule, model=oracle, seed=3
        )
    )
    assert out.shape == (64,) and np.all(np.isfinite(out))


def six_step_request(model):
    schedule = manual_schedule([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
    return SynthRequest(mel=np.zeros((1, 1)), inference_schedule=schedule, model=model, seed=4)


def test_emit_intermediates_count():
    request = six_step_request(GaussianOracle(0.0, 1.0, output_length=16))
    iterates = list(reverse_chain(request))
    assert len(iterates) == 7  # y_6 .. y_0
    assert np.array_equal(iterates[0], np.random.default_rng(4).standard_normal(16))
    assert np.array_equal(iterates[-1], synthesize(request))


class CountingOracle(GaussianOracle):
    def __init__(self):
        super().__init__(0.0, 1.0, output_length=16)
        self.calls = 0

    def predict(self, y_noisy, mel, sqrt_alpha_bar):
        self.calls += 1
        return super().predict(y_noisy, mel, sqrt_alpha_bar)


def test_reverse_chain_is_lazy():
    oracle = CountingOracle()
    chain = reverse_chain(six_step_request(oracle))
    assert oracle.calls == 0
    next(chain)  # y_6, the starting noise
    assert oracle.calls == 0
    next(chain)
    assert oracle.calls == 1
    assert len(list(chain)) == 5 and oracle.calls == 6


def test_suspended_chain_leaves_the_callers_errstate_alone():
    before = np.geterr()
    chain = reverse_chain(six_step_request(GaussianOracle(0.0, 1.0, output_length=16)))
    for _ in range(3):
        next(chain)
        assert np.geterr() == before
    with np.errstate(over="raise"):
        next(chain)
        assert np.geterr()["over"] == "raise"
    assert len(list(chain)) == 3 and np.geterr() == before


def test_same_seed_bitwise_identical():
    oracle = GaussianOracle(0.2, 0.5, output_length=32)
    schedule = linear_schedule(1e-4, 0.05, 50)
    req = lambda: SynthRequest(
        mel=np.zeros((1, 1)), inference_schedule=schedule, model=oracle, seed=11
    )
    assert np.array_equal(synthesize(req()), synthesize(req()))
    other = synthesize(
        SynthRequest(
            mel=np.zeros((1, 1)), inference_schedule=schedule, model=oracle, seed=12
        )
    )
    assert not np.array_equal(synthesize(req()), other)


def test_nonfinite_prediction_raises():
    class BadModel:
        def output_length(self, mel):
            return 8

        def predict(self, y, mel, sab):
            return np.full(8, np.inf)

    with pytest.raises(SamplerError):
        synthesize(
            SynthRequest(
                mel=np.zeros((1, 1)),
                inference_schedule=manual_schedule([0.1, 0.2]),
                model=BadModel(),
                seed=0,
            )
        )
