"""Acceptance gate: nine quantitative criteria at stated tolerances.

Each test covers one numbered criterion and emits one pass/fail line in the
verbose pytest report.  Full-scale listening-test figures are out of scope by
design; these checks are property-based plus small-scale quantitative runs.
"""

import math

import numpy as np
import pytest

from gradvoc import tensor as T
from gradvoc.cli import main as cli_main
from gradvoc.diffusion import forward_diffuse
from gradvoc.dsp import (
    MelConfig, Waveform, ffe, ls_mse, mcd, mel_spectrogram, metric_mels, track_pitch,
)
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.sample import SynthRequest, reverse_step, synthesize
from gradvoc.schedule import (
    fibonacci_schedule,
    linear_schedule,
    manual_schedule,
)
from gradvoc.tensor import Tensor

from oracles import noise_log_density_gradient, optimal_gaussian_epsilon
from test_dsp import ref_ls_mse, ref_mcd

SIX_STEP_PRESET = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
SWEPT_SIX_STEP = (1e-4, 1e-3, 9e-3, 5e-2, 2e-1, 5e-1)


def mean_ls_mse(model, schedule, refs, mel_cfg, seeds=(0, 1), clip=False):
    vals = []
    for seed in seeds:
        for i, ref in enumerate(refs):
            mel = mel_spectrogram(ref, mel_cfg)
            hyp = synthesize(
                SynthRequest(
                    mel=mel.values, inference_schedule=schedule,
                    model=model, seed=seed * 31 + i,
                )
            )
            if clip:
                hyp = np.clip(hyp, -1.0, 1.0)
            vals.append(ls_mse(*metric_mels(ref, Waveform(hyp, ref.sample_rate), mel_cfg)))
    return float(np.mean(vals))


def test_criterion_1_schedule_golden_values():
    fib = fibonacci_schedule(6)
    assert np.array_equal(fib.betas, np.array([1, 2, 3, 5, 8, 13]) * 1e-6)

    lin = linear_schedule(1e-4, 0.005, 1000)
    assert lin.betas[0] == 1e-4 and lin.betas[-1] == 0.005

    for s in (fib, lin, manual_schedule([0.3, 0.4])):
        assert s.ell[0] == 1.0
        assert np.max(np.abs(s.ell[1:] - np.sqrt(s.alpha_bars))) <= 1e-15
    print("criterion 1 PASS: schedule golden values exact")


def test_criterion_2_diffusion_identities():
    rng = np.random.default_rng(0)
    worst_rt = 0.0
    worst_grad = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 32))
        y0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        sab = float(rng.uniform(0.05, 0.999))
        y_noisy = forward_diffuse(y0, sab, eps)
        recon = (y_noisy - math.sqrt(1 - sab**2) * eps) / sab
        worst_rt = max(worst_rt, float(np.max(np.abs(recon - y0))))

        # finite-difference gradient of the conditional log density in y_n
        var = 1 - sab**2
        step = 1e-6
        fd = np.empty(dim)
        for i in range(dim):
            up = y_noisy.copy(); up[i] += step
            dn = y_noisy.copy(); dn[i] -= step
            fd[i] = (
                -0.5 * np.sum((up - sab * y0) ** 2) / var
                + 0.5 * np.sum((dn - sab * y0) ** 2) / var
            ) / (2 * step)
        got = noise_log_density_gradient(eps, sab**2)
        rel = np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1e-8))
        worst_grad = max(worst_grad, float(rel))
    assert worst_rt <= 1e-12
    assert worst_grad <= 1e-5
    print("criterion 2 PASS: forward/reconstruct and score identity")


def test_criterion_3_exact_recovery():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        s = manual_schedule([float(rng.uniform(1e-6, 0.999))])
        y0 = rng.standard_normal(int(rng.integers(1, 40)))
        eps = rng.standard_normal(y0.size)
        y_noisy = forward_diffuse(y0, float(s.ell[1]), eps)
        recon = reverse_step(y_noisy, eps, s, 1)
        worst = max(worst, float(np.max(np.abs(recon - y0))))
    assert worst <= 1e-12
    print(f"criterion 3 PASS: exact recovery, worst error {worst:.2e}")


def test_criterion_4_gaussian_oracle_sampling():
    mu, s2, n = 0.0, 1.0, 10_000

    class Oracle:
        def output_length(self, mel):
            return n

        def predict(self, y, mel, sab):
            return optimal_gaussian_epsilon(y, sab, mu, s2)

    samples = synthesize(
        SynthRequest(
            mel=np.zeros((1, 1)),
            inference_schedule=linear_schedule(1e-4, 0.02, 50),
            model=Oracle(),
            seed=0,
        )
    )
    mean_err = abs(float(samples.mean()) - mu)
    var_err = abs(float(samples.var()) - s2) / s2
    assert mean_err < 3 * math.sqrt(s2) / math.sqrt(n)
    assert var_err < 0.05
    print(
        f"criterion 4 PASS: oracle sampling mean off {mean_err:.4f}, "
        f"variance off {var_err:.2%}"
    )


FD_STEP = 1e-6


def fd_agrees(got, up, dn, tol):
    """Whether a gradient entry matches the central difference of the loss
    values ``up`` and ``dn``, a step either side, to relative ``tol``.

    The difference carries the rounding of the two losses, about
    4 eps max(|up|, |dn|) / step, so near a zero gradient that much absolute
    error is allowed on top.
    """
    fd = (up - dn) / (2 * FD_STEP)
    rounding = 4 * np.finfo(np.float64).eps * max(abs(up), abs(dn)) / FD_STEP
    return abs(got - fd) <= tol * max(abs(fd), abs(got), 1e-6) + rounding


def test_criterion_5_gradient_correctness():
    def fd_scalar(build, leaves, tol):
        for leaf in leaves:
            leaf.grad = None
        loss = build()
        loss.backward()
        for leaf in leaves:
            flat = leaf.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                up = float(build().data)
                flat[i] = orig - FD_STEP
                dn = float(build().data)
                flat[i] = orig
                assert fd_agrees(leaf.grad.reshape(-1)[i], up, dn, tol)

    rng = np.random.default_rng(2)

    def mk(shape, gen=rng):
        return Tensor(gen.standard_normal(shape), requires_grad=True)

    # each network op individually
    x, y2 = mk((2, 8)), mk((2, 8))
    fd_scalar(lambda: T.mean_abs(T.add(x, y2)), [x, y2], 1e-4)
    fd_scalar(lambda: T.mean_abs(T.mul(x, y2)), [x, y2], 1e-4)
    fd_scalar(lambda: T.mean_abs(T.sub(T.scale(x, 1.3), y2)), [x, y2], 1e-4)
    v = mk((2,))
    fd_scalar(lambda: T.mean_abs(T.add_channel_bias(x, v)), [x, v], 1e-4)
    fd_scalar(lambda: T.mean_abs(T.leaky_relu(x)), [x], 1e-4)
    fd_scalar(lambda: T.mean_abs(T.nearest_upsample(x, 3)), [x], 1e-4)
    fd_scalar(lambda: T.mean_abs(T.downsample(x, 2)), [x], 1e-4)
    w, b = mk((3, 2, 3)), mk((3,))
    fd_scalar(lambda: T.mean_abs(T.conv1d(T.downsample(x, 2), w, b)), [x, w, b], 1e-4)
    # the fused ops draw from their own generator, so the draws below stay
    fused = np.random.default_rng(4)
    w, b = mk((3, 2, 3), fused), mk((3,), fused)
    fd_scalar(lambda: T.mean_abs(T.conv1d(x, w, b, factor=3)), [x, w, b], 1e-4)
    film = mk((4, 8), fused)  # gamma stacked on xi
    fd_scalar(lambda: T.mean_abs(T.affine_leaky_relu(x, film)), [x, film], 1e-4)
    fd_scalar(lambda: T.mean_abs(T.mul(T.concat([x, y2]), T.concat([y2, x]))), [x, y2], 1e-4)

    # the check itself fails on a gradient of the wrong sign or twice the size
    for factor in (-1.0, 2.0):
        def off(a, factor=factor):
            def backward(g):
                return (factor * float(g) / a.data.size * np.sign(a.data),)
            return T._result(np.mean(np.abs(a.data)), (a,), backward)

        with pytest.raises(AssertionError):
            fd_scalar(lambda: off(x), [x], 1e-4)

    # the full toy model at 64-bit, three sampled entries per parameter
    model = DenoiserModel(ModelConfig.toy(dtype="float64"), seed=1)
    y0 = rng.standard_normal(12)
    mel = rng.standard_normal((8, 3))
    params = model.parameters()
    loss = T.mean_abs(model.forward(y0, mel, 0.6))
    loss.backward()
    grads = {k: p.grad.copy() for k, p in params.items()}
    pick = np.random.default_rng(3)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for i in pick.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = float(T.mean_abs(model.forward(y0, mel, 0.6)).data)
            flat[i] = orig - FD_STEP
            dn = float(T.mean_abs(model.forward(y0, mel, 0.6)).data)
            flat[i] = orig
            assert fd_agrees(grads[name].reshape(-1)[i], up, dn, 1e-4), name
    print("criterion 5 PASS: all ops and the full toy model match finite differences")


def test_criterion_6_toy_training_convergence(trained_toy, held_set, toy_mel_config):
    before, after = trained_toy["loss_before"], trained_toy["loss_after"]
    reduction = 1.0 - after / before
    assert reduction >= 0.5, f"held loss only fell {reduction:.1%}"

    schedule = manual_schedule(SIX_STEP_PRESET)
    trained = mean_ls_mse(
        trained_toy["state"].model, schedule, held_set, toy_mel_config, clip=True
    )
    # an untrained net can diverge through the reverse chain; evaluate the
    # first initialization seed whose synthesis stays finite
    untrained = None
    for seed in range(10):
        try:
            with np.errstate(over="ignore"):
                untrained = mean_ls_mse(
                    DenoiserModel(ModelConfig.toy(), seed=seed),
                    schedule, held_set, toy_mel_config, clip=True,
                )
            break
        except RuntimeError:  # SamplerError
            continue
    assert untrained is not None, "no untrained initialization synthesized finitely"
    assert trained < untrained
    print(
        f"criterion 6 PASS: held loss -{reduction:.0%}; "
        f"LS-MSE trained {trained:.2f} < untrained {untrained:.2f}"
    )


def test_criterion_7_schedule_decoupling(trained_toy, held_set, toy_mel_config):
    model = trained_toy["state"].model
    schedules = [
        ("6-step manual", manual_schedule(SIX_STEP_PRESET)),
        ("25-step fibonacci", fibonacci_schedule(25)),
        ("50-step linear", linear_schedule(1e-4, 0.05, 50)),
    ]
    scores = [
        mean_ls_mse(model, s, held_set, toy_mel_config, clip=True)
        for _, s in schedules
    ]
    # declared statistical tolerance: each move may regress at most 5%,
    # reflecting seed-to-seed noise in an 8-synthesis average
    assert scores[1] <= scores[0] * 1.05, scores
    assert scores[2] <= scores[1] * 1.05, scores
    summary = ", ".join(
        f"{name} {score:.2f}" for (name, _), score in zip(schedules, scores)
    )
    print(f"criterion 7 PASS: LS-MSE non-increasing across {summary}")


def test_criterion_8_metric_sanity():
    sr = 24000
    t = np.arange(int(0.5 * sr)) / sr
    ref = Waveform(0.5 * np.sin(2 * np.pi * 200 * t), sr)
    same = metric_mels(ref, ref, MelConfig())
    assert ls_mse(*same) == 0.0
    assert mcd(*same) == 0.0
    assert ffe(ref, ref) == 0.0

    shifted = Waveform(0.5 * np.sin(2 * np.pi * 300 * t), sr)
    _, voiced = track_pitch(ref)
    assert ffe(ref, shifted) == pytest.approx(float(voiced.mean()), abs=0.02)

    rng = np.random.default_rng(4)
    hyp = Waveform(ref.samples + 0.01 * rng.standard_normal(len(ref)), sr)
    cfg = MelConfig()
    mels = metric_mels(ref, hyp, cfg)
    assert ls_mse(*mels) == pytest.approx(ref_ls_mse(ref, hyp, cfg), abs=1e-10)
    assert mcd(*mels) == pytest.approx(ref_mcd(ref, hyp, cfg), abs=1e-10)
    print("criterion 8 PASS: metric sanity and brute-force agreement at 1e-10")


def test_criterion_9_sweep_machinery(
    trained_toy, toy_checkpoint, corpus_dirs, held_set, toy_mel_config, tmp_path
):
    candidates = [
        SWEPT_SIX_STEP,
        SIX_STEP_PRESET,
        (5e-3, 5e-3, 5e-3, 5e-3, 5e-3, 5e-3),
    ]
    cand_file = tmp_path / "cands.txt"
    cand_file.write_text(
        "\n".join("manual(" + ",".join(map(repr, c)) + ")" for c in candidates) + "\n"
    )
    out = tmp_path / "sweep.csv"
    code = cli_main([
        "sweep", "--checkpoint", str(toy_checkpoint),
        "--validation-dir", str(corpus_dirs[1]),
        "--candidates-file", str(cand_file), "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    rows = [l.split(",", 2) for l in out.read_text().splitlines()[2:]]
    reported = [tuple(float(b) for b in betas.split(";")) for _, _, betas in rows]

    # offline hand-scoring with the same per-utterance seeds the command uses
    model = trained_toy["state"].model
    def score(betas):
        vals = []
        for i, ref in enumerate(held_set):
            mel = mel_spectrogram(ref, toy_mel_config)
            hyp = synthesize(
                SynthRequest(
                    mel=mel.values, inference_schedule=manual_schedule(betas),
                    model=model, seed=i,
                )
            )
            hyp = Waveform(hyp, ref.sample_rate)
            vals.append(ls_mse(*metric_mels(ref, hyp, toy_mel_config)))
        return float(np.mean(vals))

    hand_ranked = sorted(candidates, key=score)
    assert reported == [tuple(c) for c in hand_ranked]

    best_six = mean_ls_mse(
        model, manual_schedule(reported[0]), held_set, toy_mel_config, clip=True
    )
    fifty = mean_ls_mse(
        model, linear_schedule(1e-4, 0.05, 50), held_set, toy_mel_config, clip=True
    )
    assert best_six <= 1.25 * fifty, (best_six, fifty)
    print(
        f"criterion 9 PASS: sweep ranking matches hand scoring; best 6-step "
        f"LS-MSE {best_six:.2f} vs 50-step {fifty:.2f}"
    )
