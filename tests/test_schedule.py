"""Noise schedule construction, noise-level sampling, and diagnostics."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradvoc.cli
from gradvoc.checkpoint import load_tensors
from gradvoc.sample import sigma
from gradvoc.schedule import (
    PRESETS,
    NoiseSchedule,
    ScheduleError,
    default_training_prior,
    fibonacci_schedule,
    kl_terminal_diagnostic,
    linear_schedule,
    manual_schedule,
    resolve_schedule,
    sample_noise_level,
    schedule_from_text,
    schedule_to_text,
)

# frozen oracle values, computed by an independent plain-python recurrence
ABAR_1000_LINEAR = 0.07774940808486071
KL_UNIT_NORM_D16 = 0.06438584487711754


def test_linear_endpoints_exact():
    s = linear_schedule(1e-4, 0.005, 1000)
    assert s.betas[0] == 1e-4
    assert s.betas[-1] == 0.005
    diffs = np.diff(s.betas)
    assert np.allclose(diffs, diffs[0], rtol=0, atol=1e-18)


def test_linear_single_entry():
    s = linear_schedule(0.3, 0.3, 1)
    assert s.betas.tolist() == [0.3]


def test_linear_second_entry_arithmetic():
    s = linear_schedule(1e-4, 0.05, 50)
    assert s.betas[1] == pytest.approx(1e-4 + (0.05 - 1e-4) / 49, rel=1e-15)


def test_fibonacci_six_exact():
    s = fibonacci_schedule(6)
    assert np.array_equal(s.betas, np.array([1, 2, 3, 5, 8, 13]) * 1e-6)


def test_fibonacci_base_cases():
    assert fibonacci_schedule(2).betas.tolist() == [1e-6, 2e-6]


def test_fibonacci_25_unrolled():
    # hand-unrolled: the 24th term under base cases (1, 2) is 75025 units
    s = fibonacci_schedule(25)
    assert s.betas[23] == 75025 * 1e-6
    assert s.betas[24] == 121393 * 1e-6
    units = [1, 2]
    while len(units) < 25:
        units.append(units[-1] + units[-2])
    assert np.array_equal(s.betas, np.array(units) * 1e-6)


def test_fibonacci_rejects_out_of_range():
    with pytest.raises(ScheduleError):
        fibonacci_schedule(31)  # entries reach 1.3 million units


def test_manual_single_entry():
    s = manual_schedule([0.5])
    assert s.alpha_bars[0] == 0.5
    assert s.ell[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_manual_accepts_sweep_grid_values():
    s = manual_schedule([1e-6, 9e-6, 5e-4, 3e-3, 2e-2, 1e-1])
    assert len(s) == 6


def test_manual_rejects_zero_and_one():
    with pytest.raises(ScheduleError):
        manual_schedule([0.0])
    with pytest.raises(ScheduleError):
        manual_schedule([0.5, 1.0])


@pytest.mark.parametrize("betas, step", [
    # alpha_bar underflows to 0: 0.1**324 is below the least subnormal, and
    # so is the linear(0.5, 0.9, 1000) product at step 708
    ([0.9] * 400, 324), (np.linspace(0.5, 0.9, 1000), 708),
    # alpha_n rounds to 1, so ell does not move
    ([1e-20, 0.5], 1), ([0.5, 1e-20], 2),
    # ell moves by one ulp only, leaving no float64 strictly inside the segment
    ([2.2e-16], 1), ([0.5, 2.2e-16], 2),
], ids=["underflow-324", "linear-underflow-708", "unmoved-1", "unmoved-2", "one-ulp-1",
        "one-ulp-2"])
def test_unusable_schedule_is_refused_at_its_first_bad_step(betas, step):
    with pytest.raises(ScheduleError, match=rf"^step {step} "):
        manual_schedule(betas)


def test_every_schedule_the_repo_uses_builds():
    candidates = Path(__file__).parent.parent / "perfbench" / "candidates.txt"
    specs = [line for line in candidates.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    schedules = [resolve_schedule(spec) for spec in [*PRESETS, *specs]]
    for s in [*schedules, default_training_prior()]:
        assert s.ell[-1] > 0 and np.all(np.diff(s.ell) < 0)


def test_presets_are_specs_of_the_schedules_they_name():
    """Each preset's spec text parses to the betas of the constructor call it
    names, byte for byte, in any case; the CLI resolves with the same function."""
    want = {"linear1000": linear_schedule(1e-4, 0.005, 1000),
            "linear50": linear_schedule(1e-4, 0.05, 50), "fibonacci25": fibonacci_schedule(25),
            "manual6": manual_schedule([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])}
    assert list(PRESETS) == list(want)
    for name, schedule in want.items():
        for spelled in (name, f" {name.upper()} "):
            assert resolve_schedule(spelled).betas.tobytes() == schedule.betas.tobytes()
    assert gradvoc.cli.resolve_schedule is resolve_schedule


def test_derived_quantities_definitions():
    s = linear_schedule(1e-4, 0.005, 1000)
    assert np.array_equal(s.alphas, 1.0 - s.betas)
    assert np.allclose(s.alpha_bars, np.cumprod(s.alphas), rtol=0, atol=0)
    assert s.ell[0] == 1.0
    assert np.max(np.abs(s.ell[1:] - np.sqrt(s.alpha_bars))) <= 1e-15
    assert s.alpha_bars[-1] == pytest.approx(ABAR_1000_LINEAR, rel=1e-13)


def test_schedule_immutable():
    s = fibonacci_schedule(6)
    with pytest.raises(ValueError):
        s.betas[0] = 0.5
    assert s == fibonacci_schedule(6)
    assert s != linear_schedule(1e-6, 13e-6, 6)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_monotone_alpha_bar_property(n, seed_offset):
    rng = np.random.default_rng(seed_offset)
    betas = rng.uniform(1e-6, 0.2, size=n)
    s = manual_schedule(betas)
    assert np.all(np.diff(s.alpha_bars) < 0) or n == 1
    assert np.all(s.alpha_bars > 0) and np.all(s.alpha_bars < 1)


# -- noise-level sampling ---------------------------------------------------------


def test_sample_support_single_segment():
    s = manual_schedule([0.19])  # ell_1 = 0.9
    rng = np.random.default_rng(0)
    for _ in range(200):
        draw = sample_noise_level(s, rng)
        assert 0.9 < draw < 1.0


def test_training_prior_support():
    prior = default_training_prior()
    assert prior.betas[0] == 1e-6 and prior.betas[-1] == 0.01 and len(prior) == 1000
    lo = prior.ell[-1]
    rng = np.random.default_rng(1)
    draws = np.array([sample_noise_level(prior, rng) for _ in range(2000)])
    assert np.all(draws > lo) and np.all(draws < 1.0)


def test_sample_density_matches_piecewise_uniform():
    """Monte Carlo goodness of fit against the analytic piecewise density.

    Segment s is uniform over {1..S} and the draw is uniform on
    (ell_s, ell_{s-1}), so the expected mass in that interval is 1/S.
    """
    s = manual_schedule([0.19, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(42)
    n = 200_000
    draws = np.array([sample_noise_level(s, rng) for _ in range(n)])
    edges = s.ell[::-1]  # ascending: ell_S .. ell_0
    counts, _ = np.histogram(draws, bins=edges)
    expected = n / len(s)
    # chi-square with 3 dof; 99.9% quantile ~= 16.3
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 16.3


def test_sample_determinism():
    s = default_training_prior()
    a = [sample_noise_level(s, np.random.default_rng(7)) for _ in range(10)]
    b = [sample_noise_level(s, np.random.default_rng(7)) for _ in range(10)]
    assert a == b


# -- terminal KL diagnostic -------------------------------------------------------


def test_kl_zero_in_full_noise_limit():
    s = manual_schedule([0.999999] * 40)  # alpha_bar ~ 1e-240
    y0 = np.random.default_rng(0).standard_normal(32)
    assert kl_terminal_diagnostic(s, y0) == pytest.approx(0.0, abs=1e-8)


def test_kl_all_zero_signal_closed_form():
    s = linear_schedule(1e-4, 0.005, 100)
    dim = 8
    abar = float(s.alpha_bars[-1])
    expected = (dim / 2.0) * (-abar - math.log1p(-abar))
    assert kl_terminal_diagnostic(s, np.zeros(dim)) == pytest.approx(expected, rel=1e-12)


def test_kl_golden_unit_norm():
    s = linear_schedule(1e-4, 0.005, 1000)
    y0 = np.full(16, 0.25)  # unit norm in 16 dims
    kl = kl_terminal_diagnostic(s, y0)
    assert kl > 0
    assert kl == pytest.approx(KL_UNIT_NORM_D16, rel=1e-12)


# -- serialization and spec parsing -----------------------------------------------


def test_text_round_trip():
    for s in (linear_schedule(1e-4, 0.005, 12), fibonacci_schedule(9),
              manual_schedule([0.1, 0.2])):
        back = schedule_from_text(schedule_to_text(s))
        assert np.array_equal(back.betas, s.betas)


def test_parse_spec_forms(tmp_path):
    assert len(resolve_schedule("linear(1e-4,0.05,50)")) == 50
    assert len(resolve_schedule("fibonacci(25)")) == 25
    assert resolve_schedule("manual(0.1,0.2)").betas.tolist() == [0.1, 0.2]
    assert resolve_schedule("0.1,0.2,0.3").betas.tolist() == [0.1, 0.2, 0.3]
    p = tmp_path / "s.txt"
    p.write_text(schedule_to_text(fibonacci_schedule(6)))
    assert np.array_equal(resolve_schedule(f"@{p}").betas,
                          fibonacci_schedule(6).betas)


def test_parse_spec_rejects_garbage():
    for bad in ("linear(1,2)", "unknown(3)", "", "manual()"):
        with pytest.raises(ScheduleError):
            resolve_schedule(bad)


def test_text_holds_only_beta_lines():
    text = schedule_to_text(linear_schedule(1e-4, 0.05, 3))
    assert text == "beta = 0.0001\nbeta = 0.02505\nbeta = 0.05\n"


def test_text_with_kind_and_params_lines_still_reads():
    older = "kind = linear\nparams = 0.0001,0.05,3.0\n" + schedule_to_text(
        linear_schedule(1e-4, 0.05, 3)
    )
    assert schedule_from_text(older) == linear_schedule(1e-4, 0.05, 3)
    assert schedule_from_text("beta = 0.1\nparams = x\n").betas.tolist() == [0.1]
    # the committed benchmark checkpoint was written in that older form
    _, meta = load_tensors(Path(__file__).parent.parent / "perfbench" / "sweep-toy.ckpt")
    assert meta["training_prior"].startswith("kind = linear\nparams = ")
    assert schedule_from_text(meta["training_prior"]) == default_training_prior()


@pytest.mark.parametrize(
    "spec", ["fibonacci(2000)", "linear(1e-4,0.5,100000000000)", "linear(1e-4,0.5,1000001)"],
)
def test_oversized_specs_are_schedule_errors(spec):
    with pytest.raises(ScheduleError):
        resolve_schedule(spec)


@pytest.mark.parametrize(
    "content", [None, b"beta = abc\n", "beta = 0.1 \u00e9\n".encode()],
)
def test_unreadable_schedule_file_is_schedule_error(content, tmp_path):
    path = tmp_path  # None: the directory itself
    if content is not None:
        path = tmp_path / "s.txt"
        path.write_bytes(content)
    with pytest.raises(ScheduleError):
        resolve_schedule(f"@{path}")


def test_missing_schedule_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        resolve_schedule(f"@{tmp_path / 'none.txt'}")


# step counts stay small: an unbounded recurrence would take the machine's memory
inline_specs = st.text(max_size=40) | st.builds(
    "{}({})".format,
    st.sampled_from(["linear", "fibonacci", "manual", "Linear", "", " manual "]),
    st.lists(st.integers(-5, 5000).map(str) | st.floats().map(repr) | st.text(max_size=4),
             max_size=4).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(spec=inline_specs)
@example("manual(1e-20,1e-20,0.5)")
def test_any_inline_spec_parses_or_raises_schedule_error(spec):
    if spec.strip().startswith("@"):
        return
    try:
        schedule = resolve_schedule(spec)
    except ScheduleError:
        return
    # a schedule that builds is usable: each step's noise and the terminal KL are finite
    assert all(math.isfinite(sigma(schedule, n)) for n in range(2, len(schedule) + 1))
    assert math.isfinite(kl_terminal_diagnostic(schedule, np.ones(4)))


@settings(max_examples=300, deadline=None)
@given(content=st.binary(max_size=80) | st.lists(
    st.sampled_from(["beta = 0.1", "beta = 1e-4", "beta = x", "kind = linear",
                     "params = 1,2", "# c", "", "beta=", "=", "beta = nan", "noise"]),
    max_size=6).map(lambda lines: "\n".join(lines).encode()))
def test_any_schedule_file_parses_or_raises_schedule_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz-schedule.txt"
    path.write_bytes(content)
    try:
        resolve_schedule(f"@{path}")
    except ScheduleError:
        pass
