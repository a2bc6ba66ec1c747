"""Command-line surface: train, synth, sweep, eval, inspect-schedule.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every emitted CSV starts with a config-fingerprint comment line so results
can be traced back to the exact invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .data import generate_corpus, load_corpus
from .dsp import (
    WAV_MAX_SAMPLES,
    MelConfig,
    Waveform,
    WavFormatError,
    ffe,
    load_mel,
    ls_mse,
    mcd,
    mel_spectrogram,
    metric_mels,
    wav_read,
    wav_write,
)
from .net import ModelConfig, DenoiserModel
from .sample import SamplerError, SynthRequest, reverse_chain, sigma, synthesize
from .schedule import (
    NoiseSchedule,
    ScheduleError,
    kl_terminal_diagnostic,
    manual_schedule,
    resolve_schedule,
)
from .train import (
    TrainConfig,
    TrainConfigError,
    TrainDataError,
    TrainError,
    TrainState,
    check_train_config,
    load_state,
    run_training,
    save_state,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# schedule-quality warning thresholds, fixed from the Linear(1e-4, 0.005, 1000)
# baseline which must pass clean: its per-dimension terminal KL on a unit
# impulse is ~0.04 nats and its first beta is 1e-4
KL_PER_DIM_WARN = 1.0
FIRST_BETA_WARN = 1e-3

MEL_PROFILES = {
    "full": MelConfig,
    "toy": MelConfig.toy,
}

# each model profile, the one mel profile whose mels it takes, and the
# training segment a train config without `segment_samples` uses
MODEL_PROFILES = {
    "base": (ModelConfig, "full", 7200),
    "large": (ModelConfig.large, "full", 7200),
    "toy": (ModelConfig.toy, "toy", 256),
}

SWEEP_MANTISSAS = tuple(range(1, 10))
SWEEP_EXPONENTS = tuple(range(-6, 0))
SWEEP_GRID = tuple(
    sorted(m * 10.0**e for m, e in itertools.product(SWEEP_MANTISSAS, SWEEP_EXPONENTS))
)


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    return digest[:16]


def _resolve(path: str, env_var: str) -> Path:
    root = os.environ.get(env_var)
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


# -- config file ----------------------------------------------------------------


def _read_text(path, what: str) -> str:
    """The text of ``path``: a file that cannot be read is a data error, and
    bytes that are not text a usage error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a text file: {exc}") from exc


def parse_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines, each key at most once and never with an empty
    value; comments start with '#'."""
    out, lines = {}, {}
    for lineno, raw in enumerate(_read_text(path, f"config {path}").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if key in out:
            raise UsageError(f"{path}:{lineno}: key {key!r} already set on line {lines[key]}")
        if not value.strip():  # `resume =` would otherwise read as no resume at all
            raise UsageError(f"{path}:{lineno}: key {key!r} has no value")
        out[key], lines[key] = value.strip(), lineno
    return out


def _get(kv: dict, key: str, cast, default=None, required=False, path="config"):
    """Take ``key`` out of ``kv``; the keys left over were never read."""
    if key not in kv:
        if required:
            raise UsageError(f"{path}: missing required key {key!r}")
        return default
    try:
        return cast(kv.pop(key))
    except (ValueError, ScheduleError) as exc:
        raise UsageError(f"{path}: bad value for {key!r}: {exc}") from exc


# the train config key for each TrainConfig field, and how its value is read
TRAIN_SETTINGS = {
    "training_prior": resolve_schedule, "batch_size": int, "segment_samples": int,
    "learning_rate": float, "max_steps": int, "seed": int,
    "discrete_schedule": resolve_schedule, "checkpoint_every": int,
}


# -- commands -------------------------------------------------------------------


def cmd_train(args) -> int:
    kv = parse_kv_file(args.config)
    path = str(args.config)

    # the settings a config sets override a base: a fresh run's TrainConfig
    # with its model profile's segment, or a resumed run's checkpoint config.
    # The checkpoint brings its model, mel analysis, seed and conditioning, so
    # `model`, `seed` and `discrete_schedule` stay unread beside `resume` and
    # are refused below
    resume_path = _get(kv, "resume", str, path=path)
    brought = ("seed", "discrete_schedule") if resume_path else ()
    if not resume_path:
        model_name = _get(kv, "model", str, default="toy", path=path)
        if model_name not in MODEL_PROFILES:
            raise UsageError(f"{path}: unknown model profile {model_name!r}")
    settings = {key: _get(kv, key, cast, path=path) for key, cast in TRAIN_SETTINGS.items()
                if key not in brought and key in kv}
    data_dir = _resolve(
        _get(kv, "data_dir", str, required=True, path=path), "GRADVOC_DATA_ROOT"
    )
    ckpt_dir = _resolve(
        _get(kv, "checkpoint_dir", str, default="checkpoints", path=path),
        "GRADVOC_CHECKPOINT_ROOT",
    )
    loss_log = _get(kv, "loss_log", str, path=path)
    if kv:
        raise UsageError(f"{path}: unknown or unused key {next(iter(kv))!r}")

    if resume_path:
        state, mel_cfg = _load_checkpoint(resume_path)
        base = state.config
    else:
        model_profile, mel_name, segment = MODEL_PROFILES[model_name]
        mel_cfg = MEL_PROFILES[mel_name]()
        base = TrainConfig(segment_samples=segment)
    try:
        config = replace(base, **settings)
    except TrainConfigError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    model_cfg = state.model.config if resume_path else model_profile()
    check_train_config(model_cfg, config, mel_cfg)  # before a fresh model's init and the corpus
    if resume_path:
        state.config = config
    else:
        state = TrainState(model=DenoiserModel(model_cfg, seed=config.seed), config=config)
    dataset = load_corpus(data_dir, sample_rate=mel_cfg.sample_rate)
    state = run_training(
        state, dataset, mel_cfg, loss_log_path=loss_log, checkpoint_dir=ckpt_dir
    )
    final = ckpt_dir / "final.ckpt"
    save_state(final, state, mel_cfg=mel_cfg)
    print(f"trained to step {state.step}; checkpoint at {final}")
    return EXIT_OK


def _load_checkpoint(path):
    try:
        return load_state(_resolve(path, "GRADVOC_CHECKPOINT_ROOT"))
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint not found: {path}") from exc


def _check_schedule_compat(trained: NoiseSchedule | None, requested):
    if trained is not None and requested != trained:
        raise UsageError(
            "this checkpoint was trained with discrete-index conditioning and is "
            "hard-bound to its training schedule; inference under a different "
            "schedule degrades output. Re-run with the training schedule or use "
            "a continuous-mode checkpoint."
        )


def _check_out(out) -> None:
    """Refuse an ``--out`` that names no file in an existing directory, so a
    command fails before its work rather than after it."""
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise DataError(f"--out {out}: not a file name in an existing directory")


def cmd_synth(args) -> int:
    # refuse destinations that cannot be written before the chain runs
    _check_out(args.out)
    inter = args.emit_intermediates
    if inter is not None:
        nearest = next(p for p in (Path(inter), *Path(inter).parents) if p.exists())
        if not nearest.is_dir():
            raise DataError(f"--emit-intermediates {inter}: {nearest} is not a directory")
        if any(Path(inter).glob("iter*.wav")):  # another chain's iterates would mix in
            raise DataError(f"--emit-intermediates {inter}: already holds iter*.wav files")
    state, mel_cfg = _load_checkpoint(args.checkpoint)
    schedule = resolve_schedule(args.schedule)
    _check_schedule_compat(state.config.discrete_schedule, schedule)
    inp = Path(args.input)
    if inp.suffix == ".wav":
        wav = wav_read(inp)
        try:
            mel = mel_spectrogram(wav, mel_cfg)
        except ValueError as exc:
            raise DataError(f"{inp}: {exc}") from exc
    elif inp.suffix == ".mel":
        mel = load_mel(inp)
        diff = [f"{key} {value!r} (model: {getattr(mel_cfg, key)!r})"
                for key, value in asdict(mel.config).items() if getattr(mel_cfg, key) != value]
        if diff:
            raise DataError(f"{inp}: not the model's mel analysis: {', '.join(diff)}")
    else:
        raise UsageError(f"unsupported input type {inp.suffix!r} (want .wav or .mel)")

    request = SynthRequest(
        mel=mel.values, inference_schedule=schedule, model=state.model, seed=args.seed
    )
    if inter is not None:
        Path(inter).mkdir(parents=True, exist_ok=True)
    # write each iterate as soon as it exists, so a divergence keeps those before
    for i, waveform in enumerate(reverse_chain(request)):
        if inter is not None:
            wav_write(Path(inter) / f"iter{len(schedule) - i:03d}.wav",
                      Waveform(waveform, mel_cfg.sample_rate))
    wav_write(args.out, Waveform(waveform, mel_cfg.sample_rate))
    print(f"wrote {args.out} ({len(waveform)} samples, {len(schedule)} iterations)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_out(args.out)
    state, mel_cfg = _load_checkpoint(args.checkpoint)
    if state.config.discrete_schedule is not None:
        raise UsageError(
            "sweep requires a continuous-mode checkpoint: discrete-mode models "
            "cannot change schedules at inference time"
        )
    validation_dir = _resolve(args.validation_dir, "GRADVOC_DATA_ROOT")
    refs = load_corpus(validation_dir, sample_rate=mel_cfg.sample_rate)
    # every candidate's synthesis has the model's output length, whole
    # conditioning frames and so less than one hop shorter than its reference;
    # each reference is trimmed to it, and its metric mel made, once
    metric = mel_cfg.metric
    try:
        mels = [mel_spectrogram(ref, mel_cfg).values for ref in refs]
        targets = []
        for ref, mel in zip(refs, mels):
            trimmed = Waveform(ref.samples[:state.model.output_length(mel)], ref.sample_rate)
            targets.append(mel_spectrogram(trimmed, metric))
    except ValueError as exc:
        raise DataError(f"{validation_dir}: {exc}") from exc

    scored: dict[tuple, float] = {}  # every schedule scored, in the order first scored

    def score(betas: tuple) -> float:
        """The mean LS-MSE of ``betas`` over the validation set, synthesized once."""
        if betas not in scored:
            schedule = manual_schedule(betas)
            scores = []
            for i, (mel, ref_mel) in enumerate(zip(mels, targets)):
                hyp = synthesize(SynthRequest(mel=mel, inference_schedule=schedule,
                                              model=state.model, seed=args.seed + i))
                hyp_mel = mel_spectrogram(Waveform(hyp, metric.sample_rate), metric)
                scores.append(ls_mse(ref_mel, hyp_mel))
            scored[betas] = float(np.mean(scores))
        return scored[betas]

    if args.candidates_file:
        lines = _read_text(args.candidates_file, "candidates file").splitlines()
        candidates = [
            tuple(float(b) for b in resolve_schedule(line).betas)
            for line in lines
            if line.strip() and not line.strip().startswith("#")
        ]
        if not candidates:
            raise UsageError(f"{args.candidates_file}: no candidate schedules")
        for cand in candidates:
            score(cand)
    else:
        n, grid = args.iterations, len(SWEEP_GRID)
        distinct = math.comb(grid + n - 1, n)
        if args.budget > distinct:
            raise UsageError(
                f"--budget {args.budget} exceeds the {distinct} distinct "
                f"{n}-step schedules on the sweep grid"
            )
        rng = np.random.default_rng(args.seed)
        while len(scored) < args.budget:  # distinct non-decreasing schedules from the grid
            score(tuple(sorted(float(rng.choice(SWEEP_GRID)) for _ in range(n))))

    if not args.candidates_file and args.refine_passes > 0:
        best = min(scored, key=lambda b: (scored[b], b))
        for _ in range(args.refine_passes):
            improved = False
            for pos, value in itertools.product(range(len(best)), SWEEP_GRID):
                trial = (*best[:pos], value, *best[pos + 1:])
                if list(trial) == sorted(trial) and score(trial) < scored[best]:
                    best, improved = trial, True
            if not improved:
                break

    ranked = sorted(scored.items(), key=lambda kv: (kv[1], kv[0]))
    # a candidates file replaces the search, so its options stay out of the key
    search = () if args.candidates_file else (args.iterations, args.budget, args.refine_passes)
    key = (args.checkpoint, str(validation_dir), *search, args.candidates_file, args.seed)
    lines = [
        f"# config-fingerprint: {_fingerprint('sweep', *key)}",
        "rank,ls_mse,betas",
    ]
    for rank, (betas, value) in enumerate(ranked, start=1):
        spec = ";".join(repr(b) for b in betas)
        lines.append(f"{rank},{value!r},{spec}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out(args.out)
    ref_dir = _resolve(args.ref_dir, "GRADVOC_DATA_ROOT")
    hyp_dir = _resolve(args.hyp_dir, "GRADVOC_DATA_ROOT")
    refs = {p.name: p for p in sorted(Path(ref_dir).glob("*.wav"))}
    hyps = {p.name: p for p in sorted(Path(hyp_dir).glob("*.wav"))}
    common = sorted(set(refs) & set(hyps))
    unmatched = sorted(set(refs) ^ set(hyps))
    if not common:
        raise DataError(
            f"no matching file names between {ref_dir} and {hyp_dir}; "
            f"unmatched: {', '.join(unmatched) or '(both empty)'}"
        )
    if unmatched:
        print(
            f"warning: {len(unmatched)} unmatched files skipped: "
            + ", ".join(unmatched),
            file=sys.stderr,
        )
    lines = [
        f"# config-fingerprint: {_fingerprint('eval', str(ref_dir), str(hyp_dir))}",
        "utterance,ls_mse,mcd,ffe",
    ]
    cfg = None
    totals = np.zeros(3)
    for name in common:
        ref = wav_read(refs[name])
        hyp = wav_read(hyps[name])
        if cfg is None or cfg.sample_rate != ref.sample_rate:
            cfg = _metric_mel_config(ref.sample_rate)
        try:
            mels = metric_mels(ref, hyp, cfg)
            row = (ls_mse(*mels), mcd(*mels), ffe(ref, hyp))
        except ValueError as exc:
            raise DataError(f"{name}: {exc}") from exc
        totals += row
        lines.append(f"{name},{row[0]!r},{row[1]!r},{row[2]!r}")
    means = totals / len(common)
    lines.append(f"mean,{float(means[0])!r},{float(means[1])!r},{float(means[2])!r}")
    _emit(lines, args.out)
    return EXIT_OK


def _metric_mel_config(sample_rate: int) -> MelConfig:
    for profile in MEL_PROFILES.values():
        cfg = profile()
        if cfg.sample_rate == sample_rate:
            return cfg
    raise DataError(f"no metric mel profile for sample rate {sample_rate}")


def cmd_inspect_schedule(args) -> int:
    _check_out(args.out)
    schedule = resolve_schedule(args.schedule)
    if args.y0:
        y0 = wav_read(args.y0).samples
        if y0.size == 0:
            raise DataError(f"{args.y0}: a WAV of no samples has no terminal KL per sample")
    else:
        y0 = np.array([1.0])  # unit impulse stand-in
    kl = kl_terminal_diagnostic(schedule, y0)
    kl_per_dim = kl / y0.size
    lines = [
        f"# config-fingerprint: {_fingerprint('inspect', args.schedule, args.y0)}",
        f"# terminal_kl_nats = {kl!r}",
        f"# terminal_kl_per_dim = {kl_per_dim!r}",
    ]
    warnings = []
    if kl_per_dim > KL_PER_DIM_WARN:
        warnings.append(
            f"condition-1 violation: terminal KL per dimension {kl_per_dim:.3g} > "
            f"{KL_PER_DIM_WARN} - the chain keeps too much signal at its last step"
        )
    if float(schedule.betas[0]) > FIRST_BETA_WARN:
        warnings.append(
            f"condition-2 violation: first beta {schedule.betas[0]:.3g} > "
            f"{FIRST_BETA_WARN} - the schedule skips the fine-grained noise regime"
        )
    lines += [f"# warning: {w}" for w in warnings]
    lines.append("n,beta,alpha_bar,ell,sigma")
    for n in range(1, len(schedule) + 1):
        sig = repr(sigma(schedule, n)) if n >= 2 else ""
        lines.append(
            f"{n},{float(schedule.betas[n - 1])!r},{float(schedule.alpha_bars[n - 1])!r},"
            f"{float(schedule.ell[n])!r},{sig}"
        )
    _emit(lines, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_make_corpus(args) -> int:
    rate = MEL_PROFILES[args.mel]().sample_rate
    if not 1 <= args.duration * rate < math.inf:
        raise UsageError(f"--duration must be finite and >= one sample ({1 / rate:g} s), "
                         f"got {args.duration}")
    if int(args.duration * rate) > WAV_MAX_SAMPLES:  # before the directory and the signals
        raise UsageError(f"--duration must be at most {WAV_MAX_SAMPLES} samples at {rate} Hz, "
                         f"the most a 16-bit mono WAV holds, got {args.duration}")
    paths = generate_corpus(
        _resolve(args.out, "GRADVOC_DATA_ROOT"),
        n_utterances=args.count,
        n_samples=int(args.duration * rate),
        sample_rate=rate,
        seed=args.seed,
    )
    print(f"wrote {len(paths)} utterances to {args.out}")
    return EXIT_OK


def _emit(lines: list[str], out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


def _at_least(least: int, name: str):
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradvoc",
        description="Diffusion vocoder: train, synthesize, evaluate, inspect schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training loop from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", help="synthesize a waveform from mel conditioning")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help=".wav (mel is extracted) or .mel")
    p.add_argument("--schedule", required=True, help="preset name or schedule spec")
    p.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-intermediates", metavar="DIR", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="search short inference schedules by LS-MSE")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--validation-dir", required=True)
    p.add_argument("--iterations", type=_at_least(1, "iterations"), default=6)
    p.add_argument("--budget", type=_at_least(1, "budget"), default=24)
    p.add_argument("--refine-passes", type=_at_least(0, "refine-passes"), default=1)
    p.add_argument("--candidates-file", default=None,
                   help="fixed candidate list (one schedule spec per line)")
    p.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="objective metrics over paired directories")
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--hyp-dir", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-schedule", help="tabulate a schedule and diagnostics")
    p.add_argument("schedule")
    p.add_argument("--y0", default=None, help="WAV file for the terminal-KL diagnostic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect_schedule)

    p = sub.add_parser("make-corpus", help="generate the bundled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_at_least(1, "count"), default=16)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--mel", choices=sorted(MEL_PROFILES), default="toy")
    p.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    p.set_defaults(func=cmd_make_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ScheduleError, TrainConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, WavFormatError, CheckpointError, OSError, TrainDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SamplerError, TrainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
