"""gradvoc: a score-based diffusion vocoder built on numpy.

A small waveform generator conditioned on mel spectrograms: closed-form
forward noising, a learned noise predictor trained with continuous
noise-level conditioning, an ancestral reverse sampler, and the objective
metrics (LS-MSE, MCD, FFE) used to compare schedules.
"""

from .schedule import (
    NoiseSchedule,
    ScheduleError,
    linear_schedule,
    fibonacci_schedule,
    manual_schedule,
    default_training_prior,
    sample_noise_level,
    kl_terminal_diagnostic,
    parse_schedule_spec,
    schedule_to_text,
    schedule_from_text,
)
from .diffusion import forward_diffuse
from .tensor import Tensor
from .dsp import (
    Waveform,
    MelConfig,
    MelSpectrogram,
    PitchConfig,
    WavFormatError,
    mel_spectrogram,
    mel_filterbank,
    mfcc,
    ls_mse,
    mcd,
    ffe,
    track_pitch,
    wav_read,
    wav_write,
    save_mel,
    load_mel,
)
from .net import ModelConfig, DenoiserModel, positional_encoding
from .sample import SynthRequest, SamplerError, sigma, reverse_step, synthesize
from .train import (
    TrainConfig,
    TrainState,
    TrainError,
    make_batch,
    train_step,
    evaluate_loss,
    step_rng,
    run_training,
    save_state,
    load_state,
)
from .data import sine_utterance, generate_corpus, load_corpus

__version__ = "0.1.0"
