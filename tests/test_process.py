"""The process gradvoc makes: what importing it loads, how its heap is
reused from one training step to the next, and that a refused command ends.
Each check runs in a fresh interpreter, so that nothing an earlier test
imported or freed counts."""

import ctypes
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# under glibc's default heap policy a warmed-up toy train_step faults in
# 270-520 fresh pages (~6-10k over 20 steps); with gradvoc's pin, 0-12
TRAIN_STEP_FAULTS_BOUND = 1000


def run(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` with gradvoc's source first on its path."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def run_python(code: str) -> str:
    return run("-c", textwrap.dedent(code), check=True).stdout


def has_glibc_mallopt() -> bool:
    if os.name != "posix":
        return False
    libc = ctypes.CDLL(None)
    return hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")


def test_importing_the_cli_loads_no_scipy():
    out = run_python("""
        import json, sys
        import gradvoc.cli
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    assert json.loads(out) == []


@pytest.mark.skipif(not has_glibc_mallopt(), reason="the heap policy is pinned through glibc")
def test_warm_train_steps_reuse_the_heap():
    out = run_python("""
        import resource
        import numpy as np
        from gradvoc.data import sine_utterance
        from gradvoc.dsp import MelConfig
        from gradvoc.net import DenoiserModel, ModelConfig
        from gradvoc.train import TrainConfig, TrainState, make_batch, step_rng, train_step

        rng = np.random.default_rng(0)
        corpus = [sine_utterance(rng, 4000, 4000) for _ in range(8)]
        config = TrainConfig(segment_samples=256, batch_size=4, learning_rate=2e-3, seed=0)
        state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=config)
        faults = 0
        for step in range(25):
            if step == 5:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rng = step_rng(0, step)
            state, _ = train_step(state, make_batch(corpus, rng, 4, 256, MelConfig.toy()), rng)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
    """)
    assert int(out) < TRAIN_STEP_FAULTS_BOUND


def test_an_unusable_training_prior_is_refused_without_hanging(corpus_dirs, tmp_path):
    # alpha_bar underflows to 0 from step 708 on, so 293 of its 1000 segments
    # hold no noise level to draw: a run that drew from one would never end
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data_dir = {corpus_dirs[0]}\nmax_steps = 20\n"
                   f"checkpoint_dir = {tmp_path / 'ckpt'}\n"
                   "training_prior = linear(0.5,0.9,1000)\n")
    done = run("-m", "gradvoc.cli", "train", str(cfg), timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "'training_prior'" in done.stderr and not (tmp_path / "ckpt").exists()
