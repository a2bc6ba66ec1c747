"""gradvoc: a score-based diffusion vocoder built on numpy.

A small waveform generator conditioned on mel spectrograms: closed-form
forward noising, a learned noise predictor trained with continuous
noise-level conditioning, an ancestral reverse sampler, and the objective
metrics (LS-MSE, MCD, FFE) used to compare schedules.  The package root
exports nothing; import the submodules (``gradvoc.net``, ``gradvoc.sample``,
``gradvoc.train``, ``gradvoc.cli`` and the rest) for their names.

Importing the package pins glibc's heap policy for the process: blocks
under 32 MiB come from the heap, and up to 256 MiB of freed memory at its
top stays in the process, so each step's arrays reuse the pages of the
last step's instead of faulting in fresh ones.  Elsewhere than glibc this
does nothing.
"""

import ctypes as _ctypes
import os as _os


def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds (``mallopt``), which it otherwise
    moves as blocks are freed: 32 MiB is its own ceiling for the mmap one,
    and 256 MiB holds what one base training step on its default segment
    frees."""
    libc = _ctypes.CDLL(None) if _os.name == "posix" else None
    if libc is None or not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (_ctypes.c_int, _ctypes.c_int), _ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 256 << 20)


_pin_heap()
