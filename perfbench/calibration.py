"""Machine-speed calibration: turns measured times into reference times.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two over minutes (other tenants, frequency changes), and that
drift moved every timing of a run together far more than any seed did.
A fixed probe -- a pure-Python loop plus small numpy updates, the same
mix of interpreter and numpy work the program does -- is timed while the
program is idle, right before each op of a measured loop and around each
set-up.  An op's time is divided by

    speed factor = nearby probe samples / reference probe time

(their mean or median, see :class:`SpeedProbe`), so it reads as a time
on the machine that recorded the reference (see ``decisions.json``).
The probe is the benchmark's own code: a change to the program cannot
move it.  Raw times are printed beside the reported ones.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

_LOOP = 20_000
_UPDATES = 100


class SpeedProbe:
    """Collects probe timings and gives the run's speed factor.

    One probe lasts about 3 ms, short enough to slip between the moments
    the machine takes a CPU away: with each CPU taken away a third of the
    time, the median of single probes rose 1.05x while a 150 ms op slowed
    1.5x.  So a probe made for long ops takes each sample as the mean of
    ``loops`` back-to-back probes, and its factor is the mean of the
    samples: the op absorbs every slow moment, not only the typical one.
    A probe of single loops is for ops far shorter than those moments
    (sub-millisecond adds), which they rarely hit; its factor is the
    median, which skips the probes they did hit."""

    def __init__(self, reference_ms: float, loops: int = 1) -> None:
        if loops < 1:
            raise ValueError(f"loops must be >= 1, got {loops}")
        self.reference_seconds = float(reference_ms) / 1e3
        self.loops = int(loops)
        self.samples: List[float] = []
        self._grid = np.random.default_rng(0).random((64, 64))

    def sample(self, repeats: int = 1) -> float:
        """Take ``repeats`` samples; returns the seconds spent."""
        spent = 0.0
        grid = self._grid
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(self.loops):
                total = 0
                for i in range(_LOOP):
                    total += i * i
                for _ in range(_UPDATES):
                    grid[1:, 1:] = np.minimum(grid[:-1, 1:], grid[1:, :-1]) * 0.5 + 0.1
            elapsed = time.perf_counter() - started
            self.samples.append(elapsed / self.loops)
            spent += elapsed
        return spent

    @property
    def factor(self) -> float:
        """How much slower than the reference this run's machine was."""
        return self.factor_of(self.samples)

    def factor_of(self, samples: List[float]) -> float:
        """The speed factor of some of the samples."""
        if not samples:
            return 1.0
        typical = np.median(samples) if self.loops == 1 else np.mean(samples)
        return float(typical) / self.reference_seconds

    def factor_near(self, index: int, half_window: int = 2) -> float:
        """The factor of the probes within ``half_window`` samples of one,
        so a single noisy probe does not decide the time it scales."""
        return self.factor_of(
            self.samples[max(0, index - half_window):index + half_window + 1]
        )
