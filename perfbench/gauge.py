"""Machine-speed gauge: a fixed kernel timed next to every benchmark unit.

On a shared host the same unit of work runs at different speeds from one
minute to the next (another tenant on the sibling hardware threads; on a
2-vCPU guest the slow spells were 1.7x slower, with CPU time equal to wall
time and no steal recorded, and they can cover a whole run). The gauge is
a frozen imitation of the program's hot path at the workload's
dimensions: a batched GRU scan in numpy (input GEMM, then one small GEMM
and the gate nonlinearities per step) and a Viterbi decode in Python over
a 9-tag lattice. It slows down with the machine by about the same factor
as the program does, and it never changes with the program.

``run.py`` times the gauge before and after each unit and scales the
unit's duration by ``nominal_s`` / (mean of the two gauge times): the
duration the unit would have taken with the gauge at ``nominal_s``, that
is on the unloaded machine.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

BATCH = 8
STEPS = 16
TAGS = 9


class Gauge:
    def __init__(self, embed_dim: int, hidden_dim: int, scans: int, nominal_s: float) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((BATCH, STEPS, embed_dim)) / np.sqrt(embed_dim)
        self.w_x = rng.standard_normal((embed_dim, 3 * hidden_dim)) / np.sqrt(embed_dim)
        self.w_h = rng.standard_normal((hidden_dim, 3 * hidden_dim)) / np.sqrt(hidden_dim)
        self.emissions = rng.standard_normal((BATCH, STEPS, TAGS))
        self.transitions = rng.standard_normal((TAGS, TAGS))
        self.hidden_dim = hidden_dim
        self.scans = scans
        self.nominal_s = nominal_s

    def _kernel(self) -> int:
        hd = self.hidden_dim
        checksum = 0
        for _ in range(self.scans):
            xs = self.x @ self.w_x
            h = np.zeros((BATCH, hd))
            for t in range(STEPS):
                g = xs[:, t] + h @ self.w_h
                z = 1.0 / (1.0 + np.exp(-g[:, :hd]))
                r = 1.0 / (1.0 + np.exp(-g[:, hd:2 * hd]))
                h = z * h + (1.0 - z) * np.tanh(g[:, 2 * hd:] * r)
            for b in range(BATCH):
                score = self.emissions[b, 0].copy()
                back = []
                for t in range(1, STEPS):
                    s = score[:, None] + self.transitions
                    back.append(s.argmax(axis=0))
                    score = s.max(axis=0) + self.emissions[b, t]
                best = int(score.argmax())
                for pointers in reversed(back):
                    best = int(pointers[best])
                checksum += best
        return checksum

    def __call__(self) -> float:
        """Duration of one kernel run, in seconds."""
        started = perf_counter()
        self._kernel()
        return perf_counter() - started

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a unit's duration, measured between two gauge
        runs, into its duration at the nominal machine speed."""
        return self.nominal_s / (0.5 * (before + after))
