"""Uniform time grids shared by the kernel, dynamics and synthesis layers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] with `steps` panels (steps + 1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)
