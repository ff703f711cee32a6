"""Memory kernels (b, K) and the MacCamy reduction of diffusion-type memory.

The wave model carries a zero-order coefficient b and a convolution kernel K
acting on the displacement history.  Systems whose memory acts on the Laplacian
instead,

    w'' = Delta w + int_0^t N(t-s) Delta w(s) ds,

are reduced to displacement-memory form through the resolvent kernel R of N
(MacCamy's trick): R solves R + N*R = N, and applying I - R* to the equation
trades the Delta-history for R(0) w' + R'(0) w + R''*w plus initial-data
forcing.  The velocity term R(0) w' survives whenever N(0) != 0; callers are
warned because the displacement-memory model has no such term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import TimeGrid
from .volterra import FactoredKernel, march_difference_kernel


class Kernel:
    """Base class for convolution kernel descriptors; subclasses sample values."""

    def values(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PronyKernel(Kernel):
    """Prony series sum_i kappa_i exp(-rate_i t), all rates >= 0.

    The Maxwell-Boltzmann kernel of the generalized Maxwell model; zero,
    constant and single-exponential memory are its one-term cases below.
    """

    amplitudes: tuple
    rates: tuple

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        rates = tuple(float(r) for r in self.rates)
        if len(amps) != len(rates) or not amps:
            raise ValueError("Prony series needs matching, non-empty amplitude/rate lists")
        if any(not np.isfinite(a) for a in amps) or any(not np.isfinite(r) for r in rates):
            raise ValueError("Prony parameters must be finite")
        if any(r < 0.0 for r in rates):
            raise ValueError(f"kernel decay rates must all be >= 0, got {list(rates)}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "rates", rates)

    def values(self, t: np.ndarray) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        # The sum starts from the first term, not from zeros, so a one-term
        # series samples bitwise as a * exp(-r t): a level of -0.0 stays -0.0.
        (a, r), *rest = zip(self.amplitudes, self.rates)
        out = a * np.exp(-r * tt)
        for a, r in rest:
            out += a * np.exp(-r * tt)
        return out


def ExponentialKernel(amplitude: float, rate: float) -> PronyKernel:
    """amplitude * exp(-rate * t) with rate >= 0: a one-term Prony series."""
    return PronyKernel((amplitude,), (rate,))


def ConstantKernel(level: float) -> PronyKernel:
    """The constant level: a one-term Prony series with rate 0."""
    return PronyKernel((level,), (0.0,))


def ZeroKernel() -> PronyKernel:
    """No memory: the constant level 0."""
    return ConstantKernel(0.0)


@dataclass(frozen=True)
class SampledKernel(Kernel):
    """Kernel tabulated on its own uniform grid; evaluated by linear interpolation."""

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.samples, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("sampled kernel needs matching 1-d times/samples, length >= 2")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("sampled kernel times must start at 0 and increase")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("sampled kernel data must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "samples", v)

    def values(self, t: np.ndarray) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        if np.any(tt > self.times[-1] + 1e-12) or np.any(tt < 0.0):
            raise ValueError(
                f"sampled kernel covers [0, {self.times[-1]}] but was evaluated "
                f"on [{tt.min()}, {tt.max()}]"
            )
        return np.interp(tt, self.times, self.samples)

    @classmethod
    def from_csv(cls, path) -> "SampledKernel":
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"expected a two-column t,value CSV, got {data.shape[1]} columns")
        return cls(times=data[:, 0], samples=data[:, 1])


@dataclass(frozen=True)
class MemoryKernel:
    """Displacement-memory pair: zero-order coefficient b and convolution kernel."""

    b: float = 0.0
    kernel: Kernel = field(default_factory=ZeroKernel)

    def __post_init__(self):
        if not np.isfinite(self.b):
            raise ValueError("b must be finite")
        if not isinstance(self.kernel, Kernel):
            raise ValueError("kernel must be a Kernel descriptor")


def maccamy_resolvent(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """Resolvent kernel R of N: the solution of R + N*R = N, sampled on the grid.

    Equivalently R = N - N*R, a second-kind Volterra equation with difference
    kernel -N, solved by trapezoid marching.  For N = 1 the resolvent is
    exp(-t); for N = 0 it vanishes.
    """
    n_samples = np.asarray(kernel.values(grid.times), dtype=float)
    return march_difference_kernel(FactoredKernel(-n_samples, grid.dt), n_samples)


def _second_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order accurate second difference, one-sided at the ends."""
    if values.size < 4:
        raise ValueError("need at least 4 samples to form the second derivative")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / dt**2
    out[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / dt**2
    out[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / dt**2
    return out


@dataclass(frozen=True)
class TransformedSystem:
    """Displacement-memory coefficients produced by the MacCamy reduction."""

    velocity_coeff: float
    b: float
    kernel_samples: np.ndarray
    resolvent: np.ndarray
    forcing_description: str
    degraded_accuracy: bool


def transformed_system(kernel: Kernel, grid: TimeGrid) -> TransformedSystem:
    """Reduce Laplacian-history memory N to displacement-memory coefficients.

    Writing R for the resolvent of N, the reduced equation reads

        w'' = Delta w + R(0) w' + R'(0) w + int_0^t R''(t-s) w(s) ds
              - R(t) w1 - R'(t) w0,

    so velocity_coeff = R(0) = N(0), b = R'(0) and K = R''.  R' and R'' are
    second-order finite differences of the marched resolvent.  A nonzero
    velocity coefficient triggers a warning: the displacement-memory model has
    no w' term, so a further change of unknown is needed before reuse.
    """
    resolvent = maccamy_resolvent(kernel, grid)
    dt = grid.dt
    r1 = np.gradient(resolvent, dt, edge_order=2)
    r2 = _second_derivative(resolvent, dt)
    velocity_coeff = float(resolvent[0])
    b = float(r1[0])
    if abs(velocity_coeff) > 1e-12:
        warnings.warn(
            f"MacCamy reduction leaves a velocity term {velocity_coeff:+.6g} * w' "
            "because N(0) != 0; the displacement-memory model omits it",
            stacklevel=2,
        )
    return TransformedSystem(
        velocity_coeff=velocity_coeff,
        b=b,
        kernel_samples=r2,
        resolvent=resolvent,
        forcing_description="-R(t) w1 - R'(t) w0 (initial-data forcing)",
        degraded_accuracy=isinstance(kernel, SampledKernel),
    )
