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
from typing import Union

import numpy as np

from .grids import TimeGrid
from .quadrature import trapezoid_convolve
from .volterra import VolterraProblem, solve_marching


class Kernel:
    """Base class for convolution kernel descriptors; subclasses sample values."""

    def values(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroKernel(Kernel):
    def values(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    level: float

    def __post_init__(self):
        if not np.isfinite(self.level):
            raise ValueError("constant kernel level must be finite")

    def values(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.level)


@dataclass(frozen=True)
class ExponentialKernel(Kernel):
    """kappa * exp(-rate * t) with rate >= 0."""

    amplitude: float
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and np.isfinite(self.rate)):
            raise ValueError("exponential kernel parameters must be finite")
        if self.rate < 0.0:
            raise ValueError(f"exponential decay rate must be >= 0, got {self.rate}")

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class PronyKernel(Kernel):
    """Prony series sum_i kappa_i exp(-rate_i t), all rates >= 0."""

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
            raise ValueError("Prony decay rates must all be >= 0")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "rates", rates)

    def values(self, t: np.ndarray) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        out = np.zeros_like(tt)
        for a, r in zip(self.amplitudes, self.rates):
            out += a * np.exp(-r * tt)
        return out


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


# The params each kernel family reads from a (family, params) spec.
FAMILY_PARAMS = {
    "zero": (),
    "constant": ("level",),
    "exponential": ("amplitude", "rate"),
    "prony": ("amplitudes", "rates"),
    "file": ("path",),
}


def kernel_from_spec(family: str, params: dict) -> Kernel:
    """Build a kernel descriptor from a configuration-style (family, params) pair."""
    if family == "zero":
        return ZeroKernel()
    if family == "constant":
        return ConstantKernel(level=float(params["level"]))
    if family == "exponential":
        return ExponentialKernel(amplitude=float(params["amplitude"]), rate=float(params["rate"]))
    if family == "prony":
        return PronyKernel(amplitudes=tuple(params["amplitudes"]), rates=tuple(params["rates"]))
    if family == "file":
        return SampledKernel.from_csv(params["path"])
    raise ValueError(f"unknown kernel family {family!r}; expected one of {tuple(FAMILY_PARAMS)}")


def _kernel_samples(kernel: Union[Kernel, np.ndarray], grid: TimeGrid) -> np.ndarray:
    if isinstance(kernel, Kernel):
        return np.asarray(kernel.values(grid.times), dtype=float)
    k = np.asarray(kernel, dtype=float)
    if k.shape[-1] != grid.n_nodes:
        raise ValueError(f"kernel samples have length {k.shape[-1]}, grid has {grid.n_nodes}")
    return k


def convolve(kernel: Union[Kernel, np.ndarray], g: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(K * g)(t_j) on the grid by the product trapezoid rule; O(dt^2).

    g may carry leading batch axes, which the kernel samples broadcast against.
    """
    gg = np.asarray(g, dtype=float)
    if gg.shape[-1] != grid.n_nodes:
        raise ValueError(f"signal has {gg.shape[-1]} samples but the grid has {grid.n_nodes}")
    k = _kernel_samples(kernel, grid)
    return trapezoid_convolve(k, gg, grid.dt)


def maccamy_resolvent(kernel: Union[Kernel, np.ndarray], grid: TimeGrid) -> np.ndarray:
    """Resolvent kernel R of N: the solution of R + N*R = N, sampled on the grid.

    Equivalently R = N - N*R, a second-kind Volterra equation with difference
    kernel -N, solved by trapezoid marching.  For N = 1 the resolvent is
    exp(-t); for N = 0 it vanishes.
    """
    n_samples = _kernel_samples(kernel, grid)
    problem = VolterraProblem(forcing=n_samples, kernel=-n_samples)
    return solve_marching(problem, grid)


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


def transformed_system(kernel: Union[Kernel, np.ndarray], grid: TimeGrid) -> TransformedSystem:
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
    degraded = isinstance(kernel, SampledKernel) or not isinstance(kernel, Kernel)
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
        degraded_accuracy=degraded,
    )
