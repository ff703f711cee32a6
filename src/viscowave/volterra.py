"""Second-kind Volterra integral equations on uniform grids.

Equations y(t) = g(t) + int_0^t kappa(t - s) y(s) ds with a difference kernel,
given as its samples kappa(t_j) on the grid, are solved by product-trapezoid
marching (second order), which on nodes >= 1 is one lower-triangular
Toeplitz system solved by a power-series reciprocal and an FFT product.
The march is the package's one Volterra solver; the tests keep Picard
iteration on the same quadrature as its independent oracle.  The march takes
a FactoredKernel: the samples, their step dt and, from the first march on,
the reciprocal of each kernel row, which depends on the kernel alone, kept
as its spectrum at the length of the full product.  Each forcing row then
costs one forward and one inverse real FFT, and a caller that solves
several problems with one kernel inverts it once.  Inside the reciprocal
both products of a Newton step are cyclic at one length and share the
spectrum of the known coefficients.  The FFTs run on numpy.fft at 5-smooth
lengths (quadrature.next_fast_len); each call allocates its zero-padded
operands and spectra once and hands them to every FFT as out=.  A solution
that leaves the float range raises MarchOverflowError.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .quadrature import next_fast_len

# |1 - (dt/2) kappa(0)| below this is treated as a singular diagonal factor.
_SINGULAR_TOL = 1e-12
# Rows go through the FFTs in blocks of about this many samples (bounds temporaries).
_BLOCK_SAMPLES = 2**16
_OVERFLOW = "the memory term overflowed the float range; shorten the horizon or weaken the kernel"


class StepSizeError(RuntimeError):
    """Marching diagonal factor 1 - (dt/2) kappa(0) is numerically singular."""


class MarchOverflowError(RuntimeError):
    """A marched solution left the float range (overflow or NaN)."""


class FactoredKernel:
    """Difference-kernel samples on a grid of step dt, to be marched.

    march_difference_kernel takes one with its forcing.  The reciprocals
    are computed by the first march and kept as their spectra, so every
    march through one FactoredKernel inverts each kernel row once.
    """

    def __init__(self, kernel: np.ndarray, dt: float):
        k = np.asarray(kernel, dtype=float)
        if np.any(np.abs(1.0 - 0.5 * dt * k[..., 0]) < _SINGULAR_TOL):
            raise StepSizeError(
                "singular diagonal factor 1 - dt/2*k(0) at node 1; reduce the step size"
            )
        self.kernel = k
        self.dt = dt
        self.memoryless = not np.any(k)
        # Cyclic products at the length of the full product h * rhs do not wrap.
        self.size = next_fast_len(max(1, 2 * k.shape[-1] - 3))

    @cached_property
    def spectra(self) -> np.ndarray:
        """rfft of h per kernel row at length self.size, where h holds the
        leading coefficients of 1/a(z); one out of the float range raises."""
        n = self.kernel.shape[-1]
        k_rows = self.kernel.reshape(-1, n)
        step = max(1, _BLOCK_SAMPLES // n)
        spectra = np.empty((len(k_rows), self.size // 2 + 1), dtype=complex)
        # Every block reuses one zero-padded h.
        h = np.zeros((min(step, len(k_rows)), self.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, len(k_rows), step):
                a = -self.dt * k_rows[s : s + step, : n - 1]
                a[:, 0] = 1.0 - 0.5 * self.dt * k_rows[s : s + step, 0]
                h[: len(a), : n - 1] = _reciprocal(a)
                np.fft.rfft(h[: len(a)], axis=-1, out=spectra[s : s + step])
        if not np.isfinite(spectra).all():
            raise MarchOverflowError(_OVERFLOW)
        return spectra

    def reciprocal(self) -> np.ndarray:
        """h per kernel row, shape kernel.shape[:-1] + (n - 1,): the march's
        response to a unit forcing at node 1, read back from `spectra` a
        block of rows at a time, so no row is held at the full length."""
        n = self.kernel.shape[-1]
        if self.memoryless:
            h = np.zeros(self.kernel.shape[:-1] + (n - 1,))
            h[..., 0] = 1.0
            return h
        spectra = self.spectra
        step = max(1, _BLOCK_SAMPLES // n)
        h = np.empty((len(spectra), n - 1))
        full = np.empty((min(step, len(spectra)), self.size))
        for s in range(0, len(spectra), step):
            r = len(spectra[s : s + step])
            np.fft.irfft(spectra[s : s + step], self.size, axis=-1, out=full[:r])
            h[s : s + r] = full[:r, : n - 1]
        return h.reshape(self.kernel.shape[:-1] + (n - 1,))


def march_difference_kernel(
    factored: FactoredKernel, forcing: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Trapezoid marching for difference kernels, batched over leading axes.

    The kernel samples of factored and forcing broadcast against each
    other; time is the last axis.  Each step solves the scalar implicit
    equation

        y_j (1 - dt/2 k_0) = g_j + dt (1/2 k_j y_0 + sum_{0<i<j} k_{j-i} y_i).

    On nodes >= 1 this is y = h * (g + dt/2 k g_0), with h the leading
    coefficients of 1/a(z), a(z) = (1 - dt/2 k_0) - dt sum_{i>=1} k_i z^i.
    h depends on the kernel alone, so factored computes it once per kernel
    row and keeps its spectrum, shared by every forcing row that row
    broadcasts against.  A non-finite solution raises MarchOverflowError.
    The solution goes to out if given, a C-contiguous float array of the
    broadcast shape, which may be the forcing itself: each block of rows is
    read before it is written.
    """
    f = np.asarray(forcing, dtype=float)
    k, dt = factored.kernel, factored.dt
    shape = np.broadcast_shapes(k.shape, f.shape)
    n = shape[-1]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of shape {shape}")
    if factored.memoryless:
        # Every step returns its forcing sample.
        np.copyto(out, f)
        return out
    f_rows = np.broadcast_to(f, shape).reshape(-1, n)
    k_rows = k.reshape(-1, n)
    # The row of k_rows each output row reads; h is computed once per k row.
    k_of = np.broadcast_to(np.arange(len(k_rows)).reshape(k.shape[:-1]), shape[:-1]).reshape(-1)
    step = max(1, _BLOCK_SAMPLES // n)
    y = out.reshape(-1, n)
    # An overflow anywhere shows as a non-finite y, checked once below.
    with np.errstate(over="ignore", invalid="ignore"):
        h_spec, size = factored.spectra, factored.size
        # Every block reuses one zero-padded rhs, its spectrum and the product.
        rhs = np.zeros((min(step, len(y)), size))
        spec = np.empty((len(rhs), size // 2 + 1), dtype=complex)
        full = np.empty_like(rhs)
        for s in range(0, len(y), step):
            ks, fr = k_of[s : s + step], f_rows[s : s + step]
            r = len(fr)
            g = np.multiply(k_rows[ks, 1:], 0.5 * dt, out=rhs[:r, : n - 1])
            g *= fr[:, :1]
            g += fr[:, 1:]
            np.fft.rfft(rhs[:r], axis=-1, out=spec[:r])
            spec[:r] *= h_spec[ks]
            np.fft.irfft(spec[:r], size, axis=-1, out=full[:r])
            y[s : s + r, 0] = fr[:, 0]
            y[s : s + r, 1:] = full[:r, : n - 1]
    if not np.isfinite(y).all():
        raise MarchOverflowError(_OVERFLOW)
    return out


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """Leading coefficients of 1/a(z) per row by Newton doubling: if h holds the
    first m, then a h = 1 + z^m e(z) and the next m are those of -h e.

    Both products of a step to `top` coefficients are cyclic at one length
    L >= top and share the spectrum of h: the wrap-around of a h lands below
    z^m, where e is not read, and h e has fewer than L terms."""
    rows, n = a.shape
    h = np.empty_like(a)
    h[:, 0] = 1.0 / a[:, 0]
    # Each step's zero-padded operand and two spectra are contiguous leading
    # parts of buffers sized for the last step.
    last = next_fast_len(n)
    real = np.empty(rows * last)
    spectra = np.empty((2, rows * (last // 2 + 1)), dtype=complex)
    m = 1
    while m < n:
        top = min(2 * m, n)
        size = next_fast_len(top)
        x = real[: rows * size].reshape(rows, size)
        h_spec, e_spec = spectra[:, : rows * (size // 2 + 1)].reshape(2, rows, -1)
        x[:, :m] = h[:, :m]
        x[:, m:] = 0.0
        np.fft.rfft(x, axis=-1, out=h_spec)
        x[:, :top] = a[:, :top]
        x[:, top:] = 0.0
        np.fft.rfft(x, axis=-1, out=e_spec)
        # Operands in a fixed order, a's spectrum times h's here and h's times
        # e's below: numpy's complex product is not bitwise commutative.
        e_spec *= h_spec
        np.fft.irfft(e_spec, size, axis=-1, out=x)
        # e: coefficients m..top-1 of a h, moved to the front.
        x[:, : top - m] = x[:, m:top]
        x[:, top - m :] = 0.0
        np.fft.rfft(x, axis=-1, out=e_spec)
        np.multiply(h_spec, e_spec, out=e_spec)
        np.fft.irfft(e_spec, size, axis=-1, out=x)
        h[:, m:top] = -x[:, : top - m]
        m = top
    return h
