"""Mixed Dirichlet-Neumann Laplacian eigenbases on boxes of one to three dimensions.

The box (0, L_1) x ... x (0, L_d) is clamped (Dirichlet) on the faces
{x_i = 0} through the origin and carries the traction control (Neumann) on
the faces {x_i = L_i}.  The interval is the 1-d box, whose one control face
is the point x = L, and the rectangle the 2-d box.  Eigenpairs solve
Delta phi = -mu^2 phi with those boundary conditions, are products of
per-axis half-integer sines, L2-orthonormal, and the stored boundary data
are the raw traces phi|_{Gamma_1} at the control-face quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .quadrature import PANEL_ORDER, gauss_legendre_panels

_LENGTH_COUNTS = {
    "interval": (1, 1, "exactly one length"),
    "rectangle": (2, 2, "exactly two lengths"),
    "box": (1, 3, "1 to 3 lengths"),
}


@dataclass(frozen=True)
class Geometry:
    """Domain description: the box with these lengths per axis, of a kind
    that fixes their count, 'interval' (1), 'rectangle' (2) or 'box' (1 to 3)."""

    kind: str
    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        if not isinstance(self.kind, str) or self.kind not in _LENGTH_COUNTS:
            raise ValueError(f"unsupported geometry kind {self.kind!r}")
        least, most, counts = _LENGTH_COUNTS[self.kind]
        if not least <= len(lengths) <= most:
            raise ValueError(f"{self.kind} geometry takes {counts}")
        if any(not np.isfinite(v) or v <= 0.0 for v in lengths):
            raise ValueError(f"geometry lengths must be positive and finite, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def interval(cls, length: float) -> "Geometry":
        return cls("interval", (length,))

    @classmethod
    def rectangle(cls, a: float, b: float) -> "Geometry":
        return cls("rectangle", (a, b))

    @property
    def dimension(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class SpectralBasis:
    """Sorted eigenfrequencies, control-face traces, and the face quadrature.

    mu[i] is the i-th eigenfrequency (ascending), traces[i, q] the trace of the
    i-th eigenfunction at control-face quadrature node q, and labels[i] the
    per-axis mode indices (1-based).  quad_nodes holds the node coordinates,
    quad_weights the matching weights, so control-face integrals are
    sum_q quad_weights[q] * (...)
    """

    geometry: Geometry
    mu: np.ndarray
    traces: np.ndarray
    labels: tuple
    quad_nodes: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a non-empty 1-d array")
        if np.any(mu <= 0.0) or np.any(np.diff(mu) < -1e-12):
            raise ValueError("eigenfrequencies must be positive and ascending")
        if self.traces.shape != (mu.size, self.quad_weights.size):
            raise ValueError("traces must have shape (n_modes, n_quad_nodes)")
        if not (np.all(np.isfinite(self.traces)) and np.all(np.isfinite(mu))):
            raise ValueError("basis data must be finite")
        if np.any(np.asarray(self.quad_weights) <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n_modes(self) -> int:
        return self.mu.size

    @property
    def n_quad(self) -> int:
        return self.quad_weights.size


def _lowest_modes(lengths: tuple, n_modes: int):
    """Indices (1-based), per-axis frequencies and eigenfrequencies of the
    box's n_modes lowest modes, sorted by (mu, indices).

    They and their ties have no index above n_modes (lowering it gives
    n_modes modes below), nor an own frequency above a bound at or above
    mu_M.  The bound starts from Weyl's count, or the fundamental if higher,
    and grows by a tenth until the box under both caps holds n_modes modes
    at or below it (one index more for rounding).
    """
    d, length = len(lengths), np.array(lengths)
    spacing = math.prod((math.pi / v) ** (1 / d) for v in lengths)  # geometric mean of pi / L_i
    weyl = 2.0 * spacing * (n_modes * math.gamma(1 + d / 2)) ** (1 / d) / math.sqrt(math.pi)
    bound = max(weyl, math.hypot(*(0.5 * math.pi / v for v in lengths)))
    while True:
        caps = [int(min(n_modes, bound * v / math.pi + 1.5)) for v in lengths]
        index = np.indices(caps).reshape(d, -1).T + 1
        freqs = (index - 0.5) * np.pi / length
        # A hypot chain over the sorted frequencies gives permuted indices
        # on equal lengths the same mu, bit for bit.
        mu = reduce(np.hypot, np.sort(freqs, axis=1).T)
        if np.count_nonzero(mu <= bound) >= n_modes:
            keep = np.lexsort((*index.T[::-1], mu))[:n_modes]
            return index[keep], freqs[keep], mu[keep]
        bound *= 1.1


def default_nodes_per_face(geometry: Geometry, n_modes: int) -> int:
    """Nodes per face axis for the n_modes lowest modes, one panel per index up
    to their largest: their trace products integrate to near machine accuracy."""
    return PANEL_ORDER * int(_lowest_modes(geometry.lengths, n_modes)[0].max())


def build_basis(geometry: Geometry, n_modes: int, nodes_per_face=None) -> SpectralBasis:
    """The n_modes lowest modes of the box (0, L_1) x ... x (0, L_d),

        phi_k(x) = norm prod_i sin(f_i x_i),   f_i = (k_i - 1/2) pi / L_i,

    norm = 2^(d/2) / sqrt(L_1 ... L_d) and mu_k = |f|, sorted by mu, then k,
    so each basis is the leading rows of every larger one.  The face
    {x_i = L_i} carries the tensor product of composite Gauss-Legendre rules
    of nodes_per_face nodes (default default_nodes_per_face) on the other
    axes, and there the trace is norm * s_1 * ... * s_d, left to right, with
    s_i = sin(f_i L_i) and s_j = sin(f_j x_j); the interval's face is the
    point x = L with weight 1.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    lengths, d = geometry.lengths, geometry.dimension
    index, freqs, mu = _lowest_modes(lengths, n_modes)
    if nodes_per_face is None:
        nodes_per_face = PANEL_ORDER * int(index.max())
    # The interval keeps sqrt(2/L), which 2^(1/2) / sqrt(L) does not always round to.
    norm = np.sqrt(2.0 / lengths[0]) if d == 1 else 2.0 ** (d / 2) / np.sqrt(np.prod(lengths))

    # Face i's grid lays axis j along array axis j: the panel rule on every
    # other axis (the interval has none), the one point L_i of weight 1 on i.
    along = [(1,) * j + (-1,) + (1,) * (d - 1 - j) for j in range(d)]
    freqs = freqs.T.reshape((d, -1) + (1,) * d)
    panels = [gauss_legendre_panels(v, nodes_per_face) for v in lengths] if d > 1 else [None]
    traces, nodes, weights = [], [], []
    for i in range(d):
        rules = panels[:i] + [(np.array([lengths[i]]), np.ones(1))] + panels[i + 1 :]
        x, w = ([a.reshape(shape) for a, shape in zip(column, along)] for column in zip(*rules))
        sines = map(np.sin, map(np.multiply, freqs, x))
        traces.append(reduce(np.multiply, sines, norm).reshape(mu.size, -1))
        nodes.append(np.stack(np.broadcast_arrays(*x), axis=-1).reshape(-1, d))
        weights.append(reduce(np.multiply, w).ravel())
    return SpectralBasis(
        geometry=geometry,
        mu=mu,
        traces=np.concatenate(traces, axis=1),
        labels=tuple(map(tuple, index.tolist())),
        quad_nodes=np.vstack(nodes),
        quad_weights=np.concatenate(weights),
    )


def build_interval_basis(length: float, n_modes: int) -> SpectralBasis:
    """build_basis on (0, length), controlled at x = length."""
    return build_basis(Geometry.interval(length), n_modes)


def build_rectangle_basis(a: float, b: float, n_modes: int, nodes_per_face=None) -> SpectralBasis:
    """build_basis on (0, a) x (0, b), controlled on the faces {x = a} and {y = b}."""
    return build_basis(Geometry.rectangle(a, b), n_modes, nodes_per_face)


def control_time_lower_bound(geometry: Geometry) -> float:
    """Sharp horizon 2 * inf_{x0} sup_{x in Omega} |x - x0| for these boxes.

    The multiplier point must keep the clamped faces in the inflow part of the
    boundary, which pins x0 to the clamped corner, the origin: the bound is
    2 |L|, twice the hypot chain of the lengths (2 L on the interval,
    2 sqrt(a^2 + b^2) on the rectangle).
    """
    return 2.0 * float(reduce(np.hypot, geometry.lengths))


@dataclass(frozen=True)
class TraceEstimateReport:
    ratios: np.ndarray
    max_ratio: float
    argmax_mode: int


def trace_estimate_check(basis: SpectralBasis) -> TraceEstimateReport:
    """Ratios ||phi_n|Gamma_1||_{L2(Gamma_1)} / mu_n^(1/3) for the stored modes.

    The trace norms of this eigenfamily grow no faster than mu^(1/3), so the
    ratio should be bounded by (roughly) its first-mode value.
    """
    norms = np.sqrt(np.sum(basis.quad_weights * basis.traces**2, axis=1))
    ratios = norms / basis.mu ** (1.0 / 3.0)
    k = int(np.argmax(ratios))
    return TraceEstimateReport(ratios=ratios, max_ratio=float(ratios[k]), argmax_mode=k)


def weyl_growth_constant(basis: SpectralBasis) -> float:
    """min_n mu_n / n^(1/d) over the stored modes (1-based n); positive growth rate."""
    d = basis.geometry.dimension
    n = np.arange(1, basis.n_modes + 1)
    return float(np.min(basis.mu / n ** (1.0 / d)))
