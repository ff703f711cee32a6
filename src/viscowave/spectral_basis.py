"""Mixed Dirichlet-Neumann Laplacian eigenbases on intervals and rectangles.

The clamped part of the boundary (Dirichlet) is x = 0 on the interval and the
two faces through the origin on the rectangle; the remaining faces carry the
traction control (Neumann).  Eigenpairs solve Delta phi = -mu^2 phi with those
boundary conditions, are L2-orthonormal, and the stored boundary data are the
raw traces phi|_{Gamma_1} at the control-face quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import PANEL_ORDER, gauss_legendre_panels


@dataclass(frozen=True)
class Geometry:
    """Domain description: kind is 'interval' or 'rectangle', lengths per axis."""

    kind: str
    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        if self.kind == "interval":
            if len(lengths) != 1:
                raise ValueError("interval geometry takes exactly one length")
        elif self.kind == "rectangle":
            if len(lengths) != 2:
                raise ValueError("rectangle geometry takes exactly two lengths")
        else:
            raise ValueError(f"unsupported geometry kind {self.kind!r}")
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


def build_interval_basis(length: float, n_modes: int) -> SpectralBasis:
    """Eigenbasis of (0, length), clamped at 0, controlled at x = length.

    mu_n = (n - 1/2) pi / length and phi_n = sqrt(2/length) sin(mu_n x); the
    control face is the single endpoint x = length with unit weight, so the
    stored trace is sqrt(2/length) * (-1)^(n+1).
    """
    geometry = Geometry.interval(length)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    n = np.arange(1, n_modes + 1)
    mu = (n - 0.5) * np.pi / length
    traces = (np.sqrt(2.0 / length) * np.sin(mu * length))[:, None]
    return SpectralBasis(
        geometry=geometry,
        mu=mu,
        traces=traces,
        labels=tuple((int(i),) for i in n),
        quad_nodes=np.array([[length]]),
        quad_weights=np.array([1.0]),
    )


def _lowest_modes(a: float, b: float, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis indices (m, n) of the n_modes lowest modes, sorted by (mu, m, n)."""
    index = np.arange(1, n_modes + 1)
    alpha, beta = (index - 0.5) * np.pi / a, (index - 0.5) * np.pi / b
    # A ceil(n_modes / q) x q box holds n_modes modes at or below its corner
    # frequency; below the lowest corner lie O(n_modes) candidates.  Column m
    # takes the n with beta_n within that bound's reach, one more for rounding.
    bound = np.min(np.hypot(alpha[-(-n_modes // index) - 1], beta))
    reach = np.sqrt(bound**2 - alpha[alpha <= bound] ** 2)
    rows = np.minimum(np.searchsorted(beta, reach, side="right") + 1, n_modes)
    m = np.repeat(index[: rows.size], rows)
    n = np.arange(m.size) - np.repeat(np.cumsum(rows) - rows, rows) + 1
    keep = np.lexsort((n, m, np.hypot(alpha[m - 1], beta[n - 1])))[:n_modes]
    return m[keep], n[keep]


def _panel_nodes(m: np.ndarray, n: np.ndarray) -> int:
    return PANEL_ORDER * int(max(m.max(), n.max()))


def default_nodes_per_face(a: float, b: float, n_modes: int) -> int:
    """Nodes per control face for the n_modes lowest modes, one panel per per-axis index
    up to their largest: their trace products integrate to near machine accuracy."""
    return _panel_nodes(*_lowest_modes(a, b, n_modes))


def build_rectangle_basis(
    a: float, b: float, n_modes: int, nodes_per_face: int | None = None
) -> SpectralBasis:
    """The n_modes lowest modes of (0,a) x (0,b), clamped on {x=0} and {y=0}.

    Modes are products of per-axis half-integer sines,

        phi_{mn}(x, y) = 2/sqrt(ab) sin((m-1/2) pi x / a) sin((n-1/2) pi y / b),

    sorted by eigenfrequency, ties broken lexicographically in (m, n), so the
    n_modes-mode basis is the leading rows of every larger one.  The control
    faces {x=a} and {y=b} carry composite Gauss-Legendre quadrature;
    nodes_per_face defaults to default_nodes_per_face(a, b, n_modes).
    """
    geometry = Geometry.rectangle(a, b)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    m, n = _lowest_modes(a, b, n_modes)
    if nodes_per_face is None:
        nodes_per_face = _panel_nodes(m, n)
    alpha, beta = (m - 0.5) * np.pi / a, (n - 0.5) * np.pi / b
    mu = np.hypot(alpha, beta)
    labels = tuple(zip(m.tolist(), n.tolist()))

    ya, wa = gauss_legendre_panels(b, nodes_per_face)  # face x = a, parametrised by y
    xb, wb = gauss_legendre_panels(a, nodes_per_face)  # face y = b, parametrised by x
    nodes = np.vstack(
        [np.column_stack([np.full_like(ya, a), ya]), np.column_stack([xb, np.full_like(xb, b)])]
    )
    weights = np.concatenate([wa, wb])

    # Each face's trace is (norm * sin(alpha x)) * sin(beta y), computed in
    # place in one traces-sized array.
    norm = 2.0 / np.sqrt(a * b)
    traces = np.empty((mu.size, weights.size))
    on_xa, on_yb = traces[:, : ya.size], traces[:, ya.size :]
    np.sin(np.multiply.outer(beta, ya, out=on_xa), out=on_xa)
    on_xa *= (norm * np.sin(alpha * a))[:, None]
    np.sin(np.multiply.outer(alpha, xb, out=on_yb), out=on_yb)
    on_yb *= norm
    on_yb *= np.sin(beta * b)[:, None]

    return SpectralBasis(
        geometry=geometry,
        mu=mu,
        traces=traces,
        labels=labels,
        quad_nodes=nodes,
        quad_weights=weights,
    )


def control_time_lower_bound(geometry: Geometry) -> float:
    """Sharp horizon 2 * inf_{x0} sup_{x in Omega} |x - x0| for these geometries.

    The multiplier point must keep the clamped faces in the inflow part of the
    boundary, which pins x0 to the clamped corner: x0 = 0 on the interval
    (bound 2 L) and x0 = (0, 0) on the rectangle (bound 2 sqrt(a^2 + b^2)).
    """
    if geometry.kind == "interval":
        return 2.0 * geometry.lengths[0]
    a, b = geometry.lengths
    return 2.0 * float(np.hypot(a, b))


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
