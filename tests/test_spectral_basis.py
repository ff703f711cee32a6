import numpy as np
import pytest

from helpers import rectangle_basis_reference
from viscowave.spectral_basis import (
    Geometry,
    build_interval_basis,
    build_rectangle_basis,
    control_time_lower_bound,
    trace_estimate_check,
    weyl_growth_constant,
)


class TestGeometry:
    def test_constructors(self):
        assert Geometry.interval(2.0).lengths == (2.0,)
        assert Geometry.rectangle(1.0, 3.0).lengths == (1.0, 3.0)
        assert Geometry.interval(1.0).dimension == 1
        assert Geometry.rectangle(1.0, 1.0).dimension == 2

    @pytest.mark.parametrize(
        "kind,lengths",
        [
            ("interval", (1.0, 2.0)),
            ("rectangle", (1.0,)),
            ("disk", (1.0,)),
            ("interval", (0.0,)),
            ("rectangle", (1.0, -2.0)),
            ("interval", (np.inf,)),
        ],
    )
    def test_rejects_bad_descriptions(self, kind, lengths):
        with pytest.raises(ValueError):
            Geometry(kind, lengths)


class TestIntervalBasis:
    def test_unit_interval_frequencies_and_traces(self):
        basis = build_interval_basis(1.0, 3)
        assert np.allclose(basis.mu, [np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2], atol=1e-12)
        root2 = np.sqrt(2.0)
        assert np.allclose(basis.traces[:, 0], [root2, -root2, root2], atol=1e-12)
        assert basis.labels == ((1,), (2,), (3,))
        assert basis.n_quad == 1

    def test_length_two_fundamental(self):
        basis = build_interval_basis(2.0, 1)
        assert np.isclose(basis.mu[0], np.pi / 4, atol=1e-12)
        assert np.isclose(basis.traces[0, 0], 1.0, atol=1e-12)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            build_interval_basis(1.0, 0)


class TestRectangleBasis:
    def test_unit_square_fundamental(self):
        basis = build_rectangle_basis(1.0, 1.0, 1)
        assert abs(basis.mu[0] - 2.2214415) <= 1e-6
        assert basis.labels == ((1, 1),)

    def test_degenerate_pair_sorted_lexicographically(self):
        basis = build_rectangle_basis(1.0, 1.0, 2)
        assert basis.n_modes == 4
        assert abs(basis.mu[1] - 4.9672941) <= 1e-6
        assert abs(basis.mu[2] - basis.mu[1]) <= 1e-12
        assert basis.labels[1] == (1, 2)
        assert basis.labels[2] == (2, 1)
        assert np.all(np.diff(basis.mu) >= -1e-12)

    def test_control_face_quadrature_matches_closed_form(self):
        # For the unit square the control-face mass matrix of the tensor modes
        # has the closed form 2 (-1)^(m+m') delta_{n n'} + 2 (-1)^(n+n') delta_{m m'}:
        # half-integer sines are orthogonal with norm 1/2 on (0, 1) and take the
        # value (-1)^(m+1) at the controlled end.
        basis = build_rectangle_basis(1.0, 1.0, 3)
        n = basis.n_modes
        exact = np.empty((n, n))
        for i, (m1, n1) in enumerate(basis.labels):
            for j, (m2, n2) in enumerate(basis.labels):
                exact[i, j] = 2.0 * (-1.0) ** (m1 + m2) * (n1 == n2) + 2.0 * (-1.0) ** (
                    n1 + n2
                ) * (m1 == m2)
        quad = basis.traces @ (basis.quad_weights[:, None] * basis.traces.T)
        assert np.max(np.abs(quad - exact)) <= 1e-10
        assert abs(quad[0, 0] - 4.0) <= 1e-10

    def test_default_node_count_covers_requested_modes(self):
        basis = build_rectangle_basis(1.0, 1.0, 2)
        assert basis.n_quad >= 2 * (4 * 2 + 8)
        assert np.isclose(basis.quad_weights.sum(), 2.0, rtol=1e-14)

    def test_anisotropic_frequencies(self):
        basis = build_rectangle_basis(2.0, 1.0, 2)
        expected = sorted(
            np.hypot((m - 0.5) * np.pi / 2.0, (n - 0.5) * np.pi)
            for m in (1, 2)
            for n in (1, 2)
        )
        assert np.allclose(basis.mu, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "a, b, modes_per_axis, nodes_per_face",
        [(1.0, 1.0, 5, None), (1.0, 1.5, 8, 80), (2.0, 0.7, 13, 24), (1.0, 1.0, 40, 16)],
    )
    def test_matches_mode_by_mode_construction_bitwise(self, a, b, modes_per_axis, nodes_per_face):
        basis = build_rectangle_basis(a, b, modes_per_axis, nodes_per_face)
        face = basis.n_quad // 2
        ya, xb = basis.quad_nodes[:face, 1], basis.quad_nodes[face:, 0]
        mu, traces, labels = rectangle_basis_reference(a, b, modes_per_axis, ya, xb)
        assert basis.labels == labels
        assert np.array_equal(basis.mu, mu)
        assert np.array_equal(basis.traces, traces)


class TestControlTime:
    def test_interval_values(self):
        assert control_time_lower_bound(Geometry.interval(1.0)) == 2.0
        assert control_time_lower_bound(Geometry.interval(0.5)) == 1.0

    def test_unit_square_value(self):
        bound = control_time_lower_bound(Geometry.rectangle(1.0, 1.0))
        assert np.isclose(bound, 2.0 * np.sqrt(2.0), atol=1e-12)

    def test_scales_linearly_with_dilation(self):
        for c in (0.5, 2.0, 3.7):
            assert np.isclose(
                control_time_lower_bound(Geometry.rectangle(1.3 * c, 0.4 * c)),
                c * control_time_lower_bound(Geometry.rectangle(1.3, 0.4)),
                rtol=1e-14,
            )
            assert np.isclose(
                control_time_lower_bound(Geometry.interval(0.9 * c)),
                c * control_time_lower_bound(Geometry.interval(0.9)),
                rtol=1e-14,
            )


class TestTraceEstimate:
    def test_interval_ratio_peaks_at_first_mode(self):
        report = trace_estimate_check(build_interval_basis(1.0, 20))
        assert report.argmax_mode == 0
        assert abs(report.max_ratio - 1.2165829) <= 1e-6
        assert np.all(np.diff(report.ratios) < 0.0)

    def test_rectangle_ratio_bounded(self):
        report = trace_estimate_check(build_rectangle_basis(1.0, 1.0, 4))
        assert report.argmax_mode == 0
        assert np.all(np.diff(report.ratios) <= 1e-12)
        assert report.max_ratio <= 2.0


class TestWeylGrowth:
    def test_interval_constant(self):
        assert np.isclose(weyl_growth_constant(build_interval_basis(1.0, 12)), np.pi / 2, atol=1e-12)
        assert np.isclose(weyl_growth_constant(build_interval_basis(2.0, 12)), np.pi / 4, atol=1e-12)

    def test_rectangle_constant_positive(self):
        basis = build_rectangle_basis(1.0, 1.0, 3)
        c = weyl_growth_constant(basis)
        assert abs(c - 2.2214415) <= 1e-6
        assert np.all(basis.mu >= c * np.arange(1, basis.n_modes + 1) ** 0.5 - 1e-12)
