import numpy as np
import pytest

from helpers import rectangle_basis_reference
from viscowave.spectral_basis import (
    Geometry,
    build_interval_basis,
    build_rectangle_basis,
    control_time_lower_bound,
    default_nodes_per_face,
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
        basis = build_rectangle_basis(1.0, 1.0, 4)
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
        for n_modes in (9, 64, 400):
            basis = build_rectangle_basis(1.0, 1.0, n_modes)
            m, n = np.array(basis.labels).T
            sign_m, sign_n = (-1.0) ** np.add.outer(m, m), (-1.0) ** np.add.outer(n, n)
            exact = 2.0 * sign_m * np.equal.outer(n, n) + 2.0 * sign_n * np.equal.outer(m, m)
            quad = basis.traces @ (basis.quad_weights[:, None] * basis.traces.T)
            assert np.max(np.abs(quad - exact)) <= 1e-10, n_modes
            assert abs(quad[0, 0] - 4.0) <= 1e-10

    def test_default_node_count_covers_requested_modes(self):
        basis = build_rectangle_basis(1.0, 1.0, 4)
        assert basis.n_quad >= 2 * (4 * 2 + 8)
        assert np.isclose(basis.quad_weights.sum(), 2.0, rtol=1e-14)
        # One 8-point panel per index up to the largest: the 64 lowest modes of
        # the unit square reach (1, 9), the 16 lowest of a 1000 x 1 strip (16, 1).
        assert default_nodes_per_face(1.0, 1.0, 64) == 8 * 9
        assert build_rectangle_basis(1.0, 1.0, 64).n_quad == 2 * 8 * 9
        assert default_nodes_per_face(1000.0, 1.0, 16) == 8 * 16

    def test_default_node_count_selects_the_modes_once(self, lowest_mode_selections):
        assert build_rectangle_basis(1.0, 1.0, 64).n_quad == 2 * 8 * 9
        assert lowest_mode_selections == [(1.0, 1.0, 64)]

    def test_anisotropic_frequencies(self):
        basis = build_rectangle_basis(2.0, 1.0, 4)
        expected = sorted(
            np.hypot((m - 0.5) * np.pi / 2.0, (n - 0.5) * np.pi)
            for m in range(1, 5)
            for n in range(1, 5)
        )[:4]
        assert np.allclose(basis.mu, expected, atol=1e-12)
        assert basis.labels == ((1, 1), (2, 1), (3, 1), (1, 2))

    @pytest.mark.parametrize(
        "a, b, n_modes, nodes_per_face",
        [
            (1.0, 1.0, 1, None),
            (1.0, 2.0, 1, None),
            (5.0, 1.0, 2, None),
            (1.0, 3.0, 4, None),
            (1.0, 1.0, 9, None),
            (1.0, 1.0, 36, None),
            (1.0, 1.0, 64, None),  # (1, 9) at 8.5 pi, not the 8 x 8 box's (8, 8) at 10.6 pi
            (1.0, 1.0, 100, 16),
            (1.0, 3.0, 16, None),
            (3.0, 1.0, 16, None),
            (1000.0, 1.0, 16, None),
            (1.0, 1.5, 64, 80),
            (2.0, 0.7, 169, 24),
        ],
    )
    def test_matches_mode_by_mode_construction_bitwise(self, a, b, n_modes, nodes_per_face):
        basis = build_rectangle_basis(a, b, n_modes, nodes_per_face)
        face = basis.n_quad // 2
        ya, xb = basis.quad_nodes[:face, 1], basis.quad_nodes[face:, 0]
        mu, traces, labels = rectangle_basis_reference(a, b, n_modes, ya, xb)
        assert basis.labels == labels
        assert np.array_equal(basis.mu, mu)
        assert np.array_equal(basis.traces, traces)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (1.0, 1.5)])
    def test_fewer_modes_are_the_leading_rows(self, a, b):
        # On the same face nodes, each basis is the prefix of every larger one.
        bases = [build_rectangle_basis(a, b, m, 40) for m in (1, 9, 16, 36, 64, 100)]
        large = bases[-1]
        for small in bases[:-1]:
            m = small.n_modes
            assert small.labels == large.labels[:m]
            assert np.array_equal(small.mu, large.mu[:m])
            assert np.array_equal(small.traces, large.traces[:m])
            assert np.array_equal(small.quad_nodes, large.quad_nodes)


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
        report = trace_estimate_check(build_rectangle_basis(1.0, 1.0, 16))
        assert report.argmax_mode == 0
        assert np.all(np.diff(report.ratios) <= 1e-12)
        assert report.max_ratio <= 2.0


class TestWeylGrowth:
    def test_interval_constant(self):
        assert np.isclose(weyl_growth_constant(build_interval_basis(1.0, 12)), np.pi / 2, atol=1e-12)
        assert np.isclose(weyl_growth_constant(build_interval_basis(2.0, 12)), np.pi / 4, atol=1e-12)

    def test_rectangle_constant_positive(self):
        basis = build_rectangle_basis(1.0, 1.0, 9)
        c = weyl_growth_constant(basis)
        assert abs(c - 2.2214415) <= 1e-6
        assert np.all(basis.mu >= c * np.arange(1, basis.n_modes + 1) ** 0.5 - 1e-12)
