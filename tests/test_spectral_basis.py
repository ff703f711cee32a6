import numpy as np
import pytest

from helpers import box_basis_reference
from viscowave.grids import TimeGrid
from viscowave.memory_kernel import MemoryKernel
from viscowave.modal_dynamics import basis_operator
from viscowave.spectral_basis import (
    Geometry,
    build_basis,
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
        assert [Geometry("box", (1.0,) * d).dimension for d in (1, 2, 3)] == [1, 2, 3]

    @pytest.mark.parametrize(
        "kind,lengths",
        [
            ("interval", (1.0, 2.0)),
            ("rectangle", (1.0,)),
            ("disk", (1.0,)),
            ("interval", (0.0,)),
            ("rectangle", (1.0, -2.0)),
            ("interval", (np.inf,)),
            ("box", (1.0, 0.0, 1.0)),
        ],
    )
    def test_rejects_bad_descriptions(self, kind, lengths):
        with pytest.raises(ValueError):
            Geometry(kind, lengths)

    @pytest.mark.parametrize(
        "kind, lengths, message",
        [
            ("interval", (1.0, 2.0), "interval geometry takes exactly one length"),
            ("rectangle", (1.0,), "rectangle geometry takes exactly two lengths"),
            ("box", (), "box geometry takes 1 to 3 lengths"),
            ("box", (1.0,) * 4, "box geometry takes 1 to 3 lengths"),
            ("disk", (1.0,), "unsupported geometry kind 'disk'"),
            (["box"], (1.0,), "unsupported geometry kind ['box']"),
        ],
    )
    def test_length_count_messages_name_the_kind(self, kind, lengths, message):
        with pytest.raises(ValueError) as error:
            Geometry(kind, lengths)
        assert str(error.value) == message


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
        assert default_nodes_per_face(Geometry.rectangle(1.0, 1.0), 64) == 8 * 9
        assert build_rectangle_basis(1.0, 1.0, 64).n_quad == 2 * 8 * 9
        assert default_nodes_per_face(Geometry.rectangle(1000.0, 1.0), 16) == 8 * 16

    def test_default_node_count_selects_the_modes_once(self, lowest_mode_selections):
        assert build_rectangle_basis(1.0, 1.0, 64).n_quad == 2 * 8 * 9
        assert lowest_mode_selections == [((1.0, 1.0), 64)]

    def test_anisotropic_frequencies(self):
        basis = build_rectangle_basis(2.0, 1.0, 4)
        expected = sorted(
            np.hypot((m - 0.5) * np.pi / 2.0, (n - 0.5) * np.pi)
            for m in range(1, 5)
            for n in range(1, 5)
        )[:4]
        assert np.allclose(basis.mu, expected, atol=1e-12)
        assert basis.labels == ((1, 1), (2, 1), (3, 1), (1, 2))



class TestBoxBasis:
    @pytest.mark.parametrize(
        "lengths, n_modes, nodes_per_face",
        [
            ((1.0,), 1, None),
            ((2.0,), 16, None),
            ((0.3,), 100, None),
            ((1.0,), 1000, None),
            ((1.0, 1.0), 1, None),
            ((1.0, 2.0), 1, None),
            ((5.0, 1.0), 2, None),
            ((1.0, 3.0), 4, None),
            ((1.0, 1.0), 9, None),
            ((1.0, 1.0), 36, None),
            ((1.0, 1.0), 64, None),  # (1, 9) at 8.5 pi, not the 8 x 8 box's (8, 8) at 10.6 pi
            ((1.0, 1.0), 100, 16),
            ((1.0, 3.0), 16, None),
            ((3.0, 1.0), 16, None),
            ((1000.0, 1.0), 16, None),
            ((1.0, 1.5), 64, 80),
            ((2.0, 0.7), 169, 24),
            ((1.0, 1.0, 1.0), 1, None),
            ((1.0, 1.0, 1.0), 64, 16),  # the cut splits the 9 modes at mu = 15.6292
            ((1.0, 2.0, 3.0), 40, 16),
            ((3.0, 1.0, 0.5), 50, 24),
        ],
    )
    def test_matches_mode_by_mode_construction_bitwise(self, lengths, n_modes, nodes_per_face):
        basis = build_basis(Geometry("box", lengths), n_modes, nodes_per_face)
        mu, traces, labels, nodes, weights = box_basis_reference(lengths, n_modes, nodes_per_face)
        assert basis.labels == labels
        assert np.array_equal(basis.mu, mu)
        assert np.array_equal(basis.quad_nodes, nodes)
        assert np.array_equal(basis.quad_weights, weights)
        assert np.array_equal(basis.traces, traces)

    @pytest.mark.parametrize(
        "lengths", [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (1.0, 1.5), (1.0, 1.0, 1.0), (1.0, 2.0, 3.0)]
    )
    def test_fewer_modes_are_the_leading_rows(self, lengths):
        # On the same face nodes, each basis is the prefix of every larger one.
        geometry = Geometry("box", lengths)
        bases = [build_basis(geometry, m, 40 if len(lengths) == 2 else 16) for m in (1, 9, 16, 36, 64, 100)]
        large = bases[-1]
        for small in bases[:-1]:
            m = small.n_modes
            assert small.labels == large.labels[:m]
            assert np.array_equal(small.mu, large.mu[:m])
            assert np.array_equal(small.traces, large.traces[:m])
            assert np.array_equal(small.quad_nodes, large.quad_nodes)

    @pytest.mark.parametrize("lengths, axis", [((1e9, 1.0), 0), ((1.0, 1.0, 1e9), 2)])
    def test_long_strips_enumerate_at_most_the_mode_count_per_axis(self, lengths, axis):
        # No index of the lowest modes exceeds their count, so the long axis
        # of a 1e9-long strip enumerates 16 indices, not some 10^9.
        basis = build_basis(Geometry("box", lengths), 16, 8)
        expected = np.ones((16, len(lengths)), dtype=int)
        expected[:, axis] = np.arange(1, 17)
        assert basis.labels == tuple(map(tuple, expected.tolist()))

    @pytest.mark.parametrize("n_modes", [9, 64, 256])
    def test_cube_face_quadrature_matches_closed_form(self, n_modes):
        # On the face x_i = 1 of the unit cube the traces' mass matrix is
        # 2 (-1)^(n_i + n_i') prod_{j != i} delta(n_j, n_j'): the norm is 2^(3/2),
        # and the half-integer sines are orthogonal with norm 1/2 on (0, 1).
        basis = build_basis(Geometry("box", (1.0, 1.0, 1.0)), n_modes)
        n = np.array(basis.labels).T
        same = [np.equal.outer(k, k) for k in n]
        exact = sum(
            2.0 * (-1.0) ** np.add.outer(n[i], n[i]) * same[i - 1] * same[i - 2] for i in range(3)
        )
        quad = basis.traces @ (basis.quad_weights[:, None] * basis.traces.T)
        assert np.max(np.abs(quad - exact)) <= 1e-12, n_modes

    def test_cube_shares_the_frequencies_of_permuted_indices(self):
        basis = build_basis(Geometry("box", (1.0, 1.0, 1.0)), 64)
        assert len(np.unique(basis.mu)) == 16
        assert len(np.unique(basis.mu[:16])) == 5
        op, rows = basis_operator(basis, MemoryKernel(), TimeGrid(1.0, 400), 64)
        assert op.mus.size == 16 and rows[-1] == 15
        assert np.array_equal(op.mus[rows], basis.mu)

    def test_default_node_count_per_face_axis(self):
        # The 16 lowest modes of the unit cube reach index 3, the 64 lowest 5:
        # three panels along each face axis, then five.
        cube = Geometry("box", (1.0, 1.0, 1.0))
        assert default_nodes_per_face(cube, 16) == 8 * 3
        assert build_basis(cube, 16).n_quad == 3 * 24**2
        assert build_basis(cube, 64).n_quad == 3 * 40**2
        assert np.isclose(build_basis(cube, 16).quad_weights.sum(), 3.0, rtol=1e-14)

    def test_interval_spellings_agree(self):
        # The interval's one face is its endpoint of weight 1, for any node count.
        interval = build_interval_basis(2.0, 8)
        for basis in (build_basis(Geometry("box", (2.0,)), 8), build_basis(Geometry.interval(2.0), 8, 64)):
            assert basis.labels == interval.labels
            assert np.array_equal(basis.mu, interval.mu)
            assert np.array_equal(basis.traces, interval.traces)
            assert np.array_equal(basis.quad_nodes, [[2.0]])
            assert np.array_equal(basis.quad_weights, [1.0])


class TestControlTime:
    def test_interval_values(self):
        assert control_time_lower_bound(Geometry.interval(1.0)) == 2.0
        assert control_time_lower_bound(Geometry.interval(0.5)) == 1.0

    def test_unit_square_value(self):
        bound = control_time_lower_bound(Geometry.rectangle(1.0, 1.0))
        assert np.isclose(bound, 2.0 * np.sqrt(2.0), atol=1e-12)

    def test_box_values(self):
        # 2 |L|, with x0 at the clamped corner.
        assert control_time_lower_bound(Geometry("box", (1.0, 1.0, 1.0))) == 2.0 * np.hypot(np.hypot(1.0, 1.0), 1.0)
        assert np.isclose(control_time_lower_bound(Geometry("box", (1.0, 2.0, 2.0))), 6.0, rtol=1e-15)
        assert control_time_lower_bound(Geometry("box", (0.5,))) == 1.0

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
