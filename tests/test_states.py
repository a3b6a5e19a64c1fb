import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from edgelab import (
    BipartiteOperator,
    DimensionMismatchError,
    GramNotPSDError,
    GramSpec,
    InvalidParamError,
    OffdiagTooLargeError,
    choi_matrix,
    corner_state,
    edge_condition_holds,
    edge_state,
    face_state,
    classify,
    generalized_edge_state,
    min_psd_diagonal,
    offdiag_gram,
    phase_circulant,
    singular_gram_offdiags,
)
from edgelab import states
from edgelab.errors import EdgeLabError
from edgelab.linalg import _partial_transpose
from edgelab.states import _face_entries, build_family
from helpers import (
    OFFDIAG_SLACK,
    assert_same_outcome,
    cyclic_map_apply,
    edge_kernel_vector,
    edge_tau_kernel_vectors,
    golden_corner_matrix,
    golden_edge_matrix,
    golden_edge_tau,
    golden_type55_matrix,
    golden_type85_matrix,
    gram_realization,
    kernel_basis,
    numerical_rank,
    outcome,
    partial_transpose,
    product_vector,
    proj,
    psd_flag,
    random_edge_params,
    random_gram_spec,
    reference_choi_matrix,
    reference_corner_matrix,
    reference_edge_matrix,
    reference_face_entries,
    reference_face_matrix,
    reference_generalized_edge_matrix,
    separable_decomposition,
)

THETA = math.pi / 6


class TestPhaseCirculant:
    def test_annihilates_uniform_vector_exactly(self):
        for theta in (0.0, 0.3, -1.0, 2.5):
            out = phase_circulant(theta) @ np.ones(3)
            assert np.array_equal(out, np.zeros(3))

    def test_rank_two_inside_window(self):
        for theta in (-1.0, -0.3, 0.2, THETA, 1.0):
            assert numerical_rank(phase_circulant(theta)) == 2

    def test_rank_one_at_window_boundary(self):
        assert numerical_rank(phase_circulant(math.pi / 3)) == 1
        assert numerical_rank(phase_circulant(-math.pi / 3)) == 1

    def test_psd_exactly_on_window(self):
        for theta in np.linspace(-math.pi, math.pi, 101):
            if abs(abs(theta) - math.pi / 3) < 1e-6:
                continue
            assert psd_flag(phase_circulant(theta)) == (abs(theta) <= math.pi / 3)


class TestEdgeState:
    def test_matches_golden_entries_exactly(self):
        assert np.array_equal(edge_state(1.0, THETA).mat, golden_edge_matrix(1.0, THETA))
        assert np.array_equal(edge_state(0.7, -0.4).mat, golden_edge_matrix(0.7, -0.4))

    def test_partial_transpose_matches_golden(self):
        tau = _partial_transpose(edge_state(1.0, THETA).mat, 3, 3)
        assert np.array_equal(tau, golden_edge_tau(1.0, THETA))

    def test_rejects_nonpositive_b(self):
        with pytest.raises(InvalidParamError):
            edge_state(0.0, THETA)
        with pytest.raises(InvalidParamError):
            edge_state(-2.0, THETA)

    def test_ranks_and_ppt(self):
        s = edge_state(1.0, THETA)
        assert numerical_rank(s.mat) == 8
        assert numerical_rank(partial_transpose(s.mat, 3, 3)) == 6
        assert classify(s).is_ppt

    def test_kernel_dims_across_parameters(self, rng):
        for _ in range(50):
            b, theta = random_edge_params(rng)
            s = edge_state(b, theta)
            assert kernel_basis(s.mat).dim == 1
            assert kernel_basis(partial_transpose(s.mat, 3, 3)).dim == 3

    def test_kernel_contains_printed_vectors(self, rng):
        for _ in range(10):
            b, theta = random_edge_params(rng)
            s = edge_state(b, theta)
            assert kernel_basis(s.mat).residual(edge_kernel_vector()) <= 1e-10
            tau_kernel = kernel_basis(partial_transpose(s.mat, 3, 3))
            for v in edge_tau_kernel_vectors(b, theta):
                assert tau_kernel.residual(v) <= 1e-10

    def test_condition_predicate(self):
        assert edge_condition_holds(1.0, THETA)
        assert edge_condition_holds(5.0, -1.0)
        assert not edge_condition_holds(1.0, 0.0)
        assert not edge_condition_holds(1.0, math.pi / 3)
        assert not edge_condition_holds(-1.0, THETA)


class TestMinPsdDiagonal:
    def test_value_at_zero(self):
        assert min_psd_diagonal(0.0) == pytest.approx(2.0)

    def test_matches_eigenvalue_oracle(self):
        # smallest admissible diagonal = largest eigenvalue of the negated
        # off-diagonal pattern
        for theta in np.linspace(-math.pi, math.pi, 181):
            offdiag = phase_circulant(theta) - 2 * math.cos(theta) * np.eye(3)
            needed = np.linalg.eigvalsh(-offdiag)[-1]
            assert min_psd_diagonal(theta) == pytest.approx(needed, abs=1e-12)

    def test_right_angle_value(self):
        # the eigenvalue oracle gives sqrt(3) here, not 2
        assert min_psd_diagonal(math.pi / 2) == pytest.approx(math.sqrt(3))

    def test_smallest_diagonal_property(self):
        for k in range(10):
            theta = 0.2 * k * math.pi
            a = min_psd_diagonal(theta)
            core = phase_circulant(theta) + (a - 2 * math.cos(theta)) * np.eye(3)
            assert psd_flag(core)
            assert not psd_flag(core - 1e-3 * np.eye(3))


class TestGeneralizedEdgeState:
    def test_coincides_with_edge_state_inside_quarter_pi(self):
        for theta in np.linspace(-math.pi / 4, math.pi / 4, 11):
            lhs = generalized_edge_state(1.3, theta).mat
            rhs = edge_state(1.3, theta).mat
            assert np.array_equal(lhs, rhs)

    def test_ppt_for_every_theta(self):
        for theta in np.linspace(-math.pi, math.pi, 41):
            assert classify(generalized_edge_state(2.0, theta)).is_ppt

    def test_ppt_at_wide_angle(self):
        assert classify(generalized_edge_state(1.0, 0.9 * math.pi)).is_ppt

    def test_tau_kernel_unchanged_where_diagonal_agrees(self):
        b, theta = 2.0, 0.25  # |theta| <= pi/4, so the diagonal is unchanged
        tau_kernel = kernel_basis(partial_transpose(generalized_edge_state(b, theta).mat, 3, 3))
        for v in edge_tau_kernel_vectors(b, theta):
            assert tau_kernel.residual(v) <= 1e-10


def rotated_edge_matrix(b: float, phi: float) -> np.ndarray:
    """``(I (x) D_k) edge_state(b, theta) (I (x) D_k)^H`` with k the integer nearest
    ``phi / (2 pi/3)``, ``theta = phi - 2 pi k/3`` and ``D_k = diag(1, w^-k, w^-2k)``,
    ``w = e^{2 pi i/3}``: the generalized family's member at phi in another basis."""
    k = round(phi / (2 * math.pi / 3))
    d = np.tile([cmath.exp(-2j * math.pi * (j * k % 3) / 3) for j in range(3)], 3)
    return d[:, None] * edge_state(b, phi - 2 * math.pi * k / 3).mat * d.conj()


class TestGeneralizedIsRotatedEdge:
    @given(phi=st.floats(-4 * math.pi, 4 * math.pi, exclude_min=True, exclude_max=True), log_b=st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_local_unitary_maps_the_edge_state_onto_it(self, phi, log_b):
        b = 10.0**log_b
        got, want = generalized_edge_state(b, phi).mat, rotated_edge_matrix(b, phi)
        # theta = phi - 2 pi k/3 and the angles inside min_psd_diagonal(phi) round by up to eps |phi|
        eps = np.finfo(float).eps
        assert np.abs(got - want).max() <= eps * (4 + 2 * abs(phi)) * np.abs(got).max()
        # off the odd multiples of pi/3, where a rank changes; within 10^+-3 every kept
        # eigenvalue is far above the rank threshold (ROADMAP item 15 covers larger scales)
        if abs(math.remainder(phi - math.pi / 3, 2 * math.pi / 3)) >= 1e-3:
            assert classify(BipartiteOperator(3, 3, want)).type == classify(generalized_edge_state(b, phi)).type


class TestCornerState:
    def test_matches_golden_entries(self):
        assert np.array_equal(corner_state(2.0).mat, golden_corner_matrix(2.0))

    def test_ranks_and_ppt(self):
        s = corner_state(2.0)
        assert numerical_rank(s.mat) == 7
        assert numerical_rank(partial_transpose(s.mat, 3, 3)) == 6
        assert classify(s).is_ppt

    def test_rejects_nonpositive_b(self):
        with pytest.raises(InvalidParamError):
            corner_state(-1.0)


class TestCyclicMap:
    def test_identity_input(self):
        assert_allclose(cyclic_map_apply(2, 1, 1, np.eye(3)), 4 * np.eye(3))

    def test_zero_input(self):
        assert_allclose(cyclic_map_apply(1, 2, 3, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_trace_scaling(self, rng):
        for _ in range(20):
            a, b, c = rng.uniform(0, 3, 3)
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            out = cyclic_map_apply(a, b, c, x)
            assert np.trace(out) == pytest.approx((a + b + c) * np.trace(x), abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            cyclic_map_apply(1, 1, 1, np.eye(2))

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidParamError):
            cyclic_map_apply(-1, 1, 1, np.eye(3))


class TestChoiMatrix:
    @staticmethod
    def _block_by_block(a, b, c):
        """The Choi matrix as the map's values on the matrix units, block by block."""
        mat = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                mat[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = cyclic_map_apply(a, b, c, unit)
        return mat

    def test_closed_form_equals_the_map_block_by_block(self, rng):
        boundary = [0.0, -0.0, 1e-320, 0.5, 1.0, 2.0, 1e300]
        weights = [(a, b, c) for a in boundary for b in boundary for c in boundary[::2]]
        weights += [tuple(w) for w in rng.uniform(0.0, 5.0, (200, 3))]
        for w in weights:
            got, ref = choi_matrix(*w).mat, self._block_by_block(*w)
            assert np.array_equal(got, ref), w
            for part in (np.real, np.imag):  # signed zeros too
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref))), w

    def test_rejects_negative_weights(self):
        for w in [(-1.0, 1.0, 1.0), (2.0, -1e-300, 1.0), (2.0, 1.0, -3.0)]:
            with pytest.raises(InvalidParamError):
                choi_matrix(*w)

    def test_reproduces_edge_state_at_zero_angle(self):
        for b in (0.5, 1.0, 3.0):
            assert np.array_equal(choi_matrix(2.0, b, 1 / b).mat, edge_state(b, 0.0).mat)

    def test_ppt_region_samples(self):
        s = choi_matrix(2.0, 3.0, 1 / 3)
        assert classify(s).is_ppt
        t = choi_matrix(1.9, 1.0, 1.0)
        assert not classify(t).is_psd

    def test_zero_map(self):
        s = choi_matrix(0.0, 0.0, 0.0)
        nonzero = s.mat[s.mat != 0]
        assert np.array_equal(np.diag(s.mat), np.zeros(9))
        assert np.all(nonzero == -1)
        tau = partial_transpose(s.mat, 3, 3)
        assert np.all(tau[tau != 0] == -1)
        assert not classify(s).is_psd


class TestSeparableDecomposition:
    def test_nine_product_pairs(self):
        pairs = separable_decomposition(2.0)
        assert len(pairs) == 9
        for x, y in pairs:
            assert x.shape == (3,) and y.shape == (3,)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_reconstructs_zero_angle_state(self, b):
        total = sum(proj(product_vector(x, y)) for x, y in separable_decomposition(b))
        assert np.max(np.abs(total / (3 * b) - edge_state(b, 0.0).mat)) <= 1e-12

    def test_rejects_nonpositive_b(self):
        with pytest.raises(InvalidParamError):
            separable_decomposition(0.0)


class TestOffdiagGram:
    def test_reduces_to_phase_circulant(self):
        e = -cmath.exp(1j * THETA)
        assert np.array_equal(offdiag_gram(THETA, e, e, e), phase_circulant(THETA))

    def test_hermitian(self, rng):
        g = offdiag_gram(0.4, 0.3 + 0.1j, -0.2j, 0.9)
        assert np.linalg.norm(g - g.conj().T) == 0.0

    def test_equal_negative_offdiagonals_are_rank_two(self):
        g = offdiag_gram(THETA, -math.cos(THETA), -math.cos(THETA), -math.cos(THETA))
        assert numerical_rank(g) == 2

    @pytest.mark.parametrize(
        "pattern, closed_form",
        [
            (
                lambda r: (r, -r, 1.0),
                lambda w, r: (1 + w) * (w * w - w - 2 * r * r),
            ),
            (
                lambda r: (1.0, 1.0, r),
                lambda w, r: (w - r) * (r * w + w * w - 2),
            ),
        ],
    )
    def test_determinant_closed_forms(self, rng, pattern, closed_form):
        for _ in range(10):
            theta = rng.uniform(-math.pi / 3, math.pi / 3)
            r = rng.uniform(-1, 1)
            w = 2 * math.cos(theta)
            det = np.linalg.det(offdiag_gram(theta, *pattern(r)))
            assert abs(det - closed_form(w, r)) <= 1e-12


class TestSingularGramOffdiags:
    def test_closed_form_roots_at_reference_angle(self):
        rho, sigma, tau = singular_gram_offdiags(THETA, 7)
        assert rho == pytest.approx(math.sqrt((3 - math.sqrt(3)) / 2))  # ~0.79623
        assert (sigma, tau) == (-rho, 1.0)
        rho, sigma, tau = singular_gram_offdiags(THETA, 6)
        assert (rho, sigma) == (1.0, 1.0)
        assert tau == pytest.approx(-1 / math.sqrt(3))  # ~-0.57735

    def test_determinant_vanishes_across_angles(self):
        for theta in np.linspace(-math.pi / 3 + 0.05, math.pi / 3 - 0.05, 15):
            if abs(theta) < 0.02:
                continue
            for target in (5, 6, 7, 8):
                g = offdiag_gram(theta, *singular_gram_offdiags(theta, target))
                assert abs(np.linalg.det(g)) <= 1e-10
                assert numerical_rank(g) == 2

    def test_rejects_invalid_angle_or_target(self):
        with pytest.raises(InvalidParamError):
            singular_gram_offdiags(0.0, 8)
        with pytest.raises(InvalidParamError):
            singular_gram_offdiags(math.pi / 2, 8)
        with pytest.raises(InvalidParamError):
            singular_gram_offdiags(THETA, 9)


class TestFaceState:
    def test_zero_couplings_reduce_to_edge_state(self):
        spec = GramSpec(THETA)
        assert np.array_equal(face_state(1.0, spec).mat, edge_state(1.0, THETA).mat)

    @pytest.mark.parametrize(
        "offdiags, expected",
        [
            ((0, 0, 0), (8, 6)),
            ((cmath.exp(0.3j), 0, 0), (7, 6)),
            ((cmath.exp(0.3j), cmath.exp(-0.1j), 0), (6, 6)),
            ((cmath.exp(0.3j), cmath.exp(-0.1j), cmath.exp(0.2j)), (5, 6)),
        ],
    )
    def test_types_by_unimodular_count(self, offdiags, expected):
        s = face_state(1.0, GramSpec(THETA, *offdiags))
        assert (numerical_rank(s.mat), numerical_rank(partial_transpose(s.mat, 3, 3))) == expected

    def test_golden_singular_family_matrices(self):
        for b, theta in ((1.0, THETA), (2.5, -0.5)):
            s85 = face_state(b, GramSpec(theta, *singular_gram_offdiags(theta, 8)))
            assert_allclose(s85.mat, golden_type85_matrix(b, theta), atol=1e-15)
            s55 = face_state(b, GramSpec(theta, *singular_gram_offdiags(theta, 5)))
            assert_allclose(s55.mat, golden_type55_matrix(b, theta), atol=1e-15)

    def test_build_family_needs_every_coupling(self):
        point = {"b": 1.0, "theta": THETA, "xi_eta": 0.3, "eta_zeta": -0.5j, "zeta_xi": 0j}
        want = face_state(1.0, GramSpec(THETA, 0.3, -0.5j, 0j)).mat
        assert np.array_equal(build_family("face", point).mat, want)
        # a library caller reads the key it left out, not a command-line option
        with pytest.raises(InvalidParamError, match="^family 'face' needs zeta_xi$"):
            build_family("face", {k: v for k, v in point.items() if k != "zeta_xi"})

    def test_rank_formulas_on_random_specs(self, rng):
        for _ in range(100):
            spec = random_gram_spec(rng)
            b = rng.uniform(0.2, 5.0)
            s = face_state(b, spec)
            blocks = [
                np.array([[1 / b, spec.xi_eta], [np.conj(spec.xi_eta), b]]),
                np.array([[1 / b, spec.eta_zeta], [np.conj(spec.eta_zeta), b]]),
                np.array([[b, spec.zeta_xi], [np.conj(spec.zeta_xi), 1 / b]]),
            ]
            p_expected = 2 + sum(numerical_rank(blk) for blk in blocks)
            q_expected = 3 + numerical_rank(spec.gram())
            assert numerical_rank(s.mat) == p_expected
            assert numerical_rank(partial_transpose(s.mat, 3, 3)) == q_expected

    def test_hadamard_cross_check(self, rng):
        # independent construction: realize the Gram vectors, embed them next
        # to an orthonormal triple, and Hadamard-multiply the two rank-one
        # patterns; the partial transpose must reproduce face_state.
        for _ in range(10):
            spec = random_gram_spec(rng)
            b = rng.uniform(0.3, 3.0)
            theta = spec.theta
            sb = math.sqrt(b)
            e = cmath.exp(1j * theta)
            p_vec = np.array(
                [1, 1 / sb, -sb * e, -sb * e, 1, 1 / sb, 1 / sb, -sb * e, 1]
            )
            v = gram_realization(spec.gram())  # rows: the three abstract vectors
            rows = np.zeros((9, v.shape[1] + 3), dtype=complex)
            rows[0, : v.shape[1]] = v[0]
            rows[4, : v.shape[1]] = v[1]
            rows[8, : v.shape[1]] = v[2]
            for slot, unit in ((1, 0), (3, 0), (5, 1), (7, 1), (2, 2), (6, 2)):
                rows[slot, v.shape[1] + unit] = 1.0
            tau_mat = proj(p_vec) * (rows @ rows.conj().T)
            cross = _partial_transpose(tau_mat, 3, 3)
            assert np.max(np.abs(cross - face_state(b, spec).mat)) <= 1e-10

    def test_rejects_oversized_coupling(self):
        with pytest.raises(OffdiagTooLargeError):
            face_state(1.0, GramSpec(THETA, 1.2, 0, 0))

    def test_rejects_indefinite_gram(self):
        # small diagonal with a unimodular coupling is not PSD
        with pytest.raises(GramNotPSDError):
            face_state(1.0, GramSpec(1.45, 1.0, 0, 0))


def test_all_constructors_hermitian(rng):
    samples = [
        edge_state(0.3, -0.7).mat,
        generalized_edge_state(2.0, 2.8).mat,
        corner_state(5.0).mat,
        choi_matrix(2.5, 1.2, 0.9).mat,
        face_state(1.4, random_gram_spec(rng)).mat,
        phase_circulant(1.1),
        offdiag_gram(0.5, 0.2 + 0.1j, -0.4, 0.8j),
    ]
    for m in samples:
        assert np.linalg.norm(m - m.conj().T) <= 1e-12


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_angles_and_couplings_rejected(bad):
    for build in (
        lambda: phase_circulant(bad),
        lambda: min_psd_diagonal(bad),
        lambda: edge_state(1.0, bad),
        lambda: generalized_edge_state(1.0, bad),
        lambda: offdiag_gram(0.5, 0, complex(bad, 0), 0),
        lambda: face_state(1.0, GramSpec(bad)),
        lambda: face_state(1.0, GramSpec(0.5, zeta_xi=complex(0, bad))),
    ):
        with pytest.raises(InvalidParamError, match="finite"):
            build()


# Parameters of every kind: a positive b from subnormal (whose 1/b overflows)
# to huge, b <= 0, non-finite values, couplings inside and outside the unit
# disk, and weights of either sign.
B_VALUES = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.floats(max_value=0.0),
    st.sampled_from([math.inf, math.nan]),
)
ANGLES = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([math.inf, -math.inf, math.nan]))
COUPLINGS = st.one_of(
    st.complex_numbers(max_magnitude=1.0),
    st.complex_numbers(min_magnitude=1.0, max_magnitude=1.5),
    st.sampled_from([complex(math.nan, 0.0), complex(0.0, math.inf)]),
)
WEIGHTS = st.one_of(st.floats(-1.0, 1e300), st.sampled_from([-0.0, 1e-320, math.inf, math.nan]))
BUILD_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class TestBuildsMatchTheirReferences:
    """Each family's one-scatter build gives the entries, signed zeros
    included, or the error of its earlier block-by-block build."""

    @given(b=B_VALUES, theta=ANGLES)
    @example(b=-1.0, theta=0.5)
    @example(b=0.0, theta=math.inf)
    @example(b=1.0, theta=math.nan)
    @example(b=1.0, theta=0.0)
    @BUILD_SETTINGS
    def test_edge_families(self, b, theta):
        assert_same_outcome(outcome(lambda: edge_state(b, theta).mat), outcome(reference_edge_matrix, b, theta))
        assert_same_outcome(
            outcome(lambda: generalized_edge_state(b, theta).mat),
            outcome(reference_generalized_edge_matrix, b, theta),
        )

    @given(b=B_VALUES)
    @example(b=-0.0)
    @BUILD_SETTINGS
    def test_corner_state(self, b):
        assert_same_outcome(outcome(lambda: corner_state(b).mat), outcome(reference_corner_matrix, b))

    @given(a=WEIGHTS, b=WEIGHTS, c=WEIGHTS)
    @example(a=-1.0, b=1.0, c=1.0)
    @example(a=math.nan, b=-1.0, c=1.0)  # a negative weight after a NaN one
    @example(a=-0.0, b=-0.0, c=1e-320)
    @BUILD_SETTINGS
    def test_choi_matrix(self, a, b, c):
        assert_same_outcome(outcome(lambda: choi_matrix(a, b, c).mat), outcome(reference_choi_matrix, a, b, c))

    @given(b=B_VALUES, theta=ANGLES, couplings=st.tuples(COUPLINGS, COUPLINGS, COUPLINGS))
    @example(b=-1.0, theta=0.5, couplings=(0j, 0j, 0j))  # b <= 0
    @example(b=1.0, theta=math.inf, couplings=(0j, 0j, 0j))  # a non-finite angle
    @example(b=1.0, theta=0.5, couplings=(1.5 + 0j, 0j, 0j))  # |c| > 1
    @example(b=1.0, theta=0.5, couplings=(1 + 0j, -1 + 0j, 1 + 0j))  # a Gram matrix that is not PSD
    @BUILD_SETTINGS
    def test_face_state(self, b, theta, couplings):
        spec = GramSpec(theta, *couplings)
        assert_same_outcome(outcome(lambda: face_state(b, spec).mat), outcome(reference_face_matrix, b, spec))

    @given(
        b=st.floats(min_value=1e-3, max_value=1e3),
        theta=st.floats(1e-3, math.pi / 3 - 1e-3),
        sign=st.sampled_from([1.0, -1.0]),
        target=st.integers(5, 8),
    )
    @BUILD_SETTINGS
    def test_face_state_on_singular_gram_matrices(self, b, theta, sign, target):
        """The couplings of the rank-five partial transposes, whose Gram
        matrices sit on the boundary of the PSD check."""
        offdiags = outcome(singular_gram_offdiags, sign * theta, target)
        if isinstance(offdiags, InvalidParamError):
            return
        spec = GramSpec(sign * theta, *offdiags)
        assert_same_outcome(outcome(lambda: face_state(b, spec).mat), outcome(reference_face_matrix, b, spec))


OMEGA = cmath.exp(2j * math.pi / 3)
# Real and imaginary parts with both signed zeros
PARTS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]))
# Moduli on either side of the coupling bound, exact on an axis
BOUND_RADII = st.sampled_from(
    [1 + OFFDIAG_SLACK, math.nextafter(1 + OFFDIAG_SLACK, 2.0), math.nextafter(1 + OFFDIAG_SLACK, 0.0), 1 + 2 * OFFDIAG_SLACK]
)


@st.composite
def face_inputs(draw):
    """(b, GramSpec) of every kind the face build checks: b of either sign or
    not finite, angles and couplings not finite, couplings with signed-zero
    parts, just inside or just past the bound, unimodular (whose Gram matrices
    are mostly not PSD), and those of the singular Gram matrices of p5."""
    b = draw(st.floats(1e-3, 1e3) if draw(st.booleans()) else st.one_of(B_VALUES, st.sampled_from([0.0, -0.0])))
    kind = draw(st.sampled_from(["any", "bound", "unimodular", "singular"]))
    if kind == "singular":
        theta = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-3, math.pi / 3 - 1e-3))
        return b, GramSpec(theta, *singular_gram_offdiags(theta, draw(st.integers(5, 8))))
    # mostly inside the edge region, so that many draws reach the Gram check and b
    theta = draw(ANGLES if draw(st.integers(0, 5)) == 0 else st.floats(-math.pi / 3, math.pi / 3))
    couplings = [draw(COUPLINGS if draw(st.integers(0, 5)) == 0 else st.builds(complex, PARTS, PARTS)) for _ in range(3)]
    if kind == "bound":
        r, sign = draw(BOUND_RADII), draw(st.sampled_from([1.0, -1.0]))
        on_axis = complex(sign * r, draw(st.sampled_from([0.0, -0.0])))
        couplings[draw(st.integers(0, 2))] = on_axis if draw(st.booleans()) else on_axis * 1j
    elif kind == "unimodular":
        couplings = [cmath.exp(1j * draw(st.floats(-math.pi, math.pi))) for _ in range(3)]
    return b, GramSpec(theta, *couplings)


class TestFaceEntriesInOnePass:
    """``_face_entries`` checks each input once and gives the entries, bit for
    bit, or the error, with its message, of the earlier build that checked
    theta three times and the couplings twice."""

    @given(case=face_inputs())
    # theta = pi/3 with every coupling e^{2 pi i/3}: a rank-1 Gram matrix, a double root at 0
    @example(case=(1.0, GramSpec(math.pi / 3, OMEGA, OMEGA, OMEGA)))
    @example(case=(-1.0, GramSpec(0.5, 1 + 0j, -1 + 0j, 1 + 0j)))  # b and the Gram both fail: the Gram first
    @example(case=(math.nan, GramSpec(0.5, 2 + 0j, 0j, 0j)))  # b and a coupling's modulus fail: the coupling first
    @example(case=(1.0, GramSpec(math.inf, 2 + 0j, 0j, 0j)))  # theta and a modulus fail: theta first
    @example(case=(1.0, GramSpec(-math.pi / 3, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0))))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_entries_and_errors_match_the_earlier_build(self, case):
        got, want = outcome(_face_entries, *case), outcome(reference_face_entries, *case)
        if isinstance(want, EdgeLabError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert not isinstance(got, EdgeLabError), got
            assert [type(v) for v in got] == [type(v) for v in want]
            bits = [np.array(entries, dtype=complex).view(np.uint64) for entries in (got, want)]
            assert np.array_equal(*bits)

    def test_rank_one_gram_on_the_boundary_passes_and_classifies_4_4(self):
        assert states.OFFDIAG_SLACK == OFFDIAG_SLACK
        assert classify(face_state(1.0, GramSpec(math.pi / 3, OMEGA, OMEGA, OMEGA))).type == (4, 4)
