import cmath
import math

import numpy as np
import pytest

from edgelab import (
    Admissibility,
    BipartiteOperator,
    ConditionViolatedError,
    DimensionMismatchError,
    EdgeCertificate,
    GramSpec,
    InvalidParamError,
    NotHermitianError,
    choi_matrix,
    classify,
    classify_many,
    corner_state,
    edge_state,
    face_state,
    generalized_edge_state,
    phase_circulant,
    rank_bounds,
    singular_gram_offdiags,
    verify_edge_analytic,
)
from edgelab.classify import Classification, _classification, alternating_binomial_sum
from edgelab.linalg import _check_hermitian, _classify_stack, _rank_psd
from helpers import (
    check_range_criterion,
    choi_ppt_region,
    family_states,
    partial_transpose,
    product_vector,
    proj,
    random_edge_params,
    random_gram_spec,
    random_hermitian,
    random_unit,
    reconstruct_separable,
    separable_decomposition,
    tensor,
)

THETA = math.pi / 6


class TestClassify:
    def test_edge_family(self):
        c = classify(edge_state(1.0, THETA))
        assert c.is_psd and c.is_ppt
        assert c.type == (8, 6)
        assert c.kernel_dims == (1, 3)
        assert c.admissibility is Admissibility.ADMISSIBLE

    def test_product_projector(self, rng):
        x, y = random_unit(rng, 3), random_unit(rng, 3)
        c = classify(BipartiteOperator(3, 3, proj(tensor(x, y))))
        assert c.type == (1, 1)
        assert c.is_ppt
        assert c.admissibility is Admissibility.BELOW_LOWER_BOUND

    def test_all_unimodular_phase_couplings_give_5_5(self):
        spec = GramSpec(THETA, *singular_gram_offdiags(THETA, 5))
        c = classify(face_state(1.0, spec))
        assert c.type == (5, 5)
        assert c.is_ppt

    def test_type_plus_kernel_dims_sum_to_dimension(self, rng):
        c = classify(BipartiteOperator(3, 3, random_hermitian(rng, 9)))
        assert c.type[0] + c.kernel_dims[0] == 9
        assert c.type[1] + c.kernel_dims[1] == 9

    def test_type_symmetry_under_partial_transpose(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            s = BipartiteOperator(m, n, random_hermitian(rng, m * n))
            assert classify(BipartiteOperator(m, n, partial_transpose(s.mat, m, n))).type == classify(s).type[::-1]

    def test_rejects_non_hermitian(self):
        mat = np.zeros((9, 9))
        mat[0, 1] = 1.0
        with pytest.raises(NotHermitianError) as err:
            classify(BipartiteOperator(3, 3, mat))
        # one matrix in, so no index into a stack
        assert "stack" not in str(err.value)

    def test_one_state_takes_one_eigvalsh_call(self, monkeypatch):
        # below the split's gate: the state and its partial transpose in one call
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert classify(edge_state(1.0, THETA)).type == (8, 6)
        assert calls == [(2, 9, 9)]

    def test_family_type_coverage(self):
        one, two, three = cmath.exp(0.3j), cmath.exp(-0.1j), cmath.exp(0.2j)
        states = [
            edge_state(1.0, THETA),
            face_state(1.0, GramSpec(THETA, one, 0, 0)),
            face_state(1.0, GramSpec(THETA, one, two, 0)),
            face_state(1.0, GramSpec(THETA, one, two, three)),
        ] + [
            face_state(1.0, GramSpec(THETA, *singular_gram_offdiags(THETA, t)))
            for t in (8, 7, 6, 5)
        ]
        achieved = set()
        for s in states:
            c = classify(s)
            assert c.is_ppt
            assert c.admissibility is Admissibility.ADMISSIBLE
            achieved.add(c.type)
        assert achieved == {
            (8, 6), (7, 6), (6, 6), (5, 6),
            (8, 5), (7, 5), (6, 5), (5, 5),
        }


def _family_members(rng, count):
    """Seeded 3x3 members of the six bi-qutrit families plus the boundary points."""
    pi3 = math.pi / 3
    ops = [corner_state(1.0), choi_matrix(2.0, 1.0, 1.0)]
    for theta in (pi3, -pi3, 1e-4, pi3 - 1e-4):
        ops += [edge_state(1.0, theta), generalized_edge_state(1.0, theta)]
    for _ in range(count):
        b, theta = rng.uniform(0.1, 10.0), rng.uniform(-4.0, 4.0)
        _, inside = random_edge_params(rng)
        ops += [
            edge_state(b, theta),
            generalized_edge_state(b, theta),
            corner_state(b),
            choi_matrix(*rng.uniform(0.0, 4.0, 3)),
            face_state(b, random_gram_spec(rng)),
            face_state(b, GramSpec(inside, *singular_gram_offdiags(inside, int(rng.integers(5, 9))))),
        ]
    return ops


class TestClassifyMany:
    def test_equals_classify_state_by_state(self, rng):
        ops = _family_members(rng, 25)
        assert classify_many(ops) == [classify(s) for s in ops]

    def test_equals_classify_on_one_by_three_operators(self, rng):
        pi3 = math.pi / 3
        thetas = [pi3, -pi3, 1e-4, pi3 - 1e-4, 0.0] + rng.uniform(-4.0, 4.0, 20).tolist()
        ops = [BipartiteOperator(1, 3, phase_circulant(t)) for t in thetas]
        assert classify_many(ops) == [classify(s) for s in ops]

    def test_non_hermitian_in_the_middle_of_a_stack(self):
        bad = np.zeros((9, 9))
        bad[0, 1] = 1.0
        ops = [edge_state(1.0, THETA), BipartiteOperator(3, 3, bad), corner_state(2.0)]
        with pytest.raises(NotHermitianError, match="matrix 1 of the stack"):
            classify_many(ops)

    def test_mixed_dimensions(self):
        ops = [edge_state(1.0, THETA), BipartiteOperator(1, 3, phase_circulant(THETA))]
        with pytest.raises(DimensionMismatchError):
            classify_many(ops)

    def test_empty(self):
        assert classify_many([]) == []


def _near_hermitian() -> BipartiteOperator:
    mat = edge_state(1.0, THETA).mat.copy()
    mat[0, 4] += 1e-13
    return BipartiteOperator(3, 3, mat)


# Each family of states.FAMILIES, the 1 x 3 p-theta shape among them, then the
# other branches of _classify_stack: the zero matrix; 1e308 times the all-ones
# matrix, whose spectrum overflows and is read again from a sixteenth of it; a
# near-Hermitian matrix, which is symmetrized; and a mat in Fortran order.
ONE_STATE_CASES = [pytest.param(op, id=label) for label, op in family_states()] + [
    pytest.param(BipartiteOperator(3, 3, np.zeros((9, 9))), id="zero"),
    pytest.param(BipartiteOperator(3, 3, 1e308 * np.ones((9, 9))), id="1e308-ones"),
    pytest.param(_near_hermitian(), id="near-hermitian"),
    pytest.param(BipartiteOperator(3, 3, edge_state(0.7, -0.4).mat.T), id="fortran-order"),
]


class TestOneStateClassify:
    def test_the_cases_take_their_branches(self):
        near, fortran = _near_hermitian().mat[None], ONE_STATE_CASES[-1].values[0].mat
        assert _check_hermitian(near) is not near  # symmetrized, not passed on as it is
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        with np.errstate(over="ignore"):
            assert _rank_psd(np.linalg.eigvalsh(1e308 * np.ones((9, 9))))[0] == 0

    @pytest.mark.parametrize("op", ONE_STATE_CASES)
    def test_equals_classify_many_of_one_and_leaves_the_matrix_as_it_was(self, op):
        before = op.mat.tobytes()
        assert classify(op) == classify_many([op])[0]
        assert op.mat.tobytes() == before

    def test_non_hermitian_raises_the_same_message_on_both_paths(self):
        mat = edge_state(1.0, THETA).mat.copy()
        mat[0, 4] += 1e-3
        op = BipartiteOperator(3, 3, mat)
        with pytest.raises(NotHermitianError) as one:
            classify(op)
        with pytest.raises(NotHermitianError) as many:
            classify_many([op])
        assert str(one.value) == str(many.value)


class TestSharedClassifications:
    """Each verdict's Classification is built by ``_classification``, a bounded cache."""

    @staticmethod
    def fresh(op: BipartiteOperator) -> Classification:
        """The Classification of ``op`` built anew from ``_classify_stack``'s lists."""
        (p,), (q,), (p_psd,), (q_psd,) = _classify_stack(op.mat[None], op.m, op.n)
        d = op.m * op.n
        return Classification(
            is_psd=p_psd,
            is_ppt=p_psd and q_psd,
            type=(p, q),
            kernel_dims=(d - p, d - q),
            admissibility=rank_bounds(op.m, op.n, p, q) if p and q else Admissibility.BELOW_LOWER_BOUND,
        )

    def test_equal_to_a_fresh_one_field_by_field_and_shared(self):
        ops = [case.values[0] for case in ONE_STATE_CASES]
        ones = [classify(op) for op in ops]
        many = classify_many([op for op in ops if op.m == 3]) + classify_many([op for op in ops if op.m == 1])
        for c, op in zip(ones, ops):
            want = self.fresh(op)
            assert c == want
            for name in ("is_psd", "is_ppt", "type", "kernel_dims", "admissibility"):
                got, ref = getattr(c, name), getattr(want, name)
                assert got == ref and type(got) is type(ref)
            assert type(c.is_psd) is bool and type(c.is_ppt) is bool
            assert all(type(v) is int for v in (*c.type, *c.kernel_dims))
            assert type(c.type) is tuple and type(c.kernel_dims) is tuple
            assert type(c.admissibility) is Admissibility
        # the same verdicts from either function; the cache, which holds them all
        # here, hands out one object per verdict
        assert sorted(map(repr, many)) == sorted(map(repr, ones))
        for a in ones + many:
            for b in ones + many:
                assert (a is b) == (a == b)
        assert len({id(c) for c in ones}) < len(ones)  # some verdicts repeat

    def test_cache_is_bounded(self):
        info = _classification.cache_info()
        assert info.maxsize is not None and 0 < info.maxsize <= 4096
        assert info.currsize <= info.maxsize


class TestRankBounds:
    @pytest.mark.parametrize(
        "args, expected",
        [
            ((3, 3, 8, 6), Admissibility.ADMISSIBLE),
            ((3, 3, 6, 8), Admissibility.ADMISSIBLE),
            ((3, 3, 8, 7), Admissibility.FORCES_PRODUCT_VECTOR),
            ((3, 3, 7, 7), Admissibility.FORCES_PRODUCT_VECTOR),
            ((3, 3, 9, 9), Admissibility.FORCES_PRODUCT_VECTOR),
            ((3, 3, 3, 9), Admissibility.BELOW_LOWER_BOUND),
            ((3, 3, 9, 2), Admissibility.BELOW_LOWER_BOUND),
            ((2, 4, 5, 5), Admissibility.ADMISSIBLE),
        ],
    )
    def test_examples(self, args, expected):
        assert rank_bounds(*args) is expected

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParamError):
            rank_bounds(3, 3, 0, 5)
        with pytest.raises(InvalidParamError):
            rank_bounds(3, 3, 5, 10)
        with pytest.raises(InvalidParamError, match="local dimensions must be positive"):
            rank_bounds(0, 3, 1, 1)

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3)])
    def test_matches_polynomial_oracle(self, m, n):
        # independent route: the alternating sum is the coefficient of
        # x^(m-1) in (1 - x)^k (1 + x)^l
        def coeff_oracle(k, ell):
            poly = np.polynomial.polynomial
            prod = poly.polymul(poly.polypow([1.0, -1.0], k), poly.polypow([1.0, 1.0], ell))
            return int(round(prod[m - 1])) if m - 1 < len(prod) else 0

        mn = m * n
        boundary = 2 * mn - m - n + 2
        for p in range(1, mn + 1):
            for q in range(1, mn + 1):
                k, ell = mn - p, mn - q
                assert alternating_binomial_sum(k, ell, m) == coeff_oracle(k, ell)
                got = rank_bounds(m, n, p, q)
                if p <= max(m, n) or q <= max(m, n):
                    expected = Admissibility.BELOW_LOWER_BOUND
                elif p + q > boundary or (
                    p + q == boundary and coeff_oracle(k, ell) != 0
                ):
                    expected = Admissibility.FORCES_PRODUCT_VECTOR
                else:
                    expected = Admissibility.ADMISSIBLE
                assert got is expected


class TestRangeCriterion:
    def test_zero_angle_decomposition_witnesses(self):
        for b in (0.5, 2.0):
            res = check_range_criterion(edge_state(b, 0.0), separable_decomposition(b))
            assert res.holds
            assert res.span_dims == (8, 6)
            assert res.max_residual <= 1e-10

    def test_fails_on_edge_state(self):
        pairs = separable_decomposition(1.0)
        res = check_range_criterion(edge_state(1.0, THETA), pairs)
        assert not res.holds

    def test_empty_pairs(self):
        res = check_range_criterion(edge_state(1.0, 0.0), [])
        assert not res.holds
        assert res.span_dims == (0, 0)

    def test_single_product_projector(self, rng):
        x, y = random_unit(rng, 3), random_unit(rng, 3)
        s = BipartiteOperator(3, 3, proj(product_vector(x, y)))
        res = check_range_criterion(s, [(x, y)])
        assert res.holds
        assert res.span_dims == (1, 1)


class TestReconstructSeparable:
    @pytest.mark.parametrize("b", [1 / 3, 1.0, 3.0])
    def test_exact_reconstruction(self, b):
        assert reconstruct_separable(b) <= 1e-12

    def test_rejects_nonpositive_b(self):
        with pytest.raises(InvalidParamError):
            reconstruct_separable(-1.0)

    def test_mismatched_angle_has_visible_error(self):
        b = 2.0
        total = sum(
            proj(product_vector(x, y)) for x, y in separable_decomposition(b)
        )
        err = np.max(np.abs(total / (3 * b) - edge_state(b, 0.1).mat))
        assert err >= 2 * math.sin(0.05) - 1e-12


class TestChoiPptRegion:
    def test_boundary_samples(self):
        assert choi_ppt_region(2.0, 1.0, 1.0)
        assert not choi_ppt_region(3.0, 2.0, 0.4)
        assert not choi_ppt_region(1.999, 5.0, 5.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidParamError):
            choi_ppt_region(-0.1, 1.0, 1.0)

    def test_agrees_with_classifier_on_coarse_grid(self):
        vals = np.linspace(0.0, 4.0, 6)
        for a in vals:
            for b in vals:
                for c in vals:
                    if abs(a - 2) < 1e-6 or abs(b * c - 1) < 1e-6:
                        continue
                    assert classify(choi_matrix(a, b, c)).is_ppt == choi_ppt_region(a, b, c)


class TestEdgeCertificate:
    def test_certified_at_reference_parameters(self):
        trace = verify_edge_analytic(1.0, THETA)
        assert trace.verdict is EdgeCertificate.EDGE_CERTIFIED
        assert all(step.ok for step in trace.steps)
        assert all(step.margin > 0 for step in trace.steps)

    def test_certified_elsewhere(self):
        assert verify_edge_analytic(2.0, -math.pi / 4).verdict is EdgeCertificate.EDGE_CERTIFIED

    @pytest.mark.parametrize("b, theta", [(1e12, 0.5), (1.0, 1e-13), (1e-300, 1e-300)])
    def test_certified_with_margins_far_below_one(self, b, theta):
        assert verify_edge_analytic(b, theta).verdict is EdgeCertificate.EDGE_CERTIFIED

    @pytest.mark.parametrize(
        "b, theta",
        [
            (1.0, math.nextafter(math.pi / 3, 0)),  # the product margin is rounding
            (1e300, 1e-300),  # sin(theta) / b underflows to zero
        ],
    )
    def test_margins_lost_to_rounding_are_not_certified(self, b, theta):
        trace = verify_edge_analytic(b, theta)
        assert trace.verdict is EdgeCertificate.NOT_APPLICABLE
        assert not all(step.ok for step in trace.steps)

    @pytest.mark.parametrize("b, theta", [(1.0, 0.0), (1.0, math.pi / 3), (-1.0, THETA), (1.0, 2.0)])
    def test_condition_violations(self, b, theta):
        with pytest.raises(ConditionViolatedError):
            verify_edge_analytic(b, theta)

    def test_certified_across_random_parameters(self, rng):
        for _ in range(25):
            b, theta = random_edge_params(rng)
            assert verify_edge_analytic(b, theta).verdict is EdgeCertificate.EDGE_CERTIFIED
