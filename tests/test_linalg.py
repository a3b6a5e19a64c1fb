import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from edgelab import BipartiteOperator, NotHermitianError, classify, offdiag_gram, phase_circulant, singular_gram_offdiags
from edgelab import linalg
from edgelab.errors import DimensionMismatchError, InvalidParamError
from edgelab.classify import _classify_stack
from edgelab.linalg import CUBIC_FLOOR, SPLIT_MIN, _blocks, _check_hermitian, _kernel, _partial_transpose, _rank_psd, _spectra
from edgelab.linalg import _with_partial_transposes
from helpers import (
    HERM_RTOL,
    PSD_ATOL,
    RANK_RTOL,
    NotPSDError,
    Subspace,
    assert_same_entries,
    assert_same_outcome,
    family_states,
    full_reduction_rank_psd,
    gram_realization,
    kernel_basis,
    numerical_rank,
    outcome,
    partial_transpose,
    planted_rank_hermitian,
    planted_rank_psd,
    proj,
    projector,
    psd_flag,
    random_hermitian,
    random_unit,
    random_unitary,
    range_basis,
    reference_check_hermitian,
    reference_rank_psd,
    reference_triple_spectra,
    tensor,
)


@pytest.mark.parametrize(
    "m, n, mat, message",
    [(2, 3, np.eye(9), "does not match local dims"), (0, 3, np.zeros((0, 0)), "local dimensions must be positive")],
    ids=["shape", "zero-dim"],
)
def test_operator_rejects_dims_that_do_not_fit(m, n, mat, message):
    with pytest.raises(DimensionMismatchError, match=message):
        BipartiteOperator(m, n, mat)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.nan), complex(np.inf, 0.0)])
def test_operator_rejects_non_finite_entries(bad):
    # so classify(BipartiteOperator(1, d, m)), the PSD flag of a d x d matrix, never reads one
    for m in ([[bad]], [[1.0, bad], [bad, 1.0]], [[1.0, 0.0], [bad, 1.0]]):
        with pytest.raises(InvalidParamError, match="matrix entries must be finite"):
            BipartiteOperator(1, len(m), np.array(m))


def test_tensor_identity():
    assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_basis_vectors():
    out = tensor(np.array([1, 0]), np.array([0, 1]))
    assert_allclose(out, np.array([0, 1, 0, 0]))


def test_tensor_uniform_first_factor():
    x = np.ones(3) / math.sqrt(3)
    y = np.array([1.0, 0.0, 0.0])
    expected = np.zeros(9)
    expected[[0, 3, 6]] = 1 / math.sqrt(3)
    assert_allclose(tensor(x, y), expected)
    assert_allclose(np.linalg.norm(tensor(x, y)), 1.0)


class TestPartialTranspose:
    @pytest.mark.parametrize("lead", [(), (1,), (4,), (2, 3)])
    @pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 3)])
    def test_matches_the_index_rule(self, rng, m, n, lead):
        mats = rng.standard_normal((*lead, m * n, m * n)) + 1j * rng.standard_normal((*lead, m * n, m * n))
        got = _partial_transpose(mats, m, n)
        assert_same_entries(got, partial_transpose(mats, m, n))
        assert np.array_equal(_partial_transpose(got, m, n), mats)

    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_involution_is_exact(self, m, n, seed):
        g = np.random.default_rng(seed)
        h = random_hermitian(g, m * n)
        assert np.array_equal(_partial_transpose(_partial_transpose(h, m, n), m, n), h)

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(100):
            h = random_hermitian(rng, 9)
            t = _partial_transpose(h, 3, 3)
            assert abs(np.trace(t) - np.trace(h)) <= 1e-12
            assert np.linalg.norm(t - t.conj().T) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_product_projector_law(self, seed):
        g = np.random.default_rng(seed)
        x, y = random_unit(g, 3), random_unit(g, 3)
        lhs = _partial_transpose(proj(tensor(x, y)), 3, 3)
        rhs = proj(tensor(np.conj(x), y))
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_conjugates_first_factor(self):
        x = np.array([1, 1j, 0]) / math.sqrt(2)
        y = np.array([1.0, 0, 0])
        assert_allclose(_partial_transpose(proj(tensor(x, y)), 3, 3), proj(tensor(np.conj(x), y)), atol=1e-15)

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 3)])
    def test_with_partial_transposes_is_the_stack_then_its_partial_transposes(self, rng, m, n):
        h = rng.standard_normal((4, m * n, m * n)) + 1j * rng.standard_normal((4, m * n, m * n))
        # a C-ordered stack, a transposed view of one and a stack of one
        for stack in (h, h.transpose(0, 2, 1), h[2][None]):
            want = np.concatenate((stack, _partial_transpose(stack, m, n)))
            assert_same_entries(_with_partial_transposes(stack, m, n), want)


def spectrum_verdict(m: np.ndarray) -> tuple[int, bool]:
    """(rank, PSD flag) as classify reads them from one Hermitian spectrum.

    Viewed as a 1 x d operator, ``m`` is its own partial transpose.
    """
    c = classify(BipartiteOperator(1, m.shape[0], m))
    assert c.type[0] == c.type[1]
    return c.type[0], c.is_psd


class TestHermitianEig:
    def test_identity(self):
        assert_allclose(np.linalg.eigvalsh(np.eye(3)), [1, 1, 1])
        assert spectrum_verdict(np.eye(3)) == (3, True)

    def test_phase_circulant_at_zero(self):
        # 3I - all-ones matrix: spectrum {0, 3, 3}
        assert_allclose(np.linalg.eigvalsh(phase_circulant(0.0)), [0, 3, 3], atol=1e-12)
        assert spectrum_verdict(phase_circulant(0.0)) == (2, True)

    def test_phase_circulant_at_boundary_is_rank_one(self):
        g = phase_circulant(math.pi / 3)
        assert spectrum_verdict(g) == (1, True)
        assert numerical_rank(g) == 1

    def test_eigenpairs_and_orthonormality(self, rng):
        # the spectrum path agrees with the SVD path on indefinite matrices
        m = random_hermitian(rng, 7)
        assert spectrum_verdict(m) == (numerical_rank(m), False) == (7, False)
        assert spectrum_verdict(-proj(random_unit(rng, 7))) == (1, False)
        # gram_realization's columns are eigenvectors scaled by the square
        # roots of the eigenvalues: mutually orthogonal, in descending order
        g = planted_rank_psd(rng, 7, 4)
        v = gram_realization(g)
        cols = v.conj().T @ v
        weights = np.diag(cols).real
        assert v.shape == (7, 4)
        assert_allclose(cols, np.diag(weights), atol=1e-12)
        assert_allclose(weights, np.linalg.eigvalsh(g)[::-1][:4], rtol=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            spectrum_verdict(bad)
        with pytest.raises(NotHermitianError):
            gram_realization(bad)


def test_hermitian_check_near_the_float_limit(rng):
    # a Frobenius norm past the float limit must not make the check vacuous
    big = np.zeros((9, 9), dtype=complex)
    big[0, 1] = big[1, 0] = 1.7e308
    big[2, 2] = -1.7e308
    assert _check_hermitian(big) is big
    skew = big.copy()
    skew[1, 0] = -1.7e308
    bad = np.diag([1e308] * 9).astype(complex)
    bad[0, 1] = 1e308
    for m in (skew, bad):
        # the skew matrix's m - m^H overflows on the way to the verdict
        with pytest.raises(NotHermitianError), np.errstate(over="ignore"):
            _check_hermitian(m)
    # in a stack with a huge matrix, an ordinary one is weighed as alone
    small = np.eye(9, dtype=complex)
    small[0, 1] = 1e-3
    with pytest.raises(NotHermitianError, match="matrix 1 of the stack"):
        _check_hermitian(np.array([big, small]))
    # near-Hermitian entries symmetrize to the bits of (m + m^H) / 2
    m = random_hermitian(rng, 9) + 1e-12 * random_hermitian(rng, 9) * 1j
    assert np.array_equal(_check_hermitian(m), (m + m.conj().T) / 2)


@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 2)])
def test_exactly_hermitian_input_comes_back_as_is(rng, lead):
    # signed zeros, subnormals and entries near the float limit, whose
    # symmetrized copy would change bits or overflow
    m = np.zeros((*lead, 4, 4), dtype=complex)
    m[..., 0, 1], m[..., 1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    m[..., 1, 2], m[..., 2, 1] = complex(5e-324, -5e-324), complex(5e-324, 5e-324)
    m[..., 2, 3], m[..., 3, 2] = complex(1.7e308, -1.7e308), complex(1.7e308, 1.7e308)
    m[..., 3, 3] = complex(-1.7e308, -0.0)
    m[..., 0, 0] = rng.standard_normal(lead)
    want = m.copy()
    got = _check_hermitian(m)
    assert got is m
    assert_same_entries(m, want)
    # the same matrix in a stack with a near-Hermitian one is symmetrized
    # with the rest, as before
    near = np.array([np.eye(4, dtype=complex), np.eye(4, dtype=complex)])
    near[1, 0, 1] = 1e-12
    mixed = np.concatenate([m.reshape(-1, 4, 4), near])
    with np.errstate(over="ignore"):
        assert_same_outcome(_check_hermitian(mixed), reference_check_hermitian(mixed))


def test_stacked_rules_match_matrix_by_matrix(rng):
    planted = (planted_rank_hermitian, planted_rank_psd)
    mats = [
        scale * planted[i % 2](rng, 6, int(rng.integers(0, 7)))
        for i, scale in enumerate(rng.choice([1e-3, 1.0, 1e3], 40))
    ]
    stack = _check_hermitian(np.array(mats))
    assert np.array_equal(stack, [_check_hermitian(m) for m in mats])
    ranks, psd = _rank_psd(np.linalg.eigvalsh(stack))
    singles = [_rank_psd(np.linalg.eigvalsh(h)) for h in stack]
    assert list(zip(ranks.tolist(), psd.tolist())) == [(int(r), bool(p)) for r, p in singles]
    assert ranks.tolist() == [numerical_rank(m) for m in mats]
    assert psd.tolist() == [psd_flag(m) for m in mats]


# 2 x 2 blocks [[a, c*], [c, d]] and their ranks, whose closed-form spectra
# need the scaling by a power of two: (a + d)/2 and (a - d)/2 round a lone
# subnormal to 0 or overflow near the float limit.
PAIR_BLOCKS = {
    "subnormal diagonal": [
        (5e-324, 0.0, 0j, 1), (5e-324, 5e-324, 0j, 2), (0.0, 5e-324, 5e-324j, 2), (5e-324, -5e-324, 5e-324, 2),
    ],
    "near the float limit": [
        (1.7e308, -1.7e308, 5e307 - 1e307j, 2), (1.2e308, 1.2e308, 5e307, 2),
        (-1.2e308, -1.2e308, 5e307j, 2), (8e307, 8e307, -8e307j, 1),
    ],
    "singular at 2**1000": [
        (2.0**1000 * a, 2.0**1000 * d, 2.0**1000 * c, 1) for a, d, c in [(1, 4, 2j), (9, 16, 12), (16, 9, -12j), (1, 1, -1)]
    ],
    "singular at 2**-1000": [
        (2.0**-1000 * a, 2.0**-1000 * d, 2.0**-1000 * c, 1) for a, d, c in [(1, 4, 2j), (9, 16, 12), (16, 9, -12j), (1, 1, -1)]
    ],
    "signed zeros": [
        (-0.0, -0.0, complex(-0.0, -0.0), 0), (1.0, -0.0, complex(0.0, -0.0), 1),
        (-0.0, 1.0, complex(-0.0, 0.0), 1), (-1.0, -0.0, 1.0, 2),
    ],
}


def _gaussian_integers(g: np.random.Generator) -> np.ndarray:
    return (g.integers(-4, 5, 3) + 1j * g.integers(-4, 5, 3)).astype(complex)


def _rank_one(g: np.random.Generator) -> np.ndarray:
    v = _gaussian_integers(g)
    return np.outer(v, v.conj())


def _double_top(g: np.random.Generator, shift: float) -> np.ndarray:
    p = _rank_one(g)
    return (np.trace(p).real + shift) * np.eye(3) - p


# 3 x 3 Hermitian blocks of Gaussian integers, exact at every power-of-two
# scale, subnormal included: their planted roots are exact
TRIPLE_BLOCKS = {
    "double root at 0": _rank_one,
    "double root at 0, negative": lambda g: -_rank_one(g),
    "double root at the top": lambda g: _double_top(g, 0.0),
    "double root at the top, nonzero": lambda g: _double_top(g, 3.0),
    "one root at 0": lambda g: _rank_one(g) - _rank_one(g),
    "integer": lambda g: _rank_one(g) + _rank_one(g) - _rank_one(g),
}


def _blocks_at(g: np.random.Generator, sin2s) -> np.ndarray:
    """3 x 3 blocks of eigenvalues 2 cos(phi/3 + 2 pi j / 3) in random
    eigenbases, so that r = cos(phi) and 1 - r**2 = sin(phi)**2, one block for each value."""
    out = []
    for sin2 in sin2s:
        u = random_unitary(g, 3)
        h = (u * 2 * np.cos(math.asin(math.sqrt(sin2)) / 3 + 2 * np.pi / 3 * np.arange(3))) @ u.conj().T
        out.append((h + h.conj().T) / 2)
    return np.array(out)


def _random_blocks(g: np.random.Generator, count: int) -> np.ndarray:
    return np.array([random_hermitian(g, 3) for _ in range(count)])


def _signed_zeros(g: np.random.Generator, count: int) -> np.ndarray:
    """Blocks of entries 0, -0, 1 and -1; every tenth is zero, its diagonal -0."""
    vals = np.array([0.0, -0.0, 1.0, -1.0])
    out = np.empty((count, 3, 3), complex)
    for h in out:
        for i in range(3):
            h[i, i] = complex(vals[g.integers(4)], vals[g.integers(2)])
            for j in range(i + 1, 3):
                h[i, j] = complex(vals[g.integers(4)], vals[g.integers(4)])
                h[j, i] = h[i, j].conjugate()
    out[::10] = 0.0
    out[::10, [0, 1, 2], [0, 1, 2]] = complex(-0.0, 0.0)
    return out


# Stacks of 3 x 3 blocks for the bit pin of the split path's closed form
TRIPLE_BIT_CASES = {
    "random": _random_blocks,
    "times 2**500": lambda g, count: _random_blocks(g, count) * 2.0**500,
    "times 2**-500": lambda g, count: _random_blocks(g, count) * 2.0**-500,
    "real symmetric": lambda g, count: _random_blocks(g, count).real.astype(complex),
    # 1 - r**2 from a tenth to ten times the floor
    "near the double-root floor": lambda g, count: _blocks_at(g, np.geomspace(0.1, 10.0, count) * CUBIC_FLOOR),
    "double root at r = 1": lambda g, count: np.array(
        [TRIPLE_BLOCKS[kind](g) for kind in g.choice(sorted(TRIPLE_BLOCKS), count)], dtype=complex
    ),
    "signed zeros": _signed_zeros,
}


class TestSplitSpectra:
    """Stacks of at least SPLIT_MIN matrices take their spectra from the
    connected blocks of the stack's nonzero pattern."""

    @given(
        data=st.data(),
        k=st.sampled_from([1, SPLIT_MIN - 1, SPLIT_MIN, SPLIT_MIN + 1, 3 * SPLIT_MIN]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_block_diagonal_stacks_classify_matrix_by_matrix(self, data, k, seed):
        # one block structure per stack, 1 to 9 coordinates a block, under one
        # permutation; each block has its own planted rank, each matrix a scale
        sizes, left = [], 9
        while left:
            sizes.append(data.draw(st.integers(1, left)))
            left -= sizes[-1]
        g = np.random.default_rng(seed)
        blocks = np.split(g.permutation(9), np.cumsum(sizes)[:-1])
        stack, planted = np.zeros((k, 9, 9), complex), []
        for h in stack:
            ranks = [int(g.integers(0, len(b) + 1)) for b in blocks]
            for b, r in zip(blocks, ranks):
                h[np.ix_(b, b)] = (planted_rank_hermitian, planted_rank_psd)[g.integers(2)](g, len(b), r)
            h *= 10.0 ** g.uniform(-100.0, 100.0)
            planted.append(sum(ranks))
        ranks, psd = _rank_psd(_spectra(stack))
        singles = [_rank_psd(np.linalg.eigvalsh(h)) for h in stack]
        assert list(zip(ranks.tolist(), psd.tolist())) == [(int(r), bool(p)) for r, p in singles]
        assert ranks.tolist() == planted
        ops = [BipartiteOperator(3, 3, h) for h in stack]
        want = [(c.type[0], c.type[1], c.is_psd, c.is_ppt) for c in map(classify, ops)]
        got = [(p, q, p_psd, p_psd and q_psd) for p, q, p_psd, q_psd in zip(*_classify_stack(stack, 3, 3))]
        assert got == want

    def test_the_pattern_is_the_union_over_the_stack(self, rng):
        stack = np.array([np.diag(rng.uniform(1.0, 2.0, 9)).astype(complex) for _ in range(SPLIT_MIN)])
        stack[0, 0, 1] = stack[0, 1, 0] = 0.5
        stack[1, 1, 2] = stack[1, 2, 1] = 0.5j
        blocks = _blocks((stack != 0).any(axis=0).tobytes(), 9)
        assert [(s, idx.tolist()) for s, idx in blocks] == [(1, [[3], [4], [5], [6], [7], [8]]), (3, [[0, 1, 2]])]
        assert_allclose(_spectra(stack), np.linalg.eigvalsh(stack), rtol=1e-14)

    def test_negative_zeros_are_zeros(self, monkeypatch):
        # nine 1 x 1 blocks, read off the diagonal without an eigvalsh call
        stack = np.tile(np.eye(9, dtype=complex), (SPLIT_MIN, 1, 1))
        stack[:, 0, 8] = stack[:, 8, 0] = complex(-0.0, -0.0)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert np.array_equal(_spectra(stack), np.ones((SPLIT_MIN, 9)))

    @pytest.mark.parametrize("case", sorted(PAIR_BLOCKS))
    def test_pair_blocks_in_closed_form_read_as_the_whole_matrix(self, case, monkeypatch):
        # matrix j holds blocks (j, j + 1, j + 2) of the case on the pairs {1, 3},
        # {2, 6} and {5, 7}, and zeros elsewhere; every pair is one 2 x 2 block
        blocks = PAIR_BLOCKS[case]
        stack, planted = np.zeros((SPLIT_MIN, 9, 9), complex), []
        for j, h in enumerate(stack):
            planted.append(0)
            for t, (r, s) in enumerate([(1, 3), (2, 6), (5, 7)]):
                a, d, c, rank = blocks[(j + t) % len(blocks)]
                h[r, r], h[s, s], h[s, r], h[r, s] = a, d, c, np.conj(c)
                planted[-1] += rank
        want = [_rank_psd(np.linalg.eigvalsh(h)) for h in stack]
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        ranks, psd = _rank_psd(_spectra(stack))
        assert list(zip(ranks.tolist(), psd.tolist())) == [(int(r), bool(p)) for r, p in want]
        assert ranks.tolist() == planted

    @given(
        kinds=st.lists(st.sampled_from(sorted(TRIPLE_BLOCKS)), min_size=SPLIT_MIN, max_size=2 * SPLIT_MIN),
        scale=st.sampled_from([1.0, 2.0**1000, 2.0**-1000, 2.0**-1064]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_triple_blocks_in_closed_form_read_as_eigvalsh(self, kinds, scale, seed):
        # the all-ones block first, so that the stack's pattern is one 3 x 3
        # block; at 2**-1064 every nonzero entry is subnormal
        g = np.random.default_rng(seed)
        stack = np.array([np.ones((3, 3))] + [TRIPLE_BLOCKS[kind](g) for kind in kinds], dtype=complex) * scale
        assert [s for s, _ in _blocks((stack != 0).any(axis=0).tobytes(), 3)] == [3]
        ranks, psd = _rank_psd(_spectra(stack))
        want_ranks, want_psd = _rank_psd(np.linalg.eigvalsh(stack))
        assert ranks.tolist() == want_ranks.tolist()
        assert psd.tolist() == want_psd.tolist()

    def test_triple_blocks_near_a_double_root_take_eigvalsh(self, monkeypatch):
        # block 0 just inside the floor takes eigvalsh, block 1 just outside
        # it the closed form
        g = np.random.default_rng(12)
        stack = _blocks_at(g, [0.9 * CUBIC_FLOOR, 1.1 * CUBIC_FLOOR] + [0.5] * (SPLIT_MIN - 2))
        want = np.linalg.eigvalsh(stack)
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        got = _spectra(stack)
        assert len(calls) == 1 and np.array_equal(calls[0], stack[:1])
        assert np.array_equal(got[0], want[0])
        # about eps / sqrt(1 - r**2) = 2e-12 near the double root
        assert_allclose(got[1:], want[1:], rtol=0, atol=1e-11)

    @pytest.mark.parametrize("case", sorted(TRIPLE_BIT_CASES))
    def test_triple_blocks_keep_their_bits(self, case, monkeypatch):
        # 2 * SPLIT_MIN matrices of three 3 x 3 blocks each, on one permutation:
        # every bit of their spectra, the sign of every zero included, stays
        # that of the split path's own closed form
        g = np.random.default_rng(31)
        blocks, k = TRIPLE_BIT_CASES[case](g, 6 * SPLIT_MIN), 2 * SPLIT_MIN
        stack = np.zeros((k, 9, 9), complex)
        for j, triple in enumerate(np.split(g.permutation(9), 3)):
            stack[:, triple[:, None], triple[None, :]] = blocks[j::3]
        ((size, idx),) = _blocks(stack.any(axis=0).tobytes(), 9)
        assert size == 3
        want = np.sort(reference_triple_spectra(stack, idx), axis=-1)
        rows, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
        got = _spectra(stack)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the floor's two sides: some blocks take eigvalsh and some the closed form
        assert (0 < sum(rows) < 3 * k) == (case in ("near the double-root floor", "double root at r = 1"))

    @pytest.mark.parametrize("k", [1, SPLIT_MIN])
    def test_zero_stack_has_rank_zero_and_is_psd(self, k):
        assert _classify_stack(np.zeros((k, 9, 9)), 3, 3) == ([0] * k, [0] * k, [True] * k, [True] * k)


MATRIX_KINDS = ("hermitian", "low-rank", "indefinite", "just under", "just over")


def draw_matrix(g: np.random.Generator, kind: str, dim: int, scale: float) -> np.ndarray:
    """A ``kind`` matrix whose largest entry modulus is ``scale`` (unless it is zero).

    The last two are exactly Hermitian matrices plus a perturbation that puts
    their relative asymmetry 1% under or over ``HERM_RTOL``.
    """
    if kind == "low-rank":
        m = planted_rank_psd(g, dim, int(g.integers(0, dim)))
    elif kind == "indefinite":
        m = planted_rank_hermitian(g, dim, dim)
    else:
        m = random_hermitian(g, dim)
    top = np.abs(m).max()
    m = m / top if top else m
    if kind.startswith("just"):
        k = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        ratio = 0.99 if kind == "just under" else 1.01
        coef = ratio * HERM_RTOL / np.linalg.norm(k - k.conj().T)
        unit = np.linalg.norm(m)  # the Frobenius norm, in units of the scale
        return m * scale + k * (coef * unit * scale if unit > 1 / scale else coef)
    return m * scale


@given(
    mats=st.lists(
        st.tuples(st.sampled_from(MATRIX_KINDS), st.floats(-320.0, math.log10(1.7e308))),
        min_size=1,
        max_size=4,
    ),
    dim=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    flat=st.booleans(),
)
@example(mats=[("hermitian", 308.2), ("just over", 0.0)], dim=9, seed=0, flat=False)
@example(mats=[("hermitian", 308.2), ("hermitian", -320.0)], dim=3, seed=0, flat=False)
@example(mats=[("hermitian", 308.2)], dim=2, seed=0, flat=True)
@example(mats=[("just over", 2.0)], dim=3, seed=1, flat=True)
@example(mats=[("low-rank", -320.0), ("indefinite", -310.0)], dim=4, seed=2, flat=False)
@example(mats=[("hermitian", -320.0), ("just under", 0.0)], dim=3, seed=0, flat=False)
@example(mats=[("hermitian", 308.2), ("just under", 308.2)], dim=3, seed=0, flat=False)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_helpers_match_their_references_bit_for_bit(mats, dim, seed, flat):
    """_check_hermitian and _rank_psd give what the earlier versions gave.

    A stack equal to its adjoint entry for entry, which the earlier version
    accepted too, comes back as the same array with all its bits; any other
    stack, mixed ones included, gives the earlier version's symmetrized bits
    or error text with its stack index.  Then ranks and PSD flags from the
    ascending spectrum against full reductions.
    """
    g = np.random.default_rng(seed)
    stack = np.array([draw_matrix(g, kind, dim, 10.0**log_scale) for kind, log_scale in mats], dtype=complex)
    if flat and len(stack) == 1:
        stack = stack[0]
    # entries near the float limit overflow on the way, in both versions alike
    with np.errstate(all="ignore"):
        want = outcome(reference_check_hermitian, stack)
        got = outcome(_check_hermitian, stack)
        if (stack == stack.conj().swapaxes(-2, -1)).all():
            assert not isinstance(want, NotHermitianError), want
            assert got is stack
        else:
            assert_same_outcome(got, want)
        if isinstance(want, NotHermitianError):
            return
        try:
            vals = np.linalg.eigvalsh(got)
        except np.linalg.LinAlgError:
            return
        tols = [(RANK_RTOL, PSD_ATOL), (1e-3, 1e-3)]
        first = vals.reshape(-1, dim)[0]
        mag = np.sort(np.abs(first))
        if dim > 1 and 0 < mag[-2] / mag[-1] < 1:
            # the first matrix's second-largest magnitude and smallest eigenvalue
            # on the two thresholds, which only the true largest magnitude puts there
            tols.append((mag[-2] / mag[-1], max(-first[0], 0.0) / max(mag[-1], 1.0)))
        for rel_tol, abs_tol in tols:
            # _rank_psd reads both thresholds from the module when called
            rank_rtol = mock.patch.object(linalg, "RANK_RTOL", rel_tol)
            with rank_rtol, mock.patch.object(linalg, "PSD_ATOL", abs_tol):
                got = _rank_psd(vals)
            for new, ref in zip(got, full_reduction_rank_psd(vals, rel_tol, abs_tol)):
                assert np.array_equal(new, ref)


def _threshold_rows(top: float) -> list[np.ndarray]:
    """Ascending spectra of largest modulus ``top`` that hold -PSD_ATOL * max(1, top)
    and RANK_RTOL * top or its negative, as _rank_psd computes them, each
    exactly or one ulp either side."""
    psd_edge, rank_edge = -PSD_ATOL * max(top, 1.0), RANK_RTOL * top
    around = lambda x: (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))
    rows = []
    for first in around(psd_edge):
        for middle in around(rank_edge) + around(-rank_edge):
            rows.append(np.sort([first, middle, -0.0, 0.0, 0.0, top / 2, top / 2, top, top]))
    return rows


def test_rank_psd_keeps_the_outputs_of_its_earlier_formulation():
    """_rank_psd gives reference_rank_psd's values and dtypes, scalars for a
    1-D spectrum, on the spectra of its callers and at its edges."""
    states = [op for _, op in family_states() if op.m == 3]
    mats = np.array([s.mat for s in states])
    stacked = np.linalg.eigvalsh(np.concatenate([mats, _partial_transpose(mats, 3, 3)]))
    grams = [offdiag_gram(t, *singular_gram_offdiags(t, p)) for t in (0.5, -1.0) for p in (5, 6, 7, 8)]
    grams += [offdiag_gram(0.3, 0.3, -0.5j, 0.0), offdiag_gram(1.2, -0.1, 0.2, 0.3j)]
    with np.errstate(all="ignore"):
        overflowed = np.linalg.eigvalsh(1e308 * np.ones((2, 9, 9)))
    edges = [
        np.zeros(9), np.full(9, -0.0), np.array([-0.0, 0.0] * 4 + [-0.0]),
        np.array([-np.inf] + [0.0] * 7 + [np.inf]), np.array([0.0] * 8 + [np.inf]), np.array([-np.inf] + [1.0] * 8),
        np.full(9, np.nan), np.array([np.nan] + [1.0] * 8), np.array([1.0] * 8 + [np.nan]), *overflowed,
    ] + [row for top in (0.25, 1.0, 3.7, 1e5, 1e300) for row in _threshold_rows(top)]
    edges = np.array(edges)
    spectra = [np.linalg.eigvalsh(g) for g in grams] + list(edges) + [
        stacked, stacked.reshape(len(states), 2, 9), edges, edges[: len(edges) // 2 * 2].reshape(-1, 2, 9),
        np.linalg.eigvalsh(np.array(grams)),
    ]
    for vals in spectra:
        for got, want in zip(_rank_psd(vals), reference_rank_psd(vals)):
            assert type(got) is type(want) and got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    @given(
        log_scale=st.floats(min_value=-6.0, max_value=6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, log_scale, seed):
        g = np.random.default_rng(seed)
        rank = int(g.integers(0, 7))
        m = planted_rank_hermitian(g, 6, rank)
        assert numerical_rank(10.0**log_scale * m) == numerical_rank(m)

    def test_matches_eigenvalue_count_on_planted_ranks(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(0, dim + 1))
            m = planted_rank_hermitian(rng, dim, rank)
            vals = np.abs(np.linalg.eigvalsh(m))
            by_eig = int(np.count_nonzero(vals > 1e-9 * vals.max())) if vals.max() > 0 else 0
            assert numerical_rank(m) == by_eig == spectrum_verdict(m)[0] == rank


class TestSubspaces:
    def test_kernel_of_identity_is_empty(self):
        ker = kernel_basis(np.eye(9))
        assert ker.dim == 0
        assert_allclose(projector(ker), np.zeros((9, 9)))

    def test_range_of_identity_is_full(self):
        assert range_basis(np.eye(3)).dim == 3

    def test_range_of_rank_one_projector(self, rng):
        v = random_unit(rng, 5)
        ran = range_basis(proj(v))
        assert ran.dim == 1
        assert ran.residual(v) <= 1e-12

    def test_kernel_range_orthogonal_for_hermitian(self, rng):
        for _ in range(25):
            m = planted_rank_hermitian(rng, 6, int(rng.integers(1, 6)))
            ker, ran = kernel_basis(m), range_basis(m)
            assert ker.dim + ran.dim == 6
            overlap = np.abs(ker.basis.conj().T @ ran.basis)
            assert overlap.size == 0 or overlap.max() <= 1e-12

    def test_basis_orthonormality(self, rng):
        m = planted_rank_hermitian(rng, 8, 5)
        for sub in (kernel_basis(m), range_basis(m)):
            assert_allclose(sub.basis.conj().T @ sub.basis, np.eye(sub.dim), atol=1e-12)


def test_kernel_matches_the_svd_kernel_and_the_classified_rank(rng):
    # planted ranks 0-9 across the float range, and the zero matrix
    cases = [(0, np.zeros((9, 9), dtype=complex))] + [
        (rank, scale * planted_rank_hermitian(rng, 9, rank))
        for rank in range(10)
        for scale in (1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150)
    ]
    # one eigh of the whole stack gives each matrix the bits of its own
    stacked = _kernel(np.stack([_check_hermitian(m) for _, m in cases]))
    for (rank, m), k in zip(cases, stacked):
        h = _check_hermitian(m)
        assert np.array_equal(k, _kernel(h[None])[0])
        assert k.shape == (9, 9 - rank)
        assert _classify_stack(h[None], 3, 3)[0] == [rank]
        assert_allclose(k.conj().T @ k, np.eye(9 - rank), atol=1e-12)
        svd_kernel = kernel_basis(h)
        assert svd_kernel.dim == 9 - rank
        assert all(svd_kernel.residual(col) <= 1e-10 for col in k.T)


@pytest.mark.parametrize("k", [1, SPLIT_MIN])
def test_a_spectrum_past_the_float_range_is_read_from_a_sixteenth(k):
    # 1e308 J, J the all-ones matrix, has the range u (x) u and the eigenvalue
    # 9e308, and a 2 x 2 block of 1e308 on the identity 2e308: both overflow
    # to inf, which read rank 0, the zero matrix's, before the rescaling
    j = np.full((9, 9), 1e308, dtype=complex)
    block = np.eye(9, dtype=complex)
    block[1:3, 1:3] = 1e308
    for m, psd in [(j, True), (-j, False), (block, True)]:
        assert _classify_stack(np.array([m] * k), 3, 3) == ([1] * k, [1] * k, [psd] * k, [psd] * k)
        assert psd_flag(m) is psd
        (ker,) = _kernel(m[None])
        assert ker.shape == (9, 8)
        assert_allclose(ker.conj().T @ ker, np.eye(8), atol=1e-12)
        assert np.abs((m / 1e308) @ ker).max() <= 1e-9


def test_projector_full_space():
    s = Subspace(3, np.eye(3))
    assert_allclose(projector(s), np.eye(3))


def test_projector_uniform_vector():
    v = np.ones((3, 1)) / math.sqrt(3)
    assert_allclose(projector(Subspace(3, v)), np.full((3, 3), 1 / 3), atol=1e-15)


def test_projector_idempotent_hermitian(rng):
    sub = range_basis(planted_rank_hermitian(rng, 6, 3))
    p = projector(sub)
    assert np.linalg.norm(p @ p - p) <= 1e-12
    assert np.linalg.norm(p - p.conj().T) <= 1e-12


class TestPsdFlag:
    """The PSD flag of a d x d matrix, ``classify(BipartiteOperator(1, d, m)).is_psd``."""

    def test_negative_identity(self):
        assert not psd_flag(-np.eye(3))

    def test_psd_with_tiny_negative_rounding(self):
        assert psd_flag(np.diag([1.0, 0.5, -1e-12]))
        assert not psd_flag(np.diag([1.0, 0.5, -1e-8]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_flag(np.array([[1.0, 1.0], [-1.0, 1.0]]))


class TestGramRealization:
    def test_identity_gives_orthonormal_rows(self):
        v = gram_realization(np.eye(3))
        assert v.shape == (3, 3)
        assert_allclose(v @ v.conj().T, np.eye(3), atol=1e-12)

    def test_scaled_identity(self):
        scale = 2 * math.cos(0.4)
        v = gram_realization(scale * np.eye(3))
        assert_allclose(np.linalg.norm(v, axis=1), math.sqrt(scale) * np.ones(3))
        assert_allclose(v @ v.conj().T, scale * np.eye(3), atol=1e-12)

    def test_rank_two_circulant(self):
        g = phase_circulant(math.pi / 6)
        v = gram_realization(g)
        assert v.shape == (3, 2)
        assert_allclose(v @ v.conj().T, g, atol=1e-12)

    def test_round_trip_on_planted_ranks(self, rng):
        for _ in range(100):
            rank = int(rng.integers(1, 4))
            g = planted_rank_psd(rng, 3, rank)
            v = gram_realization(g)
            assert v.shape[1] == rank
            assert np.linalg.norm(v @ v.conj().T - g) <= 1e-10 * np.linalg.norm(g)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            gram_realization(np.diag([1.0, -1.0]))
