"""Shared test utilities: golden matrices transcribed entry by entry,
reference implementations that share no numerics with edgelab (among them
the SVD subspaces, the partial transpose, the range-criterion check and
the separable decomposition of the theta = 0 edge state), the earlier
builds, spectrum helpers and sweep loop that edgelab's faster ones must
match bit for bit, and random-instance generators."""

from __future__ import annotations

import cmath
import contextlib
import csv
import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from edgelab import (
    BipartiteOperator,
    DimensionMismatchError,
    EdgeLabError,
    GramNotPSDError,
    GramSpec,
    InvalidParamError,
    NotHermitianError,
    OffdiagTooLargeError,
    choi_matrix,
    classify,
    classify_many,
    corner_state,
    edge_state,
    face_state,
    generalized_edge_state,
    min_psd_diagonal,
    phase_circulant,
    product_vector_search_many,
    singular_gram_offdiags,
)
from edgelab import cli
from edgelab.states import FAMILIES


class NotPSDError(EdgeLabError):
    """A Gram matrix is not positive semi-definite within tolerance."""


# the package's default tolerances, restated
RANK_RTOL = 1e-9
PSD_ATOL = 1e-10
HERM_RTOL = 1e-10


def golden_edge_matrix(b: float, theta: float) -> np.ndarray:
    """The 9x9 edge-family matrix written out entry by entry."""
    e = cmath.exp(1j * theta)
    ec = e.conjugate()
    d = 2 * math.cos(theta)
    a = np.zeros((9, 9), dtype=complex)
    for i, v in enumerate([d, 1 / b, b, b, d, 1 / b, 1 / b, b, d]):
        a[i, i] = v
    a[0, 4], a[0, 8] = -e, -ec
    a[4, 0], a[4, 8] = -ec, -e
    a[8, 0], a[8, 4] = -e, -ec
    return a


def golden_edge_tau(b: float, theta: float) -> np.ndarray:
    """Partial transpose of the edge family, written out entry by entry."""
    e = cmath.exp(1j * theta)
    ec = e.conjugate()
    d = 2 * math.cos(theta)
    a = np.zeros((9, 9), dtype=complex)
    for i, v in enumerate([d, 1 / b, b, b, d, 1 / b, 1 / b, b, d]):
        a[i, i] = v
    a[1, 3], a[3, 1] = -ec, -e
    a[2, 6], a[6, 2] = -e, -ec
    a[5, 7], a[7, 5] = -ec, -e
    return a


def golden_corner_matrix(b: float) -> np.ndarray:
    a = np.zeros((9, 9), dtype=complex)
    for i, v in enumerate([1, 1 / b, b, b, 1, 1 / b, 1 / b, b, 1]):
        a[i, i] = v
    for r, c in ((0, 4), (0, 8), (4, 0), (4, 8), (8, 0), (8, 4)):
        a[r, c] = 1
    return a


def golden_type85_matrix(b: float, theta: float) -> np.ndarray:
    """Edge matrix plus the six -cos(theta) couplings of the (8, 5) family."""
    a = golden_edge_matrix(b, theta)
    ct = math.cos(theta)
    for r, c in ((1, 3), (3, 1), (2, 6), (6, 2), (5, 7), (7, 5)):
        a[r, c] = -ct
    return a


def golden_type55_matrix(b: float, theta: float) -> np.ndarray:
    """Edge matrix plus the phase couplings of the (5, 5) family."""
    a = golden_edge_matrix(b, theta)
    e = cmath.exp(1j * theta)
    a[1, 3], a[3, 1] = -e.conjugate(), -e
    a[2, 6], a[6, 2] = -e, -e.conjugate()
    a[5, 7], a[7, 5] = -e.conjugate(), -e
    return a


def edge_kernel_vector() -> np.ndarray:
    v = np.zeros(9, dtype=complex)
    v[[0, 4, 8]] = 1
    return v


def edge_tau_kernel_vectors(b: float, theta: float) -> list[np.ndarray]:
    e = cmath.exp(1j * theta)
    vs = [np.zeros(9, dtype=complex) for _ in range(3)]
    vs[0][1], vs[0][3] = b, e
    vs[1][5], vs[1][7] = b, e
    vs[2][2], vs[2][6] = e, b
    return vs


# ----------------------------------------------------------------------------
# Subspaces from the SVD, for any matrix, also non-square: the reference that
# edgelab's one kernel routine, an ``eigh`` of a Hermitian matrix, must match.

# A product vector lies in a range when its distance from it is at most this.
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis (columns) for a kernel or range.

    ``basis`` has shape ``(ambient_dim, dim)``; a zero-dimensional subspace is
    represented by a basis with zero columns.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=complex))
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise DimensionMismatchError("basis must have ambient_dim rows")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def residual(self, v: np.ndarray) -> float:
        """Distance of the unit-normalized vector from the subspace."""
        v = np.asarray(v, dtype=complex).ravel()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return 0.0
        v = v / nrm
        return float(np.linalg.norm(v - self.basis @ (self.basis.conj().T @ v)))


def _svd(m) -> tuple[np.ndarray, np.ndarray, int]:
    """``u``, ``vh`` and the rank of any matrix, from one SVD.

    The rank counts the singular values above :data:`RANK_RTOL` times the
    largest, 0 for an empty matrix.
    """
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    return u, vh, int(np.count_nonzero(s > RANK_RTOL * s.max())) if s.size else 0


def numerical_rank(m) -> int:
    """Number of singular values above :data:`RANK_RTOL` times the largest."""
    return _svd(m)[2]


def range_basis(m) -> Subspace:
    """Orthonormal basis of the column space."""
    u, _, rank = _svd(m)
    return Subspace(u.shape[0], u[:, :rank])


def kernel_basis(m) -> Subspace:
    """Orthonormal basis of the right null space."""
    _, vh, rank = _svd(m)
    return Subspace(vh.shape[1], vh[rank:].conj().T)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace (the zero matrix if it is empty)."""
    return s.basis @ s.basis.conj().T


def tensor(a, b) -> np.ndarray:
    """Kronecker product in the composite-index convention ``(i, k) -> i * n + k``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def proj(v) -> np.ndarray:
    """Rank-one projector ``v v^H`` onto a (not necessarily unit) vector."""
    v = np.asarray(v, dtype=complex).reshape(-1, 1)
    return v @ v.conj().T


def partial_transpose(mats, m: int, n: int) -> np.ndarray:
    """The partial transpose on the first factor of each mn x mn matrix of a
    stack over leading axes, entry by entry from the index rule
    ``out[(i, k), (j, l)] = in[(j, k), (i, l)]``, composite index ``i * n + k``."""
    mats = np.asarray(mats, dtype=complex)
    out = np.empty_like(mats)
    for i, k, j, l in itertools.product(range(m), range(n), range(m), range(n)):
        out[..., i * n + k, j * n + l] = mats[..., j * n + k, i * n + l]
    return out


def psd_flag(m) -> bool:
    """The PSD flag of a d x d matrix as a library caller reads it:
    ``classify(BipartiteOperator(1, d, m)).is_psd``."""
    return classify(BipartiteOperator(1, len(m), m)).is_psd


def product_vector(x, y) -> np.ndarray:
    """The composite vector of a factor pair."""
    return tensor(np.asarray(x, dtype=complex).ravel(), np.asarray(y, dtype=complex).ravel())


@dataclass(frozen=True)
class RangeCriterionCheck:
    holds: bool
    span_dims: tuple[int, int]
    max_residual: float


def check_range_criterion(s: BipartiteOperator, pairs) -> RangeCriterionCheck:
    """Do the product vectors witness the range criterion for ``s``?

    Holds iff every ``x (x) y`` lies in the range of ``s`` and every
    ``conj(x) (x) y`` in the range of its partial transpose (residuals at most
    :data:`RESIDUAL_TOL`), and the two spans fill those ranges completely.
    """
    pairs = list(pairs)
    if not pairs:
        return RangeCriterionCheck(False, (0, 0), math.inf)
    r_s = range_basis(s.mat)
    r_t = range_basis(partial_transpose(s.mat, s.m, s.n))
    direct, conjugated = [], []
    worst = 0.0
    for x, y in pairs:
        v = product_vector(x, y)
        w = product_vector(np.conj(x), y)
        worst = max(worst, r_s.residual(v), r_t.residual(w))
        direct.append(v / np.linalg.norm(v))
        conjugated.append(w / np.linalg.norm(w))
    span_d = numerical_rank(np.column_stack(direct))
    span_e = numerical_rank(np.column_stack(conjugated))
    holds = worst <= RESIDUAL_TOL and (span_d, span_e) == (r_s.dim, r_t.dim)
    return RangeCriterionCheck(holds, (span_d, span_e), worst)


def separable_decomposition(b: float):
    """The nine product-vector pairs reconstructing the theta = 0 edge state.

    Returns ``[(x, y), ...]`` such that ``sum proj(x (x) y) / (3 b)`` equals
    ``edge_state(b, 0)``; the phases run over the third roots of unity.
    """
    if b <= 0:
        raise InvalidParamError(f"b must be positive, got {b}")
    sb = math.sqrt(b)
    roots = [cmath.exp(2j * math.pi * k / 3) for k in (0, 1, -1)]
    pairs = []
    for factors in (
        lambda w: ((0, 1, sb * w), (0, sb, -w.conjugate())),
        lambda w: ((sb * w, 0, 1), (-w.conjugate(), 0, sb)),
        lambda w: ((1, sb * w, 0), (sb, -w.conjugate(), 0)),
    ):
        for w in roots:
            x, y = factors(w)
            pairs.append((np.array(x, dtype=complex), np.array(y, dtype=complex)))
    return pairs


def reconstruct_separable(b: float) -> float:
    """Max-norm error of the product-vector reconstruction of the theta=0 state."""
    target = edge_state(b, 0.0).mat
    total = np.zeros_like(target)
    for x, y in separable_decomposition(b):
        total += proj(product_vector(x, y))
    return float(np.max(np.abs(total / (3 * b) - target)))


def gram_realization(g: np.ndarray, rel_tol: float = RANK_RTOL) -> np.ndarray:
    """``V`` with ``V V^H = g`` for a PSD Gram matrix ``g``, one column per nonzero eigenvalue.

    The columns are the eigenvectors of ``g`` scaled by the square roots of
    their eigenvalues, in descending order.
    """
    g = np.asarray(g, dtype=complex)
    if np.linalg.norm(g - g.conj().T) > HERM_RTOL * max(np.linalg.norm(g), 1.0):
        raise NotHermitianError("gram matrix is not Hermitian")
    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
    top = np.abs(vals).max()
    if vals[0] < -PSD_ATOL * max(1.0, top):
        raise NotPSDError("gram matrix has a negative eigenvalue beyond tolerance")
    keep = vals[::-1] > rel_tol * top
    return vecs[:, ::-1][:, keep] * np.sqrt(vals[::-1][keep])


def cyclic_map_apply(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """The cyclically-weighted reduction map on a 3x3 matrix.

    Diagonal output entries are the cyclic weighted sums of the input
    diagonal; off-diagonal entries are negated.
    """
    if min(a, b, c) < 0:
        raise InvalidParamError("weights must be nonnegative")
    x = np.asarray(x, dtype=complex)
    if x.shape != (3, 3):
        raise DimensionMismatchError(f"expected a 3x3 matrix, got shape {x.shape}")
    out = -x.copy()
    np.fill_diagonal(out, np.array([[a, b, c], [c, a, b], [b, c, a]]) @ np.diag(x))
    return out


def choi_ppt_region(a: float, b: float, c: float) -> bool:
    """Exact PPT region of the cyclically-weighted map: a >= 2 and b*c >= 1."""
    if min(a, b, c) < 0:
        raise InvalidParamError("weights must be nonnegative")
    return a >= 2 and b * c >= 1


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_rank_hermitian(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Hermitian with exactly `rank` eigenvalues of magnitude in [1, 2]."""
    u = random_unitary(rng, dim)
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(1.0, 2.0, rank) * rng.choice([-1.0, 1.0], rank)
    return (u * vals) @ u.conj().T


def planted_rank_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    u = random_unitary(rng, dim)
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(0.5, 2.0, rank)
    return (u * vals) @ u.conj().T


def random_edge_params(rng: np.random.Generator, theta_margin: float = 0.02):
    """(b, theta) in the strict edge condition, away from the boundary."""
    b = rng.uniform(0.1, 10.0)
    limit = math.pi / 3 - theta_margin
    theta = 0.0
    while abs(theta) < 1e-3:
        theta = rng.uniform(-limit, limit)
    return b, theta


def random_gram_spec(rng: np.random.Generator, allow_singular: bool = True) -> GramSpec:
    """Random PSD GramSpec; off-diagonals are unimodular with probability 1/2.

    With probability 1/4 the spec has an exactly singular (rank-two) Gram
    matrix so that both branches of the rank formulas get exercised.
    """
    if allow_singular and rng.uniform() < 0.25:
        _, theta = random_edge_params(rng)
        target = int(rng.integers(5, 9))
        return GramSpec(theta, *singular_gram_offdiags(theta, target))
    while True:
        _, theta = random_edge_params(rng)
        entries = []
        for _ in range(3):
            phase = cmath.exp(2j * math.pi * rng.uniform())
            radius = 1.0 if rng.uniform() < 0.5 else rng.uniform(0, 0.95)
            entries.append(radius * phase)
        spec = GramSpec(theta, *entries)
        if np.linalg.eigvalsh(spec.gram())[0] >= 1e-8:
            return spec


def assert_same_entries(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes and entries, with the signs of zero real and imaginary parts."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def outcome(f, *args):
    """``f(*args)``, or the edgelab error it raises."""
    try:
        return f(*args)
    except EdgeLabError as exc:
        return exc


def assert_same_outcome(got, want) -> None:
    """Both raised the same error with the same text, or returned the same entries."""
    if isinstance(want, EdgeLabError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, EdgeLabError), got
        assert_same_entries(got, want)


# ----------------------------------------------------------------------------
# Bit-exact oracles: the Hermiticity check, the spectrum reading and the
# family builds as edgelab wrote them with one numpy call per reduction or
# block, and the search's 3 x 3 eigenvectors as written before their cubic
# was shared, kept so the current versions can be compared with them bit for
# bit, errors and their messages included.


def reference_check_hermitian(m) -> np.ndarray:
    """Near-Hermiticity check and symmetrization with two norms per matrix."""

    def squared_norms(m, mh):
        r = np.ascontiguousarray(m).view(np.float64)
        d = (m - mh).view(np.float64)
        return np.maximum(np.einsum("...ij,...ij->...", r, r), 1.0), np.einsum("...ij,...ij->...", d, d)

    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError("expected a square matrix")
    mh = m.conj().swapaxes(-2, -1)
    scale2, asym2 = squared_norms(m, mh)
    fails = (asym2 > HERM_RTOL**2 * scale2) | np.isinf(scale2)
    if not fails.any():
        return (m + mh) / 2
    if np.isinf(scale2).any():
        c = np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True), 1.0)
        scale2, asym2 = squared_norms(m / c, mh / c)
        fails = asym2 > HERM_RTOL**2 * scale2
        if not fails.any():
            return m / 2 + mh / 2
    i = np.argmax(fails)
    where = f" (matrix {i} of the stack)" if fails.size > 1 else ""
    rel = np.sqrt(asym2.flat[i] / scale2.flat[i])
    raise NotHermitianError(f"not Hermitian{where}: relative asymmetry {rel:.3e} exceeds {HERM_RTOL:.1e}")


def reference_rank_psd(vals: np.ndarray, rel_tol: float, abs_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and PSD flags from eigenvalues in any order, by full reductions."""
    mag = np.abs(vals)
    scale = np.maximum(1.0, mag.max(axis=-1))
    smax = mag.max(axis=-1, keepdims=True, initial=0.0)
    return (mag > rel_tol * smax).sum(axis=-1), vals.min(axis=-1) >= -abs_tol * scale


# the search's eigh fallback floor, restated
GAP_FLOOR = 1e-5


def reference_smallest_eigvecs(h: np.ndarray) -> np.ndarray:
    """The search's closed-form smallest eigenvectors of Hermitian 3 x 3 ``h[b]``
    as written before their cubic moved into ``linalg``, whole in one function."""
    b, tiny = len(h), np.finfo(float).tiny
    nxt, prv = np.array([1, 2, 0]), np.array([2, 0, 1])
    e = h.reshape(b, 9).T[np.array([0, 4, 8, 5, 6, 1])]
    e /= np.maximum(np.abs(e).max(axis=0), tiny)
    d, g = e[:3].real, e[3:]
    g2 = np.abs(g) ** 2
    gg = g[nxt] * g[prv]
    q = d.sum(axis=0) / 3
    d0 = d - q
    two_p = np.sqrt(((d0 * d0).sum(axis=0) + 2 * g2.sum(axis=0)) * (2 / 3))
    det = d0.prod(axis=0) + 2 * (g[0] * gg[0]).real - (d0 * g2).sum(axis=0)
    r = np.minimum(np.maximum(4 * det / np.maximum(two_p**3, tiny), -1.0), 1.0)
    dl = d0 - two_p * np.cos(np.arccos(r) / 3 + 2 * np.pi / 3)
    ad = dl[nxt] * dl[prv] - g2
    a = gg.conj() - dl * g
    adj = np.concatenate([ad, a, a.conj()])
    columns = np.array([[0, 8, 4], [5, 1, 6], [7, 3, 2]])
    v = adj[columns[ad.argmax(axis=0)], np.arange(b)[:, None]]
    n = np.abs(v)
    v /= np.maximum(np.sqrt((n * n).sum(axis=1)), tiny)[:, None]
    t = ad.sum(axis=0)
    if not t.min() > GAP_FLOOR:
        rows = ~(t > GAP_FLOOR)
        v[rows] = np.linalg.eigh(h[rows])[1][:, :, 0]
    return v


def _reference_require_finite(**values) -> None:
    for name, val in values.items():
        if not cmath.isfinite(val):
            raise InvalidParamError(f"{name} must be finite, got {val}")


def _reference_operator(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise InvalidParamError("matrix entries must be finite")
    return a


_TRIPLE_BLOCK = np.ix_((0, 4, 8), (0, 4, 8))
_REST_DIAGONAL = ((1, False), (2, True), (3, True), (5, False), (6, False), (7, True))


def reference_coupled_core(b: float, diagonal: float, theta: float) -> np.ndarray:
    """The edge-family core from the phase circulant, ``fill_diagonal`` and ``np.ix_``."""
    if b <= 0:
        raise InvalidParamError(f"b must be positive, got {b}")
    _reference_require_finite(theta=theta)
    e = cmath.exp(1j * theta)
    core = np.array(
        [
            [2 * math.cos(theta), -e, -e.conjugate()],
            [-e.conjugate(), 2 * math.cos(theta), -e],
            [-e, -e.conjugate(), 2 * math.cos(theta)],
        ]
    )
    np.fill_diagonal(core, diagonal)
    a = np.zeros((9, 9), dtype=complex)
    a[_TRIPLE_BLOCK] = core
    for idx, plain in _REST_DIAGONAL:
        a[idx, idx] = b if plain else 1 / b
    return a


def reference_edge_matrix(b: float, theta: float) -> np.ndarray:
    _reference_require_finite(theta=theta)
    return _reference_operator(reference_coupled_core(b, 2 * math.cos(theta), theta))


def reference_generalized_edge_matrix(b: float, theta: float) -> np.ndarray:
    return _reference_operator(reference_coupled_core(b, min_psd_diagonal(theta), theta))


def reference_corner_matrix(b: float) -> np.ndarray:
    if b <= 0:
        raise InvalidParamError(f"b must be positive, got {b}")
    a = np.zeros((9, 9), dtype=complex)
    a[_TRIPLE_BLOCK] = np.ones((3, 3))
    for idx, plain in _REST_DIAGONAL:
        a[idx, idx] = b if plain else 1 / b
    return _reference_operator(a)


def reference_choi_matrix(a: float, b: float, c: float) -> np.ndarray:
    """The Choi matrix by one masked write per kind of entry, as a 3x3x3x3 grid of blocks."""
    if any(w < 0 for w in (a, b, c)):
        raise InvalidParamError("weights must be nonnegative")
    weights = np.array([[a, b, c], [c, a, b], [b, c, a]])
    mat = np.full((9, 9), complex(-0.0, -0.0))
    mat[_TRIPLE_BLOCK] = complex(-1.0, -0.0)
    blocks = mat.reshape(3, 3, 3, 3)
    k = np.arange(3)
    blocks[:, k, :, k] = 0.0
    blocks[k[:, None], k, k[:, None], k] = weights.T + 0.0
    return _reference_operator(mat)


def reference_face_matrix(b: float, g: GramSpec) -> np.ndarray:
    """The face state as the edge state plus its couplings, each step validated."""
    _reference_require_finite(theta=g.theta, xi_eta=g.xi_eta, eta_zeta=g.eta_zeta, zeta_xi=g.zeta_xi)
    offdiags = g.offdiagonals()
    for val in offdiags:
        if abs(val) > 1 + 1e-12:
            raise OffdiagTooLargeError(f"|{val}| > 1")
    vals = np.linalg.eigvalsh(reference_check_hermitian(g.gram()))
    if not reference_rank_psd(vals, RANK_RTOL, PSD_ATOL)[1]:
        raise GramNotPSDError("implied Gram matrix is not PSD")
    x = reference_edge_matrix(b, g.theta)
    for (row, col), val in zip(((3, 1), (7, 5), (2, 6)), offdiags):
        x[row, col] = val
        x[col, row] = val.conjugate()
    return _reference_operator(x)


# Each family's member at one point, from the one-point constructors (face couplings
# complex, as the CLI passes them).
REFERENCE_FAMILIES = {
    "p-theta": lambda p: BipartiteOperator(1, 3, phase_circulant(p["theta"])),
    "edge": lambda p: edge_state(p["b"], p["theta"]),
    "edge-general": lambda p: generalized_edge_state(p["b"], p["theta"]),
    "state-7-6": lambda p: corner_state(p["b"]),
    "choi": lambda p: choi_matrix(p["a"], p["b"], p["c"]),
    "p5": lambda p: face_state(p["b"], GramSpec(p["theta"], *singular_gram_offdiags(p["theta"], p["target_p"]))),
    "face": lambda p: face_state(p["b"], GramSpec(p["theta"], p["xi_eta"], p["eta_zeta"], p["zeta_xi"])),
}


def cli_command(*argv: str) -> list[str]:
    """The command that runs ``edgelab *argv`` in a child process.  The child
    fails on a RuntimeWarning, as pyproject.toml's ``filterwarnings`` fails a
    test on one."""
    return [sys.executable, "-W", "error::RuntimeWarning", "-m", "edgelab.cli", *argv]


@functools.cache
def _sweep_parser():
    """The parser of ``edgelab sweep``, built once: a parser holds no state between parses."""
    return cli.make_parser({"sweep": cli.COMMANDS["sweep"]})


def reference_sweep(argv: list[str]) -> tuple[int, str, str]:
    """``edgelab sweep`` with each grid point built as one operator by its
    constructor, then classified and searched chunk by chunk through
    ``classify_many`` and ``product_vector_search_many``: the exit code, the
    standard output and the standard error of ``cli.main(argv)``."""
    args = _sweep_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        with np.errstate(over="ignore"), contextlib.redirect_stdout(out):
            _reference_sweep(args)
        code = 0
    except (EdgeLabError, np.linalg.LinAlgError) as exc:
        print(f"edgelab: error: {exc}", file=err)
        code = 2
    return code, out.getvalue(), err.getvalue()


def _reference_sweep(args) -> None:
    family = args.family
    if family == "face":
        raise InvalidParamError(f"sweep does not support family {family!r}")
    columns = FAMILIES[family][0]
    search = {name: getattr(args, name) for name in ("starts", "seed") if getattr(args, name) is not None}
    if search and not args.search:
        raise InvalidParamError(f"sweep without --search takes no --{next(iter(search))}")
    if not args.range:
        raise InvalidParamError("provide at least one --range NAME=START:STOP:STEPS")
    ranges = {}
    for text in args.range:
        name, steps, values = cli._parse_range(text)
        if name not in columns:
            raise InvalidParamError(f"family {family!r} has no parameter {name!r}")
        if name in ranges:
            raise InvalidParamError(f"parameter {name!r} has more than one --range")
        ranges[name] = (steps, lambda i, values=values: values(np.array([i])).tolist()[0])
    fixed = {}
    for pname in columns:
        if pname in ranges:
            continue
        val = getattr(args, pname)
        if val is None:
            raise InvalidParamError(f"fix parameter {cli._option(pname)} or sweep it")
        fixed[pname] = val
    axes = [(name, steps, value, name == "target_p") for name, (steps, value) in reversed(ranges.items())]

    def point(k: int) -> dict:
        params = dict(fixed)
        for name, steps, value, integral in axes:
            k, i = divmod(k, steps)
            v = value(i)
            params[name] = int(v) if integral and v.is_integer() else v
        return params

    def chunks():
        total = math.prod(steps for steps, _ in ranges.values())
        for lo in range(0, total, cli.SWEEP_CHUNK):
            points = [point(k) for k in range(lo, min(lo + cli.SWEEP_CHUNK, total))]
            ops = [REFERENCE_FAMILIES[family](params) for params in points]
            rows = [
                [params[name] for name in columns] + [c.is_ppt, c.type[0], c.type[1]]
                for params, c in zip(points, classify_many(ops))
            ]
            if args.search:
                for row, r in zip(rows, product_vector_search_many(ops, **search)):
                    row.append(r.best_objective)
            yield [[repr(v) if isinstance(v, float) else v for v in row] for row in rows]

    done = chunks()
    first = next(done)
    writer = csv.writer(sys.stdout)
    writer.writerow(list(columns) + ["isPPT", "p", "q"] + (["bestObjective"] if args.search else []))
    for rows in itertools.chain([first], done):
        writer.writerows(rows)
