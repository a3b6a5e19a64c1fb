"""Shared test utilities: golden matrices transcribed entry by entry,
reference implementations that share no numerics with edgelab, and
random-instance generators."""

from __future__ import annotations

import cmath
import math

import numpy as np

from edgelab import (
    DimensionMismatchError,
    EdgeLabError,
    GramSpec,
    InvalidParamError,
    NotHermitianError,
    Subspace,
    singular_gram_offdiags,
)


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


def kernel_basis(m: np.ndarray, rel_tol: float = RANK_RTOL) -> Subspace:
    """Orthonormal basis of the right null space, from the SVD of any matrix.

    The rank counts the singular values above ``rel_tol`` times the largest.
    """
    m = np.asarray(m, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    rank = int(np.count_nonzero(s > rel_tol * s.max())) if s.size else 0
    return Subspace(m.shape[1], vh[rank:].conj().T)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace (the zero matrix if it is empty)."""
    return s.basis @ s.basis.conj().T


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
