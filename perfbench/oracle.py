"""Expected answers that do not reuse edgelab's numerics.

Types and PPT flags come from closed forms of each family (PAPER.md and the
constructor docstrings, re-derived here from the matrix layouts); witness
checks compute ranges with ``numpy.linalg.eigh`` directly.  The numpy
functions are bound at import, before a traced run replaces the module
attributes, so oracle work never shows up in a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

_EIGH = np.linalg.eigh
_EIGVALSH = np.linalg.eigvalsh

# A closed-form eigenvalue counts as zero below this share of the largest one.
# Draws keep every eigenvalue that is not exactly zero in exact arithmetic at
# least DRAW_MARGIN away, so this cut never decides a random point.
ZERO_RTOL = 1e-9
DRAW_MARGIN = 1e-3
# A reported witness must lie this close to both ranges (unit vectors).
WITNESS_TOL = 1e-6
FOUND_THRESHOLD = 1e-9


@dataclass(frozen=True)
class Expected:
    """What a correct classification (and search) of one input reports.

    ``edge`` is True when no product vector exists in the range pair (the
    paper's edge condition), False when a witness is known to exist, and None
    when the benchmark has no independent answer.
    """

    m: int
    n: int
    is_psd: bool
    is_ppt: bool
    type: tuple[int, int]
    edge: bool | None = None

    @property
    def kernel_dims(self) -> tuple[int, int]:
        d = self.m * self.n
        return (d - self.type[0], d - self.type[1])

    @property
    def admissibility(self) -> str:
        return admissibility(self.m, self.n, *self.type)


def admissibility(m: int, n: int, p: int, q: int) -> str:
    """Rank-bound verdict for an m x n type (p, q), as in the paper."""
    if p <= max(m, n) or q <= max(m, n):
        return "BelowLowerBound"
    boundary = 2 * m * n - m - n + 2
    alt = sum((-1) ** r * comb(m * n - p, r) * comb(m * n - q, m - 1 - r) for r in range(m))
    if p + q > boundary or (p + q == boundary and alt != 0):
        return "ForcesProductVector"
    return "Admissible"


def _rank(values) -> int:
    values = [abs(v) for v in values]
    top = max(values)
    return sum(v > ZERO_RTOL * max(top, 1.0) for v in values)


def _nonneg(values) -> bool:
    top = max(abs(v) for v in values)
    return all(v >= -ZERO_RTOL * max(top, 1.0) for v in values)


def circulant_eigs(diag: float, theta: float) -> list[float]:
    """Eigenvalues of the 3x3 circulant with diagonal ``diag`` and off-diagonals -e^{+-i theta}."""
    return [diag - 2 * math.cos(theta + 2 * math.pi * k / 3) for k in range(3)]


def circulant_margin(diag: float, theta: float) -> float:
    """Distance from zero of the circulant eigenvalues that are not exactly zero.

    For the families drawn here the zero eigenvalue is computed as the
    difference of two identical expressions, so it comes out exactly 0.0.
    """
    return min((abs(v) for v in circulant_eigs(diag, theta) if v != 0.0), default=math.inf)


def _coupled(diag: float, theta: float, edge: bool | None) -> Expected:
    # Coordinates {0, 4, 8} carry the circulant, the other six a positive
    # diagonal.  The partial transpose keeps the three diagonal entries and
    # moves each unimodular coupling into a 2x2 block [[b, e], [e*, 1/b]] of
    # determinant zero on the pairs {1,3}, {5,7}, {2,6}.
    eigs = circulant_eigs(diag, theta)
    psd = _nonneg(eigs)
    p = 6 + _rank(eigs)
    q = 3 * _rank([diag]) + 3
    pt_psd = diag >= 0
    return Expected(3, 3, psd, psd and pt_psd, (p, q), edge)


def strict_edge_region(b: float, theta: float) -> bool:
    return b > 0 and 0 < abs(theta) < math.pi / 3


def expect_edge(b: float, theta: float) -> Expected:
    # Edge state for b > 0, 0 < |theta| < pi/3; separable at theta = 0, and
    # at |theta| = pi/3 the circulant has rank one and product vectors exist.
    if strict_edge_region(b, theta):
        edge = True
    elif theta == 0 or abs(abs(theta) - math.pi / 3) < 1e-15:
        edge = False
    else:
        edge = None
    return _coupled(2 * math.cos(theta), theta, edge)


def general_edge_diag(theta: float) -> float:
    """Smallest diagonal that keeps the circulant PSD: the largest 2cos(theta + 2 pi k/3)."""
    return max(2 * math.cos(theta + 2 * math.pi * k / 3) for k in range(3))


def expect_general_edge(b: float, theta: float) -> Expected:
    return _coupled(general_edge_diag(theta), theta, None)


def expect_corner(b: float) -> Expected:
    # all-ones block on {0, 4, 8} (rank one); the transpose turns it into
    # three rank-one 2x2 blocks plus a unit diagonal.  Edge iff b != 1.
    return Expected(3, 3, True, True, (7, 6), b != 1)


def expect_choi(a: float, b: float, c: float) -> Expected:
    # {0, 4, 8}: a on the diagonal, -1 off it (eigenvalues a + 1, a + 1, a - 2);
    # coordinates 1, 5, 6 hold c and 2, 3, 7 hold b.  The transpose leaves a on
    # {0, 4, 8} and three blocks [[c, -1], [-1, b]] (det bc - 1).
    core = [a + 1, a + 1, a - 2]
    block = [b + c, b * c - 1]  # trace and determinant
    psd = _nonneg(core) and b >= 0 and c >= 0
    pt_psd = a >= 0 and _nonneg(block)
    p = _rank(core) + 3 * (b != 0) + 3 * (c != 0)
    q = 3 * (a != 0) + 3 * (1 if abs(b * c - 1) <= ZERO_RTOL * max(1.0, b * c) else 2)
    return Expected(3, 3, psd, psd and pt_psd, (p, q), None)


def face_gram(theta: float, rho: complex, sigma: complex, tau: complex) -> np.ndarray:
    d = 2 * math.cos(theta)
    rho, sigma, tau = complex(rho), complex(sigma), complex(tau)
    return np.array(
        [[d, rho, tau.conjugate()], [rho.conjugate(), d, sigma], [tau, sigma.conjugate(), d]]
    )


def face_gram_eigs(theta: float, couplings) -> np.ndarray:
    return _EIGVALSH(face_gram(theta, *couplings))


def expect_face(b: float, theta: float, couplings) -> Expected:
    # p = 2 + sum of the ranks of the three 2x2 coupling blocks (det 1 - |v|^2)
    # q = 3 + rank of the Gram matrix of the couplings.
    p = 2 + sum(1 if abs(abs(complex(v)) - 1) <= 1e-12 else 2 for v in couplings)
    return Expected(3, 3, True, True, (p, 3 + _rank(face_gram_eigs(theta, couplings))), None)


def expect_p5(b: float, theta: float, target_p: int) -> Expected:
    return Expected(3, 3, True, True, (target_p, 5), None)


def expect_ptheta(theta: float) -> Expected:
    # the 1 x 3 operator is its own partial transpose
    eigs = circulant_eigs(2 * math.cos(theta), theta)
    r = _rank(eigs)
    psd = _nonneg(eigs)
    return Expected(1, 3, psd, psd, (r, r), None)


def check_classification(c, exp: Expected) -> list[str]:
    """Mismatches between an edgelab Classification and the closed form."""
    got = {
        "isPSD": c.is_psd,
        "isPPT": c.is_ppt,
        "type": tuple(c.type),
        "kernelDims": tuple(c.kernel_dims),
        "admissibility": c.admissibility.value,
    }
    return check_report(got, exp)


def check_report(got: dict, exp: Expected) -> list[str]:
    """Mismatches for a classification given as the CLI's JSON field names."""
    want = {
        "isPSD": exp.is_psd,
        "isPPT": exp.is_ppt,
        "type": exp.type,
        "kernelDims": exp.kernel_dims,
        "admissibility": exp.admissibility,
    }
    return [
        f"{key} {got[key]!r} != expected {val!r}"
        for key, val in want.items()
        if (tuple(got[key]) if isinstance(val, tuple) else got[key]) != val
    ]


def partial_transpose(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    return mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def range_residual(mat: np.ndarray, rank: int, v: np.ndarray) -> float:
    """Distance of unit ``v`` from the span of the top ``rank`` eigenvectors."""
    h = (mat + mat.conj().T) / 2
    _, vecs = _EIGH(h)
    basis = vecs[:, vecs.shape[1] - rank :]
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(v - basis @ (basis.conj().T @ v)))


def check_search(result, mat: np.ndarray, exp: Expected, certified: bool) -> list[str]:
    """Mismatches between a product-vector search result and what is known.

    ``certified`` is the analytic tier's verdict for the input (edge family
    in the strict region); a FOUND verdict there contradicts it.
    """
    found = result.verdict.value == "ProductVectorFound"
    if found != (result.best_objective <= FOUND_THRESHOLD):
        return [f"verdict {result.verdict.value} disagrees with objective {result.best_objective:.3e}"]
    errors = []
    if found and certified:
        errors.append(
            f"FOUND (objective {result.best_objective:.3e}) where the analytic tier certifies edge"
        )
    if found and exp.edge:
        errors.append("FOUND on a state the paper proves edge")
    if not found and exp.edge is False:
        errors.append(f"no witness found (objective {result.best_objective:.3e}) where one exists")
    if found:
        x, y = np.asarray(result.best_x), np.asarray(result.best_y)
        p, q = exp.type
        r_s = range_residual(mat, p, np.kron(x, y))
        r_t = range_residual(partial_transpose(mat, exp.m, exp.n), q, np.kron(np.conj(x), y))
        if max(r_s, r_t) > WITNESS_TOL:
            errors.append(f"witness off the ranges: residuals {r_s:.2e}, {r_t:.2e}")
    return errors

