"""Constructors for the parameterized bi-qutrit state families.

All constructors return matrices exactly as parameterized (unnormalized).
The 9x9 layout follows the block convention of :class:`~edgelab.linalg.BipartiteOperator`:
composite index ``(i, k) -> 3*i + k``.

The phase-coupled entries of every family live on the principal submatrix
with indices ``{0, 4, 8}`` (the "diagonal" product-basis vectors), while the
remaining six coordinates pair up as ``{1, 3}``, ``{2, 6}`` and ``{5, 7}``.
Ranks and kernels of the families decompose accordingly.

The edge, generalized edge, corner and Choi families write 15 entries at
:data:`_CORE_FLAT`, and the face family those and its three coupling pairs at
:data:`_FACE_FLAT`, each family from one function that validates a point and
gives them; :func:`_matrix` writes one point.  Each family's builder in
:data:`FAMILIES`, the table of the families by name, takes a chunk of points
as parameter columns and writes their entries with :func:`_stack`.  The edge
family's builder computes them from arrays, after checks on whole columns
that accept exactly what :func:`_edge_entries` accepts; when a check fails,
the point function runs over the points in turn and raises the first invalid
point's error.  The other builders run their point functions point by point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GramNotPSDError, InvalidParamError, OffdiagTooLargeError
from .linalg import BipartiteOperator, _rank_psd

# Coordinate pairs carrying the off-diagonal inner products of the face
# family (state side / transpose side).
FACE_COUPLINGS = ((3, 1), (7, 5), (2, 6))
# Flat positions (9 * row + col) of the entries of the scattered families, in
# triples of one value each: the diagonal on {0, 4, 8}, the couplings between
# them at (i, i + 1) and at (i, i - 1) (mod 3), then the other diagonal, its
# entries of 1/b and of b.
_CORE_FLAT = np.array([0, 40, 80, 4, 44, 72, 8, 36, 76, 10, 50, 60, 20, 30, 70])
# Those of the face family: the core, then each coupling pair of FACE_COUPLINGS.
_FACE_FLAT = np.concatenate([_CORE_FLAT, [k for r, c in FACE_COUPLINGS for k in (9 * r + c, 9 * c + r)]])
_ZEROS = np.zeros(81, dtype=complex)
# The zeros of choi_matrix, flat, as the map gives them: +0 on block diagonals, -0 elsewhere.
_CHOI_ZEROS = np.full(81, complex(-0.0, -0.0))
_CHOI_ZEROS[[27 * i + 3 * j + 10 * k for i in range(3) for j in range(3) for k in range(3)]] = 0.0

OFFDIAG_SLACK = 1e-12


def _require_finite(**values) -> None:
    """Reject non-finite angles and couplings before any arithmetic on them."""
    for name, val in values.items():
        if not cmath.isfinite(val):
            raise InvalidParamError(f"{name} must be finite, got {val}")


def edge_condition_holds(b: float, theta: float) -> bool:
    """Strict parameter condition of the edge family: b > 0, 0 < |theta| < pi/3."""
    return b > 0 and 0 < abs(theta) < math.pi / 3


def _phases(theta: float) -> tuple[complex, ...]:
    """The off-diagonal entries of :func:`phase_circulant`, row by row."""
    e = cmath.exp(1j * theta)
    return (-e, -e.conjugate(), -e.conjugate(), -e, -e, -e.conjugate())


def phase_circulant(theta: float) -> np.ndarray:
    """3x3 Hermitian circulant with diagonal 2cos(theta) and off-diagonals -e^{+-i theta}.

    Annihilates (1, 1, 1); PSD exactly for |theta| <= pi/3, with rank two in
    the open interval and rank one at the endpoints.
    """
    _require_finite(theta=theta)
    d, (c01, c02, c10, c12, c20, c21) = 2 * math.cos(theta), _phases(theta)
    return np.array([[d, c01, c02], [c10, d, c12], [c20, c21, d]])


def min_psd_diagonal(theta: float) -> float:
    """Smallest constant diagonal making the phase-circulant pattern PSD.

    The circulant eigenvalues are ``d - 2cos(theta + 2k*pi/3)``, so the
    minimum is the largest of the three shifted cosines.
    """
    _require_finite(theta=theta)
    third = 2 * math.pi / 3
    return max(2 * math.cos(theta - third), 2 * math.cos(theta), 2 * math.cos(theta + third))


def _matrix(entries: tuple, flat: np.ndarray = _CORE_FLAT, base: np.ndarray = _ZEROS) -> np.ndarray:
    """A copy of the flat ``base`` with the ``entries`` at the positions ``flat``, as a 9x9 matrix."""
    a = base.copy()
    a[flat] = entries
    return a.reshape(9, 9)


def _stack(rows, flat: np.ndarray = _CORE_FLAT, base: np.ndarray = _ZEROS) -> np.ndarray:
    """:func:`_matrix` of each of the k ``rows`` of entries, in one scatter: a (k, 9, 9) stack."""
    a = np.empty((len(rows), 81), dtype=complex)
    a[:] = base
    a[:, flat] = rows
    return a.reshape(-1, 9, 9)


def _core_entries(b: float, diagonal: float, upper: complex, lower: complex) -> tuple:
    """``diagonal`` on the coordinates {0, 4, 8}, ``upper`` and ``lower`` between
    them, and ``1/b`` or ``b`` on the other diagonal entries, as :data:`_CORE_FLAT` orders them."""
    if b <= 0:
        raise InvalidParamError(f"b must be positive, got {b}")
    if not math.isfinite(b) or not math.isfinite(1 / b):
        raise InvalidParamError("matrix entries must be finite")
    return (diagonal,) * 3 + (upper,) * 3 + (lower,) * 3 + (1 / b,) * 3 + (b,) * 3


def _edge_entries(b: float, theta: float) -> tuple:
    _require_finite(theta=theta)
    return _core_entries(b, 2 * math.cos(theta), *_phases(theta)[:2])


def _generalized_entries(b: float, theta: float) -> tuple:
    return _core_entries(b, min_psd_diagonal(theta), *_phases(theta)[:2])


def _corner_entries(b: float) -> tuple:
    return _core_entries(b, 1.0, 1.0, 1.0)


def _choi_entries(a: float, b: float, c: float) -> tuple:
    """Weight (k, i) at diagonal entry 3i + k, over :data:`_CHOI_ZEROS`; a -0.0 weight as the map's +0.0."""
    if any(w < 0 for w in (a, b, c)):
        raise InvalidParamError("weights must be nonnegative")
    if not all(map(math.isfinite, (a, b, c))):
        raise InvalidParamError("matrix entries must be finite")
    a, b, c = a + 0.0, b + 0.0, c + 0.0
    return (a,) * 3 + (complex(-1.0, -0.0),) * 6 + (c,) * 3 + (b,) * 3


def edge_state(b: float, theta: float) -> BipartiteOperator:
    """The phase-parameterized 9x9 family with ranks (8, 6).

    Diagonal ``(2cos(theta), 1/b, b, b, 2cos(theta), 1/b, 1/b, b, 2cos(theta))``
    with the phase circulant on coordinates ``{0, 4, 8}``.  PPT whenever
    |theta| <= pi/3; an entangled edge state under the strict condition
    (see :func:`edge_condition_holds`).
    """
    return BipartiteOperator(3, 3, _matrix(_edge_entries(b, theta)))


def generalized_edge_state(b: float, theta: float) -> BipartiteOperator:
    """Edge-family variant that stays PPT for every theta.

    The three phase-coupled diagonal entries are raised to the smallest value
    keeping that block PSD; for |theta| <= pi/3 this coincides with
    :func:`edge_state`.
    """
    return BipartiteOperator(3, 3, _matrix(_generalized_entries(b, theta)))


def corner_state(b: float) -> BipartiteOperator:
    """The all-ones-corner family of ranks (7, 6).

    Same diagonal pattern as the edge family with the phase entries replaced
    by +1 couplings and unit phase-diagonal; an edge state exactly when b != 1.
    """
    return BipartiteOperator(3, 3, _matrix(_corner_entries(b)))


def choi_matrix(a: float, b: float, c: float) -> BipartiteOperator:
    """Choi matrix of the cyclically-weighted map: blocks are its values on e_ij.

    The map negates the off-diagonal entries of a 3x3 matrix and replaces
    its diagonal by the cyclic weighted sums ``[[a, b, c], [c, a, b],
    [b, c, a]] @ diag``.  PPT if and only if ``a >= 2`` and ``b * c >= 1``.
    Built in closed form, entry for entry (signed zeros included) what the
    map gives block by block: block ``(i, j)`` is ``-e_ij``, with the
    diagonal of block ``(i, i)`` replaced by column ``i`` of the weight
    matrix and that of every other block by zeros.
    """
    return BipartiteOperator(3, 3, _matrix(_choi_entries(a, b, c), base=_CHOI_ZEROS))


def offdiag_gram(theta: float, rho: complex, sigma: complex, tau: complex) -> np.ndarray:
    """3x3 Hermitian matrix with diagonal 2cos(theta) and prescribed off-diagonals.

    Row/column order matches the three abstract vectors of the face family;
    ``rho``, ``sigma``, ``tau`` sit at positions (0,1), (1,2) and (2,0).
    With all three equal to ``-e^{i theta}`` this is :func:`phase_circulant`.
    """
    _require_finite(theta=theta, rho=rho, sigma=sigma, tau=tau)
    return _gram(2 * math.cos(theta), complex(rho), complex(sigma), complex(tau))


def _gram(d: float, rho: complex, sigma: complex, tau: complex) -> np.ndarray:
    """The layout of :func:`offdiag_gram`: ``d`` on the diagonal, ``rho``, ``sigma``,
    ``tau`` at (0,1), (1,2), (2,0) and their conjugates opposite, for checked values."""
    row_major = [d, rho, tau.conjugate(), rho.conjugate(), d, sigma, tau, sigma.conjugate(), d]
    return np.array(row_major, dtype=complex).reshape(3, 3)


@dataclass(frozen=True)
class GramSpec:
    """Off-diagonal inner products (and phase) defining a face-family state.

    ``xi_eta``, ``eta_zeta`` and ``zeta_xi`` are the pairwise inner products
    of three abstract vectors whose common squared norm is ``2cos(theta)``.
    """

    theta: float
    xi_eta: complex = 0j
    eta_zeta: complex = 0j
    zeta_xi: complex = 0j

    def offdiagonals(self) -> tuple[complex, complex, complex]:
        return (complex(self.xi_eta), complex(self.eta_zeta), complex(self.zeta_xi))

    def gram(self) -> np.ndarray:
        """The implied 3x3 Gram matrix."""
        return offdiag_gram(self.theta, *self.offdiagonals())


def _face_entries(b: float, g: GramSpec) -> tuple:
    """The edge family's core entries, then each coupling and its conjugate, at :data:`_FACE_FLAT`.

    Checks each input once, in this order: theta and the couplings finite,
    each coupling at most ``1 + OFFDIAG_SLACK`` in modulus, the Gram matrix
    PSD, then ``b``.
    """
    theta = g.theta
    _require_finite(theta=theta, xi_eta=g.xi_eta, eta_zeta=g.eta_zeta, zeta_xi=g.zeta_xi)
    rho, sigma, tau = g.offdiagonals()
    for val in (rho, sigma, tau):
        if abs(val) > 1 + OFFDIAG_SLACK:
            raise OffdiagTooLargeError(f"|{val}| > 1")
    d = 2 * math.cos(theta)
    # finite couplings give a finite, exactly Hermitian Gram matrix, whose spectrum eigvalsh reads as it is
    if not _rank_psd(np.linalg.eigvalsh(_gram(d, rho, sigma, tau)))[1]:
        raise GramNotPSDError("implied Gram matrix is not PSD")
    couplings = (rho, rho.conjugate(), sigma, sigma.conjugate(), tau, tau.conjugate())
    return _core_entries(b, d, *_phases(theta)[:2]) + couplings


def face_state(b: float, g: GramSpec) -> BipartiteOperator:
    """State in the face spanned by the edge family, with prescribed couplings.

    Equals ``edge_state(b, g.theta)`` plus the three inner products (and their
    conjugates) on the coordinate pairs {1,3}, {5,7}, {2,6}.  The rank of the
    result is ``2 + sum(rank of the three 2x2 coupling blocks)``; the rank of
    its partial transpose is ``3 + rank(g.gram())``.
    """
    return BipartiteOperator(3, 3, _matrix(_face_entries(b, g), _FACE_FLAT))


def singular_gram_offdiags(theta: float, target_p: int) -> tuple[complex, complex, complex]:
    """Off-diagonals making the Gram matrix singular (rank two).

    The face state built from them has partial-transpose rank 5 and rank
    ``target_p``; the choice pins ``8 - target_p`` entries to absolute value
    one.  Valid for theta satisfying the strict edge condition.
    """
    if not edge_condition_holds(1.0, theta):
        raise InvalidParamError("theta must satisfy 0 < |theta| < pi/3")
    ct = math.cos(theta)
    if target_p == 8:
        out = (-ct, -ct, -ct)
    elif target_p == 7:
        r = math.sqrt(2 * ct * ct - ct)
        out = (r, -r, 1.0)
    elif target_p == 6:
        r = -math.cos(2 * theta) / ct
        out = (1.0, 1.0, r)
    elif target_p == 5:
        e = -cmath.exp(1j * theta)
        out = (e, e, e)
    else:
        raise InvalidParamError(f"target_p must be in 5..8, got {target_p}")
    return tuple(complex(v) for v in out)


def _unit(theta: np.ndarray) -> np.ndarray:
    """``cmath.exp(1j * theta)`` of each finite angle, computed as :func:`_phases`
    computes it: numpy's cosines and sines may differ from libm's in the last
    bit, and ``1j * -0.0`` has the imaginary part +0.0, not -0.0."""
    return np.array([cmath.exp(1j * t) for t in theta.tolist()])


def _core_rows(b: np.ndarray, diagonal, upper, lower):
    """:func:`_core_entries` of each point, or None when a ``b`` fails its checks."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1 / b
        # exactly when b > 0, b and 1/b finite: NaN, b <= 0, b = inf and 1/b = inf fail
        if not ((inv > 0) & (inv < math.inf)).all():
            return None
    return np.repeat(np.stack([diagonal, upper, lower, inv, b], axis=1), 3, axis=1)


def _edge_rows(b, theta):
    """:func:`_edge_entries` of each point, or None when a point fails its checks."""
    if not np.isfinite(theta).all():
        return None
    e = _unit(theta)
    return _core_rows(b, 2 * e.real, -e, -e.conj())


def _p5_entries(b: float, theta: float, target_p: int) -> tuple:
    return _face_entries(b, GramSpec(theta, *singular_gram_offdiags(theta, target_p)))


def _columns(entries, rows=None, flat: np.ndarray = _CORE_FLAT, base: np.ndarray = _ZEROS):
    """A builder of :data:`FAMILIES`: the (k, 9, 9) stack of a chunk from its k-long parameter columns.

    ``rows`` gives the chunk's entries from the columns as float arrays, or
    None when a check fails.  Then, and without ``rows``, ``entries`` of each
    point in turn gives them, so the first invalid point raises its own
    error.  So does one point alone, which ``entries`` builds in a third to a
    quarter of the time of ``rows``.
    """

    def build(*columns):
        got = None
        if rows is not None and len(columns[0]) > 1:
            got = rows(*(np.asarray(col, dtype=float) for col in columns))
        if got is None:
            got = [entries(*point) for point in zip(*columns)]
        return _stack(got, flat, base)

    return build


# Each family's required parameters, in the frozen column order of a sweep, its local
# dimensions, and its builder: the k-long columns of a chunk's parameters, in that order
# (theta in radians, the face family's couplings xi_eta, eta_zeta and zeta_xi complex),
# to their stack.
FAMILIES = {
    "p-theta": (("theta",), (1, 3), lambda theta: np.array([phase_circulant(t) for t in theta])),
    "edge": (("b", "theta"), (3, 3), _columns(_edge_entries, _edge_rows)),
    "edge-general": (("b", "theta"), (3, 3), _columns(_generalized_entries)),
    "state-7-6": (("b",), (3, 3), _columns(_corner_entries)),
    "choi": (("a", "b", "c"), (3, 3), _columns(_choi_entries, base=_CHOI_ZEROS)),
    "face": (
        ("b", "theta", "xi_eta", "eta_zeta", "zeta_xi"), (3, 3),
        _columns(lambda b, theta, *couplings: _face_entries(b, GramSpec(theta, *couplings)), flat=_FACE_FLAT),
    ),
    "p5": (("b", "theta", "target_p"), (3, 3), _columns(_p5_entries, flat=_FACE_FLAT)),
}


def build_family(family: str, params: dict) -> BipartiteOperator:
    """The member of ``family`` at ``params``, keyed as the points of :data:`FAMILIES`.

    Raises :class:`InvalidParamError` naming the first key of the family absent or None in ``params``.
    """
    columns, dims, build = FAMILIES[family]
    for name in columns:
        if params.get(name) is None:
            raise InvalidParamError(f"family {family!r} needs {name}")
    return BipartiteOperator(*dims, build(*([params[name]] for name in columns))[0])
