"""Multistart product-vector search over the ranges of a state and its
partial transpose.

The objective for unit vectors x, y is

    f(x, y) = ||P_ker(S) (x (x) y)||^2 + ||P_ker(S^tau) (conj(x) (x) y)||^2,

which vanishes exactly on the product vectors witnessing a range-criterion
violation of the edge property.  Both alternating steps are exact: for fixed
x the objective is a Hermitian quadratic form in y, and for fixed y it is one
in x too, since the conjugated term is ``conj(x)^H E conj(x) = x^H conj(E) x``.
Each step is therefore the smallest eigenvector of an m x m or n x n complex
Hermitian matrix, unique up to a global phase.  For 3 x 3 forms, those of
every bi-qutrit state, it comes in closed form (Kopp, Int. J. Mod. Phys. C
19, 523 (2008), arXiv:physics/0610206); only rows whose two smallest
eigenvalues nearly coincide, and forms of other sizes, take ``eigh``.

Both forms are linear in the outer product of the fixed factor: the form in
y has entries ``sum conj(x_i) x_j M[(i, j), (l, o)]``, and the form in x is
the same sum over ``conj(y_l) y_o``, where the (m^2, n^2) matrix ``M`` comes
from the kernel bases once per search.

Each search draws its starting pairs from one generator,
``default_rng(seed)``; start i takes row i of its stream.  The starts run in
index order, in lockstep blocks of :data:`BLOCK`, and a block takes the next
rows: its pairs are stacked as arrays of shape ``(block, m)`` and
``(block, n)``.  One step of every running start of the block is, per
factor, one stacked product of the flattened outer products with ``M`` and
one stacked smallest eigenvector; the objective ``||d x||^2`` then takes two
stacked products.  Every product is stacked row by row, so each start stops
on its own, after the same steps it would take alone, and its result does
not depend on which starts share its block.  Memory grows with the block,
not with the number of starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParamError
from .linalg import RANK_RTOL, BipartiteOperator, _check_hermitian, _rank, partial_transpose

FOUND_THRESHOLD = 1e-9

# A start stops once one step lowers its objective by less than this.
CONVERGENCE_TOL = 1e-14

# Starts advanced together.  Beyond a few hundred starts a larger block no
# longer lowers the cost per start, while its memory keeps growing with it.
BLOCK = 256

# Near a true zero the absolute-decrease criterion stops several decades above
# the floating floor; starts at or under the found-threshold then polish while
# strictly improving, for at most this many further steps.
POLISH_STEPS = 60

# A 3 x 3 form takes eigh when (lambda_2 - lambda_1) (lambda_3 - lambda_1), in
# units of its largest entry squared, is at most this.  Near a double root the
# closed-form lambda_1 errs by about eps / gap, and the Rayleigh excess of its
# eigenvector grows like eps^2 / gap^3: on forms of scale 1 it is 3e-16 down
# to a gap of 1e-5, as from eigh, but 4e-15 at 1e-6 and 4e-12 at 1e-7.
GAP_FLOOR = 1e-5

_TINY = np.finfo(float).tiny
# Flat indices of a 3 x 3 matrix: its diagonal, then g_i = h[i+1, i+2] (mod 3).
_ENTRIES = np.array([0, 4, 8, 5, 6, 1])
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
# Row k: where the entries of column k of an adjugate sit in its diagonal,
# its entries a_i at (i+1, i+2) and their conjugates, stacked in that order.
_ADJ_COLUMNS = np.array([[0, 8, 4], [5, 1, 6], [7, 3, 2]])


class SearchVerdict(Enum):
    PRODUCT_VECTOR_FOUND = "ProductVectorFound"
    NONE_FOUND_ABOVE_THRESHOLD = "NoneFoundAboveThreshold"


@dataclass(frozen=True)
class EdgeSearchResult:
    best_objective: float
    best_x: np.ndarray
    best_y: np.ndarray
    starts: int
    per_start_objectives: np.ndarray
    verdict: SearchVerdict


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_starts(rng: np.random.Generator, count: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` random unit pairs of the search's generator, one row per start.

    A row holds the real and imaginary parts of x, then those of y.  Rows
    come off the generator's stream in order, so start ``i`` takes row ``i``
    however the starts are split into blocks.
    """
    z = rng.standard_normal((count, 2 * (m + n)))
    x = z[:, :m] + 1j * z[:, m : 2 * m]
    y = z[:, 2 * m : 2 * m + n] + 1j * z[:, 2 * m + n :]
    return _unit_rows(x), _unit_rows(y)


def _kernel(h: np.ndarray) -> np.ndarray:
    """Kernel basis of a Hermitian matrix from one ``eigh``.

    The columns are the eigenvectors of the ``d - r`` eigenvalues smallest in
    absolute value, ``r`` being the rank under the threshold rule of ``classify``.
    """
    vals, vecs = np.linalg.eigh(h)
    mag = np.abs(vals)
    order = np.argsort(mag, kind="stable")
    return vecs[:, order[: h.shape[0] - _rank(mag, RANK_RTOL)]]


def _smallest_eigvecs(h: np.ndarray) -> np.ndarray:
    """Stacked unit eigenvectors of the smallest eigenvalues of Hermitian ``h[b]``.

    3 x 3 forms take Kopp's closed form (Int. J. Mod. Phys. C 19, 523 (2008),
    arXiv:physics/0610206): the smallest eigenvalue lambda from the
    trigonometric solution of the characteristic cubic, then the column of
    ``adj(h - lambda I) = (lambda_2 - lambda) (lambda_3 - lambda) v v^H`` with
    the largest diagonal entry.  Rows whose adjugate trace is at most
    :data:`GAP_FLOOR`, or not finite, take ``eigh`` instead, and only those
    rows.  Every operation acts row by row, so a row's vector does not depend
    on the rows stacked with it.  Forms of any other size take ``eigh``.
    """
    if h.shape[1:] != (3, 3):
        return np.linalg.eigh(h)[1][:, :, 0]
    b = len(h)
    # the six distinct entries, scaled to a largest modulus of 1 so that no
    # power below under- or overflows; the eigenvectors do not change
    e = h.reshape(b, 9).T[_ENTRIES]
    e /= np.maximum(np.abs(e).max(axis=0), _TINY)
    d, g = e[:3].real, e[3:]
    g2 = np.abs(g) ** 2
    gg = g[_NEXT] * g[_PREV]
    q = d.sum(axis=0) / 3
    d0 = d - q
    # the eigenvalues of h - q I are 2p cos(phi + 2 pi j / 3), cos(3 phi) = r
    two_p = np.sqrt(((d0 * d0).sum(axis=0) + 2 * g2.sum(axis=0)) * (2 / 3))
    det = d0.prod(axis=0) + 2 * (g[0] * gg[0]).real - (d0 * g2).sum(axis=0)
    r = np.minimum(np.maximum(4 * det / np.maximum(two_p**3, _TINY), -1.0), 1.0)
    dl = d0 - two_p * np.cos(np.arccos(r) / 3 + 2 * np.pi / 3)
    # adj(h - lambda I): its diagonal ad and its entries a_i at (i+1, i+2)
    ad = dl[_NEXT] * dl[_PREV] - g2
    a = gg.conj() - dl * g
    adj = np.concatenate([ad, a, a.conj()])
    v = adj[_ADJ_COLUMNS[ad.argmax(axis=0)], np.arange(b)[:, None]]
    n = np.abs(v)
    v /= np.maximum(np.sqrt((n * n).sum(axis=1)), _TINY)[:, None]
    t = ad.sum(axis=0)
    if not t.min() > GAP_FLOOR:
        rows = ~(t > GAP_FLOOR)
        v[rows] = np.linalg.eigh(h[rows])[1][:, :, 0]
    return v


def _outer(v: np.ndarray) -> np.ndarray:
    """Stacked ``conj(v[b]) v[b]^T``, flattened to rows."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _rowwise(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``a @ mat`` as a stack of one-row products.

    A 2-D product takes another BLAS routine for one row than for several,
    and other last bits with it; stacked, each row gets the same bits
    whichever rows share its block.
    """
    return (a[:, None] @ mat)[:, 0]


def _sq_norms(v: np.ndarray) -> np.ndarray:
    return (v.real**2 + v.imag**2).sum(axis=1)


class _Objective:
    """The kernel bases, and the two Hermitian forms of the objective as matrices.

    Every method takes ``x`` of shape ``(block, m)`` and ``y`` of shape
    ``(block, n)``, one row per start.
    """

    def __init__(self, s: BipartiteOperator):
        m, n = self.m, self.n = s.m, s.n
        h = _check_hermitian(s.mat)
        # Partial transposition commutes with the adjoint, so the partial
        # transpose of the symmetrized state is Hermitian as it stands.
        tau = partial_transpose(BipartiteOperator(m, n, h)).mat
        # shape (m, n, k): first axis contracts with x, second with y
        self.ka = _kernel(h).conj().reshape(m, n, -1)
        self.kt = _kernel(tau).conj().reshape(m, n, -1)
        # y @ k, reshaped to (block, k, m), stacks the rows of d from ka, then kt
        self.k = np.concatenate([self.ka, self.kt], axis=2).transpose(1, 2, 0).reshape(n, -1)
        # f(x, y) = sum conj(x_i) x_j conj(y_l) y_o form[i, j, l, o]; the kt
        # term sees conj(x), so its coefficient of conj(x_i) x_j is t[j, i, l, o]
        a = np.einsum("ila,joa->ijlo", self.ka.conj(), self.ka)
        t = np.einsum("ila,joa->ijlo", self.kt.conj(), self.kt)
        form = a + t.transpose(1, 0, 2, 3)
        self.m_y = form.reshape(m * m, n * n)
        self.m_x = form.transpose(2, 3, 0, 1).reshape(n * n, m * m)

    @property
    def trivial(self) -> bool:
        return self.ka.shape[2] == 0 and self.kt.shape[2] == 0

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _sq_norms((self.x_form(y) @ x[:, :, None])[:, :, 0])

    def best_y(self, x: np.ndarray) -> np.ndarray:
        return _smallest_eigvecs(_rowwise(_outer(x), self.m_y).reshape(len(x), self.n, self.n))

    def x_form(self, y: np.ndarray) -> np.ndarray:
        """Stacked ``d = [c_a ; conj(c_t)]``, so that ``value(x, y) = ||d x||^2``.

        The conjugated term is ``||c_t conj(x)||^2 = ||conj(c_t) x||^2``, so for
        fixed y the objective is the Hermitian form ``x^H d^H d x`` in x.
        """
        d = _rowwise(y, self.k).reshape(len(y), -1, self.m)
        tail = d[:, self.ka.shape[2] :]
        np.conjugate(tail, out=tail)
        return d

    def best_x(self, y: np.ndarray) -> np.ndarray:
        return _smallest_eigvecs(_rowwise(_outer(y), self.m_x).reshape(len(y), self.m, self.m))

    def step(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One alternating step from ``x``: the new ``x``, ``y`` and objective."""
        y = self.best_y(x)
        x = self.best_x(y)
        return x, y, self.value(x, y)


def _descend(obj: _Objective, x: np.ndarray, y: np.ndarray, max_iters: int) -> np.ndarray:
    """Run every start of a block to its stop, updating ``x`` and ``y`` in place.

    A start leaves the running set once its decrease falls under
    :data:`CONVERGENCE_TOL` or after ``max_iters`` steps; the starts then at
    or under :data:`FOUND_THRESHOLD` polish together while strictly improving.
    Returns the objective of each start.
    """
    f = obj.value(x, y)
    live = np.arange(len(f))
    for _ in range(max_iters):
        x[live], y[live], f_new = obj.step(x[live])
        going = f[live] - f_new >= CONVERGENCE_TOL
        f[live] = f_new
        live = live[going]
        if not live.size:
            break
    live = np.flatnonzero(f <= FOUND_THRESHOLD)
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        x_p, y_p, f_p = obj.step(x[live])
        better = f_p < f[live]
        live = live[better]
        x[live], y[live], f[live] = x_p[better], y_p[better], f_p[better]
    return f


def product_vector_search(
    s: BipartiteOperator,
    starts: int = 200,
    max_iters: int = 500,
    seed: int = 0,
) -> EdgeSearchResult:
    """Search for a unit product vector in the range pair of ``s``.

    Runs ``starts`` alternating minimizations from seeded random unit pairs.
    The search makes one generator, ``default_rng(seed)``, and start ``i``
    takes row ``i`` of its stream: a fixed seed gives a fixed result, a run
    of fewer starts is a bit-exact prefix of a longer one, and a start does
    not depend on the block it runs in.  The starts run in index order, in
    lockstep blocks of :data:`BLOCK` starts, so memory stays proportional
    to the block and the cost per start falls as more starts share a block.
    The best pair is that of the first start with the smallest objective.
    Raises :class:`InvalidParamError` when ``starts < 1``, ``max_iters < 1``
    or ``seed < 0``, and ``TypeError`` when ``seed`` is not an integer.
    """
    if starts < 1:
        raise InvalidParamError(f"starts must be >= 1, got {starts}")
    if max_iters < 1:
        raise InvalidParamError(f"max_iters must be >= 1, got {max_iters}")
    if seed < 0:
        raise InvalidParamError(f"seed must be >= 0, got {seed}")
    # numpy.random loads here, on the first search, not with edgelab
    from numpy.random import default_rng

    rng = default_rng(seed)
    obj = _Objective(s)
    if obj.trivial:
        # full-rank state and partial transpose: every product vector qualifies
        x, y = _random_starts(rng, 1, s.m, s.n)
        return EdgeSearchResult(
            0.0, x[0], y[0], 1, np.zeros(1), SearchVerdict.PRODUCT_VECTOR_FOUND
        )

    per_block = []
    best = np.inf
    best_x = best_y = None
    for lo in range(0, starts, BLOCK):
        x, y = _random_starts(rng, min(BLOCK, starts - lo), s.m, s.n)
        f = _descend(obj, x, y, max_iters)
        i = int(np.argmin(f))
        if f[i] < best:
            best, best_x, best_y = float(f[i]), x[i].copy(), y[i].copy()
        per_block.append(f)

    verdict = (
        SearchVerdict.PRODUCT_VECTOR_FOUND
        if best <= FOUND_THRESHOLD
        else SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
    )
    return EdgeSearchResult(
        best_objective=best,
        best_x=best_x,
        best_y=best_y,
        starts=starts,
        per_start_objectives=np.concatenate(per_block),
        verdict=verdict,
    )
