"""Multistart product-vector search over the ranges of a state and its
partial transpose.

The objective for unit vectors x, y is

    f(x, y) = ||P_ker(S) (x (x) y)||^2 + ||P_ker(S^tau) (conj(x) (x) y)||^2,

which vanishes exactly on the product vectors witnessing a range-criterion
violation of the edge property.  Both alternating steps are exact: for fixed
x the objective is a Hermitian quadratic form in y, and for fixed y it is one
in x too, since the conjugated term is ``conj(x)^H E conj(x) = x^H conj(E) x``.
The search takes bi-qutrit states only, so each step is the smallest
eigenvector of a 3 x 3 complex Hermitian matrix, unique up to a global phase.
It comes in closed form (Kopp, Int. J. Mod. Phys. C 19, 523 (2008),
arXiv:physics/0610206), from the characteristic cubic that ``linalg._cubic``
solves, the solver that ``linalg._spectra`` shares; only rows whose two
smallest eigenvalues nearly coincide take ``eigh``.

Both forms are linear in the outer product of the fixed factor: the form in
y has entries ``sum conj(x_i) x_j M[(i, j), (l, o)]``, and the form in x is
the same sum over ``conj(y_l) y_o``, where the 9 x 9 matrix ``M`` comes from
the kernel bases once per search.

Each state's search draws its starting pairs from its own generator,
``default_rng(seed)``; start i takes row i of its stream.  The starts of one
or more states run in one loop, in lockstep blocks of :data:`BLOCK` that take
the next starts of consecutive states, so a block may end with the first
starts of one state after the last starts of another.  A block's pairs are
stacked as two arrays of shape ``(block, 3)``, the rows of each state
contiguous.  One step of every running start of the block is, per
factor, one product of each state's flattened outer products with its ``M``
and one stacked smallest eigenvector for the rows of all states; the
objective ``||d x||^2`` then takes two stacked products per state.  Every
product is stacked row by row, so each start stops on its own, after the
same steps it would take alone, and its result depends neither on the starts
nor on the states that share its block.  Memory grows with the block, not
with the number of starts.  A start whose objective is exactly 0 takes no
step, and a result's ``starts`` is always the count asked for.

A start stops once a step lowers its objective by less than
:data:`CONVERGENCE_TOL`, or, while the objective is above
:data:`RELATIVE_FLOOR`, by less than :data:`RELATIVE_TOL` of it, so a
start on a floor far above the found-threshold spends no steps on digits
that no verdict reads.  Under the floor the absolute rule decides alone, so a
start that ends there has every bit it has under that rule.  The lockstep
loop counts each start's steps and records why it stopped, as arrays.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, InvalidParamError
from .linalg import _ENTRIES, _NEXT, _PREV, _TINY, BipartiteOperator, _check_hermitian, _cubic, _kernel
from .linalg import _partial_transpose

FOUND_THRESHOLD = 1e-9

# A start stops once one step lowers its objective by less than
# CONVERGENCE_TOL, or after MAX_ITERS steps.
CONVERGENCE_TOL = 1e-14
MAX_ITERS = 500

# A start above RELATIVE_FLOOR also stops once one step lowers its objective
# by less than RELATIVE_TOL times the new value.  The steps converge
# linearly, so on a floor of about 1e-2 the absolute rule spends its last
# steps on some 12 digits that no verdict reads.  A start this rule stops is
# above 1e-6 and was losing less than RELATIVE_TOL of its objective a step:
# at that rate MAX_ITERS more steps would lower it by a factor of about
# exp(-RELATIVE_TOL * MAX_ITERS) = 0.995, where FOUND_THRESHOLD lies a factor
# of 1e-3 under 1e-6.  At or under RELATIVE_FLOOR the absolute rule alone
# decides, so those starts keep every bit.  Against the absolute rule alone,
# 1e-5 halved the steps per start on edge_state(1, pi/6) (28.7 to 14.1),
# raised the benchmark's edge_search from 24.5k to 30.3k starts/s (10 of 10
# pairs of 30 s runs, 2 CPUs) and moved the best floors in the sixth digit
# at most; 932 searches, 800 of them on states with a planted product
# vector, kept their verdicts.
RELATIVE_TOL = 1e-5
RELATIVE_FLOOR = 1e3 * FOUND_THRESHOLD

# Starts advanced together, over one or more states.  One 1,000-start search
# of edge_state(1, pi/6) took 96, 69, 56 and 55 ms in blocks of 128, 256, 512
# and 1024, and 2,000 starts 130 ms in blocks of 1024 against 146 in 2048
# (process CPU time, medians of 12 and 6 interleaved runs); memory grows with
# the block.
BLOCK = 1024

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

# Why a start stopped, by the code _descend gives it: it was at exactly 0 and
# took no step, its last decrease fell under CONVERGENCE_TOL, or under
# RELATIVE_TOL of its objective, it took MAX_ITERS steps, or it then polished.
STOP_REASONS = ("zero", "converged", "relative", "max-iters", "polished")
_ZERO, _CONVERGED, _RELATIVE, _CAPPED, _POLISHED = range(len(STOP_REASONS))

# Row k: where the entries of column k of an adjugate sit in its diagonal,
# its entries a_i at (i+1, i+2) and their conjugates, stacked in that order.
_ADJ_COLUMNS = np.array([[0, 8, 4], [5, 1, 6], [7, 3, 2]])


class SearchVerdict(Enum):
    PRODUCT_VECTOR_FOUND = "ProductVectorFound"
    NONE_FOUND_ABOVE_THRESHOLD = "NoneFoundAboveThreshold"


@dataclass(frozen=True)
class EdgeSearchResult:
    """The best objective and pair of a search, and the objective, steps and stop reason of each start in order.

    ``starts`` is always the count asked for; a start at exactly 0 took no
    step.  ``steps`` counts each start's descent steps and the polish steps
    that lowered its objective; ``stop_reasons`` names why each start
    stopped, one of :data:`STOP_REASONS`.
    """

    best_objective: float
    best_x: np.ndarray
    best_y: np.ndarray
    starts: int
    per_start_objectives: np.ndarray
    verdict: SearchVerdict
    steps: np.ndarray
    stop_reasons: np.ndarray


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_starts(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` random unit pairs of the search's generator, one row per start.

    A row holds the real and imaginary parts of x, then those of y.  Rows
    come off the generator's stream in order, so start ``i`` takes row ``i``
    however the starts are split into blocks.
    """
    z = rng.standard_normal((count, 12))
    x = z[:, :3] + 1j * z[:, 3:6]
    y = z[:, 6:9] + 1j * z[:, 9:]
    return _unit_rows(x), _unit_rows(y)


def _smallest_eigvecs(h: np.ndarray) -> np.ndarray:
    """Stacked unit eigenvectors of the smallest eigenvalues of Hermitian 3 x 3 ``h[b]``.

    Each row takes Kopp's closed form: the smallest eigenvalue lambda from
    the trigonometric solution of the characteristic cubic, ``linalg._cubic``
    of the row divided by its largest entry modulus, then the column of
    ``adj(h - lambda I) = (lambda_2 - lambda) (lambda_3 - lambda) v v^H`` with
    the largest diagonal entry.  Rows whose adjugate trace is at most
    :data:`GAP_FLOOR`, or not finite, take ``eigh`` instead, and only those
    rows.  Every operation acts row by row, so a row's vector does not depend
    on the rows stacked with it.
    """
    b = len(h)
    # the six distinct entries, scaled to a largest modulus of 1 so that no
    # power in the cubic under- or overflows; the eigenvectors do not change
    e = h.reshape(b, 9).T[_ENTRIES]
    e /= np.maximum(np.abs(e).max(axis=0), _TINY)
    _, two_p, r, d0, g2, gg = _cubic(e[:3].real, e[3:])
    dl = d0 - two_p * np.cos(np.arccos(r) / 3 + 2 * np.pi / 3)
    # adj(h - lambda I): its diagonal ad and its entries a_i at (i+1, i+2)
    ad = dl[_NEXT] * dl[_PREV] - g2
    a = gg.conj() - dl * e[3:]
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


class _Objective:
    """The kernel bases of a 3 x 3 operator, and the two Hermitian forms of the objective as matrices.

    Every method takes one row per start: ``x`` and ``y`` of shape
    ``(rows, 3)``, and outer products as flattened by :func:`_outer`.
    """

    def __init__(self, s: BipartiteOperator):
        h = _check_hermitian(s.mat)
        # Partial transposition commutes with the adjoint, so the partial
        # transpose of the checked state, exactly Hermitian as given or
        # symmetrized, is Hermitian as it stands.
        tau = _partial_transpose(h, 3, 3)
        # shape (3, 3, k): first axis contracts with x, second with y
        self.ka = _kernel(h).conj().reshape(3, 3, -1)
        self.kt = _kernel(tau).conj().reshape(3, 3, -1)
        # y @ k, reshaped to (rows, k, 3), stacks the rows of d from ka, then kt
        self.k = np.concatenate([self.ka, self.kt], axis=2).transpose(1, 2, 0).reshape(3, -1)
        # f(x, y) = sum conj(x_i) x_j conj(y_l) y_o form[i, j, l, o]; the kt
        # term sees conj(x), so its coefficient of conj(x_i) x_j is t[j, i, l, o]
        a = np.einsum("ila,joa->ijlo", self.ka.conj(), self.ka)
        t = np.einsum("ila,joa->ijlo", self.kt.conj(), self.kt)
        form = a + t.transpose(1, 0, 2, 3)
        self.m_y = form.reshape(9, 9)
        self.m_x = form.transpose(2, 3, 0, 1).reshape(9, 9)

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = (self.x_form(y) @ x[:, :, None])[:, :, 0]
        return (d.real**2 + d.imag**2).sum(axis=1)

    def x_form(self, y: np.ndarray) -> np.ndarray:
        """Stacked ``d = [c_a ; conj(c_t)]``, so that ``value(x, y) = ||d x||^2``.

        The conjugated term is ``||c_t conj(x)||^2 = ||conj(c_t) x||^2``, so for
        fixed y the objective is the Hermitian form ``x^H d^H d x`` in x.
        """
        d = _rowwise(y, self.k).reshape(len(y), -1, 3)
        tail = d[:, self.ka.shape[2] :]
        np.conjugate(tail, out=tail)
        return d

    def y_forms(self, ox: np.ndarray) -> np.ndarray:
        """Stacked forms in y, of shape ``(rows, 3, 3)``, from ``ox = _outer(x)``."""
        return _rowwise(ox, self.m_y).reshape(len(ox), 3, 3)

    def x_forms(self, oy: np.ndarray) -> np.ndarray:
        """Stacked forms in x, of shape ``(rows, 3, 3)``, from ``oy = _outer(y)``."""
        return _rowwise(oy, self.m_x).reshape(len(oy), 3, 3)


# One state's objective and the rows ``lo:hi`` it owns in a stack of rows.
_Segment = tuple[_Objective, int, int]


def _segments(objs: list[_Objective], bounds: np.ndarray, live: np.ndarray) -> list[_Segment]:
    """Where each state's rows sit among the block rows ``live`` (ascending).

    State ``j`` owns the block rows ``bounds[j]:bounds[j + 1]``; a state with
    no row in ``live`` has no segment.
    """
    if len(objs) == 1:
        return [(objs[0], 0, len(live))]
    cuts = np.searchsorted(live, bounds).tolist()
    return [(obj, lo, hi) for obj, lo, hi in zip(objs, cuts, cuts[1:]) if hi > lo]


def _per_state(segs: list[_Segment], method, *rows: np.ndarray) -> np.ndarray:
    """``method(obj, *rows)`` on each segment's rows, concatenated in row order.

    A stack of one state makes the one call on the rows as they stand.
    """
    if len(segs) == 1:
        return method(segs[0][0], *rows)
    return np.concatenate([method(obj, *(r[lo:hi] for r in rows)) for obj, lo, hi in segs])


def _step(segs: list[_Segment], x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One alternating step from the rows ``x``: the new ``x``, ``y`` and objective.

    Each state builds the forms of its own rows; one closed-form solve per
    half-step then serves the rows of every state.
    """
    y = _smallest_eigvecs(_per_state(segs, _Objective.y_forms, _outer(x)))
    x = _smallest_eigvecs(_per_state(segs, _Objective.x_forms, _outer(y)))
    return x, y, _per_state(segs, _Objective.value, x, y)


def _descend(
    objs: list[_Objective], bounds: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every start of a block to its stop, updating ``x`` and ``y`` in place.

    State ``j`` owns the rows ``bounds[j]:bounds[j + 1]``.  A start at
    exactly 0, the least value of a sum of squares, takes no step.  Any other
    start leaves the running set once its decrease falls under
    :data:`CONVERGENCE_TOL`, or, while its objective is above
    :data:`RELATIVE_FLOOR`, under :data:`RELATIVE_TOL` times it, or after
    :data:`MAX_ITERS` steps; the starts then above 0 and at or under
    :data:`FOUND_THRESHOLD` polish together while strictly improving.
    Returns the objective, the step count and the stop reason (an index
    into :data:`STOP_REASONS`) of each start.
    """
    f = _per_state(_segments(objs, bounds, np.arange(len(x))), _Objective.value, x, y)
    steps = np.zeros(len(f), dtype=np.int64)
    # whether a start's last decrease was at least CONVERGENCE_TOL: if it
    # stopped all the same, the relative rule stopped it
    moving = np.zeros(len(f), dtype=bool)
    live = np.flatnonzero(f > 0)
    for k in range(1, MAX_ITERS + 1):
        if not live.size:
            break
        x[live], y[live], f_new = _step(_segments(objs, bounds, live), x[live])
        drop = f[live] - f_new
        moving[live] = going = drop >= CONVERGENCE_TOL
        steps[live] = k
        f[live] = f_new
        live = live[going & ((drop >= RELATIVE_TOL * f_new) | (f_new <= RELATIVE_FLOOR))]
    reasons = np.where(moving, _RELATIVE, _CONVERGED)
    reasons[steps == 0] = _ZERO
    reasons[live] = _CAPPED
    live = np.flatnonzero((f > 0) & (f <= FOUND_THRESHOLD))
    reasons[live] = _POLISHED
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        x_p, y_p, f_p = _step(_segments(objs, bounds, live), x[live])
        better = f_p < f[live]
        live = live[better]
        x[live], y[live], f[live] = x_p[better], y_p[better], f_p[better]
        steps[live] += 1
    return f, steps, reasons


def product_vector_search_many(
    states: Iterable[BipartiteOperator], *, starts: int = 200, seed: int = 0
) -> list[EdgeSearchResult]:
    """:func:`product_vector_search` of every 3 x 3 operator in ``states``.

    Each state makes its own generator, ``default_rng(seed)``, and start ``i``
    of a state takes row ``i`` of its stream, so each result is bit for bit
    that of searching the state alone.  The starts of all states run in one
    loop, in lockstep blocks of :data:`BLOCK` that take the next starts of
    consecutive states; one closed-form solve per half-step serves every
    state of a block.  Raises :class:`InvalidParamError` when ``starts < 1``
    or ``seed < 0``, ``TypeError`` when ``seed`` is not an integer, and
    :class:`DimensionMismatchError`, naming the shape, when an operator is
    not 3 x 3, before any start runs; an empty ``states`` gives ``[]``.
    """
    if starts < 1:
        raise InvalidParamError(f"starts must be >= 1, got {starts}")
    if seed < 0:
        raise InvalidParamError(f"seed must be >= 0, got {seed}")
    states = list(states)
    if not states:
        return []
    for s in states:
        if (s.m, s.n) != (3, 3):
            raise DimensionMismatchError(f"the search takes 3 x 3 operators only, got {s.m} x {s.n}")
    # numpy.random loads here, on the first search, not with edgelab
    from numpy.random import default_rng

    objs = [_Objective(s) for s in states]
    rngs = [default_rng(seed) for _ in states]
    best = [(np.inf, None, None)] * len(states)
    # each state's per-start objectives, steps and stop reasons, block by block
    per_start = [([], [], []) for _ in states]
    # the starts of every state in turn, cut into blocks: (state, count) pairs
    total = len(states) * starts
    for lo in range(0, total, BLOCK):
        hi = min(lo + BLOCK, total)
        block = [
            (i, min(hi, (i + 1) * starts) - max(lo, i * starts))
            for i in range(lo // starts, (hi - 1) // starts + 1)
        ]
        xs, ys = zip(*(_random_starts(rngs[i], count) for i, count in block))
        x, y = np.concatenate(xs), np.concatenate(ys)
        bounds = np.cumsum([0] + [count for _, count in block])
        f, steps, reasons = _descend([objs[i] for i, _ in block], bounds, x, y)
        for (i, _), a, b in zip(block, bounds.tolist(), bounds[1:].tolist()):
            j = a + int(np.argmin(f[a:b]))
            if f[j] < best[i][0]:
                best[i] = (float(f[j]), x[j].copy(), y[j].copy())
            for part, whole in zip(per_start[i], (f, steps, reasons)):
                part.append(whole[a:b])
    found, none = SearchVerdict.PRODUCT_VECTOR_FOUND, SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
    names = np.array(STOP_REASONS)
    return [
        EdgeSearchResult(f, best_x, best_y, starts, fs, found if f <= FOUND_THRESHOLD else none, steps, names[reasons])
        for (f, best_x, best_y), (fs, steps, reasons) in zip(best, (map(np.concatenate, parts) for parts in per_start))
    ]


def product_vector_search(s: BipartiteOperator, *, starts: int = 200, seed: int = 0) -> EdgeSearchResult:
    """Search for a unit product vector in the range pair of the 3 x 3 operator ``s``.

    Runs ``starts`` alternating minimizations from seeded random unit pairs;
    each stops once a step lowers its objective by less than
    :data:`CONVERGENCE_TOL`, or, above :data:`RELATIVE_FLOOR`, by less than
    :data:`RELATIVE_TOL` times the new objective, or after :data:`MAX_ITERS`
    steps; the result gives each start's objective, step count and stop
    reason.  ``starts``
    and ``seed`` are keyword-only.  The search makes one generator,
    ``default_rng(seed)``, and start ``i`` takes row ``i`` of its stream: a
    fixed seed gives a fixed result, a run of fewer starts is a bit-exact
    prefix of a longer one, and a start does not depend on the block it
    runs in.  The starts run in index order, in
    lockstep blocks of :data:`BLOCK` starts, so memory stays proportional
    to the block and the cost per start falls as more starts share a block.
    The best pair is that of the first start with the smallest objective.
    A start at exactly 0 takes no step, so on a state whose kernels are both
    empty the best pair is start 0's and the verdict is found; ``starts`` of
    the result is always the count asked for.
    This is :func:`product_vector_search_many` of one state, and raises what
    it raises.
    """
    return product_vector_search_many([s], starts=starts, seed=seed)[0]
