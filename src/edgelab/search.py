"""Multistart product-vector search over the ranges of a state and its
partial transpose.

The objective for unit vectors x, y is

    f(x, y) = ||P_ker(S) (x (x) y)||^2 + ||P_ker(S^tau) (conj(x) (x) y)||^2,

which vanishes exactly on the product vectors witnessing a range-criterion
violation of the edge property.  Both alternating steps are exact: for fixed
x the objective is a Hermitian quadratic form in y, minimized by the smallest
eigenvector; for fixed y the conjugated term makes it a real quadratic form
in the 2m real coordinates (Re x, Im x), minimized by the smallest
eigenvector of a real symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParamError
from .linalg import RANK_RTOL, BipartiteOperator, _check_hermitian, kernel_basis, partial_transpose

FOUND_THRESHOLD = 1e-9


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


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class _Objective:
    """Kernel bases reshaped for fast contraction against either factor."""

    def __init__(self, s: BipartiteOperator, rel_tol: float):
        m, n = s.m, s.n
        self.m, self.n = m, n
        ka = kernel_basis(_check_hermitian(s.mat), rel_tol).basis
        kt = kernel_basis(_check_hermitian(partial_transpose(s).mat), rel_tol).basis
        # shape (m, n, k): first axis contracts with x, second with y
        self.ka = ka.conj().reshape(m, n, -1)
        self.kt = kt.conj().reshape(m, n, -1)

    @property
    def trivial(self) -> bool:
        return self.ka.shape[2] == 0 and self.kt.shape[2] == 0

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        v1 = np.einsum("ila,i,l->a", self.ka, x, y)
        v2 = np.einsum("ila,i,l->a", self.kt, np.conj(x), y)
        return float(np.vdot(v1, v1).real + np.vdot(v2, v2).real)

    def best_y(self, x: np.ndarray) -> np.ndarray:
        c1 = np.einsum("ila,i->al", self.ka, x)
        c2 = np.einsum("ila,i->al", self.kt, np.conj(x))
        m = c1.conj().T @ c1 + c2.conj().T @ c2
        _, vecs = np.linalg.eigh(m)
        return vecs[:, 0]

    def best_x(self, y: np.ndarray) -> np.ndarray:
        d1 = np.einsum("ila,l->ai", self.ka, y)
        d2 = np.einsum("ila,l->ai", self.kt, y)
        c = d1.conj().T @ d1  # Hermitian form in x
        e = d2.conj().T @ d2  # Hermitian form in conj(x)
        rc, sc = c.real, c.imag
        re, se = e.real, e.imag
        r = rc + re
        s = sc - se
        h = np.block([[r, -s], [s, r]])
        _, vecs = np.linalg.eigh(h)
        u = vecs[:, 0]
        x = u[: self.m] + 1j * u[self.m :]
        return x / np.linalg.norm(x)


def product_vector_search(
    s: BipartiteOperator,
    starts: int = 200,
    max_iters: int = 500,
    seed: int = 0,
    convergence_tol: float = 1e-14,
    found_threshold: float = FOUND_THRESHOLD,
    rel_tol: float = RANK_RTOL,
    stop_objective: float | None = None,
) -> EdgeSearchResult:
    """Search for a unit product vector in the range pair of ``s``.

    Runs ``starts`` alternating minimizations from seeded random unit pairs;
    each start draws from its own generator keyed by ``(seed, start index)``,
    so results do not depend on execution order.  ``stop_objective``, if set,
    stops scanning further starts once the best objective falls below it.
    Raises :class:`InvalidParamError` when ``starts < 1``.
    """
    if starts < 1:
        raise InvalidParamError(f"starts must be >= 1, got {starts}")
    obj = _Objective(s, rel_tol)
    if obj.trivial:
        # full-rank state and partial transpose: every product vector qualifies
        rng = np.random.default_rng([seed, 0])
        x, y = _random_unit(rng, s.m), _random_unit(rng, s.n)
        return EdgeSearchResult(
            0.0, x, y, 1, np.zeros(1), SearchVerdict.PRODUCT_VECTOR_FOUND
        )

    per_start = []
    best = np.inf
    best_x = best_y = None
    for idx in range(starts):
        rng = np.random.default_rng([seed, idx])
        x, y = _random_unit(rng, s.m), _random_unit(rng, s.n)
        f = obj.value(x, y)
        for _ in range(max_iters):
            y = obj.best_y(x)
            x = obj.best_x(y)
            f_new = obj.value(x, y)
            if f - f_new < convergence_tol:
                f = f_new
                break
            f = f_new
        if f <= found_threshold:
            # near a true zero the absolute-decrease criterion stops several
            # decades above the floating floor; polish while strictly improving
            for _ in range(60):
                y_p = obj.best_y(x)
                x_p = obj.best_x(y_p)
                f_p = obj.value(x_p, y_p)
                if f_p >= f:
                    break
                x, y, f = x_p, y_p, f_p
        per_start.append(f)
        if f < best:
            best, best_x, best_y = f, x, y
        if stop_objective is not None and best <= stop_objective:
            break

    verdict = (
        SearchVerdict.PRODUCT_VECTOR_FOUND
        if best <= found_threshold
        else SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
    )
    return EdgeSearchResult(
        best_objective=float(best),
        best_x=best_x,
        best_y=best_y,
        starts=len(per_start),
        per_start_objectives=np.array(per_start),
        verdict=verdict,
    )
