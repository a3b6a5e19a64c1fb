"""Verdicts: PSD/PPT checks, (p, q) types, rank-bound admissibility, and the
analytic edge certificate for the phase-parameterized family.

Every rank and PSD flag comes from ``linalg._classify_stack``, the one
classification path, which holds the spectral rules: the Hermiticity check,
the spectra, the threshold rule and the re-read of a rank that reads 0.
This module turns its lists into verdicts: :func:`classify` of one state and
:func:`classify_many` give each verdict's immutable :class:`Classification`;
``edgelab sweep`` reads the lists as they are.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from math import comb

import numpy as np

from .errors import ConditionViolatedError, DimensionMismatchError, InvalidParamError
from .linalg import BipartiteOperator, _classify_stack
from .states import edge_condition_holds

# Units of rounding, eps * max(b**3, 1), the product margin of a certificate must exceed.
MARGIN_ULPS = 16


class Admissibility(Enum):
    """Where a type (p, q) sits relative to the rank bounds for edge states."""

    BELOW_LOWER_BOUND = "BelowLowerBound"
    ADMISSIBLE = "Admissible"
    FORCES_PRODUCT_VECTOR = "ForcesProductVector"


@dataclass(frozen=True)
class Classification:
    is_psd: bool
    is_ppt: bool
    type: tuple[int, int]
    kernel_dims: tuple[int, int]
    admissibility: Admissibility


def alternating_binomial_sum(k: int, ell: int, m: int) -> int:
    """sum over r + s = m - 1 of (-1)^r C(k, r) C(ell, s)."""
    return sum((-1) ** r * comb(k, r) * comb(ell, m - 1 - r) for r in range(m))


def rank_bounds(m: int, n: int, p: int, q: int) -> Admissibility:
    """Admissibility of a type (p, q) for an m x n edge state.

    Ranks at or below max(m, n) force separability; a pair of range/partial
    range dimensions that is too large forces the existence of a product
    vector in the ranges (outright above ``2mn - m - n + 2``, and on that
    boundary whenever the alternating binomial sum is nonzero).
    """
    mn = m * n
    if m < 1 or n < 1:
        raise InvalidParamError("local dimensions must be positive")
    if not (1 <= p <= mn and 1 <= q <= mn):
        raise InvalidParamError(f"ranks must lie in 1..{mn}, got ({p}, {q})")
    if p <= max(m, n) or q <= max(m, n):
        return Admissibility.BELOW_LOWER_BOUND
    boundary = 2 * mn - m - n + 2
    if p + q > boundary:
        return Admissibility.FORCES_PRODUCT_VECTOR
    if p + q == boundary and alternating_binomial_sum(mn - p, mn - q, m) != 0:
        return Admissibility.FORCES_PRODUCT_VECTOR
    return Admissibility.ADMISSIBLE


@functools.lru_cache(maxsize=4096, typed=True)
def _classification(m: int, n: int, p: int, q: int, p_psd: bool, q_psd: bool) -> Classification:
    """The :class:`Classification` of ranks ``p``, ``q`` and PSD flags on an m x n space;
    cached, as a shape has few verdicts."""
    d = m * n
    return Classification(
        is_psd=p_psd,
        is_ppt=p_psd and q_psd,
        type=(p, q),
        kernel_dims=(d - p, d - q),
        admissibility=rank_bounds(m, n, p, q) if p and q else Admissibility.BELOW_LOWER_BOUND,
    )


def _classifications(m: int, n: int, lists: tuple) -> list[Classification]:
    """A :class:`Classification` for each state of ``_classify_stack``'s lists."""
    return [_classification(m, n, *row) for row in zip(*lists)]


def classify_many(ops: Iterable[BipartiteOperator]) -> list[Classification]:
    """:func:`classify` of every operator in ``ops``, all of one shape ``(m, n)``,
    from one ``linalg._classify_stack`` call for the states and their partial transposes.

    Raises :class:`NotHermitianError` for the first operator that is not
    Hermitian and :class:`DimensionMismatchError` when the shapes differ; an
    empty ``ops`` gives ``[]``.
    """
    ops = list(ops)
    if not ops:
        return []
    m, n = ops[0].m, ops[0].n
    if any(s.m != m or s.n != n for s in ops):
        raise DimensionMismatchError("classify_many needs operators of one shape (m, n)")
    return _classifications(m, n, _classify_stack(np.array([s.mat for s in ops]), m, n))


def classify(s: BipartiteOperator) -> Classification:
    """PSD/PPT flags, (rank, partial-transpose rank) type, and admissibility.

    :func:`classify_many` of the one operator, from ``_classify_stack`` of a
    stack of one that is a view of ``s.mat``, not a copy: one ``eigvalsh``
    gives its spectrum and that of its partial transpose.  The ranks and PSD
    flags follow ``linalg``'s rules: ``RANK_RTOL``, ``PSD_ATOL`` and the
    re-read of a rank that reads 0.  ``classify(BipartiteOperator(1, d,
    m)).is_psd`` is the PSD flag of any d x d matrix ``m``.  Results are immutable.
    """
    return _classifications(s.m, s.n, _classify_stack(s.mat[None], s.m, s.n))[0]


class EdgeCertificate(Enum):
    EDGE_CERTIFIED = "EdgeCertified"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class CertificateStep:
    description: str
    margin: float
    ok: bool


@dataclass(frozen=True)
class CertificateTrace:
    b: float
    theta: float
    steps: tuple[CertificateStep, ...]
    verdict: EdgeCertificate


def verify_edge_analytic(b: float, theta: float) -> CertificateTrace:
    """Certify the edge property of ``edge_state(b, theta)`` by case analysis.

    A product vector in both ranges must satisfy one orthogonality relation
    against the kernel of the state and three against the kernel of its
    partial transpose.  Multiplying the latter three forces a vanishing
    coordinate (the two sides differ by the factor ``-b^3 e^{3 i theta}``,
    never one for valid parameters), vanishing coordinates pair up between
    the factors, and each of the three remaining cases collapses because
    ``e^{-i theta} / b`` is not a nonnegative real.  Valid only under the
    strict condition with a finite ``b``; raises :class:`ConditionViolatedError`
    otherwise.  A margin past the float range is reported as the largest float.
    """
    if not (edge_condition_holds(b, theta) and math.isfinite(b)):
        raise ConditionViolatedError(
            f"(b, theta) = ({b}, {theta}) must satisfy 0 < b < inf and 0 < |theta| < pi/3"
        )
    try:  # a float's power overflows by raising
        cube = float(b) ** 3
    except OverflowError:
        cube = sys.float_info.max
    product_margin = abs(cube + cmath.exp(-3j * theta))
    collapse_margin = min(abs(math.sin(theta)) / b, sys.float_info.max)
    steps = [
        CertificateStep(
            "product of the three coupling relations forces a vanishing coordinate",
            product_margin,
            product_margin > MARGIN_ULPS * sys.float_info.epsilon * max(cube, 1.0),
        ),
        CertificateStep(
            "a vanishing coordinate propagates between the two factors",
            float(b),
            b > 0,
        ),
    ]
    for i in (1, 2, 3):
        steps.append(
            CertificateStep(
                f"case x_{i} = y_{i} = 0 collapses to the zero product vector",
                collapse_margin,
                collapse_margin > 0,
            )
        )
    certified = all(step.ok for step in steps)
    return CertificateTrace(
        b=b,
        theta=theta,
        steps=tuple(steps),
        verdict=EdgeCertificate.EDGE_CERTIFIED if certified else EdgeCertificate.NOT_APPLICABLE,
    )
