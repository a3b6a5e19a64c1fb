"""Every wrong answer that the package is known to give, pinned with the right answer.

Each case asserts the right answer and is a strict expected failure that
names the ROADMAP item tracking it: a change that makes a case pass fails the
suite until it removes the marker, and a case that fails by anything but an
AssertionError fails the suite at once.  No right answer comes from the code
under test:

* the families' exact types follow from their block structure (below);
* scaling by a power of two is exact in float64, so ``2**k rho`` has the PSD
  and PPT flags of ``rho``, which the families' closed-form regions give;
* the search must not find a product vector where the analytic certificate,
  which shares no code with it, proves there is none.
"""

import math

import pytest

from edgelab import (
    BipartiteOperator,
    EdgeCertificate,
    SearchVerdict,
    choi_matrix,
    classify,
    corner_state,
    edge_state,
    product_vector_search,
    verify_edge_analytic,
)
from helpers import choi_ppt_region

PI3, PI6 = math.pi / 3, math.pi / 6

# Edge, for b > 0 and 0 < |theta| < pi/3: the phase circulant on {0, 4, 8},
# of eigenvalues 2cos(theta) - 2cos(theta + 2k pi/3), exactly one of them 0,
# and six nonzero diagonal entries b or 1/b: rank 8.  Its partial transpose:
# 2cos(theta) on {0, 4, 8} and three 2 x 2 blocks [[1/b, -e], [-conj(e), b]],
# |e| = 1, of determinant 0: rank 6.
EDGE_TYPE = (8, 6)
# state-7-6: the all-ones block on {0, 4, 8} and the same six entries: rank 7;
# its partial transpose has ones on {0, 4, 8} and blocks [[1/b, 1], [1, b]]: rank 6.
CORNER_TYPE = (7, 6)
# choi_matrix(a, 1, 1), a > 2: (a + 1) I - J on {0, 4, 8}, of eigenvalues a - 2,
# a + 1 and a + 1, and six weights 1: rank 9; its partial transpose has a on
# {0, 4, 8} and blocks [[1, -1], [-1, 1]]: rank 6.
CHOI_B1_C1_TYPE = (9, 6)


# the edge states of the search cases, each at b = 1
SEARCH_THETAS = (1e-4, PI3 - 1e-10, PI3 - 1e-4)


def known_wrong(item: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


def scaled(op: BipartiteOperator, k: int) -> BipartiteOperator:
    return BipartiteOperator(op.m, op.n, 2.0**k * op.mat)


def test_the_oracles_hold():
    # the analytic tier proves every edge state of the cases below edge:
    # none has a product vector in its ranges
    for b, theta in [(b, PI6) for b in (3.2e4, 1e5, 1e8, 1e-5, 1e150)] + [(1.0, t) for t in SEARCH_THETAS]:
        assert verify_edge_analytic(b, theta).verdict is EdgeCertificate.EDGE_CERTIFIED


@pytest.mark.parametrize(
    "op, want",
    [
        pytest.param(edge_state(3.2e4, PI6), EDGE_TYPE, marks=known_wrong("15"), id="edge-b3.2e4"),
        pytest.param(edge_state(1e5, PI6), EDGE_TYPE, marks=known_wrong("15"), id="edge-b1e5"),
        pytest.param(edge_state(1e8, PI6), EDGE_TYPE, marks=known_wrong("15"), id="edge-b1e8"),
        pytest.param(edge_state(1e-5, PI6), EDGE_TYPE, marks=known_wrong("15"), id="edge-b1e-5"),
        pytest.param(edge_state(1e150, PI6), EDGE_TYPE, marks=known_wrong("15"), id="edge-b1e150"),
        pytest.param(corner_state(1e5), CORNER_TYPE, marks=known_wrong("15"), id="corner-b1e5"),
        pytest.param(choi_matrix(1e9, 1.0, 1.0), CHOI_B1_C1_TYPE, marks=known_wrong("15"), id="choi-a1e9"),
        pytest.param(choi_matrix(1e10, 1.0, 1.0), CHOI_B1_C1_TYPE, marks=known_wrong("15"), id="choi-a1e10"),
        # the circulant's smallest nonzero eigenvalue, 3.5e-10, is 1.2e-10 of
        # the largest: under the rank threshold, and far above float noise
        pytest.param(edge_state(1.0, PI3 - 1e-10), EDGE_TYPE, marks=known_wrong("15"), id="edge-pi3-1e-10"),
    ],
)
def test_family_types(op, want):
    assert classify(op).type == want


@known_wrong("15")
def test_a_scaled_choi_matrix_keeps_its_ppt_flag():
    assert classify(scaled(choi_matrix(1.0, 1.0, 1.0), -34)).is_ppt == choi_ppt_region(1.0, 1.0, 1.0)


@known_wrong("15")
def test_a_scaled_edge_state_keeps_its_psd_flag():
    # edge is PSD exactly for |theta| <= pi/3, where its circulant is
    assert classify(scaled(edge_state(1.0, 1.2), -37)).is_psd == (1.2 <= PI3)


@pytest.mark.parametrize(
    "theta",
    [
        # found at 5.0e-10, under the found-threshold of 1e-9
        pytest.param(SEARCH_THETAS[0], marks=known_wrong("4a"), id="1e-4"),
        # the floor near pi/3, about (pi/3 - theta)**2 / 6, is found at 1.7e-21
        pytest.param(SEARCH_THETAS[1], marks=known_wrong("4a"), id="pi3-1e-10"),
        # right today, at 1.67e-9, just above the threshold
        pytest.param(SEARCH_THETAS[2], id="pi3-1e-4"),
    ],
)
def test_the_search_finds_nothing_where_the_certificate_proves_edge(theta):
    res = product_vector_search(edge_state(1.0, theta), starts=200, seed=0)
    assert res.verdict is SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
