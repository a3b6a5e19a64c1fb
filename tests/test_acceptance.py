"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test outcomes.
"""

import cmath
import math
import time

import numpy as np

from edgelab import (
    Admissibility,
    BipartiteOperator,
    EdgeCertificate,
    GramSpec,
    SearchVerdict,
    choi_matrix,
    classify,
    edge_state,
    face_state,
    offdiag_gram,
    phase_circulant,
    product_vector_search,
    rank_bounds,
    singular_gram_offdiags,
    verify_edge_analytic,
)
from edgelab.classify import alternating_binomial_sum
from edgelab.cli import main
from edgelab.linalg import _partial_transpose
from helpers import (
    check_range_criterion,
    choi_ppt_region,
    edge_kernel_vector,
    edge_tau_kernel_vectors,
    gram_realization,
    kernel_basis,
    numerical_rank,
    partial_transpose,
    proj,
    psd_flag,
    random_gram_spec,
    random_hermitian,
    random_unit,
    reconstruct_separable,
    separable_decomposition,
    tensor,
)

SEED = 42
PI3 = math.pi / 3


def _report(criterion: int, description: str, ok: bool):
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def _samples(count=50):
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(count):
        b = rng.uniform(0.1, 10.0)
        theta = 0.0
        while theta == 0.0:
            theta = rng.uniform(-PI3, PI3)
        out.append((b, theta))
    return out


def test_criterion_01_type_8_6_realization():
    t0 = time.perf_counter()
    ok = True
    for b, theta in _samples():
        s = edge_state(b, theta)
        c = classify(s)
        ok &= c.type == (8, 6) and c.is_ppt
        sv = np.linalg.svd(s.mat, compute_uv=False)
        tv = np.linalg.svd(partial_transpose(s.mat, 3, 3), compute_uv=False)
        ok &= sv[7] >= 1e6 * (1e-9 * sv[0]) and sv[8] <= 1e-9 * sv[0]
        ok &= tv[5] >= 1e6 * (1e-9 * tv[0]) and tv[6] <= 1e-9 * tv[0]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, f"type (8,6), PPT, rank gaps >= 1e6 x threshold on 50 samples in {elapsed:.2f}s", ok)


def test_criterion_02_edge_certification():
    t0 = time.perf_counter()
    samples = _samples()
    ok = all(
        verify_edge_analytic(b, theta).verdict is EdgeCertificate.EDGE_CERTIFIED
        for b, theta in samples
    )
    for b, theta in samples[:5]:
        res = product_vector_search(edge_state(b, theta), starts=200, seed=SEED)
        ok &= res.verdict is SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
        ok &= res.best_objective >= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(2, f"analytic certificates on 50 samples, search floor >= 1e-6 on 5, in {elapsed:.1f}s", ok)


def test_criterion_03_separability_at_zero_angle():
    ok = True
    for b in (1 / 3, 1 / 2, 1.0, 2.0, 3.0):
        ok &= reconstruct_separable(b) <= 1e-12
        res = check_range_criterion(edge_state(b, 0.0), separable_decomposition(b))
        ok &= res.holds and res.span_dims == (8, 6)
        found = product_vector_search(edge_state(b, 0.0), starts=200, seed=SEED)
        ok &= found.best_objective <= 1e-9
    _report(3, "reconstruction <= 1e-12, range criterion (8,6), search finds product vector", ok)


def test_criterion_04_kernel_golden_vectors():
    ok = True
    for b, theta in [(1.0, math.pi / 6), (2.0, -0.4), (0.5, 0.9), (7.0, 0.05)]:
        s = edge_state(b, theta)
        ok &= kernel_basis(s.mat).residual(edge_kernel_vector()) <= 1e-10
        tau_kernel = kernel_basis(partial_transpose(s.mat, 3, 3))
        for v in edge_tau_kernel_vectors(b, theta):
            ok &= tau_kernel.residual(v) <= 1e-10
    _report(4, "printed kernel vectors lie in computed kernels (residual <= 1e-10)", ok)


def test_criterion_05_phase_circulant_spectrum():
    ok = True
    for theta in np.linspace(-2.0, 2.0, 100):
        if abs(abs(theta) - PI3) < 1e-6:
            continue
        ok &= psd_flag(phase_circulant(theta)) == (abs(theta) <= PI3)
        if abs(theta) < PI3 - 1e-6:
            ok &= numerical_rank(phase_circulant(theta)) == 2
    ok &= numerical_rank(phase_circulant(PI3)) == 1
    ok &= numerical_rank(phase_circulant(-PI3)) == 1
    _report(5, "PSD iff |theta| <= pi/3 on 100 samples; rank 2 inside, rank 1 at the ends", ok)


def test_criterion_06_choi_ppt_region_grid():
    vals = np.linspace(0.0, 4.0, 20)
    ok = True
    checked = 0
    for a in vals:
        for b in vals:
            for c in vals:
                if abs(a - 2.0) < 1e-6 or abs(b * c - 1.0) < 1e-6:
                    continue
                checked += 1
                ok &= classify(choi_matrix(a, b, c)).is_ppt == choi_ppt_region(a, b, c)
    _report(6, f"classifier agrees with the closed PPT region on {checked} grid points", ok)


def test_criterion_07_type_coverage_and_rank_formulas(capsys):
    theta = math.pi / 6
    exit_code = main(["table"])
    capsys.readouterr()
    ok = exit_code == 0

    achieved_q5 = {
        classify(face_state(1.0, GramSpec(theta, *singular_gram_offdiags(theta, t)))).type
        for t in (5, 6, 7, 8)
    }
    ok &= achieved_q5 == {(5, 5), (6, 5), (7, 5), (8, 5)}
    one, two, three = cmath.exp(0.3j), cmath.exp(-0.1j), cmath.exp(0.2j)
    achieved_q6 = {
        classify(face_state(1.0, GramSpec(theta, *offs))).type
        for offs in [(0, 0, 0), (one, 0, 0), (one, two, 0), (one, two, three)]
    }
    ok &= achieved_q6 == {(8, 6), (7, 6), (6, 6), (5, 6)}

    rng = np.random.default_rng(SEED)
    for _ in range(100):
        spec = random_gram_spec(rng)
        b = rng.uniform(0.2, 5.0)
        s = face_state(b, spec)
        blocks = [
            np.array([[1 / b, spec.xi_eta], [np.conj(spec.xi_eta), b]]),
            np.array([[1 / b, spec.eta_zeta], [np.conj(spec.eta_zeta), b]]),
            np.array([[b, spec.zeta_xi], [np.conj(spec.zeta_xi), 1 / b]]),
        ]
        ok &= numerical_rank(s.mat) == 2 + sum(numerical_rank(blk) for blk in blocks)
        ok &= numerical_rank(partial_transpose(s.mat, 3, 3)) == 3 + numerical_rank(spec.gram())
    _report(7, "all eight types achieved at (b, theta) = (1, pi/6); rank formulas on 100 specs", ok)


def test_criterion_08_determinant_formulas():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(20):
        theta = rng.uniform(-PI3, PI3)
        r = rng.uniform(-1.0, 1.0)
        w = 2 * math.cos(theta)
        det1 = np.linalg.det(offdiag_gram(theta, r, -r, 1.0))
        ok &= abs(det1 - (1 + w) * (w * w - w - 2 * r * r)) <= 1e-12
        det2 = np.linalg.det(offdiag_gram(theta, 1.0, 1.0, r))
        ok &= abs(det2 - (w - r) * (r * w + w * w - 2)) <= 1e-12
    for theta in np.linspace(-PI3 + 0.05, PI3 - 0.05, 11):
        if abs(theta) < 0.02:
            continue
        for target in (5, 6, 7, 8):
            g = offdiag_gram(theta, *singular_gram_offdiags(theta, target))
            ok &= abs(np.linalg.det(g)) <= 1e-10
    _report(8, "determinant closed forms to 1e-12; closed-form roots drive |det| <= 1e-10", ok)


def test_criterion_09_rank_bounds_oracle():
    poly = np.polynomial.polynomial

    def coeff_oracle(k, ell, m):
        prod = poly.polymul(poly.polypow([1.0, -1.0], k), poly.polypow([1.0, 1.0], ell))
        return int(round(prod[m - 1])) if m - 1 < len(prod) else 0

    ok = True
    for m, n in ((2, 2), (2, 3), (3, 3)):
        mn = m * n
        boundary = 2 * mn - m - n + 2
        for p in range(1, mn + 1):
            for q in range(1, mn + 1):
                k, ell = mn - p, mn - q
                ok &= alternating_binomial_sum(k, ell, m) == coeff_oracle(k, ell, m)
                got = rank_bounds(m, n, p, q)
                if p <= max(m, n) or q <= max(m, n):
                    expected = Admissibility.BELOW_LOWER_BOUND
                elif p + q > boundary or (p + q == boundary and coeff_oracle(k, ell, m) != 0):
                    expected = Admissibility.FORCES_PRODUCT_VECTOR
                else:
                    expected = Admissibility.ADMISSIBLE
                ok &= got is expected
    ok &= rank_bounds(3, 3, 8, 6) is Admissibility.ADMISSIBLE
    ok &= rank_bounds(3, 3, 7, 7) is Admissibility.FORCES_PRODUCT_VECTOR
    _report(9, "rank bounds match the polynomial-coefficient oracle at (2,2), (2,3), (3,3)", ok)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(SEED)
    ok = True

    # partial-transpose involution and product-projector law
    for _ in range(100):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        s = BipartiteOperator(m, n, random_hermitian(rng, m * n))
        ok &= np.array_equal(_partial_transpose(_partial_transpose(s.mat, m, n), m, n), s.mat)
        x, y = random_unit(rng, m), random_unit(rng, n)
        lhs = _partial_transpose(BipartiteOperator(m, n, proj(tensor(x, y))).mat, m, n)
        ok &= np.linalg.norm(lhs - proj(tensor(np.conj(x), y))) <= 1e-12

    # rank scale invariance
    for _ in range(100):
        mat = random_hermitian(rng, 6)
        scale = 10.0 ** rng.uniform(-6, 6)
        ok &= numerical_rank(scale * mat) == numerical_rank(mat)

    # gram realization round trip
    for _ in range(100):
        g = phase_circulant(rng.uniform(-PI3, PI3))
        if rng.uniform() < 0.5:
            v = random_unit(rng, 3).reshape(3, 1) * rng.uniform(0.5, 2.0)
            g = v @ v.conj().T
        out = gram_realization(g)
        ok &= np.linalg.norm(out @ out.conj().T - g) <= 1e-10 * np.linalg.norm(g)

    # type symmetry under partial transposition
    for _ in range(100):
        s = BipartiteOperator(3, 3, random_hermitian(rng, 9))
        ok &= classify(BipartiteOperator(3, 3, partial_transpose(s.mat, 3, 3))).type == classify(s).type[::-1]

    _report(10, "involution, product-projector, scale invariance, Gram round-trip, type symmetry", ok)
