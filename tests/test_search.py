import cmath
import math
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgelab import (
    BipartiteOperator,
    GramSpec,
    SearchVerdict,
    choi_matrix,
    corner_state,
    edge_state,
    face_state,
    phase_circulant,
    product_vector_search,
    product_vector_search_many,
)
from edgelab import search
from edgelab.errors import DimensionMismatchError, InvalidParamError
from edgelab.search import BLOCK, FOUND_THRESHOLD, MAX_ITERS, MAX_STARTS, RELATIVE_FLOOR, STOP_REASONS, _Objective
from edgelab.states import build_family
from helpers import (
    kernel_basis,
    partial_transpose,
    product_vector,
    proj,
    random_edge_params,
    random_unit,
    random_unitary,
    range_basis,
    reference_smallest_eigvecs,
)

# observed floor of the search objective on edge_state(1, pi/6) with the
# settings below; the assertion only relies on the spec threshold 1e-6
OBSERVED_EDGE_FLOOR = 1.36e-2


def _range_residuals(s, x, y):
    r_s = range_basis(s.mat)
    r_t = range_basis(partial_transpose(s.mat, s.m, s.n))
    return (
        r_s.residual(product_vector(x, y)),
        r_t.residual(product_vector(np.conj(x), y)),
    )


def test_separable_zero_angle_is_found():
    res = product_vector_search(edge_state(1.0, 0.0), starts=50, seed=3)
    assert res.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND
    assert res.best_objective <= 1e-10


def test_edge_state_has_strictly_positive_floor():
    res = product_vector_search(edge_state(1.0, math.pi / 6), starts=60, seed=3)
    assert res.verdict is SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
    assert res.best_objective >= 1e-6
    assert res.best_objective == pytest.approx(OBSERVED_EDGE_FLOOR, rel=0.05)


def test_corner_state_edge_only_for_b_not_one():
    found = product_vector_search(corner_state(1.0), starts=50, seed=3)
    assert found.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND
    assert found.best_objective <= 1e-8
    blocked = product_vector_search(corner_state(2.0), starts=60, seed=3)
    assert blocked.verdict is SearchVerdict.NONE_FOUND_ABOVE_THRESHOLD
    assert blocked.best_objective >= 1e-6


def test_rank_one_product_state(rng):
    x, y = random_unit(rng, 3), random_unit(rng, 3)
    s = BipartiteOperator(3, 3, proj(product_vector(x, y)))
    res = product_vector_search(s, starts=10, seed=1)
    assert res.best_objective <= 1e-12
    # the minimizer is the projector's own product vector, up to phases
    assert abs(np.vdot(res.best_x, x)) == pytest.approx(1.0, abs=1e-6)
    assert abs(np.vdot(res.best_y, y)) == pytest.approx(1.0, abs=1e-6)


def test_full_rank_state_trivially_found(monkeypatch):
    # both kernels are empty: every start is at exactly 0, the least objective, and takes no step
    steps = [0]
    step = search._step

    def counting(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(search, "_step", counting)
    x, y = search._random_starts(np.random.default_rng(7), 1)
    for state in (BipartiteOperator(3, 3, np.eye(9)), choi_matrix(3.0, 2.0, 1.0)):
        for starts in (1, 5, BLOCK + 1):
            res = product_vector_search(state, starts=starts, seed=7)
            assert res.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND
            assert res.best_objective == 0.0
            assert res.starts == starts
            assert not res.per_start_objectives.any()
            assert not res.steps.any() and (res.stop_reasons == "zero").all()
            # the best pair is start 0's, bit for bit
            assert np.array_equal(res.best_x, x[0]) and np.array_equal(res.best_y, y[0])
    assert steps[0] == 0


def test_completeness_on_random_separable_states(rng):
    for _ in range(20):
        k = int(rng.integers(1, 5))
        mat = np.zeros((9, 9), dtype=complex)
        pairs = []
        for _ in range(k):
            x, y = random_unit(rng, 3), random_unit(rng, 3)
            pairs.append((x, y))
            mat += proj(product_vector(x, y))
        s = BipartiteOperator(3, 3, mat)
        res = product_vector_search(s, starts=100, seed=11)
        assert res.best_objective <= 1e-9
        # soundness: re-verify the reported pair against the ranges directly
        r1, r2 = _range_residuals(s, res.best_x, res.best_y)
        assert r1 <= 1e-8 and r2 <= 1e-8


def test_result_invariants():
    # an edge state, and a Choi matrix that is full rank on both sides: one search path
    for state, full_rank in [(edge_state(2.0, 0.4), False), (choi_matrix(3.0, 2.0, 1.0), True)]:
        res = product_vector_search(state, starts=20, seed=5)
        assert res.starts == 20
        assert res.per_start_objectives.shape == (20,)
        assert res.best_objective == res.per_start_objectives.min()
        assert np.linalg.norm(res.best_x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(res.best_y) == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.per_start_objectives >= 0)
        assert (res.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND) == full_rank
        assert (res.per_start_objectives == 0).all() == full_rank
        assert res.steps.shape == res.stop_reasons.shape == (20,)
        assert np.isin(res.stop_reasons, STOP_REASONS).all()
        assert ((res.steps == 0) == (res.stop_reasons == "zero")).all()
        assert (res.stop_reasons == "zero").all() == full_rank


def test_deterministic_for_fixed_seed():
    a = product_vector_search(edge_state(1.0, 0.5), starts=15, seed=42)
    b = product_vector_search(edge_state(1.0, 0.5), starts=15, seed=42)
    assert np.array_equal(a.per_start_objectives, b.per_start_objectives)
    assert np.array_equal(a.best_x, b.best_x)
    assert np.array_equal(a.best_y, b.best_y)


# the state of a single row: state 0 of a one-state objective
ONE_ROW = np.zeros(1, int)


def _best_y(obj, x):
    return search._smallest_eigvecs(search._forms(search._outer(x), obj.m_y[0]))


def _best_x(obj, y):
    return search._smallest_eigvecs(search._forms(search._outer(y), obj.m_y[0].T))


def test_alternating_steps_are_exact_minimizers(rng):
    # each step solves its subproblem globally: no random candidate beats it
    obj = _Objective([edge_state(1.4, 0.5)])
    for _ in range(10):
        x_fixed = random_unit(rng, 3)[None]
        y_best = _best_y(obj, x_fixed)
        f_y = obj.value(ONE_ROW, x_fixed, y_best)[0]
        y_fixed = random_unit(rng, 3)[None]
        x_best = _best_x(obj, y_fixed)
        f_x = obj.value(ONE_ROW, x_best, y_fixed)[0]
        for _ in range(200):
            assert f_y <= obj.value(ONE_ROW, x_fixed, random_unit(rng, 3)[None])[0] + 1e-12
            assert f_x <= obj.value(ONE_ROW, random_unit(rng, 3)[None], y_fixed)[0] + 1e-12


def test_objective_decreases_monotonically():
    # alternating exact minimization can never increase the objective
    s = edge_state(0.8, -0.6)
    obj = _Objective([s])
    g = np.random.default_rng(0)
    x, y = random_unit(g, 3)[None], random_unit(g, 3)[None]
    prev = obj.value(ONE_ROW, x, y)[0]
    for _ in range(50):
        y = _best_y(obj, x)
        mid = obj.value(ONE_ROW, x, y)[0]
        x = _best_x(obj, y)
        cur = obj.value(ONE_ROW, x, y)[0]
        assert mid <= prev + 1e-12
        assert cur <= mid + 1e-12
        prev = cur


def test_rejects_negative_seed():
    with pytest.raises(InvalidParamError, match="seed"):
        product_vector_search(edge_state(1.0, 0.5), starts=3, seed=-1)


def test_rejects_more_starts_than_the_cap(monkeypatch):
    # refused before the draw: nothing of MAX_STARTS + 1 starts is allocated
    monkeypatch.setattr(search, "_random_starts", mock.Mock(side_effect=AssertionError("drawn")))
    for starts in (0, MAX_STARTS + 1, 10**20):
        with pytest.raises(InvalidParamError, match=f"starts must be from 1 to {MAX_STARTS}, got {starts}$"):
            product_vector_search_many([edge_state(1.0, 0.5)], starts=starts)


@pytest.mark.parametrize("state", [corner_state(2.0), corner_state(1.0)], ids=["no-witness", "witness"])
def test_fewer_starts_give_a_bit_exact_prefix(state):
    # BLOCK and BLOCK + 1 sit on either side of the first block boundary
    full = product_vector_search(state, starts=BLOCK + 44, seed=4)
    for k in (1, 37, BLOCK, BLOCK + 1):
        res = product_vector_search(state, starts=k, seed=4)
        assert res.starts == k
        for field in ("per_start_objectives", "steps", "stop_reasons"):
            assert np.array_equal(getattr(res, field), getattr(full, field)[:k])
        assert res.best_objective == res.per_start_objectives.min()


def _pure_entangled():
    """An entangled pure state of Schmidt rank 2: no product vector in its range.

    Its kernel has 8 vectors and that of its partial transpose 5.
    """
    v = np.zeros(9, dtype=complex)
    v[0], v[4] = math.sqrt(2 / 3), 1j * math.sqrt(1 / 3)
    return BipartiteOperator(3, 3, np.outer(v, v.conj()))


# The p5 states of the CLI's p5 sweep: kernel splits (4, 4), (3, 4), (2, 4)
# and (1, 4), each with a sum of squares of its own length
P5_STATES = [build_family("p5", {"b": 1.0, "theta": 0.5, "target_p": p}) for p in (5, 6, 7, 8)]

# States the stacked search is checked on: edge, corner, choi and face states
# without a witness, a full-rank state whose partial transpose is not, one
# with both full rank (trivial), the five witness states, and states of
# other kernel splits: the p5 states and a pure entangled state, split (8, 5).
STACK_POOL = [
    edge_state(1.0, math.pi / 6),
    edge_state(0.7, -0.9),
    corner_state(2.0),
    corner_state(0.7),
    choi_matrix(2.0, 2.0, 0.5),
    choi_matrix(1.5, 1.0, 1.0),
    face_state(1.0, GramSpec(math.pi / 6, cmath.exp(0.3j))),
    choi_matrix(3.0, 2.0, 1.0),
    edge_state(1.0, 0.0),
    choi_matrix(2.0, 1.0, 1.0),
    edge_state(1.3, 0.0),
    corner_state(1.0),
    edge_state(1.0, math.pi / 3),
    *P5_STATES,
    _pure_entangled(),
]


def _assert_same_results(stacked, alone):
    assert len(stacked) == len(alone)
    for got, want in zip(stacked, alone):
        assert got.verdict is want.verdict
        assert got.starts == want.starts
        assert got.best_objective == want.best_objective
        for field in ("best_x", "best_y", "per_start_objectives", "steps", "stop_reasons"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


@given(
    picks=st.lists(st.integers(0, len(STACK_POOL) - 1), min_size=1, max_size=5),
    starts=st.integers(1, 8),
    seed=st.integers(0, 2**40),
    block=st.integers(2, 24),
)
# every block one p5 state, in a call whose factor is padded to the widest of four splits
@example(picks=[i for i, s in enumerate(STACK_POOL) if any(s is p for p in P5_STATES)], starts=8, seed=4, block=8)
@settings(max_examples=20, deadline=None)
def test_stacked_search_equals_one_state_at_a_time(picks, starts, seed, block):
    # small blocks make most states run over a block boundary
    states = [STACK_POOL[i] for i in picks]
    alone = [product_vector_search(s, starts=starts, seed=seed) for s in states]
    with mock.patch.object(search, "BLOCK", block):
        stacked = product_vector_search_many(states, starts=starts, seed=seed)
    _assert_same_results(stacked, alone)


def test_stacked_search_across_a_block_boundary():
    # the second state's starts run over the first boundary of BLOCK
    states = [corner_state(2.0), corner_state(1.0), edge_state(1.0, math.pi / 6)]
    k = BLOCK // 2 + 1
    alone = [product_vector_search(s, starts=k, seed=4) for s in states]
    _assert_same_results(product_vector_search_many(states, starts=k, seed=4), alone)


def test_stacked_search_over_mixed_kernel_splits():
    # one block of four splits: a sum of squares padded to the widest split
    # would take other last bits on some of them
    alone = [product_vector_search(s, starts=12, seed=4) for s in P5_STATES]
    _assert_same_results(product_vector_search_many(P5_STATES, starts=12, seed=4), alone)


@pytest.mark.parametrize(
    "op", [BipartiteOperator(1, 3, phase_circulant(0.5)), BipartiteOperator(2, 3, np.eye(6))], ids=["1x3", "2x3"]
)
def test_search_rejects_other_shapes(op):
    with pytest.raises(DimensionMismatchError, match=f"got {op.m} x {op.n}"):
        product_vector_search(op, starts=2)


def test_stacked_search_takes_bi_qutrit_states_only(monkeypatch):
    # the shape check sits at the door: no state's objective is built, so no start runs
    built = mock.Mock(side_effect=AssertionError("an objective was built"))
    monkeypatch.setattr(search, "_Objective", built)
    with pytest.raises(DimensionMismatchError, match="got 1 x 3"):
        product_vector_search_many([edge_state(1.0, 0.5), BipartiteOperator(1, 3, phase_circulant(0.5))], starts=2)
    assert not built.called
    assert product_vector_search_many([]) == []
    assert product_vector_search_many(iter([])) == []


def _start_by_start_objectives(s, starts, seed, max_iters=500, convergence_tol=1e-14):
    """Per-start objectives, steps and stop reasons of the search run one start and one vector pair at a time.

    A start stops once a step lowers its objective by less than
    ``convergence_tol``, or, while its objective is above
    ``search.RELATIVE_FLOOR``, by less than ``search.RELATIVE_TOL`` times it.
    """
    relative_tol, relative_floor = search.RELATIVE_TOL, search.RELATIVE_FLOOR
    m, n = s.m, s.n
    ka = kernel_basis(s.mat).basis.conj().reshape(m, n, -1)
    kt = kernel_basis(partial_transpose(s.mat, m, n)).basis.conj().reshape(m, n, -1)

    def unit(g, dim):
        v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        return v / np.linalg.norm(v)

    def value(x, y):
        v1 = np.einsum("ila,i,l->a", ka, x, y)
        v2 = np.einsum("ila,i,l->a", kt, np.conj(x), y)
        return float(np.vdot(v1, v1).real + np.vdot(v2, v2).real)

    def best_y(x):
        c1 = np.einsum("ila,i->al", ka, x)
        c2 = np.einsum("ila,i->al", kt, np.conj(x))
        return np.linalg.eigh(c1.conj().T @ c1 + c2.conj().T @ c2)[1][:, 0]

    def best_x(y):
        d1 = np.einsum("ila,l->ai", ka, y)
        d2 = np.einsum("ila,l->ai", kt, y)
        c, e = d1.conj().T @ d1, d2.conj().T @ d2
        r, q = c.real + e.real, c.imag - e.imag
        u = np.linalg.eigh(np.block([[r, -q], [q, r]]))[1][:, 0]
        x = u[:m] + 1j * u[m:]
        return x / np.linalg.norm(x)

    out, steps, reasons = [], [], []
    g = np.random.default_rng(seed)
    for _ in range(starts):
        x, y = unit(g, m), unit(g, n)
        f = value(x, y)
        k, reason = 0, "zero" if f == 0 else "max-iters"
        while f > 0 and k < max_iters:
            y = best_y(x)
            x = best_x(y)
            f_new = value(x, y)
            k += 1
            drop, f = f - f_new, f_new
            if drop < convergence_tol:
                reason = "converged"
                break
            if f > relative_floor and drop < relative_tol * f:
                reason = "relative"
                break
        if 0 < f <= FOUND_THRESHOLD:
            reason = "polished"
            for _ in range(60):
                y_p = best_y(x)
                x_p = best_x(y_p)
                f_p = value(x_p, y_p)
                if f_p >= f:
                    break
                x, y, f = x_p, y_p, f_p
                k += 1
        out.append(f)
        steps.append(k)
        reasons.append(reason)
    return np.array(out), np.array(steps), np.array(reasons)


@pytest.mark.parametrize(
    "state, max_iters",
    [
        (edge_state(1.0, math.pi / 6), MAX_ITERS),
        (corner_state(2.0), MAX_ITERS),
        (_pure_entangled(), MAX_ITERS),
        # the cap is read from the module when the search runs
        (edge_state(1.0, math.pi / 6), 2),
    ],
    ids=["edge", "corner", "pure-entangled", "edge-capped"],
)
def test_lockstep_matches_start_by_start_search(state, max_iters):
    reference, steps, reasons = _start_by_start_objectives(state, starts=30, seed=2, max_iters=max_iters)
    with mock.patch.object(search, "MAX_ITERS", max_iters):
        res = product_vector_search(state, starts=30, seed=2)
    assert np.all(reference > FOUND_THRESHOLD)
    np.testing.assert_allclose(res.per_start_objectives, reference, rtol=1e-12, atol=0)
    assert np.array_equal(res.steps, steps)
    assert np.array_equal(res.stop_reasons, reasons)
    # the cap stops every start of the capped search; the others stop by their decrease
    assert (reasons == "max-iters").all() == (max_iters == 2)


# The stack pool and two states whose starts end between FOUND_THRESHOLD and RELATIVE_FLOOR,
# or just under the first: edge_state(1, 1e-4) at 5.0e-10 (ROADMAP item 4a)
# and edge_state(1, pi/3 - 1e-4) at 1.7e-9, which no polish step touches
RELATIVE_POOL = STACK_POOL + [edge_state(1.0, 1e-4), edge_state(1.0, math.pi / 3 - 1e-4)]


def test_starts_under_the_relative_floor_keep_their_bits():
    # patched to 0, the relative rule never stops a start: the absolute rule alone
    for state in RELATIVE_POOL:
        res = product_vector_search(state, starts=40, seed=6)
        with mock.patch.object(search, "RELATIVE_TOL", 0.0):
            absolute = product_vector_search(state, starts=40, seed=6)
        low = res.per_start_objectives <= RELATIVE_FLOOR
        for field in ("per_start_objectives", "steps", "stop_reasons"):
            assert np.array_equal(getattr(res, field)[low], getattr(absolute, field)[low])
        assert not (absolute.stop_reasons == "relative").any()
        assert res.verdict is absolute.verdict
        if res.best_objective <= RELATIVE_FLOOR:
            assert res.best_objective == absolute.best_objective
            assert np.array_equal(res.best_x, absolute.best_x) and np.array_equal(res.best_y, absolute.best_y)


@given(
    seed=st.integers(0, 2**32 - 1),
    separable=st.booleans(),
    log_weight=st.floats(-4.0, 0.0),
    starts=st.sampled_from([3, 20]),
)
@settings(max_examples=30, deadline=None)
def test_relative_stop_finds_every_planted_product_vector(seed, separable, log_weight, starts):
    # an edge state plus c |xy><xy| has x (x) y in its range and conj(x) (x) y
    # in that of its partial transpose, as a random separable state has its terms
    rng = np.random.default_rng(seed)
    if separable:
        state = _separable(rng, int(rng.integers(1, 6)))
    else:
        v = product_vector(random_unit(rng, 3), random_unit(rng, 3))
        state = BipartiteOperator(3, 3, edge_state(*random_edge_params(rng)).mat + 10.0**log_weight * proj(v))
    res = product_vector_search(state, starts=starts, seed=seed)
    with mock.patch.object(search, "RELATIVE_TOL", 0.0):
        absolute = product_vector_search(state, starts=starts, seed=seed)
    assert res.verdict is absolute.verdict


@pytest.mark.parametrize(
    "state",
    [edge_state(1.3, 0.0), corner_state(1.0), edge_state(1.0, math.pi / 3)],
    ids=["edge-b", "corner", "edge-pi3"],
)
def test_witness_starts_never_stop_relative(state):
    # the witness states of the benchmark's search passes
    res = product_vector_search(state, starts=200, seed=0)
    assert res.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND
    assert not (res.stop_reasons == "relative").any()
    r1, r2 = _range_residuals(state, res.best_x, res.best_y)
    assert r1 <= 1e-8 and r2 <= 1e-8


def test_starts_advance_in_lockstep(monkeypatch):
    # a start-by-start loop makes two eigen-solves per step: about 11,600 here
    calls = {"eigh": 0, "einsum": 0, "step": 0, "eigvecs": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(search.np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(search.np, "einsum", counting("einsum", np.einsum))
    state = edge_state(1.0, math.pi / 6)
    # set-up: the kernels and the objective of the starts
    _Objective([state]).value(np.zeros(200, int), *search._random_starts(np.random.default_rng(0), 200))
    setup = dict(calls)
    calls.update(eigh=0, einsum=0)
    monkeypatch.setattr(search, "_step", counting("step", search._step))
    monkeypatch.setattr(search, "_smallest_eigvecs", counting("eigvecs", search._smallest_eigvecs))
    res = product_vector_search(state, starts=200, seed=0)
    steps = calls["step"]
    # no start polishes, so the loop runs as long as the longest descent
    assert steps == res.steps.max()
    assert 0 < calls["eigvecs"] < 200
    assert calls["eigvecs"] == 2 * steps
    # every form of this search is far from a degenerate smallest pair, so no
    # row falls back to eigh: the only eigh calls are the two kernels
    assert calls["eigh"] == setup["eigh"] + 0
    # the steps make no einsum call: the forms are matrix products
    assert calls["einsum"] == setup["einsum"]


def test_stacking_states_makes_fewer_closed_form_calls(monkeypatch):
    # the search sweep of the CLI benchmark: 20 edge states, 50 starts each
    calls = [0]
    eigvecs = search._smallest_eigvecs

    def counting(h):
        calls[0] += 1
        return eigvecs(h)

    monkeypatch.setattr(search, "_smallest_eigvecs", counting)
    states = [edge_state(1.0, t) for t in np.linspace(-1.15, 1.15, 20)]
    alone = []
    for s in states:
        calls[0] = 0
        product_vector_search(s, starts=50, seed=901)
        alone.append(calls[0])
    calls[0] = 0
    product_vector_search_many(states, starts=50, seed=901)
    # one block: as many steps as the longest descent plus the longest polish
    assert max(alone) <= calls[0] <= 2 * max(alone)
    assert 4 * calls[0] < sum(alone)


@pytest.mark.parametrize(
    "states", [[edge_state(1.0, t) for t in np.linspace(-1.15, 1.15, 20)], P5_STATES], ids=["edge", "p5"]
)
def test_one_product_a_half_step_serves_every_state(monkeypatch, states):
    # the block of the CLI benchmark's search sweep, 20 edge states of one
    # kernel split, and the four p5 states of four splits: each half-step makes
    # one form product for the rows of every state, and each value one
    # product per kernel split among its rows
    calls = {"_step": 0, "_forms": 0, "_sum_squares": 0}
    values = []  # each value call's distinct splits and products

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
    value = _Objective.value

    def counting_value(obj, at, x, y):
        before = calls["_sum_squares"]
        f = value(obj, at, x, y)
        values.append((len({obj.splits[j] for j in np.unique(at).tolist()}), calls["_sum_squares"] - before))
        return f

    monkeypatch.setattr(_Objective, "value", counting_value)
    res = product_vector_search_many(states, starts=50, seed=2601)
    assert len(states) * 50 <= BLOCK
    # the loop runs as long as the longest descent and polish of any state
    assert calls["_step"] >= max(r.steps.max() for r in res) > 0
    assert calls["_forms"] == 2 * calls["_step"]
    assert len(values) == calls["_step"] + 1
    assert all(splits == products for splits, products in values)
    assert values[0][0] == len(set(_Objective(states).splits))


# seeds one to five 32-bit words wide
DRAW_SEEDS = [0, 1, 901, 2**32 - 1, 2**32, 2**40 + 17, 2**64 + 5, 2**73 + 12345, 2**100 + 7]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_random_starts_match_default_rng(seed):
    # a block of 256 and then one of 44 take the rows of one 300-row draw
    z = np.random.default_rng(seed).standard_normal((300, 12))
    x = z[:, :3] + 1j * z[:, 3:6]
    y = z[:, 6:9] + 1j * z[:, 9:]
    rng = np.random.default_rng(seed)
    blocks = [search._random_starts(rng, count) for count in (256, 44)]
    got_x, got_y = (np.concatenate(parts) for parts in zip(*blocks))
    assert np.array_equal(got_x, x / np.linalg.norm(x, axis=1, keepdims=True))
    assert np.array_equal(got_y, y / np.linalg.norm(y, axis=1, keepdims=True))


def test_the_draw_peaks_at_about_200_bytes_a_start():
    # the normals (96 bytes a start) are dropped once x and y (96) are built,
    # and x and y are normalized in place; building x and y beside the
    # normals and normalizing into new arrays peaked at 304 bytes a start
    count = 32_768
    search._random_starts(np.random.default_rng(0), 8)  # first use, outside the measurement
    tracemalloc.start()
    try:
        got = search._random_starts(np.random.default_rng(5), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 216 * count
    z = np.random.default_rng(5).standard_normal((count, 12))
    for v, re, im in zip(got, (z[:, :3], z[:, 6:9]), (z[:, 3:6], z[:, 9:])):
        want = re + 1j * im
        assert np.array_equal(v, want / np.linalg.norm(want, axis=1, keepdims=True))


def test_import_does_not_load_numpy_random():
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; "
        "import edgelab; assert ('numpy.random' in sys.modules) == before"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _separable(rng, k):
    """A sum of k random product projectors: both kernels are nontrivial."""
    mat = sum(proj(product_vector(random_unit(rng, 3), random_unit(rng, 3))) for _ in range(k))
    return BipartiteOperator(3, 3, mat)


def test_forms_match_gram_construction(rng):
    # the oracle: the forms as Hermitian products of the contracted kernels
    for k in (1, 2, 4):
        obj = _Objective([_separable(rng, k)])
        ka, kt = obj.ka[0], obj.kt[0]
        assert ka.shape[2] and kt.shape[2]
        x = np.array([random_unit(rng, 3) for _ in range(20)])
        y = np.array([random_unit(rng, 3) for _ in range(20)])
        c1 = np.einsum("ila,bi->bal", ka, x)
        c2 = np.einsum("ila,bi->bal", kt, x.conj())
        y_form = c1.conj().transpose(0, 2, 1) @ c1 + c2.conj().transpose(0, 2, 1) @ c2
        d = np.concatenate([np.einsum("ila,bl->bai", ka, y), np.einsum("ila,bl->bai", kt, y).conj()], axis=1)
        x_form = d.conj().transpose(0, 2, 1) @ d
        outer_x = (x.conj()[:, :, None] * x[:, None, :]).reshape(20, -1)
        outer_y = (y.conj()[:, :, None] * y[:, None, :]).reshape(20, -1)
        want = (np.abs(d @ x[:, :, None]) ** 2).sum(axis=(1, 2))
        np.testing.assert_allclose(obj.value(np.zeros(20, int), x, y), want, rtol=0, atol=1e-13 * np.abs(d).max() ** 2)
        for form, got in ((y_form, outer_x @ obj.m_y[0]), (x_form, outer_y @ obj.m_y[0].T)):
            assert np.abs(got - form.reshape(20, -1)).max() <= 1e-13 * np.abs(form).max()


def test_stacked_objective_keeps_the_bits_of_each_state():
    # the forms and factors of all states of one kernel split come from one
    # stacked product, bit for bit those built one state at a time
    obj = _Objective(STACK_POOL)
    assert len(obj.kinds) > 1
    for j, (ka, kt) in enumerate(zip(obj.ka, obj.kt)):
        a = np.einsum("ila,joa->ijlo", ka.conj(), ka)
        t = np.einsum("ila,joa->ijlo", kt.conj(), kt)
        m_y = (a + t.transpose(1, 0, 2, 3)).reshape(9, 9)
        k = np.zeros_like(obj.k[j])
        both = np.concatenate([ka, kt], axis=2)
        k[: 3 * both.shape[2]] = both.transpose(2, 0, 1).reshape(-1, 3)
        assert np.array_equal(obj.m_y[j].view(np.uint64), m_y.view(np.uint64)), j
        assert np.array_equal(obj.k[j].view(np.uint64), k.view(np.uint64)), j


def _forms(rng, spectra):
    """Stacked Hermitian 3 x 3 forms with the given spectra in random eigenbases."""
    out = []
    for lam in spectra:
        u = random_unitary(rng, 3)
        out.append((u * lam) @ u.conj().T)
    return np.stack(out)


@pytest.fixture
def eigh_rows(monkeypatch):
    """The row count of every eigh call from here on."""
    rows = []
    eigh = np.linalg.eigh

    def counting(a):
        rows.append(len(a))
        return eigh(a)

    monkeypatch.setattr(search.np.linalg, "eigh", counting)
    return rows


# a stack of 12 forms for each case, and how many of its rows take eigh
EIGVEC_CASES = {
    "random": (lambda g: _forms(g, g.uniform(-2.0, 3.0, (12, 3))), 0),
    "degenerate-lowest": (lambda g: _forms(g, [[0.0, 0.0, 1.0]] * 12), 12),
    "near-degenerate-lowest": (lambda g: _forms(g, [[0.0, 1e-12, 1.0]] * 12), 12),
    "degenerate-upper": (lambda g: _forms(g, [[0.0, 1.0, 1.0]] * 12), 0),
    "tiny-scale": (lambda g: _forms(g, [[1e-30, 1e-15, 1e-15]] * 12), 0),
    "scalar": (lambda g: np.tile(2.5 * np.eye(3, dtype=complex), (12, 1, 1)), 12),
    "zero": (lambda g: np.zeros((12, 3, 3), dtype=complex), 12),
}


@pytest.mark.parametrize("case", list(EIGVEC_CASES))
def test_smallest_eigvecs_closed_form(case, eigh_rows):
    build, fallback_rows = EIGVEC_CASES[case]
    h = build(np.random.default_rng(7))
    spectra = np.linalg.eigvalsh(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = search._smallest_eigvecs(h)
        assert sum(eigh_rows) == fallback_rows
        # each row alone gives the same bits as in the stack
        rows = np.concatenate([search._smallest_eigvecs(h[i : i + 1]) for i in range(len(h))])
    assert np.array_equal(rows, v)
    assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-15)
    rayleigh = np.einsum("bi,bij,bj->b", v.conj(), h, v).real
    assert np.all(np.abs(rayleigh - spectra[:, 0]) <= 1e-14 * np.abs(spectra).max(axis=1))


def test_smallest_eigvecs_falls_back_row_by_row(eigh_rows):
    # only the rows with a nearly degenerate smallest pair go to eigh
    h = _forms(np.random.default_rng(8), [[0.0, 1e-12 if i % 5 == 0 else 0.3, 1.0] for i in range(23)])
    v = search._smallest_eigvecs(h)
    assert eigh_rows == [5]
    rayleigh = np.einsum("bi,bij,bj->b", v.conj(), h, v).real
    assert np.all(np.abs(rayleigh) <= 1e-14)


def test_smallest_eigvecs_keep_their_bits(eigh_rows):
    # the cubic now comes from linalg, and every bit of the eigenvectors, and
    # so of every search, stays that of the search's own closed form, the
    # sign of every zero included: real forms give zero imaginary parts
    g = np.random.default_rng(9)
    random = _forms(g, g.uniform(-2.0, 3.0, (40, 3)))
    real = []
    for lam in g.uniform(-2.0, 3.0, (40, 3)):
        u = np.linalg.qr(g.standard_normal((3, 3)))[0]
        real.append((u * lam) @ u.T)
    stacks = {
        "random": random,
        "under-gap-floor": _forms(g, [[0.0, 1e-12 if i % 3 else 1e-7, 1.0] for i in range(12)]),
        "zero": np.zeros((5, 3, 3), dtype=complex),
        "times-2**500": random * 2.0**500,
        "times-2**-500": random * 2.0**-500,
        "real-symmetric": np.array(real, dtype=complex),
        "diagonal": np.array([np.diag(g.permutation(lam)) for lam in g.uniform(-2.0, 3.0, (40, 3))], dtype=complex),
    }
    stacks["all"] = np.concatenate(list(stacks.values()))[g.permutation(sum(map(len, stacks.values())))]
    for name, h in stacks.items():
        del eigh_rows[:]
        got = search._smallest_eigvecs(h)
        assert np.array_equal(got.view(np.uint64), reference_smallest_eigvecs(h).view(np.uint64)), name
        assert bool(eigh_rows) == (name in ("under-gap-floor", "zero", "all")), name
        if name in ("real-symmetric", "diagonal"):
            parts = got.view(float)
            assert np.signbit(parts[parts == 0]).any(), name


def _realified_form(c, e):
    """The objective for fixed y in the 2m real coordinates (Re x, Im x)."""
    r, q = c.real + e.real, c.imag - e.imag
    return np.block([[r, -q], [q, r]])


@pytest.mark.parametrize("state", [edge_state(1.4, 0.5), corner_state(0.7)], ids=["edge", "corner"])
def test_best_x_form_is_hermitian_in_x(state, rng):
    # conj(x)^H E conj(x) = x^H conj(E) x, so for fixed y the objective is the
    # complex form C + conj(E), whose realification is the real 2m x 2m form
    obj = _Objective([state])
    for _ in range(10):
        y = random_unit(rng, 3)
        c_a = np.einsum("ila,l->ai", obj.ka[0], y)
        c_t = np.einsum("ila,l->ai", obj.kt[0], y)
        c, e = c_a.conj().T @ c_a, c_t.conj().T @ c_t
        form = c + e.conj()
        for _ in range(10):
            x = random_unit(rng, 3)
            want = np.vdot(x, form @ x).real
            assert obj.value(ONE_ROW, x[None], y[None])[0] == pytest.approx(want, rel=1e-12, abs=1e-15)
        floor = np.linalg.eigvalsh(_realified_form(c, e))[0]
        assert obj.value(ONE_ROW, _best_x(obj, y[None]), y[None])[0] == pytest.approx(floor, abs=1e-12)
