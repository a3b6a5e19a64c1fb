"""Tests of the benchmark itself: span arithmetic, oracles, smoke-size runs.

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import edgelab as el
from perfbench import oracle, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


def _span(tracer, name, t0, t1, parent=-1, thread=0, cpu=None):
    """Append one finished span to a tracer, as if it had been recorded."""
    tracer.name.append(tracer._name_id(name))
    tracer.parent.append(parent)
    tracer.thread.append(thread)
    tracer.t0.append(t0)
    tracer.t1.append(t1)
    tracer.c0.append(cpu[0] if cpu else -1)
    tracer.c1.append(cpu[1] if cpu else -1)
    return len(tracer.name) - 1


# ---------------------------------------------------------------- spans


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20
    assert spans.union_length([(3, 4), (0, 1)]) == 2


def test_self_time_clips_children_to_the_parent():
    assert spans.self_time(0, 100, [(10, 40), (30, 70), (90, 130)]) == 30


def test_self_time_on_a_two_thread_span_tree():
    t = spans.Tracer()
    bench = _span(t, "bench.sweep_search", 0, 110)
    main = _span(t, "cli.main", 0, 100, parent=bench)
    cmd = _span(t, "cli.cmd_sweep", 5, 95, parent=main)
    # pool workers on threads 1 and 2, overlapping in [30, 40)
    _span(t, "classify.classify", 10, 40, parent=cmd, thread=1, cpu=(0, 20))
    search = _span(t, "search.product_vector_search", 30, 70, parent=cmd, thread=2, cpu=(0, 25))
    _span(t, "numpy.eigh", 35, 45, parent=search, thread=2)
    _span(t, "linalg.kernel_basis", 31, 33, parent=search, thread=2)
    _span(t, "states.edge_state", 80, 90, parent=main)
    tree = spans.SpanTree(t)
    # cli self: 100 minus the union of [10, 70) and [80, 90)
    assert tree.self_ns(main) == 30
    # search self excludes linalg, keeps its own numpy kernel calls
    assert tree.self_ns(search) == 38
    m = spans.per_layer_metrics(t, 1.0, 0.0)
    assert m["cli.sweep_search.self_ms"] == 30 / 1e6
    assert m["cli.sweep_search_concurrency"] == pytest.approx(45 / 90)
    assert m["search.kernel_setup_us_p50"] == 2 / 1e3
    assert m["classify.calls"] == 1 and m["search.calls"] == 1 and m["states.calls"] == 1


def test_pool_spans_take_the_waiting_command_as_parent():
    tracer = spans.Tracer()

    def work(_):
        with tracer.span("classify.classify"):
            return threading.get_ident()

    with tracer.span("cli.cmd_sweep") as cmd:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    children = [s for s in range(len(tracer.name)) if tracer.parent[s] == cmd]
    assert len(children) == 4
    assert all(tracer.thread[s] != tracer.thread[cmd] for s in children)
    assert all(tracer.c1[s] >= tracer.c0[s] >= 0 for s in children)


def test_traced_wraps_layers_and_kernels_and_restores_them():
    original = el.classify
    tracer = spans.Tracer()
    with spans.traced(tracer):
        el.classify(el.edge_state(1.0, 0.5))
    assert el.classify is original
    tree = spans.SpanTree(tracer)
    assert len(tree.spans("classify.classify")) == 1
    assert len(tree.spans("numpy.svd")) == 2
    assert len(tree.spans("linalg.partial_transpose")) == 1


# --------------------------------------------------------------- oracles


def test_closed_forms_match_the_paper_types():
    assert oracle.expect_edge(1.0, math.pi / 6).type == (8, 6)
    assert oracle.expect_edge(1.0, math.pi / 3).type == (7, 6)
    assert oracle.expect_corner(2.0).type == (7, 6)
    assert oracle.expect_p5(1.0, 0.4, 6).type == (6, 5)
    assert oracle.expect_choi(2.0, 2.0, 0.5).is_ppt
    assert not oracle.expect_choi(1.9, 2.0, 0.5).is_ppt
    assert not oracle.expect_choi(2.5, 0.9, 1.0).is_ppt
    couplings = (np.exp(0.3j), np.exp(-0.1j), np.exp(0.2j))
    assert oracle.expect_face(1.0, math.pi / 6, couplings).type == (5, 6)
    assert oracle.admissibility(3, 3, 8, 6) == "Admissible"
    assert oracle.admissibility(3, 3, 9, 9) == "ForcesProductVector"


def test_a_swapped_type_is_caught():
    case = workloads.make_case("edge", b=1.0, theta=0.5)
    c = el.classify(workloads.build(case))
    assert oracle.check_classification(c, case.expected) == []
    swapped = SimpleNamespace(**{**c.__dict__, "type": (6, 8), "kernel_dims": (3, 1)})
    assert oracle.check_classification(swapped, case.expected)


def test_found_on_a_certified_edge_state_is_caught():
    case = workloads.make_case("edge", b=1.0, theta=0.5)
    state = workloads.build(case)
    r = el.product_vector_search(state, starts=5, seed=0)
    assert oracle.check_search(r, state.mat, case.expected, case.certified) == []
    x, y = np.eye(3)[0], np.eye(3)[1]
    fake = SimpleNamespace(verdict=el.SearchVerdict.PRODUCT_VECTOR_FOUND, best_objective=0.0, best_x=x, best_y=y)
    errors = oracle.check_search(fake, state.mat, case.expected, case.certified)
    assert any("analytic tier" in e for e in errors)
    assert any("off the ranges" in e for e in errors)


def test_a_true_witness_passes_the_range_check():
    case = workloads.make_case("edge", b=1.5, theta=0.0)
    state = workloads.build(case)
    r = el.product_vector_search(state, starts=5, seed=0)
    assert oracle.check_search(r, state.mat, case.expected, case.certified) == []


# ------------------------------------------------------------ workloads


def test_a_sweep_is_charged_its_share_of_stolen_time(monkeypatch):
    monkeypatch.setattr(workloads.os, "cpu_count", lambda: 2)
    assert workloads.elapsed_less_steal(1000, 400) == 800
    assert workloads.elapsed_less_steal(1000, 0) == 1000
    assert workloads._stolen_ns() >= 0


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SEARCH_STARTS", 8)
    monkeypatch.setattr(workloads, "SWEEP_STEPS", 4)
    monkeypatch.setattr(workloads, "SWEEP_SEARCH_STARTS", 4)
    monkeypatch.setattr(workloads, "ROUNDTRIPS_PER_FAMILY", 1)
    monkeypatch.setattr(workloads, "TRACED_GRID_PASSES", 2)
    return str(tmp_path)


def _unexpected(workload, outcome):
    return [f for f in outcome.failures if workloads.known_defect(workload, *f) is None]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(small, workload):
    m = workloads.timed(workload, 3, 0.0, small)
    assert m.outcome.attempted >= 1 and m.latencies and m.pass_times and m.pass_tails and m.work > 0
    assert _unexpected(workload, m.outcome) == []
    if workload == "edge_search":
        # ROADMAP item 4a shows on every pass
        assert m.outcome.failed == 1


def test_the_known_defect_is_counted_not_dropped(small):
    m = workloads.timed("edge_search", 3, 0.0, small)
    labels = {label for label, _ in m.outcome.failures}
    assert labels == {"edge_state(b=1.0, theta=0.0001)"}
    _, all_known = run.failure_lines("edge_search", m.outcome)
    assert all_known


def test_another_failure_on_the_known_input_is_unexpected():
    label = "edge_state(b=1.0, theta=0.0001)"
    known = workloads.Outcome()
    known.check(label, ["FOUND (objective 5.000e-10) where the analytic tier certifies edge"])
    assert run.failure_lines("edge_search", known)[1]
    for reason in (
        "verdict ProductVectorFound disagrees with objective 2.000e-09",
        "witness off the ranges: residuals 3.00e-02, 1.41e-05",
        "FOUND (objective 5.000e-10) where the analytic tier certifies edge, and more",
    ):
        other = workloads.Outcome()
        other.check(label, [reason])
        lines, all_known = run.failure_lines("edge_search", other)
        assert not all_known and "UNEXPECTED" in lines[-1]
    elsewhere = workloads.Outcome()
    elsewhere.check(label, ["FOUND (objective 5.000e-10) where the analytic tier certifies edge"])
    assert not run.failure_lines("classify_grid", elsewhere)[1]


def test_a_tampered_classify_fails_the_run(small, monkeypatch):
    real = el.classify

    def swapped(s, *args, **kwargs):
        c = real(s, *args, **kwargs)
        return SimpleNamespace(**{**c.__dict__, "type": c.type[::-1]})

    monkeypatch.setattr(el, "classify", swapped)
    m = workloads.timed("classify_grid", 3, 0.0, small)
    assert m.outcome.failed > 0
    _, all_known = run.failure_lines("classify_grid", m.outcome)
    assert not all_known


def test_traced_counts_repeat_exactly(small):
    exact = ("calls", "_per_classify", "_per_start", "useful_start_ratio", "bytes_per_matrix")
    results = []
    for _ in range(2):
        outcome, layer = workloads.traced_run("cli_sweep", 4, small, None)
        assert _unexpected("cli_sweep", outcome) == []
        results.append({k: v for k, v in layer.items() if k.endswith(exact)})
    assert results[0] == results[1]
    assert results[0]["linalg.svd_per_classify"] == 2
    assert results[0]["search.calls"] == 4 and results[0]["states.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    p = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "classify_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""
