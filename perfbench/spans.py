"""In-memory span tracing for the benchmark's traced runs.

:func:`traced` wraps every public function of the edgelab layers, at every
name an edgelab module (or the package) binds it under, plus the numpy
kernels those functions call (``numpy.linalg.svd``, ``eigvalsh``, ``eigh``
and ``numpy.einsum``).  Each call records a span: name, start, end, parent
span and thread.  Spans live in flat arrays while the run lasts and are
written out once at the end (:meth:`Tracer.dump`).

A span opened on a thread with no open span of its own (a sweep pool
worker) takes as parent the innermost span open on the thread that
installed the tracer, which is the CLI command waiting on the pool.  Such
thread-level spans also record thread CPU time, so busy time across threads
can be told from time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from array import array

LAYERS = ("states", "linalg", "classify", "search", "io", "cli")
KERNELS = (("numpy.linalg", "svd"), ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"), ("numpy", "einsum"))
KERNEL_LAYER = "numpy"
SEARCH = "search.product_vector_search"
CLASSIFY = "classify.classify"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.c0 = array("q")  # thread CPU ns, thread-level spans only (else -1)
        self.c1 = array("q")
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._main = threading.get_ident()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        with self._lock:
            if stack is None:
                stack = self._stacks[ident] = []
                self._threads[ident] = len(self._threads)
            if stack:
                parent, cpu = stack[-1], -1
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if ident != self._main and main else -1
                cpu = time.thread_time_ns()
            sid = len(self.name)
            self.name.append(self._name_id(name))
            self.parent.append(parent)
            self.thread.append(self._threads[ident])
            self.c0.append(cpu)
            self.c1.append(-1)
            self.t1.append(0)
            self.t0.append(time.perf_counter_ns())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter_ns()
        if self.c0[sid] >= 0:
            self.c1[sid] = time.thread_time_ns()
        self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def dump(self, path) -> None:
        import numpy as np

        columns = ("name", "parent", "thread", "t0", "t1", "c0", "c1")
        np.savez(path, names=np.array(self.names), **{k: np.array(getattr(self, k)) for k in columns})


def _count_search(tracer: Tracer, result) -> None:
    # starts run, and starts whose final objective matches the best one
    objs = result.per_start_objectives
    best = result.best_objective
    tracer.count("search.starts", int(result.starts))
    tracer.count("search.useful_starts", int((objs <= best * (1 + 1e-6) + 1e-15).sum()))


def _wrap(tracer: Tracer, name: str, fn):
    hook = _count_search if name == SEARCH else None

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every edgelab layer call and numpy kernel call through ``tracer``."""
    importlib.import_module("edgelab.cli")
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"edgelab.{layer}"]
        for attr, val in vars(mod).items():
            if inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[id(val)] = (val, _wrap(tracer, f"{layer}.{attr}", val))
    patches = []
    for modname, attr in KERNELS:
        mod = importlib.import_module(modname)
        orig = getattr(mod, attr)
        patches.append((mod, attr, orig))
        setattr(mod, attr, _wrap(tracer, f"{KERNEL_LAYER}.{attr}", orig))
    for modname, mod in list(sys.modules.items()):
        if modname != "edgelab" and not modname.startswith("edgelab."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                patches.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    try:
        yield tracer
    finally:
        for mod, attr, orig in reversed(patches):
            setattr(mod, attr, orig)


# ---------------------------------------------------------------- analysis


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: int, end: int, children) -> int:
    """Duration of [start, end) minus the part that child intervals cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class SpanTree:
    """Parent links resolved into layer roots and nearest-ancestor lookups.

    A *layer root* is a span whose caller belongs to another layer: the entry
    of one call into that layer.  Kernel spans belong to the layer of their
    caller.  A root's self time is its duration minus the union of the
    intervals of the roots it causes, across threads.
    """

    ANCESTORS = {CLASSIFY: CLASSIFY, SEARCH: SEARCH, "cli.cmd": "cli.cmd_", "bench": "bench."}

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name, self.parent = tracer.name, tracer.parent
        self.t0, self.t1, self.c0, self.c1 = tracer.t0, tracer.t1, tracer.c0, tracer.c1
        n = len(self.name)
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        self.by_name: dict[str, list[int]] = {nm: [] for nm in self.names}
        root = array("i", [0]) * n
        nearest = {key: array("i", [-1]) * n for key in self.ANCESTORS}
        hits = {key: [nm.startswith(prefix) for nm in self.names] for key, prefix in self.ANCESTORS.items()}
        self.caused: dict[int, list[tuple[int, int]]] = {}
        for s in range(n):
            nid, p = self.name[s], self.parent[s]
            self.by_name[self.names[nid]].append(s)
            lay = layer_of[nid]
            if p >= 0 and (lay == KERNEL_LAYER or lay == layer_of[self.name[root[p]]]):
                root[s] = root[p]
            else:
                root[s] = s
                if p >= 0:
                    self.caused.setdefault(root[p], []).append((self.t0[s], self.t1[s]))
            for key, arr in nearest.items():
                arr[s] = s if hits[key][nid] else (arr[p] if p >= 0 else -1)
        self.root, self.nearest = root, nearest
        self.layer_of = layer_of

    def spans(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def roots(self, layer: str) -> list[int]:
        return [
            s
            for nm, spans in self.by_name.items()
            if nm.split(".", 1)[0] == layer
            for s in spans
            if self.root[s] == s
        ]

    def children(self, s: int) -> list[int]:
        return [c for c in range(s + 1, len(self.name)) if self.parent[c] == s]

    def duration(self, s: int) -> int:
        return self.t1[s] - self.t0[s]

    def self_ns(self, s: int) -> int:
        return self_time(self.t0[s], self.t1[s], self.caused.get(s, ()))

    def busy_ns(self, s: int) -> int:
        """Thread CPU time for thread-level spans, wall time otherwise."""
        return self.c1[s] - self.c0[s] if self.c0[s] >= 0 else self.duration(s)

    def bench_label(self, s: int) -> str:
        b = self.nearest["bench"][s]
        return self.names[self.name[b]].split(".", 1)[1] if b >= 0 else ""


def per_layer_metrics(tracer: Tracer, overhead_ratio: float, bytes_per_matrix: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced run."""
    tree = SpanTree(tracer)
    out = {}

    def us(ns_values):
        return _median(ns_values) / 1e3

    states = tree.roots("states")
    out["states.construct_us_p50"] = us([tree.self_ns(s) for s in states])
    out["states.calls"] = len(states)
    for fn in ("partial_transpose", "numerical_rank", "is_psd", "kernel_basis", "range_basis"):
        spans = tree.spans(f"linalg.{fn}")
        out[f"linalg.{fn}_us"] = us([tree.duration(s) for s in spans])
        out[f"linalg.{fn}_calls"] = len(spans)
    n_classify = len(tree.spans(CLASSIFY))
    for kernel in ("svd", "eigvalsh"):
        inside = sum(1 for s in tree.spans(f"numpy.{kernel}") if tree.nearest[CLASSIFY][s] >= 0)
        out[f"linalg.{kernel}_per_classify"] = inside / n_classify if n_classify else 0.0
    classify = tree.roots("classify")
    out["classify.self_us_p50"] = us([tree.self_ns(s) for s in classify])
    out["classify.calls"] = len(classify)

    searches = tree.roots("search")
    out["search.self_ms_p50"] = us([tree.self_ns(s) for s in searches]) / 1e3
    setup: dict[int, int] = {s: 0 for s in searches}
    for s in tree.roots("linalg"):
        owner = tree.nearest[SEARCH][s]
        if owner in setup:
            setup[owner] += tree.duration(s)
    out["search.kernel_setup_us_p50"] = us(list(setup.values()))
    starts = tracer.counters.get("search.starts", 0)
    for kernel in ("eigh", "einsum"):
        inside = sum(1 for s in tree.spans(f"numpy.{kernel}") if tree.nearest[SEARCH][s] >= 0)
        out[f"search.{kernel}_per_start"] = inside / starts if starts else 0.0
    out["search.useful_start_ratio"] = tracer.counters.get("search.useful_starts", 0) / starts if starts else 0.0
    out["search.calls"] = len(searches)

    io_by_cmd: dict[str, list[int]] = {}
    for s in tree.roots("io"):
        cmd = tree.nearest["cli.cmd"][s]
        io_by_cmd.setdefault(tree.names[tree.name[cmd]] if cmd >= 0 else "", []).append(tree.duration(s))
    out["io.write_us_p50"] = us(io_by_cmd.get("cli.cmd_construct", []))
    out["io.read_us_p50"] = us(io_by_cmd.get("cli.cmd_classify", []))
    out["io.bytes_per_matrix"] = bytes_per_matrix

    cli_self: dict[str, list[int]] = {}
    for s in tree.roots("cli"):
        cli_self.setdefault(tree.bench_label(s), []).append(tree.self_ns(s))
    for cmd in ("construct", "classify", "sweep", "sweep_search"):
        out[f"cli.{cmd}.self_ms"] = _median(cli_self.get(cmd, [])) / 1e6
    concurrency: dict[str, list[float]] = {}
    for s in tree.spans("cli.cmd_sweep"):
        busy = sum(tree.busy_ns(c) for c in tree.children(s))
        concurrency.setdefault(tree.bench_label(s), []).append(busy / tree.duration(s))
    out["cli.sweep_concurrency"] = _median(concurrency.get("sweep", []))
    out["cli.sweep_search_concurrency"] = _median(concurrency.get("sweep_search", []))
    out["trace.overhead_ratio"] = overhead_ratio
    return out
