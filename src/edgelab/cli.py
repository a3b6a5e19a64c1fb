"""Command-line front end.

Subcommands: construct | classify | edge-check | sweep | table.
Matrices travel as JSON files (see :mod:`edgelab.io`); sweeps emit CSV with a
frozen column order and build and classify each chunk of their grid as one stack.

Exit codes: 0 success (classify: state is PPT; table: all targets achieved),
1 for a negative verdict (classify: not PPT; table: missing types), 2 for
invalid parameters or malformed input.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import io as mio
from .classify import EdgeCertificate, classify, classify_many, verify_edge_analytic
from .classify import _classify_stack
from .errors import EdgeLabError, InvalidParamError
from .linalg import BipartiteOperator
from .search import SearchVerdict, product_vector_search, product_vector_search_many
from .states import (
    _CHOI_ZEROS,
    _FACE_FLAT,
    GramSpec,
    _choi_entries,
    _corner_entries,
    _edge_entries,
    _face_entries,
    _generalized_entries,
    _stack,
    edge_state,
    face_state,
    phase_circulant,
    singular_gram_offdiags,
)

# Achievable bi-qutrit edge types (p >= q convention); (4, 4) is known but not
# constructed by any family here.
TARGET_TYPES = {(5, 5), (6, 5), (7, 5), (8, 5), (6, 6), (7, 6), (8, 6)}
KNOWN_NOT_CONSTRUCTED = {(4, 4)}

# Grid points built, classified and written together by ``sweep``.  On a
# 400-point sweep, chunks of 16 to 400 points gave the same rows per second
# within 7%, and one stack of all 400 raised the peak memory of the process
# by 8% against chunks of 64.
SWEEP_CHUNK = 64


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InvalidParamError(f"cannot parse complex number {text!r}") from exc


def _theta_frac(text: str) -> float:
    """``--theta-frac``: a rational multiple of pi, returned in radians."""
    try:
        return math.pi * float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational multiple of pi {text!r}") from exc


def _face(p: dict) -> tuple:
    couplings = (_parse_complex(p[name]) for name in ("xi_eta", "eta_zeta", "zeta_xi"))
    return _face_entries(p["b"], GramSpec(p["theta"], *couplings))


def _p5(p: dict) -> tuple:
    return _face_entries(p["b"], GramSpec(p["theta"], *singular_gram_offdiags(p["theta"], p["target_p"])))


# Each family's required parameters, in the frozen column order of ``sweep``, its local
# dimensions, and its builder: a list of points (options by name, theta in radians) to their stack.
FAMILIES = {
    "p-theta": (("theta",), (1, 3), lambda ps: np.array([phase_circulant(p["theta"]) for p in ps])),
    "edge": (("b", "theta"), (3, 3), lambda ps: _stack([_edge_entries(p["b"], p["theta"]) for p in ps])),
    "edge-general": (
        ("b", "theta"), (3, 3), lambda ps: _stack([_generalized_entries(p["b"], p["theta"]) for p in ps]),
    ),
    "state-7-6": (("b",), (3, 3), lambda ps: _stack([_corner_entries(p["b"]) for p in ps])),
    "choi": (
        ("a", "b", "c"), (3, 3),
        lambda ps: _stack([_choi_entries(p["a"], p["b"], p["c"]) for p in ps], base=_CHOI_ZEROS),
    ),
    "face": (("b", "theta"), (3, 3), lambda ps: _stack([_face(p) for p in ps], _FACE_FLAT)),
    "p5": (("b", "theta", "target_p"), (3, 3), lambda ps: _stack([_p5(p) for p in ps], _FACE_FLAT)),
}


def _require(family: str, params: dict):
    for name in FAMILIES[family][0]:
        if params.get(name) is None:
            raise InvalidParamError(f"family {family!r} needs --{name.replace('_', '-')}")


def build_family(family: str, params: dict) -> BipartiteOperator:
    """The member of ``family`` at ``params`` (option names as keys, theta in radians)."""
    _require(family, params)
    _, dims, build = FAMILIES[family]
    return BipartiteOperator(*dims, build([params])[0])


def _load_input(args) -> BipartiteOperator:
    if getattr(args, "infile", None):
        return mio.read_matrix(args.infile)
    if getattr(args, "family", None):
        return build_family(args.family, vars(args))
    raise InvalidParamError("provide --in FILE or --family NAME")


def _add_family_options(parser, require_family: bool):
    parser.add_argument("--family", choices=FAMILIES, required=require_family)
    parser.add_argument("--b", type=float)
    angle = parser.add_mutually_exclusive_group()
    angle.add_argument("--theta", type=float, help="angle in radians")
    angle.add_argument(
        "--theta-frac", dest="theta", type=_theta_frac, metavar="P/Q",
        help="angle as a rational multiple of pi, e.g. 1/6",
    )
    parser.add_argument("--a", type=float)
    parser.add_argument("--c", type=float)
    parser.add_argument("--xi-eta", default="0", help="complex, e.g. 0.5+0.3j")
    parser.add_argument("--eta-zeta", default="0")
    parser.add_argument("--zeta-xi", default="0")
    parser.add_argument("--target-p", type=int, choices=(5, 6, 7, 8))


def _classification_report(c) -> dict:
    return {
        "isPSD": c.is_psd,
        "isPPT": c.is_ppt,
        "type": list(c.type),
        "kernelDims": list(c.kernel_dims),
        "admissibility": c.admissibility.value,
        "tolerances": {"relTol": c.rel_tol, "absTol": c.abs_tol},
    }


def _vector_json(v: np.ndarray) -> dict:
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def cmd_construct(args) -> int:
    op = build_family(args.family, vars(args))
    if args.out:
        mio.write_matrix(op, args.out)
    else:
        print(json.dumps(mio.matrix_to_dict(op)))
    return 0


def cmd_classify(args) -> int:
    op = _load_input(args)
    report = _classification_report(classify(op))
    print(json.dumps(report))
    return 0 if report["isPPT"] else 1


def cmd_edge_check(args) -> int:
    if args.analytic:
        if getattr(args, "family", None) != "edge":
            raise InvalidParamError("--analytic applies only to --family edge")
        _require(args.family, vars(args))
        trace = verify_edge_analytic(args.b, args.theta)
        report = {
            "verdict": "Edge" if trace.verdict is EdgeCertificate.EDGE_CERTIFIED else trace.verdict.value,
            "certifiedBy": "analytic",
            "steps": [
                {"description": s.description, "margin": s.margin, "ok": s.ok}
                for s in trace.steps
            ],
        }
        print(json.dumps(report))
        return 0
    op = _load_input(args)
    result = product_vector_search(
        op, starts=args.starts, max_iters=args.max_iters, seed=args.seed
    )
    report = {
        "verdict": result.verdict.value,
        "certifiedBy": "numeric",
        "bestObjective": result.best_objective,
        "starts": result.starts,
    }
    if result.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND:
        report["bestX"] = _vector_json(result.best_x)
        report["bestY"] = _vector_json(result.best_y)
    print(json.dumps(report))
    return 0


def _parse_range(text: str):
    """``--range NAME=START:STOP:STEPS``: the name, the step count and the i-th value.

    The values are those of ``numpy.linspace(START, STOP, STEPS)``, bit for
    bit, computed when asked for, so a range holds no list of its values.
    """
    try:
        name, rest = text.split("=", 1)
        start, stop, steps = rest.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise InvalidParamError(f"bad --range {text!r}; expected NAME=START:STOP:STEPS") from exc
    if steps < 1:
        raise InvalidParamError("range steps must be >= 1")
    if steps > 2**53:  # beyond it a step index is not exact as a float
        raise InvalidParamError(f"bad --range {text!r}: too many steps (at most 2**53)")
    div = max(steps - 1, 1)
    delta = stop - start
    step = delta / div

    def value(i: int) -> float:
        # as numpy.linspace: STOP exactly at the end, else i * step + start,
        # or (i / div) * delta + start when the step underflows to zero
        if steps == 1:
            return start
        if i == div:
            return stop
        return i * step + start if step != 0 else (i / div) * delta + start

    return name.strip(), steps, value


def cmd_sweep(args) -> int:
    family = args.family
    if family == "face":  # its couplings are complex options, which no range gives
        raise InvalidParamError(f"sweep does not support family {family!r}")
    columns, dims, build = FAMILIES[family]
    if not args.range:
        raise InvalidParamError("provide at least one --range NAME=START:STOP:STEPS")
    ranges = {}
    for text in args.range:
        name, steps, value = _parse_range(text)
        if name not in columns:
            raise InvalidParamError(f"family {family!r} has no parameter {name!r}")
        if name in ranges:
            raise InvalidParamError(f"parameter {name!r} has more than one --range")
        ranges[name] = (steps, value)
    fixed = {pname: getattr(args, pname) for pname in columns if pname not in ranges}
    for pname, val in fixed.items():
        if val is None:
            raise InvalidParamError(f"fix parameter --{pname.replace('_', '-')} or sweep it")

    # the last range varies fastest; target_p is an integer option: build and
    # print 5, not 5.0
    axes = [(name, steps, value, name == "target_p") for name, (steps, value) in reversed(ranges.items())]

    def point(k: int) -> dict:
        """Grid point ``k`` in row-major order."""
        params = dict(fixed)
        for name, steps, value, integral in axes:
            k, i = divmod(k, steps)
            v = value(i)
            params[name] = int(v) if integral and v.is_integer() else v
        return params

    def chunks():
        total = math.prod(steps for steps, _ in ranges.values())
        for lo in range(0, total, SWEEP_CHUNK):
            points = [point(k) for k in range(lo, min(lo + SWEEP_CHUNK, total))]
            try:
                mats = build(points)
            except EdgeLabError:  # raise the first failing point's error, as one by one
                mats = np.array([build_family(family, params).mat for params in points])
            if not np.isfinite(mats).all():  # as each point's operator checks its matrix
                raise InvalidParamError("matrix entries must be finite")
            rows = [
                [params[name] for name in columns] + [p_psd and q_psd, p, q]
                for params, p, q, p_psd, q_psd in zip(points, *_classify_stack(mats, *dims))
            ]
            if args.search:
                ops = [BipartiteOperator(*dims, mat) for mat in mats]
                for row, r in zip(rows, product_vector_search_many(ops, starts=args.starts, seed=args.seed)):
                    row.append(r.best_objective)
            yield [[repr(v) if isinstance(v, float) else v for v in row] for row in rows]

    header = list(columns) + ["isPPT", "p", "q"] + (["bestObjective"] if args.search else [])
    # Each chunk is written once it is done, so memory does not grow with the
    # grid.  Nothing is opened before the first chunk is done; a point failing
    # in a later chunk leaves the rows of the chunks before it written.
    done = chunks()
    first = next(done)  # every range has at least one step
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise EdgeLabError(f"cannot write CSV file {args.out}: {exc}") from exc
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for rows in itertools.chain([first], done):
            writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _table_families(b: float, theta: float):
    one = cmath.exp(0.3j)
    two = cmath.exp(-0.1j)
    three = cmath.exp(0.2j)
    yield "edge", edge_state(b, theta)
    yield "face, one unimodular coupling", face_state(b, GramSpec(theta, one, 0, 0))
    yield "face, two unimodular couplings", face_state(b, GramSpec(theta, one, two, 0))
    yield "face, three unimodular couplings", face_state(b, GramSpec(theta, one, two, three))
    for target in (8, 7, 6, 5):
        spec = GramSpec(theta, *singular_gram_offdiags(theta, target))
        yield f"singular-gram face, p={target}", face_state(b, spec)


def cmd_table(args) -> int:
    names, ops = zip(*_table_families(args.b, args.theta))
    achieved = {}
    for name, c in zip(names, classify_many(ops)):
        achieved.setdefault(c.type, []).append(name)

    print(f"types achieved at b={args.b}, theta={args.theta}")
    print()
    cols = range(4, 9)
    print("        " + "".join(f"p={p}   " for p in cols))
    for q in (6, 5, 4):
        cells = []
        for p in cols:
            if (p, q) in achieved:
                cells.append("*")
            elif (p, q) in KNOWN_NOT_CONSTRUCTED:
                cells.append("o")
            else:
                cells.append(".")
        print(f"  q={q}   " + "     ".join(cells))
    print()
    print("  * constructed here    o known type, not constructed    . no edge state")
    print()
    for t in sorted(achieved):
        print(f"  {t}: {', '.join(achieved[t])}")

    canonical = {tuple(sorted(t, reverse=True)) for t in achieved}
    missing = sorted(TARGET_TYPES - canonical)
    print()
    print("targets (p >= q):", " ".join(map(str, sorted(TARGET_TYPES))))
    if missing:
        print("MISSING:", " ".join(map(str, missing)))
        return 1
    print("all targets achieved; (4, 4) is out of scope for these families")
    return 0


def _construct_options(p):
    _add_family_options(p, require_family=True)
    p.add_argument("--out", help="output path (default: stdout)")


def _classify_options(p):
    _add_family_options(p, require_family=False)
    p.add_argument("--in", dest="infile", help="matrix file to classify")


def _edge_check_options(p):
    _add_family_options(p, require_family=False)
    p.add_argument("--in", dest="infile")
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--analytic", action="store_true", help="use the analytic certificate (edge family only)")


def _sweep_options(p):
    _add_family_options(p, require_family=True)
    p.add_argument("--range", action="append", default=[], metavar="NAME=START:STOP:STEPS")
    p.add_argument("--search", action="store_true", help="add a bestObjective column")
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: stdout)")


def _table_options(p):
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=math.pi / 6)


# Each subcommand's help line and the function that adds its options.  Its
# handler is the module's ``cmd_<name>``, looked up each time a parser is
# built, so a wrapper put on the module attribute (perfbench's tracer) is the
# one called.
COMMANDS = {
    "construct": ("build a family member and emit a matrix file", _construct_options),
    "classify": ("PSD/PPT flags and (p, q) type", _classify_options),
    "edge-check": ("search for a product vector in the ranges", _edge_check_options),
    "sweep": ("classify a family over a parameter grid, emit CSV", _sweep_options),
    "table": ("realize every achievable type and render the grid", _table_options),
}


def make_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The ``edgelab`` parser with the subcommands of ``commands`` (a sub-table of ``COMMANDS``)."""
    parser = argparse.ArgumentParser(
        prog="edgelab",
        description="Construct, classify and edge-check bi-qutrit PPT state families.",
    )
    # a parser of fewer commands names them all in its usage line, as the full
    # one does; the full one keeps "command" as the name in its error messages
    metavar = None if commands.keys() == COMMANDS.keys() else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Build only the parser of the command that argv names.  Any other argv
    # (none, -h, a typo, an option first) gets all of them, and with them the
    # full help and error texts.
    known = argv[0] if argv and argv[0] in COMMANDS else None
    parser = make_parser({known: COMMANDS[known]} if known else COMMANDS)
    args = parser.parse_args(argv)
    try:
        # entries near the float limit may overflow on their way to an answer
        # or to an error; the answer or the error is the report, not a warning
        with np.errstate(over="ignore"):
            return args.func(args)
    except (EdgeLabError, np.linalg.LinAlgError) as exc:
        print(f"edgelab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
