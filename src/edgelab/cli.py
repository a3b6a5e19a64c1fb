"""Command-line front end.

Subcommands: construct | classify | edge-check | sweep | table.
The families are those of :data:`edgelab.states.FAMILIES`; their parameters,
the complex couplings included, are parsed with the options and named,
defaulted and checked by :func:`_point` alone.  An empty ``--in`` or ``--out``
is a given path, not an absent one.  Matrices travel as JSON files (see
:mod:`edgelab.io`); sweeps emit CSV with a frozen column order, build and
classify each chunk of :data:`SWEEP_CHUNK` grid points as one stack,
format each distinct value of a chunk's parameter columns once, and write
each chunk's rows in one write.

Exit codes: 0 success (classify: state is PPT; table: all targets achieved),
1 for a negative verdict (classify: not PPT; table: missing types), 2 for
invalid parameters, malformed input, output that cannot be written or memory
that cannot be allocated.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction

import numpy as np

from . import io as mio
from .classify import EdgeCertificate, classify, classify_many, verify_edge_analytic
from .classify import _classify_stack
from .errors import EdgeLabError, InvalidParamError
from .linalg import PSD_ATOL, RANK_RTOL, BipartiteOperator
from .search import STOP_REASONS, SearchVerdict, product_vector_search, product_vector_search_many
from .states import FAMILIES, build_family

# Achievable bi-qutrit edge types (p >= q convention); (4, 4) is known but not
# constructed by any family here.
TARGET_TYPES = {(5, 5), (6, 5), (7, 5), (8, 5), (6, 6), (7, 6), (8, 6)}
KNOWN_NOT_CONSTRUCTED = {(4, 4)}

# Grid points built, classified and written together by ``sweep``.  Edge
# sweeps at each chunk size, interleaved in one process (CPU time, medians of
# 400 and 80 sweeps, 2 CPUs): rows/s over those of 64-point chunks, the peak
# memory that Python traces during a sweep, and the peak RSS of a process
# that ran it:
#   chunk   400 points (20 x 20)       4,096 points (64 x 64)
#      64   1.00  0.44 MB  33.4 MB     1.00  0.46 MB  33.0 MB
#     256   1.36  0.85 MB  33.7 MB     1.46  1.04 MB  33.8 MB
#     512   1.47  1.30 MB  34.1 MB     1.57  1.87 MB  35.0 MB
#    1024   1.41  1.31 MB  34.0 MB     1.58  3.55 MB  36.0 MB
# At 512 and 1024 the 400-point sweep is one chunk, the same work; past 512
# the larger sweep's traced peak doubles for no gain.
SWEEP_CHUNK = 512


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _theta_frac(text: str) -> float:
    """``--theta-frac``: a rational multiple of pi, returned in radians."""
    try:
        return math.pi * float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational multiple of pi {text!r}") from exc


def _option(name: str) -> str:
    """The option that sets the family parameter ``name``: both angle options
    set theta, and the parsed args do not tell which was given."""
    return "--theta or --theta-frac" if name == "theta" else "--" + name.replace("_", "-")


def _point(args, swept=()) -> dict:
    """The family parameters that ``args`` fixes, an absent coupling read as 0.

    Raises naming the first family option that the input (``args.family``, or
    ``--in FILE`` without one) does not read, then the first parameter that is
    both fixed and ``swept``, then the first that is neither.
    """
    columns = FAMILIES[args.family][0] if args.family is not None else ()
    for name in dict.fromkeys(p for family in FAMILIES.values() for p in family[0]):
        if name not in columns and getattr(args, name) is not None:
            source = f"family {args.family!r}" if args.family is not None else "--in FILE"
            raise InvalidParamError(f"{source} takes no {_option(name)}")
    for name in swept:
        if getattr(args, name) is not None:
            raise InvalidParamError(f"fix parameter {_option(name)} or sweep it, not both")
    point = {name: getattr(args, name) for name in columns if name not in swept}
    for name, val in point.items():
        if val is None and name in ("xi_eta", "eta_zeta", "zeta_xi"):
            point[name] = 0j
        elif val is None and swept:
            raise InvalidParamError(f"fix parameter {_option(name)} or sweep it")
        elif val is None:
            raise InvalidParamError(f"family {args.family!r} needs {_option(name)}")
    return point


def _search_options(args, refuse: str | None = None) -> dict:
    """``--starts`` and ``--seed`` as the search's keywords, those not given
    left to the search's defaults (200 starts, seed 0).  Where no search runs,
    ``refuse`` names the input, and the first of them given raises."""
    given = {name: getattr(args, name) for name in ("starts", "seed") if getattr(args, name) is not None}
    if given and refuse is not None:
        raise InvalidParamError(f"{refuse} takes no --{next(iter(given))}")
    return given


def _load_input(args) -> BipartiteOperator:
    if (args.infile is None) == (args.family is None):
        raise InvalidParamError("provide exactly one of --in FILE and --family NAME")
    point = _point(args)
    return mio.read_matrix(args.infile) if args.family is None else build_family(args.family, point)


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
    parser.add_argument("--xi-eta", type=_parse_complex, help="complex, e.g. 0.5+0.3j")
    parser.add_argument("--eta-zeta", type=_parse_complex)
    parser.add_argument("--zeta-xi", type=_parse_complex)
    parser.add_argument("--target-p", type=int, choices=(5, 6, 7, 8))


def _classification_report(c) -> dict:
    return {
        "isPSD": c.is_psd,
        "isPPT": c.is_ppt,
        "type": list(c.type),
        "kernelDims": list(c.kernel_dims),
        "admissibility": c.admissibility.value,
        "tolerances": {"relTol": RANK_RTOL, "absTol": PSD_ATOL},
    }


def _vector_json(v: np.ndarray) -> dict:
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def cmd_construct(args) -> int:
    op = build_family(args.family, _point(args))
    if args.out is not None:
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
        if args.family != "edge" or args.infile is not None:
            raise InvalidParamError("--analytic applies only to --family edge, without --in")
        _search_options(args, "--analytic")
        trace = verify_edge_analytic(**_point(args))
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
    result = product_vector_search(op, **_search_options(args))
    report = {
        "verdict": result.verdict.value,
        "certifiedBy": "numeric",
        "bestObjective": result.best_objective,
        "starts": result.starts,
    }
    if result.verdict is SearchVerdict.PRODUCT_VECTOR_FOUND:
        report["bestX"] = _vector_json(result.best_x)
        report["bestY"] = _vector_json(result.best_y)
    report["stepsPerStart"] = {"mean": float(result.steps.mean()), "max": int(result.steps.max())}
    report["stopReasons"] = {r: int(np.count_nonzero(result.stop_reasons == r)) for r in STOP_REASONS}
    print(json.dumps(report))
    return 0


def _parse_range(text: str):
    """``--range NAME=START:STOP:STEPS``: the name, the step count and the
    function from an integer array of step indices to their values.

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

    def values(i: np.ndarray) -> np.ndarray:
        # as numpy.linspace: STOP exactly at the end, else i * step + start,
        # or (i / div) * delta + start when the step underflows to zero
        if steps == 1:
            return np.full(i.shape, start)
        with np.errstate(invalid="ignore", over="ignore"):
            out = i * step + start if step != 0 else (i / div) * delta + start
        out[i == div] = stop
        return out

    return name.strip(), steps, values


def _grid_indices(first: int, count: int, steps: list) -> list:
    """The per-axis step indices of grid points ``first`` to ``first + count - 1``
    in row-major order, the last axis fastest, as int64 arrays.

    ``first`` is split by Python-int ``divmod``, so the indices are exact on
    grids of up to 2**53 points an axis, whatever their product.
    """
    carry, out = np.arange(count), []
    for n in reversed(steps):
        first, i0 = divmod(first, n)
        carry, i = np.divmod(carry + i0, n)
        out.append(i)
    return out[::-1]


def cmd_sweep(args) -> int:
    family = args.family
    if family == "face":  # its couplings are complex options, which no range gives
        raise InvalidParamError(f"sweep does not support family {family!r}")
    columns, dims, build = FAMILIES[family]
    search = _search_options(args, None if args.search else "sweep without --search")
    if not args.range:
        raise InvalidParamError("provide at least one --range NAME=START:STOP:STEPS")
    ranges = {}
    for text in args.range:
        name, steps, values = _parse_range(text)
        if name not in columns:
            raise InvalidParamError(f"family {family!r} has no parameter {name!r}")
        if name in ranges:
            raise InvalidParamError(f"parameter {name!r} has more than one --range")
        ranges[name] = (steps, values)
    fixed = _point(args, ranges)

    def chunks():
        """Each chunk's rows, built and classified from its parameter columns."""
        steps = [n for n, _ in ranges.values()]
        total = math.prod(steps)
        for lo in range(0, total, SWEEP_CHUNK):
            k = min(SWEEP_CHUNK, total - lo)
            cols = {name: [val] * k for name, val in fixed.items()}
            text = {name: [repr(val)] * k for name, val in fixed.items()}
            for (name, (_, values)), i in zip(ranges.items(), _grid_indices(lo, k, steps)):
                # each distinct value of the chunk is printed once; keyed by
                # its index, not its value, -0.0 keeps its own repr
                i, at = np.unique(i, return_inverse=True)
                vals = values(i).tolist()
                if name == "target_p":  # an integer option: build and print 5, not 5.0
                    vals = [int(v) if v.is_integer() else v for v in vals]
                at, reprs = at.tolist(), [repr(v) for v in vals]
                cols[name] = [vals[j] for j in at]
                text[name] = [reprs[j] for j in at]
            mats = build(*(cols[name] for name in columns))
            p, q, p_psd, q_psd = _classify_stack(mats, *dims)
            cols = [text[name] for name in columns]
            cols += [map(str, map(operator.and_, p_psd, q_psd)), map(str, p), map(str, q)]
            if args.search:
                ops = [BipartiteOperator(*dims, mat) for mat in mats]
                results = product_vector_search_many(ops, **search)
                cols.append([repr(r.best_objective) for r in results])
            yield "\r\n".join(map(",".join, zip(*cols))) + "\r\n"

    header = list(columns) + ["isPPT", "p", "q"] + (["bestObjective"] if args.search else [])
    # Each chunk is written once it is done, in one write, so memory does not
    # grow with the grid.  Nothing is opened before the first chunk is done; a
    # point failing in a later chunk leaves the rows of the chunks before it
    # written.  The rows are CSV as the csv module writes them, lines ending
    # in \r\n: every cell is a float or int repr or a bool, none of which holds
    # a comma, a quote or a line break, so no cell needs quoting.
    done = chunks()
    first = next(done)  # every range has at least one step
    try:
        out = open(args.out, "w", newline="") if args.out is not None else sys.stdout
    except OSError as exc:
        raise EdgeLabError(f"cannot write CSV file {args.out}: {exc}") from exc
    try:
        out.write(",".join(header) + "\r\n")
        for chunk in itertools.chain([first], done):
            out.write(chunk)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _table_families(b: float, theta: float):
    one, two, three = cmath.exp(0.3j), cmath.exp(-0.1j), cmath.exp(0.2j)
    rows = [
        ("edge", "edge", {}),
        ("face, one unimodular coupling", "face", dict(xi_eta=one, eta_zeta=0, zeta_xi=0)),
        ("face, two unimodular couplings", "face", dict(xi_eta=one, eta_zeta=two, zeta_xi=0)),
        ("face, three unimodular couplings", "face", dict(xi_eta=one, eta_zeta=two, zeta_xi=three)),
    ] + [(f"singular-gram face, p={target}", "p5", dict(target_p=target)) for target in (8, 7, 6, 5)]
    for name, family, params in rows:
        yield name, build_family(family, dict(params, b=b, theta=theta))


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
    p.add_argument("--starts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--analytic", action="store_true", help="use the analytic certificate (edge family only)")


def _sweep_options(p):
    _add_family_options(p, require_family=True)
    p.add_argument("--range", action="append", default=[], metavar="NAME=START:STOP:STEPS")
    p.add_argument("--search", action="store_true", help="add a bestObjective column")
    p.add_argument("--starts", type=int)
    p.add_argument("--seed", type=int)
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
            code = args.func(args)
        sys.stdout.flush()  # a full disk or a closed pipe fails here, not at exit
        return code
    except (EdgeLabError, np.linalg.LinAlgError, OSError, MemoryError) as exc:
        if isinstance(exc, OSError) and sys.stdout is sys.__stdout__ is not None:
            # what stdout could not take stays in its buffer: send it to
            # devnull, or the flush at exit fails on it again (exit 120)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"edgelab: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
