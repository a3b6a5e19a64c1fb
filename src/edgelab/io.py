"""JSON matrix files.

A matrix file carries the local dimensions and the real/imaginary parts of a
block operator as nested row-major arrays:

    {"m": 3, "n": 3, "re": [[...], ...], "im": [[...], ...]}

Floats are written with full round-trip precision (shortest repr, at most 17
significant digits), so construct -> file -> classify matches the in-process
result bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import EdgeLabError
from .linalg import BipartiteOperator


def matrix_to_dict(s: BipartiteOperator) -> dict:
    return {
        "m": s.m,
        "n": s.n,
        "re": s.mat.real.tolist(),
        "im": s.mat.imag.tolist(),
    }


def matrix_from_dict(data: dict) -> BipartiteOperator:
    try:
        m, n = int(data["m"]), int(data["n"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an m of 1e400
        raise EdgeLabError(f"malformed matrix file: {exc}") from exc
    d = m * n
    if re.shape != (d, d) or im.shape != (d, d):
        raise EdgeLabError(
            f"matrix file arrays must be {d}x{d} for local dims ({m}, {n}); "
            f"got re {re.shape}, im {im.shape}"
        )
    # filling the two views keeps the sign of every zero; re + 1j * im would
    # turn each -0.0 imaginary part into +0.0
    mat = np.empty((d, d), dtype=complex)
    mat.real, mat.imag = re, im
    return BipartiteOperator(m, n, mat)


def write_matrix(s: BipartiteOperator, path) -> None:
    # one encode by the C encoder and one write; json.dump would run the
    # Python encoder and write each of its ~200 pieces
    text = json.dumps(matrix_to_dict(s)) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise EdgeLabError(f"cannot write matrix file {path}: {exc}") from exc


def read_matrix(path) -> BipartiteOperator:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise EdgeLabError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise EdgeLabError(f"matrix file {path} does not contain a JSON object")
    return matrix_from_dict(data)
