import argparse
import cmath
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgelab
from edgelab import BipartiteOperator, choi_matrix, classify, classify_many, edge_state, linalg
from edgelab import cli, product_vector_search
from edgelab.classify import _classify_stack
from edgelab.cli import COMMANDS, SWEEP_CHUNK, _grid_indices, _parse_range, _table_families, main, make_parser
from edgelab.io import matrix_from_dict, matrix_to_dict, read_matrix, write_matrix
from edgelab.errors import EdgeLabError
from edgelab.states import FAMILIES
from helpers import REFERENCE_FAMILIES, assert_same_entries, assert_same_outcome, cli_command, outcome, reference_sweep

THETA = math.pi / 6
# the module, which the package's ``classify`` function shadows as an attribute
CLASSIFY_MODULE = importlib.import_module("edgelab.classify")


EDGE_FILE = matrix_to_dict(edge_state(1.0, THETA))
# Edits that make a matrix file malformed: m and n must be JSON integers and
# the entries of re and im JSON numbers, none of them coerced.
MALFORMED_EDITS = [
    {"m": 3.7},
    {"m": "3"},
    {"m": 3.0},
    {"m": True, "n": 9},  # as m = 1, a 1 x 9 operator of type (8, 8)
    {"re": [[str(v) for v in row] for row in EDGE_FILE["re"]]},
    {"re": [[i == j for j in range(9)] for i in range(9)], "im": [[False] * 9] * 9},  # as numbers, type (9, 9)
    {"re": [[True] + row[1:] for row in EDGE_FILE["re"]]},
    {"im": [[None] * 9] + EDGE_FILE["im"][1:]},
]


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        s = edge_state(1.7, -0.4)
        path = tmp_path / "state.json"
        write_matrix(s, path)
        loaded = read_matrix(path)
        assert loaded.m == 3 and loaded.n == 3
        assert np.array_equal(loaded.mat, s.mat)

    def test_dict_round_trip_is_bit_exact(self):
        s = edge_state(0.123456789, 1.01)
        again = matrix_from_dict(json.loads(json.dumps(matrix_to_dict(s))))
        assert np.array_equal(again.mat, s.mat)
        # signed zeros too: this Choi matrix has 54 entries with a -0.0 imaginary part
        for s in (s, choi_matrix(2, 1, 1)):
            again = matrix_from_dict(json.loads(json.dumps(matrix_to_dict(s))))
            assert np.array_equal(again.mat, s.mat)
            for view in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(again.mat, view)), np.signbit(getattr(s.mat, view)))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(EdgeLabError):
            matrix_from_dict({"m": 3, "n": 3, "re": [[0.0]], "im": [[0.0]]})

    def test_rejects_missing_fields(self):
        with pytest.raises(EdgeLabError):
            matrix_from_dict({"m": 3, "n": 3, "re": [[0.0] * 9] * 9})

    @pytest.mark.parametrize("edit", MALFORMED_EDITS)
    def test_rejects_what_is_not_an_integer_or_a_number(self, edit):
        with pytest.raises(EdgeLabError, match="malformed matrix file"):
            matrix_from_dict(json.loads(json.dumps(dict(EDGE_FILE, **edit))))

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.json"
        # not JSON, not UTF-8, and an m past the float range
        for content in (b"not json", b"\xff\xfe\x00", b'{"m": 1e400, "n": 1, "re": [[1.0]], "im": [[0.0]]}'):
            path.write_bytes(content)
            with pytest.raises(EdgeLabError):
                read_matrix(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Exit code and stderr of an invocation that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that rejects the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_one_line_error(err):
    assert err.startswith("edgelab: error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# Plain values, and values of every kind among them those that broke the
# exit-code contract: non-finite, at the float limits, signed zeros, b <= 0.
SWEEP_VALUES = st.one_of(
    st.floats(0.05, 1.0).map(repr),
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0", "0", "-1", "5", "8"]),
)


@st.composite
def sweep_argvs(draw) -> list[str]:
    """``sweep`` argv for a sweepable family: one range or two, of which the
    first may cross a chunk boundary, each parameter not swept fixed, and
    now and then a wrong name, step count or missing parameter; ``--search``
    at random."""
    family = draw(st.sampled_from([name for name in FAMILIES if name != "face"]))
    columns = FAMILIES[family][0]
    search = draw(st.booleans())
    swept = draw(st.permutations(columns))[: draw(st.integers(1, 2))]
    if not draw(st.integers(0, 9)):
        swept.append(draw(st.sampled_from(["x", swept[0]])))
    argv = ["sweep", f"--family={family}"]
    for i, name in enumerate(swept):
        steps = draw(st.sampled_from(["1", "2", "3"] * 3 + ["0", "1.5"] + ([] if search or i else ["67"] * 2)))
        argv.append(f"--range={name}={draw(SWEEP_VALUES)}:{draw(SWEEP_VALUES)}:{steps}")
    for name in columns:
        if name not in swept and draw(st.integers(0, 9)):
            if name == "target_p":
                argv.append(f"--target-p={draw(st.sampled_from('5678'))}")
            else:
                argv.append(f"--{name}={draw(SWEEP_VALUES)}")
    if search:
        argv += ["--search", f"--starts={draw(st.integers(1, 3))}", f"--seed={draw(st.integers(-1, 3))}"]
    return argv


# Valid points of each sweepable family, signed zeros included.
POSITIVE = st.floats(1e-300, 1e300)
WEIGHT = st.one_of(st.floats(0.0, 1e300), st.just(-0.0))
STRICT_THETA = st.builds(lambda t, sign: sign * t, st.floats(1e-3, math.pi / 3 - 1e-3), st.sampled_from([1.0, -1.0]))
# couplings as the CLI parses them, of modulus at most 1/2, so that under the
# strict condition the Gram matrix, of diagonal 2cos(theta) > 1, is PSD
COUPLING = st.one_of(
    st.sampled_from(["0", "-0", "0.5", "-0.5j", "0.3-0j"]),
    st.builds(lambda r, phi: repr(cmath.rect(r, phi)), st.floats(0.0, 0.5), st.floats(-4.0, 4.0)),
).map(complex)
FAMILY_POINTS = {
    "p-theta": st.fixed_dictionaries({"theta": st.floats(-4.0, 4.0)}),
    "edge": st.fixed_dictionaries({"b": POSITIVE, "theta": st.floats(-4.0, 4.0)}),
    "edge-general": st.fixed_dictionaries({"b": POSITIVE, "theta": st.floats(-4.0, 4.0)}),
    "state-7-6": st.fixed_dictionaries({"b": POSITIVE}),
    "choi": st.fixed_dictionaries({"a": WEIGHT, "b": WEIGHT, "c": WEIGHT}),
    "p5": st.fixed_dictionaries({"b": POSITIVE, "theta": STRICT_THETA, "target_p": st.integers(5, 8)}),
    "face": st.fixed_dictionaries(
        {"b": POSITIVE, "theta": STRICT_THETA, "xi_eta": COUPLING, "eta_zeta": COUPLING, "zeta_xi": COUPLING}
    ),
}


def build_chunk(family: str, points: list) -> np.ndarray:
    """The stack that the builder of ``family`` gives for ``points``, passed as its parameter columns."""
    columns, _, build = FAMILIES[family]
    return build(*([p[name] for p in points] for name in columns))


class TestChunkBuilders:
    @given(data=st.data(), family=st.sampled_from(sorted(FAMILY_POINTS)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stacks_are_the_one_point_matrices_and_classify_alike(self, data, family):
        points = data.draw(st.lists(FAMILY_POINTS[family], min_size=1, max_size=SWEEP_CHUNK + 6))
        dims = FAMILIES[family][1]
        ops = [REFERENCE_FAMILIES[family](p) for p in points]
        stack = build_chunk(family, points)
        assert_same_entries(stack, np.array([op.mat for op in ops]))
        got = list(zip(*_classify_stack(stack, *dims)))
        want = [(c.type[0], c.type[1], c.is_psd, c.is_ppt) for c in map(classify, ops)]
        assert [(p, q, p_psd, p_psd and q_psd) for p, q, p_psd, q_psd in got] == want

    @given(data=st.data(), family=st.sampled_from(sorted(set(FAMILY_POINTS) - {"p-theta"})))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_invalid_points_raise_as_their_one_point_constructors(self, data, family):
        # one or two invalid values at random points: the column checks must
        # accept exactly what the one-point checks accept, and the error is
        # that of the first point whose constructor raises
        points = data.draw(st.lists(FAMILY_POINTS[family], min_size=1, max_size=SWEEP_CHUNK + 6))
        for _ in range(data.draw(st.integers(1, 2))):
            point = data.draw(st.sampled_from(points))
            name = data.draw(st.sampled_from(FAMILIES[family][0]))
            if name == "target_p":
                bad = [4, 9, 0, 5.5, math.nan]
            elif name in ("xi_eta", "eta_zeta", "zeta_xi"):
                bad = [complex(math.nan, 0), complex(0, math.inf), 1.5j, -1.0, 2.0]
            else:
                bad = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e308]
            point[name] = data.draw(st.sampled_from(bad))
            if family == "choi" and data.draw(st.booleans()):
                point.update(a=math.nan, b=-1.0)  # a NaN weight before a negative one
        singles = [outcome(REFERENCE_FAMILIES[family], p) for p in points]
        want = next((r for r in singles if isinstance(r, EdgeLabError)), None)
        if want is None:
            want = np.array([op.mat for op in singles])
        assert_same_outcome(outcome(build_chunk, family, points), want)

    def test_the_split_classifies_every_family_as_below_the_gate(self):
        # the table's states and each family at points out to the float limits,
        # one state at a time below the gate, against each state alone and each
        # family as one stack with the gate at 1, so that every stack splits
        couplings = {"xi_eta": complex("0.3"), "eta_zeta": complex("-0.5j"), "zeta_xi": complex("0")}
        bs = [1e-300, 1e-6, 1.0, 1e6, 1e300]
        weights = [(1e308, 1e308, 1.7e308), (1.7e308, 1e308, 1e308), (1e308,) * 3,
                   (2.0, 1.0, 1.0), (1.9, 1.0, 1.0), (2.0, 3.0, 1 / 3), (0.0, 0.0, 0.0)]
        points = {
            "p-theta": [{"theta": t} for t in (THETA, math.pi / 3, 0.0, 3.0)],
            "edge": [{"b": b, "theta": t} for b in bs for t in (THETA, math.pi / 3, -0.5, 1e-4, 0.0)],
            "state-7-6": [{"b": b} for b in bs],
            "choi": [dict(zip("abc", w)) for w in weights],
            "face": [dict(couplings, b=b, theta=THETA) for b in bs],
            "p5": [{"b": b, "theta": THETA, "target_p": t} for b in bs for t in (5, 6, 7, 8)],
        }
        points["edge-general"] = points["edge"]
        assert set(points) == set(FAMILIES)
        stacks = [[op for _, op in _table_families(1.0, THETA)]] + [
            [BipartiteOperator(*FAMILIES[family][1], mat) for mat in build_chunk(family, ps)]
            for family, ps in points.items()
        ]
        want = [classify(op) for ops in stacks for op in ops]
        with mock.patch.object(linalg, "SPLIT_MIN", 1):
            assert [classify(op) for ops in stacks for op in ops] == want
            assert [c for ops in stacks for c in classify_many(ops)] == want


class TestCallersMatrices:
    """The Hermiticity check passes an exactly Hermitian matrix on as it is, so
    every classify and search path must leave the caller's matrix, signed
    zeros included, as it was; the matrices are read-only to catch a write."""

    def test_classify_and_search_leave_the_matrix_as_it_was(self):
        ops = [choi_matrix(2.0, 1.0, 1.0), edge_state(1.0, THETA)]
        assert np.signbit(ops[0].mat.imag).any()
        want = [op.mat.copy() for op in ops]
        for op in ops:
            op.mat.setflags(write=False)
        classify(ops[0])
        classify_many(ops)
        product_vector_search(ops[0], starts=4, seed=0)
        for op, mat in zip(ops, want):
            assert_same_entries(op.mat, mat)

    def test_a_sweep_chunk_is_left_as_it_was(self, capsys, monkeypatch):
        seen = []

        def spy(mats, m, n):
            seen.append((mats, mats.copy()))
            mats.setflags(write=False)
            return _classify_stack(mats, m, n)

        monkeypatch.setattr("edgelab.cli._classify_stack", spy)
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "choi", "--b", "1", "--c", "1",
            "--range", "a=0:4:5", "--search", "--starts", "3",
        )
        assert code == 0 and len(seen) == 1
        mats, want = seen[0]
        assert np.signbit(want.imag).any()
        assert_same_entries(mats, want)


class TestConstruct:
    def test_edge_matrix_entries(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "edge", "--b", "1", "--theta", "0.5236")
        assert code == 0
        data = json.loads(out)
        assert data["m"] == data["n"] == 3
        assert data["re"][0][4] == pytest.approx(-math.cos(0.5236))
        assert data["im"][0][4] == pytest.approx(-math.sin(0.5236))

    def test_choi_wrapper(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--family", "choi", "--a", "2", "--b", "3", "--c", "0.3333333333"
        )
        assert code == 0
        data = json.loads(out)
        assert data["re"][0][0] == pytest.approx(2.0)

    def test_p5_has_partial_transpose_rank_five(self, capsys, tmp_path):
        out_file = tmp_path / "p5.json"
        code, _, _ = run_cli(
            capsys, "construct", "--family", "p5", "--b", "1",
            "--theta", "0.5236", "--target-p", "6", "--out", str(out_file),
        )
        assert code == 0
        assert classify(read_matrix(out_file)).type == (6, 5)

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--family", "edge", "--b", "-1", "--theta", "0.5")
        assert code == 2
        assert "error" in err

    def test_missing_param_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--family", "edge", "--theta", "0.5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["construct", "--family", "edge", "--b", "1"], "edge' needs --theta or --theta-frac"),
            (["classify", "--family", "p5", "--b", "1", "--theta", "0.5"], "p5' needs --target-p"),
            (["edge-check", "--family", "choi", "--a", "3", "--c", "1"], "choi' needs --b"),
            (["edge-check", "--family", "edge", "--theta", "0.5", "--analytic"], "edge' needs --b"),
        ],
    )
    def test_missing_param_is_named_as_its_option(self, capsys, argv, option):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"edgelab: error: family '{option}\n")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["construct", "--family", "edge", "--b", "1.3", "--theta-frac", "1/5"]
        out_file = tmp_path / "edge.json"
        _, printed, _ = run_cli(capsys, *argv)
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == printed

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # an empty --out is a path that cannot be opened, not an absent --out
        for out_file in (str(tmp_path / "missing" / "edge.json"), "/nonexistent/dir/x.json", ""):
            code, out, err = run_cli(
                capsys, "construct", "--family", "edge", "--b", "1", "--theta", "0.5", "--out", out_file
            )
            assert (code, out) == (2, "")
            assert_one_line_error(err)
            assert f"cannot write matrix file {out_file}: " in err


class TestClassifyCommand:
    def test_edge_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--family", "edge", "--b", "1", "--theta", "0.5236"
        )
        assert code == 0
        report = json.loads(out)
        assert report["type"] == [8, 6]
        assert report["isPPT"] is True
        assert report["admissibility"] == "Admissible"

    def test_report_bytes(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--family", "edge", "--b", "1", "--theta-frac", "1/6")
        assert (code, err) == (0, "")
        assert out == (
            '{"isPSD": true, "isPPT": true, "type": [8, 6], "kernelDims": [1, 3], '
            '"admissibility": "Admissible", "tolerances": {"relTol": 1e-09, "absTol": 1e-10}}\n'
        )

    def test_corner_family(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "state-7-6", "--b", "2")
        assert code == 0
        assert json.loads(out)["type"] == [7, 6]

    def test_theta_frac_matches_radians(self, capsys):
        _, out_frac, _ = run_cli(capsys, "classify", "--family", "edge", "--b", "1", "--theta-frac", "1/6")
        _, out_rad, _ = run_cli(
            capsys, "classify", "--family", "edge", "--b", "1", "--theta", repr(math.pi / 6)
        )
        assert out_frac == out_rad

    def test_theta_and_theta_frac_are_exclusive(self, capsys):
        code, err = usage_error(
            capsys, "classify", "--family", "edge", "--b", "1", "--theta", "0.5", "--theta-frac", "1/6"
        )
        assert code == 2
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("params", [("--b", "inf", "--theta", "0.5"), ("--b", "1", "--theta", "nan")])
    def test_non_finite_parameter_exit_2(self, capsys, params):
        code, out, err = run_cli(capsys, "classify", "--family", "edge", *params)
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "finite" in err

    @pytest.mark.parametrize(
        "params",
        [
            ("--family", "p-theta", "--theta", "inf"),
            ("--family", "edge", "--b", "1", "--theta", "inf"),
            ("--family", "edge-general", "--b", "1", "--theta=-inf"),
            ("--family", "face", "--b", "1", "--theta", "inf"),
            ("--family", "face", "--b", "1", "--theta", "0.5", "--xi-eta", "nan"),
            ("--family", "p5", "--b", "1", "--theta", "inf", "--target-p", "6"),
        ],
        ids=["p-theta", "edge", "edge-general", "face-theta", "face-coupling", "p5"],
    )
    def test_non_finite_angle_or_coupling_exit_2(self, capsys, params):
        code, out, err = run_cli(capsys, "classify", *params)
        assert (code, out) == (2, "")
        assert_one_line_error(err)

    def test_non_finite_file_exit_2(self, capsys, tmp_path):
        data = matrix_to_dict(edge_state(1.0, THETA))
        data["re"][2][2] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "classify", "--in", str(path))
        assert (code, out) == (2, "")
        assert_one_line_error(err)

    def test_non_ppt_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--family", "choi", "--a", "1.9", "--b", "1", "--c", "1"
        )
        assert code == 1
        assert json.loads(out)["isPPT"] is False

    def test_round_trip_report_identical(self, capsys, tmp_path):
        out_file = tmp_path / "edge.json"
        run_cli(capsys, "construct", "--family", "edge", "--b", "1.3", "--theta", "0.7", "--out", str(out_file))
        _, via_file, _ = run_cli(capsys, "classify", "--in", str(out_file))
        _, in_process, _ = run_cli(capsys, "classify", "--family", "edge", "--b", "1.3", "--theta", "0.7")
        assert via_file == in_process

    def test_construct_output_with_m_true_exit_2(self, capsys, tmp_path):
        # a matrix file's m must be a JSON integer: true is not read as 1
        _, text, _ = run_cli(capsys, "construct", "--family", "edge", "--b", "1", "--theta", "0.5")
        assert '"m": 3, "n": 3' in text
        path = tmp_path / "m-true.json"
        path.write_text(text.replace('"m": 3, "n": 3', '"m": true, "n": 9'))
        code, out, err = run_cli(capsys, "classify", "--in", str(path))
        assert (code, out) == (2, "")
        assert_one_line_error(err)

    def test_non_hermitian_file_exit_2(self, capsys, tmp_path):
        bad = np.zeros((9, 9))
        bad[0, 1] = 1.0
        path = tmp_path / "bad.json"
        write_matrix(BipartiteOperator(3, 3, bad), path)
        code, _, err = run_cli(capsys, "classify", "--in", str(path))
        assert code == 2
        assert "not Hermitian" in err
        assert "stack" not in err

    @pytest.mark.parametrize("weights", sorted(set(itertools.permutations(["nan", "-1", "1"])))
                             + sorted(set(itertools.permutations(["inf", "-1", "1"]))))
    def test_a_negative_weight_is_reported_whatever_the_order(self, capsys, weights):
        argv = [f"--{name}={w}" for name, w in zip("abc", weights)]
        code, out, err = run_cli(capsys, "classify", "--family", "choi", *argv)
        assert (code, out, err) == (2, "", "edgelab: error: weights must be nonnegative\n")

    def test_huge_finite_entries_give_a_verdict(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--family", "choi", "--a", "1e308", "--b", "1e308", "--c", "1e308"
        )
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert report["isPPT"] is True
        assert report["type"] == [9, 9]

    def test_an_overflowing_spectrum_reads_its_rank(self, capsys, tmp_path):
        # 1e308 J, J the all-ones matrix: its range is u (x) u, and its one
        # nonzero eigenvalue, 9e308, overflows the float range
        path = tmp_path / "big.json"
        write_matrix(BipartiteOperator(3, 3, np.full((9, 9), 1e308)), path)
        code, out, err = run_cli(capsys, "classify", "--in", str(path))
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert (report["type"], report["kernelDims"], report["isPPT"]) == ([1, 1], [8, 8], True)
        code, out, err = run_cli(capsys, "edge-check", "--in", str(path), "--starts", "20")
        assert (code, err) == (0, "")
        assert strict_json(out)["verdict"] == "ProductVectorFound"

    @pytest.mark.parametrize("opposite", [0.0, -1.7e308], ids=["norm-overflows", "difference-overflows"])
    def test_huge_non_hermitian_file_exit_2(self, capsys, tmp_path, opposite):
        # the Frobenius norm overflows; the asymmetry must still be seen
        bad = np.diag([1e308] * 9)
        bad[0, 1], bad[1, 0] = 1.7e308, opposite
        path = tmp_path / "bad.json"
        write_matrix(BipartiteOperator(3, 3, bad), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the error line
            code, out, err = run_cli(capsys, "classify", "--in", str(path))
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "not Hermitian" in err

    def test_linear_algebra_failure_exit_2(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(CLASSIFY_MODULE.np.linalg, "eigvalsh", fail)
        code, out, err = run_cli(capsys, "classify", "--family", "edge", "--b", "1", "--theta", "0.5")
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "did not converge" in err

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("option", ["--xi-eta", "--eta-zeta", "--zeta-xi"])
    def test_unparsable_coupling_exit_2(self, capsys, family, option):
        code, err = usage_error(capsys, "classify", "--family", family, "--b", "1", "--theta", "0.5", option, "oops")
        assert code == 2
        assert f"argument {option}: cannot parse complex number 'oops'" in err

    def test_coupling_with_spaces(self, capsys):
        argv = ["classify", "--family", "face", "--b", "1", "--theta", "0.5", "--xi-eta"]
        spaced = run_cli(capsys, *argv, "0.3 + 0.2j")
        assert spaced == run_cli(capsys, *argv, "0.3+0.2j")
        assert spaced[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--family", "choi", "--a", "1", "--b", "1", "--c", "1", "--in", "FILE"],
            ["classify", "--in", "FILE", "--family", "edge", "--b", "1", "--theta", "0.5"],
            ["edge-check", "--family", "choi", "--a", "1", "--b", "1", "--c", "1", "--in", "FILE"],
            ["edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--analytic", "--in", "FILE"],
            # an empty --in is a given path, not an absent --in
            ["classify", "--in", "", "--family", "edge", "--b", "1", "--theta", "0.5"],
            ["edge-check", "--in", "", "--family", "edge", "--b", "1", "--theta", "0.5", "--starts", "3"],
        ],
        ids=[
            "classify", "classify-edge", "edge-check", "edge-check-analytic",
            "classify-empty-in", "edge-check-empty-in",
        ],
    )
    def test_file_and_family_together_exit_2(self, capsys, tmp_path, argv):
        # one operator per command line: neither the PPT file nor the family is dropped unseen
        path = tmp_path / "edge.json"
        write_matrix(edge_state(1.0, THETA), path)
        code, out, err = run_cli(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "--in" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["classify", "--in", "FILE", "--b", "5", "--theta", "9"], ("--b", "--theta or --theta-frac")),
            (["classify", "--in", "FILE", "--theta-frac", "1/6"], ("--theta or --theta-frac",)),
            (["construct", "--family", "state-7-6", "--b", "2", "--theta-frac", "1/6"], ("--theta or --theta-frac",)),
            (["classify", "--family", "edge", "--b", "1", "--theta", "0.5", "--a", "3", "--target-p", "5"],
             ("--a", "--target-p")),
            (["classify", "--family", "edge", "--b", "1", "--theta", "0.5", "--a", "3"], ("--a",)),
            (["sweep", "--family", "edge", "--b", "1", "--a", "7", "--range", "theta=0:1:2"], ("--a",)),
            (["construct", "--family", "choi", "--a", "2", "--b", "1", "--c", "1", "--xi-eta", "0"], ("--xi-eta",)),
            (["edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--analytic", "--c", "1"], ("--c",)),
            # the search options where no search runs
            (["edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--analytic", "--starts", "5",
              "--seed", "3"], ("--starts",)),
            (["edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--analytic", "--starts", "5"],
             ("--starts",)),
            (["edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--analytic", "--seed", "0"],
             ("--seed",)),
            (["sweep", "--family", "edge", "--b", "1", "--range", "theta=0:1:2", "--starts", "7", "--seed", "2"],
             ("--starts",)),
            (["sweep", "--family", "edge", "--b", "1", "--range", "theta=0:1:2", "--seed", "2"], ("--seed",)),
        ],
        ids=[
            "in-file", "in-file-theta-frac", "family-theta-frac", "classify-family", "classify-a", "sweep",
            "construct-zero-coupling", "edge-check-analytic", "analytic-starts", "analytic-starts-only",
            "analytic-seed", "sweep-starts", "sweep-seed",
        ],
    )
    def test_options_the_input_does_not_read_exit_2(self, capsys, tmp_path, argv, named):
        path = tmp_path / "edge.json"
        write_matrix(edge_state(1.0, THETA), path)
        code, out, err = run_cli(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert any(f"takes no {option}\n" in err for option in named)

    def test_face_reads_an_absent_coupling_as_zero(self, capsys):
        argv = ["classify", "--family", "face", "--b", "1", "--theta", "0.5", "--xi-eta", "0.3"]
        zeros = ["--eta-zeta", "0", "--zeta-xi", "0"]
        got = run_cli(capsys, *argv)
        assert got == run_cli(capsys, *argv, *zeros)
        assert got[0] == 0

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "malformed.json"
        # the second file nests too deep for the JSON decoder
        edits = [json.dumps(dict(EDGE_FILE, **edit)) for edit in MALFORMED_EDITS]
        for text in ['{"m": 3}', "[" * 100_000 + "]" * 100_000] + edits:
            path.write_text(text)
            code, out, err = run_cli(capsys, "classify", "--in", str(path))
            assert (code, out) == (2, "")
            assert_one_line_error(err)
        negative = dict(EDGE_FILE, m=-3, n=-3)  # m * n = 9 fits the 9 x 9 arrays
        for text, message in [("[1, 2]", "does not contain a JSON object"),
                              (json.dumps(negative), "local dimensions must be positive")]:
            path.write_text(text)
            code, out, err = run_cli(capsys, "classify", "--in", str(path))
            assert (code, out) == (2, "")
            assert_one_line_error(err)
            assert message in err


class TestEdgeCheck:
    def test_analytic_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1",
            "--theta-frac", "1/6", "--analytic",
        )
        assert code == 0
        report = strict_json(out)
        assert report["verdict"] == "Edge"
        assert report["certifiedBy"] == "analytic"
        assert all(step["ok"] for step in report["steps"])

    @pytest.mark.parametrize(
        "b, verdict",
        [
            ("1.7e308", "Edge"),  # b**3 overflows; sin(theta) / b is tiny but nonzero
            ("5e-324", "Edge"),  # sin(theta) / b overflows
        ],
    )
    def test_analytic_margins_at_the_float_limits_are_strict_json(self, capsys, b, verdict):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", b, "--theta", "0.5", "--analytic",
        )
        assert code == 0
        report = strict_json(out)
        assert report["verdict"] == verdict
        assert all(0 < step["margin"] <= sys.float_info.max for step in report["steps"])

    @pytest.mark.parametrize("b, theta", [("1e12", "0.5"), ("1", "1e-13")])
    def test_analytic_certifies_small_margins(self, capsys, b, theta):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", b, "--theta", theta, "--analytic",
        )
        assert (code, strict_json(out)["verdict"]) == (0, "Edge")

    def test_analytic_rejects_infinite_b(self, capsys):
        code, out, err = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "inf", "--theta", "0.5", "--analytic",
        )
        assert (code, out) == (2, "")
        assert "0 < b < inf" in err

    def test_analytic_requires_edge_family(self, capsys):
        # an empty --in is a given path, which --analytic does not read
        refused = "edgelab: error: --analytic applies only to --family edge, without --in\n"
        for params in (["--family", "state-7-6", "--b", "1"], ["--family", "edge", "--b", "1", "--theta", "0.5", "--in", ""]):
            assert run_cli(capsys, "edge-check", *params, "--analytic") == (2, "", refused)

    def test_separable_point_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1", "--theta", "0",
            "--starts", "20", "--seed", "1",
        )
        assert code == 0
        report = strict_json(out)
        assert report["verdict"] == "ProductVectorFound"
        assert report["bestObjective"] <= 1e-9
        assert len(report["bestX"]["re"]) == 3

    def test_corner_state_at_unit_b(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "state-7-6", "--b", "1", "--starts", "20",
        )
        assert code == 0
        assert strict_json(out)["verdict"] == "ProductVectorFound"

    def test_numeric_floor_on_edge_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1", "--theta", "0.5",
            "--starts", "30", "--seed", "2",
        )
        assert code == 0
        report = strict_json(out)
        assert report["verdict"] == "NoneFoundAboveThreshold"
        assert report["certifiedBy"] == "numeric"
        assert report["bestObjective"] >= 1e-6

    @pytest.mark.parametrize(
        "angle, verdict, floor",
        [
            # above search.RELATIVE_FLOOR a start may stop relative to its own
            # objective: the edge floor moves by under 1e-5 of itself
            ("--theta-frac=1/6", "NoneFoundAboveThreshold", 1.362006709e-2),
            # under it the absolute rule and the polish run to the floating floor
            ("--theta=0", "ProductVectorFound", 0.0),
        ],
        ids=["edge", "separable"],
    )
    def test_default_search_floor(self, capsys, angle, verdict, floor):
        code, out, _ = run_cli(capsys, "edge-check", "--family", "edge", "--b", "1", angle)
        report = strict_json(out)
        assert (code, report["verdict"]) == (0, verdict)
        assert report["bestObjective"] == pytest.approx(floor, rel=1e-5, abs=1e-20)

    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_no_starts_exit_2(self, capsys, starts):
        code, out, err = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--starts", starts,
        )
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "starts" in err

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1", "--theta=0.5",
            "--starts", "3", "--seed=-1",
        )
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "seed" in err

    def test_failed_allocation_exit_2(self, capsys, monkeypatch):
        def fail(*args):
            raise MemoryError

        monkeypatch.setattr("edgelab.search._random_starts", fail)
        code, out, err = run_cli(capsys, "edge-check", "--family", "edge", "--b", "1", "--theta", "0.5")
        assert (code, out, err) == (2, "", "edgelab: error: out of memory\n")

    def test_full_rank_state_counts_the_starts_asked_for(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "choi", "--a", "3", "--b", "2", "--c", "1", "--starts", "7",
        )
        assert code == 0
        report = strict_json(out)
        assert (report["verdict"], report["bestObjective"], report["starts"]) == ("ProductVectorFound", 0.0, 7)

    @pytest.mark.parametrize(
        "source, shape", [("p-theta", "1 x 3"), ("2x3-file", "2 x 3")], ids=["p-theta", "2x3-file"]
    )
    def test_operator_not_3x3_exit_2(self, capsys, tmp_path, source, shape):
        path = tmp_path / "two-by-three.json"
        write_matrix(BipartiteOperator(2, 3, np.eye(6)), path)
        argv = ["--family", "p-theta", "--theta", "0.5"] if source == "p-theta" else ["--in", str(path)]
        refused = f"edgelab: error: the search takes 3 x 3 operators only, got {shape}\n"
        assert run_cli(capsys, "edge-check", *argv) == (2, "", refused)

    def test_one_start_prints_strict_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--starts", "1",
        )
        assert code == 0
        assert strict_json(out)["starts"] == 1

    @pytest.mark.parametrize(
        "params, op, starts",
        [
            (["--family", "edge", "--b", "1", "--theta", "0.5"], edge_state(1, 0.5), 30),  # stops relative to the floor
            (["--family", "edge", "--b", "1", "--theta", "0"], edge_state(1, 0), 20),  # polished to a product vector
            (["--family", "choi", "--a", "3", "--b", "2", "--c", "1"], choi_matrix(3, 2, 1), 7),  # full rank: all at 0
            (["--family", "state-7-6", "--b", "2"], edgelab.corner_state(2), 1),
        ],
        ids=["edge", "separable", "full-rank", "one-start"],
    )
    def test_report_summarizes_steps_and_stop_reasons(self, capsys, params, op, starts):
        """``stepsPerStart`` and ``stopReasons`` follow the earlier keys, whose values
        are those of the search, and summarize its per-start arrays."""
        code, out, _ = run_cli(capsys, "edge-check", *params, "--starts", str(starts), "--seed", "3")
        report = strict_json(out)
        result = product_vector_search(op, starts=starts, seed=3)
        steps = result.steps.tolist()
        assert code == 0 and list(report)[-2:] == ["stepsPerStart", "stopReasons"]
        assert (report["verdict"], report["bestObjective"], report["starts"]) == (
            result.verdict.value, result.best_objective, starts
        )
        assert report["stepsPerStart"] == {"mean": sum(steps) / len(steps), "max": max(steps)}
        reasons = result.stop_reasons.tolist()
        assert report["stopReasons"] == {r: reasons.count(r) for r in edgelab.search.STOP_REASONS}
        assert list(report["stopReasons"]) == list(edgelab.search.STOP_REASONS)
        assert all(type(n) is int for n in report["stopReasons"].values())


class TestSweep:
    def test_theta_sweep_matches_ppt_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1",
            "--range", "theta=-1.2:1.2:25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b,theta,isPPT,p,q"
        assert len(lines) == 26
        for line in lines[1:]:
            b, theta, ppt, p, q = line.split(",")
            expected = abs(float(theta)) <= math.pi / 3
            assert (ppt == "True") == expected

    def test_grid_order_row_major(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge",
            "--range", "b=1:2:2", "--range", "theta=0.1:0.2:2",
        )
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["1.0", "1.0", "2.0", "2.0"]
        assert [r[1] for r in rows] == ["0.1", "0.2", "0.1", "0.2"]

    def test_single_point_matches_classify(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "state-7-6", "--range", "b=2:2:1",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row == ["2.0", "True", "7", "6"]

    def test_search_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1",
            "--range", "theta=0:0.5236:2", "--search", "--starts", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith(",bestObjective")
        first = float(lines[1].rsplit(",", 1)[1])
        second = float(lines[2].rsplit(",", 1)[1])
        assert first <= 1e-9  # separable at theta = 0
        assert second >= 1e-6

    @pytest.mark.parametrize(
        "argv, types",
        [
            # a 3 x 3 block near a double root takes eigvalsh, not the cubic's closed
            # form: theta = +-pi/3 (a double root at 0) reads (7, 6), the 62 points between (8, 6)
            (["--family", "edge", "--b", "1", "--range", "theta=-1.0471975511965976:1.0471975511965976:64"],
             ["7,6"] + ["8,6"] * 62 + ["7,6"]),
            # state-7-6's all-ones block has its double root at 0 at every point
            (["--family", "state-7-6", "--range", "b=0.01:100:64"], ["7,6"] * 64),
            # a p5 sweep across a chunk boundary, one chunk after another
            (["--family", "p5", "--b", "1", "--target-p", "6", "--range", f"theta=-1:1:{SWEEP_CHUNK + 6}"],
             ["6,5"] * (SWEEP_CHUNK + 6)),
            (["--family", "edge", "--b", "1", "--range", "theta=-1:1:5", "--search", "--starts", "20"], ["8,6"] * 5),
        ],
        ids=["edge-pi3", "state-7-6", "p5-chunks", "edge-search"],
    )
    def test_types_row_by_row(self, capsys, argv, types):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        at = header.split(",").index("isPPT")
        assert [",".join(row.split(",")[at : at + 3]) for row in rows] == ["True," + t for t in types]

    @pytest.mark.parametrize("starts", ["12", "600"])
    def test_p5_search_column_is_each_state_searched_alone(self, capsys, starts):
        # four kernel splits share one search block; at 600 starts the blocks
        # cross state boundaries and the last holds one state of the four
        search = ["--starts", starts, "--seed", "4"]
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "p5", "--b", "1", "--theta", "0.5", "--range", "target_p=5:8:4",
            "--search", *search,
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[2] for row in rows] == ["5", "6", "7", "8"]
        for row in rows:
            code, out, _ = run_cli(
                capsys, "edge-check", "--family", "p5", "--b", "1", "--theta", "0.5", "--target-p", row[2], *search
            )
            assert (code, repr(strict_json(out)["bestObjective"])) == (0, row[-1])

    def test_choi_sweep_sees_region_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "choi", "--c", "1",
            "--range", "a=0:4:9", "--range", "b=0:4:9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,isPPT,p,q"
        for line in lines[1:]:
            a, b, c, ppt, _, _ = line.split(",")
            expected = float(a) >= 2 and float(b) * float(c) >= 1
            assert (ppt == "True") == expected

    def test_bytes_match_point_by_point_library_rows(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1.5", "--range", "theta=-1:1:13",
            "--search", "--starts", "20", "--seed", "3", "--out", str(path),
        )
        assert code == 0
        lines = ["b,theta,isPPT,p,q,bestObjective"]
        for theta in np.linspace(-1, 1, 13).tolist():
            s = edge_state(1.5, theta)
            c = classify(s)
            best = product_vector_search(s, starts=20, seed=3).best_objective
            lines.append(f"1.5,{theta!r},{c.is_ppt},{c.type[0]},{c.type[1]},{best!r}")
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize(
        "b_steps, theta_steps, chunk, search",
        [
            (2 * SWEEP_CHUNK // 13 + 1, 13, SWEEP_CHUNK, ()),
            (3, 13, 16, ("--search", "--starts", "5", "--seed", "2")),
        ],
        ids=["3-chunks-classify", "3-chunks-search"],
    )
    def test_bytes_across_chunk_boundaries(self, capsys, monkeypatch, tmp_path, b_steps, theta_steps, chunk, search):
        # two full chunks and 3 points, or 7: the last chunk under the split's
        # gate; the search sweep, whose reference searches point by point,
        # takes chunks of 16, at or above the gate too
        monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
        total = b_steps * theta_steps
        assert total // chunk == 2 and 0 < total % chunk < linalg.SPLIT_MIN <= chunk
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--range", f"b=0.5:2:{b_steps}",
            "--range", f"theta=-1.3:1.3:{theta_steps}", *search, "--out", str(path),
        )
        assert code == 0
        lines = ["b,theta,isPPT,p,q" + (",bestObjective" if search else "")]
        bs, thetas = np.linspace(0.5, 2, b_steps).tolist(), np.linspace(-1.3, 1.3, theta_steps).tolist()
        for b, theta in itertools.product(bs, thetas):
            s = edge_state(b, theta)
            c = classify(s)
            line = f"{b!r},{theta!r},{c.is_ppt},{c.type[0]},{c.type[1]}"
            if search:
                line += f",{product_vector_search(s, starts=5, seed=2).best_objective!r}"
            lines.append(line)
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    def test_eigvalsh_only_on_blocks_near_a_double_root(self, capsys, monkeypatch):
        # the edge states' blocks: {0, 4, 8}, in closed form unless near a
        # double root, and 1 x 1 ones, and for their partial transposes three
        # pairs, in closed form, and 1 x 1 ones; the last chunk, of 16 states,
        # is at or above the split's gate too
        calls, operators = [], []
        eigvalsh = CLASSIFY_MODULE.np.linalg.eigvalsh
        post_init = BipartiteOperator.__post_init__

        def counting(a, *args, **kwargs):
            calls.append(a)
            return eigvalsh(a, *args, **kwargs)

        def counting_post_init(op):
            operators.append(op.mat.shape)
            post_init(op)

        monkeypatch.setattr(CLASSIFY_MODULE.np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(BipartiteOperator, "__post_init__", counting_post_init)
        b_steps = SWEEP_CHUNK // 16 + 1  # chunks of SWEEP_CHUNK and 16 states
        assert 16 >= linalg.SPLIT_MIN
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--range", f"b=0.5:2:{b_steps}", "--range", "theta=-1.2:1.2:16",
        )
        assert code == 0
        assert len(out.splitlines()) == 16 * b_steps + 1
        assert calls == []
        # theta = +-pi/3 (a double root at 0) at the ends of each b's four
        # thetas: one call per chunk, on those points' blocks only
        third = repr(math.pi / 3)
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--range", "b=0.5:2:5", "--range", f"theta=-{third}:{third}:4",
        )
        assert code == 0
        assert [line.split(",")[3:] for line in out.splitlines()[1:]] == [["7", "6"], ["8", "6"], ["8", "6"], ["7", "6"]] * 5
        assert [len(a) for a in calls] == [10]
        assert operators == []
        for (b, theta), block in zip(itertools.product(np.linspace(0.5, 2, 5), [-math.pi / 3, math.pi / 3]), calls[0]):
            assert np.array_equal(block, edge_state(b, theta).mat[np.ix_([0, 4, 8], [0, 4, 8])])
        # the all-ones block of state-7-6 has r = 1: every point takes eigvalsh
        calls.clear()
        code, out, _ = run_cli(capsys, "sweep", "--family", "state-7-6", "--range", "b=0.01:100:16")
        assert code == 0
        assert [line.split(",")[1:] for line in out.splitlines()[1:]] == [["True", "7", "6"]] * 16
        assert [np.shape(a) for a in calls] == [(16, 3, 3)]

    def test_memory_does_not_grow_with_the_grid(self, capsys, tmp_path):
        def peak(theta_steps):
            argv = ["sweep", "--family", "edge", "--range", "b=0.5:2:64",
                    "--range", f"theta=-1.2:1.2:{theta_steps}", "--out", str(tmp_path / "sweep.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first use of every code path, outside the measurement
        assert peak(64) <= 1.5 * peak(8)  # 4,096 rows against 512

    def test_failure_in_a_later_chunk_leaves_earlier_chunks_written(self, capsys):
        # b runs from 2 down to -1 in SWEEP_CHUNK + 6 steps: the first chunk
        # (b[0 .. SWEEP_CHUNK/2 - 1], two thetas each) is valid, the second reaches b <= 0
        steps, half = SWEEP_CHUNK + 6, SWEEP_CHUNK // 2
        bs = np.linspace(2, -1, steps).tolist()
        assert min(bs[:half]) > 0 >= min(bs[half:])
        code, out, err = run_cli(
            capsys, "sweep", "--family", "edge", "--range", f"b=2:-1:{steps}", "--range", "theta=0:0.5:2",
        )
        assert code == 2
        assert_one_line_error(err)
        lines = ["b,theta,isPPT,p,q"]
        for b, theta in itertools.product(bs[:half], [0.0, 0.5]):
            c = classify(edge_state(b, theta))
            lines.append(f"{b!r},{theta!r},{c.is_ppt},{c.type[0]},{c.type[1]}")
        assert out == "".join(line + "\r\n" for line in lines)

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # an empty --out is a path that cannot be opened, not an absent --out
        for out_file in ("", str(tmp_path / "missing" / "sweep.csv")):
            argv = ["sweep", "--family", "edge", "--b", "1", "--range", "theta=0:1:3", "--out", out_file]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert_one_line_error(err)
            assert f"cannot write CSV file {out_file}: " in err
        # an invalid first chunk is reported before the file is opened
        code, _, err = run_cli(capsys, *argv[:3], "--b=-1", *argv[5:])
        assert code == 2
        assert "missing" not in err

    def test_search_with_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1", "--range", "theta=0.1:0.2:2",
            "--search", "--starts", "3", "--seed=-1",
        )
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert "seed" in err

    def test_swept_target_p_prints_like_a_fixed_one(self, capsys):
        code, swept, _ = run_cli(
            capsys, "sweep", "--family", "p5", "--b", "1", "--theta", "0.5",
            "--range", "target_p=5:8:4",
        )
        assert code == 0
        rows = [line.split(",") for line in swept.strip().splitlines()[1:]]
        assert [(r[2], r[4], r[5]) for r in rows] == [(str(p), str(p), "5") for p in (5, 6, 7, 8)]
        _, fixed, _ = run_cli(
            capsys, "sweep", "--family", "p5", "--theta", "0.5", "--target-p", "5", "--range", "b=1:1:1",
        )
        assert fixed.splitlines()[1] == swept.splitlines()[1]

    def test_fractional_target_p_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "p5", "--b", "1", "--theta", "0.5", "--range", "target_p=5:6:3",
        )
        assert code == 2
        assert "target_p" in err

    def test_repeated_range_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1",
            "--range", "theta=0:1:3", "--range", "theta=0:1:3",
        )
        assert (code, out) == (2, "")
        assert_one_line_error(err)

    @pytest.mark.parametrize("frac", ["oops", "1/0", "1e400"])
    def test_bad_theta_frac_exit_2(self, capsys, frac):
        code, err = usage_error(
            capsys, "sweep", "--family", "edge-general", "--theta-frac", frac, "--range", "b=1:2:2",
        )
        assert code == 2
        assert "--theta-frac" in err

    def test_search_with_no_starts_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1", "--range", "theta=0.1:0.2:2",
            "--search", "--starts", "0",
        )
        assert (code, out) == (2, "")

    def test_search_with_more_starts_than_the_cap_exit_2(self, capsys):
        # refused before a draw of 87 TiB
        code, out, err = run_cli(
            capsys, "sweep", "--family", "edge", "--b", "1", "--range", "theta=0.1:0.2:2",
            "--search", "--starts", "1000000000000",
        )
        assert (code, out) == (2, "")
        assert_one_line_error(err)

    def test_huge_finite_entries_give_verdicts(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "choi", "--a", "1e308", "--b", "1e308", "--range", "c=1e307:1e308:3",
        )
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,isPPT,p,q"
        assert [line.split(",")[2:] for line in lines[1:]] == [
            [c, "True", "9", "9"] for c in ("1e+307", "5.5e+307", "1e+308")
        ]

    def test_huge_weights_through_the_split(self, capsys):
        # 64 states make one chunk at or above the gate, and each reads the
        # type that classify gives the one state (1e308, 1e308, 1e308)
        assert SWEEP_CHUNK >= linalg.SPLIT_MIN
        code, out, err = run_cli(
            capsys, "sweep", "--family", "choi", "--b", "1e308", "--c", "1e308", "--range", "a=1e308:1.7e308:64",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 64 and all(row.endswith(",True,9,9") for row in rows)

    @given(
        start=st.floats(width=64),
        stop=st.floats(width=64),
        steps=st.integers(1, 400),
    )
    @example(start=0.0, stop=1.5e-323, steps=10)  # the step underflows to zero
    @example(start=-1e308, stop=1e308, steps=4)  # STOP - START overflows
    @example(start=1.0, stop=math.inf, steps=1)
    @settings(max_examples=300, deadline=None)
    def test_range_values_are_those_of_linspace(self, start, stop, steps):
        name, count, values = _parse_range(f" x ={start!r}:{stop!r}:{steps}")
        assert (name, count) == ("x", steps)
        start, stop = float(repr(start)), float(repr(stop))  # a NaN's text drops its payload
        with np.errstate(all="ignore"):
            want = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = values(np.arange(steps))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        # in any order and any number at a time
        order = np.random.default_rng(steps).permutation(steps)
        assert values(order).tobytes() == want[order].tobytes()

    def test_range_holds_no_list_of_its_values(self):
        _parse_range("b=1:2:2")  # first use, outside the measurement
        tracemalloc.start()
        try:
            _, steps, values = _parse_range("b=1:2:1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000  # a list of the values would take about 32 MB
        assert (steps, values(np.array([0, 999_999])).tolist()) == (1_000_000, [1.0, 2.0])

    @pytest.mark.parametrize("steps", [[2**53, 2**53], [3, 2**53, 7], [2**40, 1, 2**30], [5, 3]])
    @pytest.mark.parametrize("first", [0, 2**63 - 3, 2**63 + 1, 2**100 + 12345, 2**105 - 64])
    def test_chunk_indices_are_those_of_python_divmod(self, steps, first):
        first %= math.prod(steps)
        count = min(SWEEP_CHUNK, math.prod(steps) - first)
        got = _grid_indices(first, count, steps)
        assert all(i.dtype == np.int64 for i in got)
        want = []
        for k in range(first, first + count):
            digits = []
            for n in reversed(steps):
                k, i = divmod(k, n)
                digits.append(i)
            want.append(digits[::-1])
        assert np.array(got).T.tolist() == want

    @given(argv=sweep_argvs())
    @example(argv=["sweep", "--family=choi", "--b=1", "--c=1", "--range=a=inf:-1:3"])  # inf, nan, then a < 0
    @example(argv=["sweep", "--family=edge", "--theta=0.5", "--range=b=5e-324:-1:3"])  # 1/b = inf, then b < 0
    @example(argv=["sweep", "--family=edge", "--theta=0.5", f"--range=b=2:-1:{2 * SWEEP_CHUNK}"])  # the second chunk fails
    @example(argv=["sweep", "--family=edge", "--range=b=1:2:2"])  # no angle: named by both its options
    @example(argv=["sweep", "--family=edge", "--range=b=1:2:2", "--range=theta=0:-0.0:2"])  # thetas 0.0, -0.0
    @example(argv=["sweep", "--family=edge", "--b=1", "--range=theta=0:1:2", "--seed=2"])  # no search reads it
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_point_by_point_reference(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == reference_sweep(argv)
        if code:
            assert code == 2
            assert_one_line_error(err.getvalue())
        assert not {"nan", "inf", "-inf"} & set(out.getvalue().replace("\r\n", ",").split(","))

    def test_bad_range_exit_2(self, capsys):
        # more than 2**53 steps: a step index is no longer exact as a float
        for text in ("theta=oops", f"theta=0:1:{10**20}", f"theta=0:1:{2**62}"):
            code, out, err = run_cli(capsys, "sweep", "--family", "edge", "--b", "1", "--range", text)
            assert (code, out) == (2, "")
            assert_one_line_error(err)
            assert text in err

    def test_fixed_and_swept_parameter_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        for out_args in ([], ["--out", str(out_file)]):
            code, out, err = run_cli(
                capsys, "sweep", "--family", "edge", "--b", "5",
                "--range", "b=1:2:2", "--range", "theta=0:1:2", *out_args,
            )
            assert (code, out) == (2, "")
            assert_one_line_error(err)
            assert "--b" in err
        assert not out_file.exists()

    def test_search_of_an_operator_not_3x3_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        for out_args in ([], ["--out", str(out_file)]):
            code, out, err = run_cli(
                capsys, "sweep", "--family", "p-theta", "--range", "theta=0:1:3", "--search", *out_args,
            )
            assert (code, out) == (2, "")
            assert_one_line_error(err)
            assert "1 x 3" in err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "face", "--b", "1", "--theta", "0.5", "--range", "b=1:2:2"],
             "sweep does not support family 'face'"),
            (["--family", "edge", "--b", "1", "--theta", "0.5"], "provide at least one --range NAME=START:STOP:STEPS"),
            (["--family", "edge", "--range", "theta=0:1:2"], "fix parameter --b or sweep it"),
            (["--family", "edge", "--range", "b=1:2:2"], "fix parameter --theta or --theta-frac or sweep it"),
            # a non-finite point (a = inf) reports before a later invalid one (a = -1)
            (["--family", "choi", "--b", "1", "--c", "1", "--range=a=inf:-1:3"], "matrix entries must be finite"),
        ],
        ids=["face", "no-range", "missing-b", "missing-theta", "choi-inf-first"],
    )
    def test_refused_sweep_exit_2(self, capsys, argv, message):
        assert run_cli(capsys, "sweep", *argv) == (2, "", f"edgelab: error: {message}\n")

    def test_unknown_parameter_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--family", "edge", "--b", "1", "--range", "zeta=0:1:2")
        assert code == 2


# The whole stdout of ``edgelab table`` at its defaults b=1, theta=pi/6; the
# header of the grid ends in three spaces, the last written \x20.
TABLE_STDOUT = """\
types achieved at b=1.0, theta=0.5235987755982988

        p=4   p=5   p=6   p=7   p=8  \x20
  q=6   .     *     *     *     *
  q=5   .     *     *     *     *
  q=4   o     .     .     .     .

  * constructed here    o known type, not constructed    . no edge state

  (5, 5): singular-gram face, p=5
  (5, 6): face, three unimodular couplings
  (6, 5): singular-gram face, p=6
  (6, 6): face, two unimodular couplings
  (7, 5): singular-gram face, p=7
  (7, 6): face, one unimodular coupling
  (8, 5): singular-gram face, p=8
  (8, 6): edge

targets (p >= q): (5, 5) (6, 5) (6, 6) (7, 5) (7, 6) (8, 5) (8, 6)
all targets achieved; (4, 4) is out of scope for these families
"""


class TestTable:
    def test_achieves_all_targets(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "(8, 6): edge" in out
        assert "all targets achieved" in out
        for t in ["(5, 5)", "(6, 5)", "(7, 5)", "(8, 5)", "(5, 6)", "(6, 6)", "(7, 6)", "(8, 6)"]:
            assert t in out

    def test_stdout_bytes(self, capsys):
        code, out, err = run_cli(capsys, "table")
        assert (code, out, err) == (0, TABLE_STDOUT, "")

    def test_marks_4_4_as_not_constructed(self, capsys):
        _, out, _ = run_cli(capsys, "table")
        grid_line = [line for line in out.splitlines() if line.startswith("  q=4")][0]
        assert "o" in grid_line


# Argvs that argparse answers alone: no command, -h, a typo, an option before
# the command, each command's help, a trailing argument, a missing --family, a
# bad --family and both angle options.
PARSER_ARGVS = [
    [],
    ["-h"],
    ["clasify", "--family", "edge"],
    ["--b", "1", "classify"],
    *([name, "--help"] for name in COMMANDS),
    ["classify", "--family", "edge", "--b", "1", "--theta", "0.5", "extra"],
    ["construct", "--b", "1"],
    ["sweep", "--range", "theta=0:1:2"],
    ["classify", "--family", "edgy"],
    ["classify", "--family", "edge", "--b", "1", "--theta", "0.5", "--theta-frac", "1/6"],
]


class TestParser:
    @pytest.mark.parametrize("columns", ["30", "80", "200"])
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_prints_what_the_full_parser_prints(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as want:
            make_parser().parse_args(argv)
        want = (want.value.code, *capsys.readouterr())
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, *capsys.readouterr()) == want

    def test_the_iteration_cap_is_not_an_option(self, capsys):
        # search.MAX_ITERS is a module constant
        with pytest.raises(SystemExit) as exc:
            main(["edge-check", "--help"])
        assert exc.value.code == 0
        assert "--max-iters" not in capsys.readouterr().out

    def test_builds_only_the_named_command(self, capsys, monkeypatch):
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(container, *args, **kwargs):
            calls.append(args)
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        COMMANDS["classify"][1](argparse.ArgumentParser(add_help=False))
        classify_options = len(calls)
        calls.clear()
        assert main(["classify", "--family", "edge", "--b", "1", "--theta", "0.5"]) == 0
        # the -h of edgelab and of edgelab classify, and the options of classify
        assert len(calls) == 2 + classify_options
        assert capsys.readouterr().err == ""


def unread_options(argv) -> set:
    """The family options of a ``construct``, ``classify``, ``edge-check`` or
    ``sweep`` argv that its ``--family`` does not take, named as in the error
    line (``--theta`` and ``--theta-frac`` as both); those given with ``--in``;
    and ``--starts`` and ``--seed`` where no search runs: with ``--analytic``,
    or in a ``sweep`` without ``--search``."""
    if argv[0] == "table":
        return set()
    given = {arg.split("=", 1)[0] for arg in argv[1:]}
    searched = "--analytic" not in given if argv[0] == "edge-check" else "--search" in given
    unsearched = set() if searched else given & {"--starts", "--seed"}
    given = {"--theta or --theta-frac" if arg in ("--theta", "--theta-frac") else arg for arg in given}
    family = next((arg.split("=", 1)[1] for arg in argv if arg.startswith("--family=")), None)
    takes = FAMILIES[family][0] if family else ()
    options = {name for columns, _, _ in FAMILIES.values() for name in columns} - set(takes)
    named = {"--theta or --theta-frac" if name == "theta" else "--" + name.replace("_", "-") for name in options}
    return (given & named) | unsearched


def assert_contract(argv):
    """Run ``main(argv)`` and check the exit-code contract:
    0, 1 or 2, never a traceback; exit 2 from edgelab prints one error line;
    the reports are strict JSON; classify exits 0 exactly when isPPT; an
    option that the input does not read exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2, argv
            assert "error:" in err.getvalue(), argv
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    unread = unread_options(argv)
    if unread:
        assert code == 2, argv
        # unless a check made before the options are read fails first
        if "--analytic" not in argv and any(arg.startswith("--family=") for arg in argv):
            assert any(f"takes no {option}\n" in err for option in unread), (argv, err)
    if code == 2:
        assert out == "", argv
        assert_one_line_error(err)
        return
    assert err == "", argv
    if argv[0] == "table":
        return
    report = strict_json(out)
    if argv[0] == "classify":
        assert code == (0 if report["isPPT"] else 1), argv
    else:
        assert code == 0, argv


# Option values of every kind: plain, at the float limits, signed zeros and
# non-finite; now and then complex or malformed.  None leaves an option out.
FLOAT_VALUES = [
    "0.5", "1.3", "2", "0.25", "-0.4", "0", "1", "-1", "1e-9", "5e-324", "-0.0", "1e308", "-1e308",
    "1.7e308", "inf", "-inf", "nan",
]
ODD_VALUES = ["1+2j", "0.5j", "-0.3-0.4j", "oops", "", "1/2"]
# b and theta decide most verdicts: plain values half of the time
CONTRACT_NUMBER = st.one_of(st.floats(0.05, 3.0).map(repr), st.sampled_from(FLOAT_VALUES * 3 + ODD_VALUES))
CONTRACT_WEIGHT = st.sampled_from([None] * 20 + FLOAT_VALUES * 3 + ODD_VALUES)
CONTRACT_COUPLING = st.sampled_from([None] * 6 + FLOAT_VALUES + ODD_VALUES)


@st.composite
def command_argvs(draw) -> list[str]:
    """``construct``, ``classify``, ``edge-check`` or ``table`` with a random
    family and random options; ``--starts`` from 1 to 3, given with
    ``--analytic`` one time in four."""
    command = draw(st.sampled_from(["construct", "classify", "edge-check", "table"]))
    argv = [command, f"--b={draw(CONTRACT_NUMBER)}"]
    angle = draw(st.sampled_from(["--theta", "--theta", None] + (["--theta-frac"] if command != "table" else [])))
    if angle == "--theta-frac":
        argv.append(f"--theta-frac={draw(st.sampled_from(['1/6', '-1/3', '0', '5/2', '1e308', '1/0', 'x']))}")
    elif angle:
        argv.append(f"--theta={draw(CONTRACT_NUMBER)}")
    if command == "table":
        return argv
    family = draw(st.sampled_from([None] + sorted(FAMILIES) * 3))
    if family:
        argv.append(f"--family={family}")
    options = [("a", CONTRACT_WEIGHT), ("c", CONTRACT_WEIGHT)]
    options += [(name, CONTRACT_COUPLING) for name in ("xi-eta", "eta-zeta", "zeta-xi")]
    options.append(("target-p", st.sampled_from([None] * 3 + ["5", "6", "7", "8"])))
    for name, values in options:
        value = draw(values)
        if value is not None:
            argv.append(f"--{name}={value}")
    if command == "edge-check":
        analytic = draw(st.booleans())
        # --analytic runs no search, so --starts with it exits 2: now and then
        if not analytic or not draw(st.integers(0, 3)):
            argv.append(f"--starts={draw(st.integers(1, 3))}")
        if analytic:
            argv.append("--analytic")
    return argv


@st.composite
def matrix_files(draw) -> bytes:
    """A matrix file for local dimensions 1 to 3: a PSD, low-rank, indefinite,
    slightly non-Hermitian or single-entry matrix, largest entry 1, times a
    scale from 1e-320 to 1.7e308."""
    m, n = draw(st.sampled_from(list(itertools.product((1, 2, 3), repeat=2))))
    d = m * n
    kind = draw(st.sampled_from(["psd", "low-rank", "indefinite", "non-hermitian", "single-entry"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind in ("psd", "low-rank"):
        g = g[:, : rng.integers(1, d + 1) if kind == "low-rank" else d]
        mat = g @ g.conj().T
    elif kind == "single-entry":
        mat = np.zeros((d, d), dtype=complex)
        mat[rng.integers(d), rng.integers(d)] = 1.0
    else:
        mat = g + g.conj().T
        if kind == "non-hermitian":
            mat[0, -1] += 1e-6 * np.abs(mat).max()
    scale = draw(st.sampled_from([1e-320, 1e-300, 1e-150, 1e-9, 1.0, 1e9, 1e150, 1e300, 1e307, 1.7e308]))
    with np.errstate(under="ignore"):
        mat = mat / np.abs(mat).max() * scale
    data = {"m": m, "n": n, "re": mat.real.tolist(), "im": mat.imag.tolist()}
    return json.dumps(data).encode()


class TestContract:
    @pytest.fixture(scope="class")
    def matrix_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("contract") / "matrix.json"

    @given(argv=command_argvs())
    @example(argv=["construct", "--family=edge", "--b=1.7e308", "--theta=0.5"])
    @example(argv=["edge-check", "--family=edge", "--b=1.7e308", "--theta=0.5", "--analytic"])
    @example(argv=["classify", "--family=choi", "--a=1e308", "--b=1e308", "--c=1e308"])
    # past search.MAX_STARTS: refused before a draw of 87 TiB, or of a shape past 2**63
    @example(argv=["edge-check", "--family=edge", "--b=1", "--theta=0.5", "--starts=1000000000000"])
    @example(argv=["edge-check", "--family=edge", "--b=1", "--theta=0.5", "--starts=100000000000000000000"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_argvs_keep_the_exit_code_contract(self, argv):
        assert_contract(argv)

    @given(content=matrix_files(), starts=st.integers(1, 3))
    @example(content=b"\xff\xfe\x00", starts=1)  # not UTF-8
    @example(content=b'{"m": 1e400, "n": 1, "re": [[1.0]], "im": [[0.0]]}', starts=1)
    # not integers, then strings, booleans and nulls for numbers: exit 2
    @example(content=json.dumps(dict(EDGE_FILE, m=3.0)).encode(), starts=1)
    @example(content=json.dumps(dict(EDGE_FILE, m=True, n=9)).encode(), starts=1)
    @example(content=json.dumps(dict(EDGE_FILE, re=[["0.5"] * 9] * 9)).encode(), starts=1)
    @example(content=json.dumps(dict(EDGE_FILE, im=[[False] * 9] * 9)).encode(), starts=1)
    @example(content=json.dumps(dict(EDGE_FILE, im=[[None] * 9] * 9)).encode(), starts=1)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matrix_files_keep_the_exit_code_contract(self, matrix_path, content, starts):
        matrix_path.write_bytes(content)
        assert_contract(["classify", "--in", str(matrix_path)])
        assert_contract(["edge-check", "--in", str(matrix_path), f"--starts={starts}"])


def cli_env(unbuffered: bool) -> dict:
    """The environment with stdout unbuffered, as ``PYTHONUNBUFFERED=1`` makes it, or
    block-buffered when redirected, as it is by default: a short output then
    reaches the file or pipe only when flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["classify", "--family", "edge", "--b", "1", "--theta", "0.5"], "/dev/full"),
        (["table"], "/dev/full"),
        (["sweep", "--family", "edge", "--b", "1", "--range", "theta=0:1:5", "--out", "/dev/full"], None),
    ],
    ids=["classify-stdout", "table-stdout", "sweep-out"],
)
def test_failed_write_exit_2(argv, stdout, unbuffered):
    with open(stdout or os.devnull, "w") as out:
        result = subprocess.run(
            cli_command(*argv),
            stdout=out, stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered),
        )
    assert result.returncode == 2
    assert_one_line_error(result.stderr)
    assert "No space left on device" in result.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_exit_2(unbuffered):
    # as `edgelab sweep ... | head -1`: 5000 rows, some 160 kB, more than the
    # pipe and stdout's buffer hold, so the sweep writes on after the reader has gone
    child = subprocess.Popen(
        cli_command("sweep", "--family", "edge", "--b", "1", "--range", "theta=0:1:5000"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered),
    )
    assert child.stdout.readline().startswith("b,theta,isPPT,p,q")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 2
    assert_one_line_error(err)
    assert "Broken pipe" in err


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        cli_command("classify", "--family", "edge", "--b", "1", "--theta-frac", "1/6"),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["type"] == [8, 6]


def test_every_public_name_exists():
    missing = [name for name in edgelab.__all__ if not hasattr(edgelab, name)]
    assert not missing
