import argparse
import cmath
import contextlib
import importlib
import io
import itertools
import json
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

from edgelab import BipartiteOperator, choi_matrix, classify, classify_many, edge_state, linalg
from edgelab import product_vector_search
from edgelab.classify import _classify_stack
from edgelab.cli import COMMANDS, FAMILIES, SWEEP_CHUNK, _parse_range, _table_families, main, make_parser
from edgelab.io import matrix_from_dict, matrix_to_dict, read_matrix, write_matrix
from edgelab.errors import EdgeLabError
from helpers import REFERENCE_FAMILIES, assert_same_entries, reference_sweep

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
# couplings as the CLI passes them, of modulus at most 1/2, so that under the
# strict condition the Gram matrix, of diagonal 2cos(theta) > 1, is PSD
COUPLING = st.one_of(
    st.sampled_from(["0", "-0", "0.5", "-0.5j", "0.3-0j"]),
    st.builds(lambda r, phi: repr(cmath.rect(r, phi)), st.floats(0.0, 0.5), st.floats(-4.0, 4.0)),
)
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


class TestChunkBuilders:
    @given(data=st.data(), family=st.sampled_from(sorted(FAMILY_POINTS)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stacks_are_the_one_point_matrices_and_classify_alike(self, data, family):
        points = data.draw(st.lists(FAMILY_POINTS[family], min_size=1, max_size=SWEEP_CHUNK + 6))
        _, dims, build = FAMILIES[family]
        ops = [REFERENCE_FAMILIES[family](p) for p in points]
        stack = build(points)
        assert_same_entries(stack, np.array([op.mat for op in ops]))
        got = list(zip(*_classify_stack(stack, *dims)))
        want = [(c.type[0], c.type[1], c.is_psd, c.is_ppt) for c in map(classify, ops)]
        assert [(p, q, p_psd, p_psd and q_psd) for p, q, p_psd, q_psd in got] == want

    def test_the_split_classifies_every_family_as_below_the_gate(self):
        # the table's states and each family at points out to the float limits,
        # one state at a time below the gate, against each state alone and each
        # family as one stack with the gate at 1, so that every stack splits
        couplings = {"xi_eta": "0.3", "eta_zeta": "-0.5j", "zeta_xi": "0"}
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
            [BipartiteOperator(*FAMILIES[family][1], mat) for mat in FAMILIES[family][2](ps)]
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

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["construct", "--family", "edge", "--b", "1.3", "--theta-frac", "1/5"]
        out_file = tmp_path / "edge.json"
        _, printed, _ = run_cli(capsys, *argv)
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == printed

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "edge.json"
        code, out, err = run_cli(
            capsys, "construct", "--family", "edge", "--b", "1", "--theta", "0.5", "--out", str(out_file)
        )
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert str(out_file) in err


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

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "malformed.json"
        # the second file nests too deep for the JSON decoder
        edits = [json.dumps(dict(EDGE_FILE, **edit)) for edit in MALFORMED_EDITS]
        for text in ['{"m": 3}', "[" * 100_000 + "]" * 100_000] + edits:
            path.write_text(text)
            code, out, err = run_cli(capsys, "classify", "--in", str(path))
            assert (code, out) == (2, "")
            assert_one_line_error(err)


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
        code, _, _ = run_cli(capsys, "edge-check", "--family", "state-7-6", "--b", "1", "--analytic")
        assert code == 2

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

    def test_one_start_prints_strict_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "edge-check", "--family", "edge", "--b", "1", "--theta", "0.5", "--starts", "1",
        )
        assert code == 0
        assert strict_json(out)["starts"] == 1


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
        "b_steps, theta_steps, search",
        [(9, 15, ()), (5, 14, ("--search", "--starts", "5", "--seed", "2"))],
        ids=["135-classify", "70-search"],
    )
    def test_bytes_across_chunk_boundaries(self, capsys, tmp_path, b_steps, theta_steps, search):
        # 135 points are chunks of 64 + 64 + 7, and 70 points 64 + 6
        assert SWEEP_CHUNK == 64
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

    def test_at_most_two_block_eigvalsh_calls_per_chunk(self, capsys, monkeypatch):
        # the edge states' blocks: {0, 4, 8} and 1 x 1 ones, and for their
        # partial transposes three pairs and 1 x 1 ones; the last chunk, of
        # 16 states, is at or above the split's gate too
        calls, operators = [], []
        eigvalsh = CLASSIFY_MODULE.np.linalg.eigvalsh
        post_init = BipartiteOperator.__post_init__

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def counting_post_init(op):
            operators.append(op.mat.shape)
            post_init(op)

        monkeypatch.setattr(CLASSIFY_MODULE.np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(BipartiteOperator, "__post_init__", counting_post_init)
        assert 400 % SWEEP_CHUNK >= linalg.SPLIT_MIN
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "edge", "--range", "b=0.5:2:20", "--range", "theta=-1.2:1.2:20",
        )
        assert code == 0
        assert len(out.splitlines()) == 401
        assert len(calls) <= 2 * math.ceil(400 / SWEEP_CHUNK)
        assert all(shape[-2:] != (9, 9) for shape in calls)
        assert operators == []

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
        # b runs from 2 down to -1 in 70 steps: the first chunk (b[0..31],
        # two thetas each) is valid, the second reaches b <= 0
        assert SWEEP_CHUNK == 64
        code, out, err = run_cli(
            capsys, "sweep", "--family", "edge", "--range", "b=2:-1:70", "--range", "theta=0:0.5:2",
        )
        assert code == 2
        assert_one_line_error(err)
        lines = ["b,theta,isPPT,p,q"]
        for b, theta in itertools.product(np.linspace(2, -1, 70).tolist()[:32], [0.0, 0.5]):
            c = classify(edge_state(b, theta))
            lines.append(f"{b!r},{theta!r},{c.is_ppt},{c.type[0]},{c.type[1]}")
        assert out == "".join(line + "\r\n" for line in lines)

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "sweep.csv"
        argv = ["sweep", "--family", "edge", "--b", "1", "--range", "theta=0:1:3", "--out", str(out_file)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert str(out_file) in err
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
        name, count, value = _parse_range(f" x ={start!r}:{stop!r}:{steps}")
        assert (name, count) == ("x", steps)
        start, stop = float(repr(start)), float(repr(stop))  # a NaN's text drops its payload
        with np.errstate(all="ignore"):
            want = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
        assert np.array([value(i) for i in range(steps)]).tobytes() == want.tobytes()

    def test_range_holds_no_list_of_its_values(self):
        _parse_range("b=1:2:2")  # first use, outside the measurement
        tracemalloc.start()
        try:
            _, steps, value = _parse_range("b=1:2:1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000  # a list of the values would take about 32 MB
        assert (steps, value(0), value(999_999)) == (1_000_000, 1.0, 2.0)

    @given(argv=sweep_argvs())
    @example(argv=["sweep", "--family=choi", "--b=1", "--c=1", "--range=a=inf:-1:3"])  # inf, nan, then a < 0
    @example(argv=["sweep", "--family=edge", "--theta=0.5", "--range=b=5e-324:-1:3"])  # 1/b = inf, then b < 0
    @example(argv=["sweep", "--family=edge", "--theta=0.5", "--range=b=2:-1:67"])  # the second chunk fails
    @settings(max_examples=200, deadline=None, derandomize=True)
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

    def test_unknown_parameter_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--family", "edge", "--b", "1", "--range", "zeta=0:1:2")
        assert code == 2


class TestTable:
    def test_achieves_all_targets(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "(8, 6): edge" in out
        assert "all targets achieved" in out
        for t in ["(5, 5)", "(6, 5)", "(7, 5)", "(8, 5)", "(5, 6)", "(6, 6)", "(7, 6)", "(8, 6)"]:
            assert t in out

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


def assert_contract(argv):
    """Run ``main(argv)`` and check the exit-code contract:
    0, 1 or 2, never a traceback; exit 2 from edgelab prints one error line;
    the reports are strict JSON; classify exits 0 exactly when isPPT."""
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
    family and random options; ``--starts`` from 1 to 3."""
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
        argv.append(f"--starts={draw(st.integers(1, 3))}")
        if draw(st.booleans()):
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


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "edgelab.cli", "classify", "--family", "edge", "--b", "1", "--theta-frac", "1/6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["type"] == [8, 6]
