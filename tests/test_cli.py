"""Tests for the command-line front end: exit codes and artifact contracts."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import fracdyn
from fracdyn import cli, solvers
from fracdyn.cli import (_CASES, _CONFIG_KEYS, _dimension_report,
                         _format_table, _verdict_rows, _write_json, main)
from fracdyn.solvers import read_trajectory, read_trajectory_csv

ARTIFACTS = ("comparison.txt", "dimension.json", "lyapunov.json",
             "stability.json", "trajectory.npz")


def run(argv):
    """Exit code of one CLI invocation; argparse usage errors exit with 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def lorenz_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "lorenz.csv"
    assert run(["simulate", "--system", "lorenz", "--t-end", "5",
                "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def stateless_csv(tmp_path_factory):
    """A trajectory CSV with a time column and no state column."""
    path = tmp_path_factory.mktemp("sim") / "stateless.csv"
    path.write_text("# alpha=0.9\n# h=0.1\nt\n0\n0.1\n0.2\n")
    return path


@pytest.fixture(scope="module")
def headless_csv(tmp_path_factory):
    """A trajectory CSV whose '#' lines run straight into its data rows."""
    path = tmp_path_factory.mktemp("sim") / "headless.csv"
    path.write_text("# alpha=0.9\n# h=0.1\n100,100,100\n0.1,1,2\n0.2,2,3\n"
                    "0.3,3,4\n0.4,4,5\n")
    return path


@pytest.fixture(scope="module")
def alpha_dict_doc(tmp_path_factory):
    """A config document that gives Duffing's orders as an object."""
    path = tmp_path_factory.mktemp("doc") / "alpha.json"
    path.write_text(json.dumps({"system": "duffing", "alpha": {"a": 1},
                                "t_end": 1.0}))
    return path


# -- exit codes ----------------------------------------------------------


@pytest.mark.parametrize("argv, code", [
    (["mlf", "--alpha", "0.5", "--z=-2+0.5j"], 0),
    (["mlf", "--alpha", "3", "--z", "1.5"], 1),
    (["mlf", "--alpha", "0.5", "--beta", "-1", "--z", "1.5"], 1),
    (["mlf", "--alpha", "0.5", "--z", "abc"], 2),
    (["simulate", "--system", "lorenz", "--param", "sigma=x",
      "--out", "unused.csv"], 1),
    (["simulate", "--system", "lorenz", "--param", "sigma",
      "--out", "unused.csv"], 1),
    (["simulate", "--out", "unused.csv"], 2),
    (["reproduce", "7", "--out-dir", "unused"], 2),
    (["mlf", "--alpha", "0.5", "--z", "-2+0.5j"], 0),
    (["lyapunov", "--system", "lorenz", "--tangent-history", "abc",
      "--out", "unused.json"], 2),
    (["lyapunov", "--system", "lorenz", "--history-reset-blocks", "1",
      "--out", "unused.json"], 2),
    (["stability", "--system", "lorenz", "--sector-alpha", "0.9"], 2),
    (["lyapunov", "--out", "unused.json"], 2),
    (["stability"], 2),
    (["reproduce", "1", "--out", "unused"], 2),
    (["simulate", "--system", "lorenz", "--memory-window", "50",
      "--out", "unused.csv"], 2),
    (["mlf", "--alpha", "0.5", "--beta", "inf", "--z", "3"], 1),
    # refused before the ladder is built: 10^8 scales would take minutes
    (["dimension", "--input", "{lorenz_csv}", "--levels", "100000000",
      "--out", "unused.json"], 1),
    # the spectrum takes a GL base only, and ABM has one corrector step
    (["lyapunov", "--system", "lorenz", "--scheme", "abm",
      "--out", "unused.json"], 2),
    (["simulate", "--system", "lorenz", "--corrector-iters", "2",
      "--out", "unused.csv"], 2),
    # an infinite largest scale is refused before the ladder is built
    (["dimension", "--input", "{lorenz_csv}", "--out", "d.json",
      "--eps-max", "inf", "--eps-min", "1"], 1),
    (["dimension", "--input", "{stateless_csv}", "--out", "d.json"], 1),
    # E_{0.5,170}(-1e300) is below the smallest subnormal: 0.0
    (["mlf", "--alpha", "0.5", "--beta", "170", "--z=-1e300"], 0),
    # the first data row is not a column row to skip
    (["dimension", "--input", "{headless_csv}", "--out", "d.json"], 1),
    # Duffing's orders as an object, not a number or a pair
    (["simulate", "--config", "{alpha_dict_doc}", "--out", "unused.csv"], 1),
    # 1/Gamma(200) is below the smallest subnormal: 0.0
    (["mlf", "--alpha", "0.5", "--beta", "200", "--z", "0"], 0),
    # so is E_{0.5,1e308}(-1e200), where log Gamma(beta) overflows
    (["mlf", "--alpha", "0.5", "--beta", "1e308", "--z=-1e200"], 0),
])
def test_exit_codes(argv, code, tmp_path, monkeypatch, lorenz_csv,
                    stateless_csv, headless_csv, alpha_dict_doc):
    monkeypatch.chdir(tmp_path)
    assert run([a.format(lorenz_csv=lorenz_csv, stateless_csv=stateless_csv,
                         headless_csv=headless_csv,
                         alpha_dict_doc=alpha_dict_doc)
                for a in argv]) == code
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("transient, code", [
    ("0", 0), ("0.5", 0), ("-0.5", 1), ("1", 1), ("1.5", 1), ("nan", 1),
])
def test_dimension_transient_must_be_a_fraction(lorenz_csv, tmp_path,
                                                transient, code):
    out = tmp_path / "dim.json"
    assert run(["dimension", "--input", str(lorenz_csv),
                "--transient", transient, "--out", str(out)]) == code
    assert out.exists() == (code == 0)


# -- reproduce -----------------------------------------------------------


def test_reproduce_is_byte_identical_and_leaves_no_temp_files(tmp_path,
                                                              capsys):
    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert run(["reproduce", "1", "--t-end", "5",
                    "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == list(ARTIFACTS)
        assert f" {len(ARTIFACTS)} artifacts in " in capsys.readouterr().out
        blobs.append([(out_dir / n).read_bytes() for n in ARTIFACTS])
    assert blobs[0] == blobs[1]
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("case, code", [(3, 0), (4, 0), (5, 1)])
def test_reproduce_cases_3_to_5_at_a_short_horizon(case, code, tmp_path,
                                                   capsys):
    out_dir = tmp_path / "out"
    assert run(["reproduce", str(case), "--t-end", "5",
                "--out-dir", str(out_dir)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert sorted(p.name for p in out_dir.iterdir()) == list(ARTIFACTS)
        assert f" {len(ARTIFACTS)} artifacts in " in captured.out
    else:
        # the catalog's Chua field lacks its -x term, so case 5 diverges
        assert "step 1447 (t = 2.894)" in captured.err
        assert not out_dir.exists()


def test_reproduce_that_fails_after_the_solve_writes_nothing(tmp_path,
                                                             capsys):
    # the solve succeeds, but ten steps hold fewer than 4 renormalizations
    out_dir = tmp_path / "out"
    assert run(["reproduce", "1", "--t-end", "0.05",
                "--out-dir", str(out_dir)]) == 1
    assert "fewer than 4 renormalizations" in capsys.readouterr().err
    assert not out_dir.exists()


# the verdict column of each case's comparison.txt at its documented
# settings, or None for a case that diverges; a change that moves a verdict
# updates this table and says why
VERDICTS = {
    1: ["pass", "pass"],
    2: ["fail", "fail", "fail"],
    3: ["fail", "pass"],
    4: ["fail", "pass"],
    5: None,
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_reproduce_verdicts_at_the_documented_settings(case, tmp_path,
                                                       capsys):
    out_dir = tmp_path / "out"
    code = run(["reproduce", str(case), "--out-dir", str(out_dir)])
    if VERDICTS[case] is None:
        # the catalog's Chua field lacks its -x term
        assert code == 1
        assert ("state left the trust region at step 1447 (t = 2.894)"
                in capsys.readouterr().err)
        return
    assert code == 0
    lines = (out_dir / "comparison.txt").read_text().splitlines()
    assert [line.split()[-1] for line in lines[2:]] == VERDICTS[case]


@pytest.fixture(scope="module")
def case2_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("case2")
    assert run(["reproduce", "2", "--t-end", "20",
                "--out-dir", str(out_dir)]) == 0
    return out_dir


# the single command, at case 2's settings, that writes each artifact;
# duffing's 9-d chain exercises the observable columns 2 and 10
CASE2 = ["--system", "duffing", "--h", "0.01", "--t-end", "20"]
SINGLE_COMMANDS = {
    "trajectory.npz": ["simulate", *CASE2],
    "lyapunov.json": ["lyapunov", *CASE2, "--renorm-every", "10"],
    "dimension.json": ["dimension", "--input", "trajectory.npz",
                       "--columns", "2,10", "--transient", "0.2"],
    "stability.json": ["stability", "--system", "duffing"],
}


@pytest.mark.parametrize("artifact", list(SINGLE_COMMANDS))
def test_reproduce_artifact_is_what_its_command_writes(case2_dir, artifact,
                                                       tmp_path, monkeypatch):
    monkeypatch.chdir(case2_dir)
    out = tmp_path / artifact
    assert run(SINGLE_COMMANDS[artifact] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (case2_dir / artifact).read_bytes()


def test_dimension_defaults_to_the_chain_observables(case2_dir, tmp_path,
                                                    monkeypatch):
    # without --columns a Duffing trajectory is counted on its observables,
    # columns 2 and 10, as reproduce 2 counts it; all nine chain states
    # would overflow the int64 cell index
    monkeypatch.chdir(case2_dir)
    out = tmp_path / "dimension.json"
    assert run(["dimension", "--input", "trajectory.npz", "--transient",
                "0.2", "--out", str(out)]) == 0
    assert out.read_bytes() == (case2_dir / "dimension.json").read_bytes()
    assert json.loads(out.read_text())["columns"] == [2, 10]


def test_reproduce_writes_a_binary_trajectory(tmp_path, monkeypatch):
    def no_text(traj, path):
        raise AssertionError("reproduce wrote a CSV trajectory")

    monkeypatch.setattr(solvers, "write_trajectory_csv", no_text)
    assert run(["reproduce", "2", "--t-end", "5",
                "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACTS)
    traj = read_trajectory(str(tmp_path / "trajectory.npz"))
    assert traj.x.shape == (501, 9) and traj.system_name == "duffing"


def test_dimension_reads_npz_and_csv_alike(lorenz_csv, tmp_path):
    npz = tmp_path / "lorenz.npz"
    solvers.write_trajectory(read_trajectory(str(lorenz_csv)), str(npz))
    reports = {}
    for path in (lorenz_csv, npz):
        out = tmp_path / f"{path.suffix[1:]}.json"
        assert run(["dimension", "--input", str(path), "--columns", "2,4",
                    "--transient", "0.2", "--out", str(out)]) == 0
        reports[path.suffix] = json.loads(out.read_text())
        assert reports[path.suffix].pop("input") == str(path)
    assert reports[".npz"] == reports[".csv"]
    assert ((tmp_path / "npz.plot.txt").read_bytes()
            == (tmp_path / "csv.plot.txt").read_bytes())


@pytest.mark.parametrize("rows", [
    [("exponent 1", "+0.143", "+11.1404", "fail")],     # cells below header
    [("kaplan-yorke dimension", "non-integer in (2.0, 3.0)", "2.0009",
      "pass")],                                         # cells above it
])
def test_comparison_table_keeps_its_columns_apart(rows):
    lines = _format_table(2, "duffing", rows).splitlines()
    assert re.fullmatch(r"claim {2,}expected {2,}computed {2,}verdict",
                        lines[1])
    for line, row in zip(lines[2:], rows):
        # the verdict is the last token of its row
        assert line.split()[-1] == row[3]
        assert line.rindex(row[3]) == lines[1].index("verdict")


def test_reports_encode_numpy_values_and_refuse_other_types(tmp_path):
    out = tmp_path / "report.json"
    _write_json(str(out), {
        "array": np.array([[1.5, 2.0]]), "roots": np.array([1 + 2j, 3.0]),
        "z": complex(0.5, -1.0), "flag": np.bool_(True),
        "count": np.int64(7), "small": np.float32(0.25),
        "wide": np.float64(0.1), "pair": (1, None)})
    assert json.loads(out.read_text()) == {
        "array": [[1.5, 2.0]],
        "roots": [{"re": 1.0, "im": 2.0}, {"re": 3.0, "im": 0.0}],
        "z": {"re": 0.5, "im": -1.0}, "flag": True, "count": 7,
        "small": 0.25, "wide": 0.1, "pair": [1, None]}
    # nothing json cannot name is written, not even as null
    with pytest.raises(TypeError):
        _write_json(str(out), {"x": object()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def _graded(claim,exponents=(0.5, 0.0, -1.0), d_ky=2.5,
            classification="strange"):
    """The one comparison.txt row of ``claim`` for synthetic results."""
    result = SimpleNamespace(exponents=np.array(exponents), d_ky=d_ky)
    (row,) = _verdict_rows([claim], result, classification)
    return row


def test_verdict_rows_grade_every_claim_kind():
    # classification: an exact match
    assert _graded(("classification", "strange")) == (
        "classification", "strange", "strange", "pass")
    assert _graded(("classification", "strange"),
                   classification="limit_cycle")[3] == "fail"

    # d_ky_in: strictly inside the interval and 0.01 away from an integer
    kyd = ("kaplan-yorke dimension", "non-integer in (2.0, 3.0)")
    assert _graded(("d_ky_in", (2.0, 3.0))) == (*kyd, "2.5000", "pass")
    for d_ky, verdict in [(2.02, "pass"), (2.98, "pass"), (2.005, "fail"),
                          (2.995, "fail"), (2.0, "fail"), (3.0, "fail"),
                          (1.5, "fail"), (3.5, "fail"), (0.0, "fail")]:
        assert _graded(("d_ky_in", (2.0, 3.0)), d_ky=d_ky) == (
            *kyd, f"{d_ky:.4f}", verdict), d_ky

    # lambda: pass within max(0.02, 10% of |target|), soft-pass within 0.15,
    # on either side of the target
    for target, tol in [(0.143, 0.02), (-0.245, 0.0245)]:
        for offset, verdict in [(0.0, "pass"), (tol - 0.001, "pass"),
                                (tol + 0.001, "soft-pass"),
                                (0.149, "soft-pass"), (0.151, "fail")]:
            for got in (target + offset, target - offset):
                row = _graded(("lambda", 1, target),
                              exponents=(1.0, got, -1.0))
                assert row == ("exponent 2", f"{target:+.3f}",
                               f"{got:+.4f}", verdict), (target, got)
    # an exponent index past the spectrum reads NaN, which fails
    assert _graded(("lambda", 3, 0.143)) == (
        "exponent 4", "+0.143", "+nan", "fail")

    # d_ky_near: pass within 0.05, soft-pass within 0.15
    for offset, verdict in [(0.0, "pass"), (0.049, "pass"),
                            (0.051, "soft-pass"), (0.149, "soft-pass"),
                            (0.151, "fail")]:
        for d_ky in (1.584 + offset, 1.584 - offset):
            assert _graded(("d_ky_near", 1.584), d_ky=d_ky) == (
                "kaplan-yorke dimension", "1.584", f"{d_ky:.4f}",
                verdict), d_ky
    for d_ky in (0.0, 2.0):
        assert _graded(("d_ky_near", 1.584), d_ky=d_ky)[3] == "fail"

    # sign_pattern: (+, 0, -) with margins 0.01 and 0.05; soft-pass keeps
    # the outer signs and |lambda_2| <= 0.1
    for exponents, verdict in [
            ((0.5, 0.0, -1.0), "pass"), ((0.011, 0.049, -0.011), "pass"),
            ((0.5, -0.049, -1.0), "pass"), ((0.009, 0.0, -1.0), "soft-pass"),
            ((0.5, 0.0, -0.009), "soft-pass"), ((0.5, 0.051, -1.0),
                                                "soft-pass"),
            ((0.5, -0.099, -1.0), "soft-pass"), ((0.5, 0.101, -1.0), "fail"),
            ((0.0, 0.0, -1.0), "fail"), ((0.5, 0.0, 0.0), "fail"),
            ((-0.1, -0.2, -1.0), "fail")]:
        assert _graded(("sign_pattern", None), exponents=exponents) == (
            "exponent signs", "+, 0, -",
            ", ".join(f"{v:+.4f}" for v in exponents), verdict), exponents
    # the middle exponent is the second, the last the smallest
    assert _graded(("sign_pattern", None),
                   exponents=(0.5, 0.0, -0.5, -1.0))[3] == "pass"

    # d_ky_noninteger: positive and 0.01 away from an integer
    for d_ky, verdict in [(2.5, "pass"), (0.5, "pass"), (2.02, "pass"),
                          (1.98, "pass"), (2.005, "fail"), (1.995, "fail"),
                          (2.0, "fail"), (0.0, "fail")]:
        assert _graded(("d_ky_noninteger", None), d_ky=d_ky) == (
            "kaplan-yorke dimension", "non-integer", f"{d_ky:.4f}",
            verdict), d_ky


@pytest.mark.filterwarnings("ignore:.*are saturated:UserWarning")
@pytest.mark.parametrize("cols, shared", [([0, 1, 2], True),
                                          ([0, 2], False), ([2, 1, 0], False)])
def test_dimension_counts_every_column_on_a_view(cols, shared, lorenz_csv,
                                                 monkeypatch):
    # every column in order is box-counted on a slice of the trajectory, a
    # subset or a reordering on a copy of its columns
    traj = read_trajectory_csv(str(lorenz_csv))
    count, seen = cli.box_dimension, []
    monkeypatch.setattr(cli, "box_dimension", lambda points, **kwargs: (
        seen.append(points) or count(points, **kwargs)))
    report = _dimension_report(traj, "lorenz.csv", cols, 0.2)
    assert np.shares_memory(seen[0], traj.x) == shared
    # the CSV's columns are strided views, and the counts are those of a
    # contiguous copy
    traj.x = np.ascontiguousarray(traj.x[:, cols])
    again = _dimension_report(traj, "lorenz.csv", list(range(len(cols))),
                              0.2)
    for doc in (report, again):
        del doc["columns"]
    assert json.dumps(report, default=cli._json_default) == json.dumps(
        again, default=cli._json_default)


@pytest.mark.parametrize("argv, message", [
    (["stability", "--system", "lorenz", "--param", "sigma=0"],
     r"1 zero eigenvalue\(s\) excluded from the sector test as marginal"),
    (["dimension", "--input", "{csv}", "--out", "{out}"],
     r"\d+ smallest scale\(s\) are saturated \(count ~ distinct points\) "
     r"and are excluded from the fit"),
], ids=["matignon-zero-eigenvalue", "box-count-saturated"])
def test_library_warning_is_one_plain_line(argv, message, lorenz_csv,
                                           tmp_path, capsys):
    # the message alone, without the source path and line of Python's form
    argv = [a.format(csv=lorenz_csv, out=tmp_path / "dim.json")
            for a in argv]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(f"warning: {message}\n", err), err
    assert "cli.py" not in err and "UserWarning" not in err


def test_box_count_past_the_index_range_is_one_error_line(lorenz_csv,
                                                         tmp_path, capsys):
    # the cell count overflows a float at every scale of this ladder; a
    # numpy warning would show as a "warning:" line
    out = tmp_path / "dim.json"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["dimension", "--input", str(lorenz_csv),
                     "--eps-min", "1e-300", "--eps-max", "1e-290",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid of more than 9.22e+18 cells")
    assert err.count("\n") == 1 and "warning:" not in err
    assert not out.exists()


# -- bad input -----------------------------------------------------------

TRAJECTORY = "# alpha=0.9\n# h=0.1\nt,x0,x1\n0,1,2\n0.1,2,3\n"


@pytest.mark.parametrize("argv, files", [
    (["dimension", "--input", "traj.csv", "--columns", "a"],
     {"traj.csv": TRAJECTORY}),
    (["dimension", "--input", "traj.csv", "--columns", "2,,3"],
     {"traj.csv": TRAJECTORY}),
    (["dimension", "--input", "bare.csv"], {"bare.csv": "t,x0\n0,1\n"}),
    (["simulate", "--system", "lorenz", "--x0", "a,b,c"], {}),
    (["simulate", "--system", "lorenz", "--x0", "1,2"], {}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "x0": 0.5}'}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "h": '}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "h": "abc"}'}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "x0": ["a", 1, 2]}'}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "alpha": "abc"}'}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "params": {"sigma": "x"}}'}),
    (["lyapunov", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "transient": "abc"}'}),
    (["lyapunov", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "tangent_history": "abc"}'}),
    (["simulate", "--system", "lorenz", "--t-end", "inf"], {}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "t0": -Infinity}'}),
    (["stability", "--system", "duffing", "--t", "nan"], {}),
    # retired: the sector test runs at the system's order (--alpha)
    (["stability", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "sector_alpha": 0.9}'}),
    (["mlf", "--alpha", "0.1", "--z", "10"], {}),
    (["dimension", "--input", "traj.csv", "--transient", "0"],
     {"traj.csv": "# alpha=0.9\n# h=0.1\nt,x0,x1\n"}),
    (["simulate", "--system", "lorenz", "--t0", "-1e308", "--t-end", "1e308"],
     {}),
    (["simulate", "--system", "lorenz", "--h", "1e-300", "--t-end", "1"], {}),
    (["lyapunov", "--system", "lorenz", "--t-end", "1e13"], {}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": b'{"system": "lor\xe9nz"}'}),
    (["dimension", "--input", "traj.csv"],
     {"traj.csv": b"# alpha=0.9\n# h=0.1\nt,x0\n0,1\xff\n"}),
    # the bad byte past the first 8 KB, which the header pass never decodes
    (["dimension", "--input", "traj.csv"],
     {"traj.csv": b"# alpha=0.9\n# h=0.1\nt,x0\n" + b"0.1,2\n" * 3000
      + b"0.2,3\xff\n"}),
    # the tangent frame linearizes the GL map only
    (["lyapunov", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "t_end": 5, "scheme": "abm"}'}),
    (["simulate", "--config", "doc.json"], {"doc.json": '["lorenz"]'}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": '{"system": "lorenz", "params": [1]}'}),
    (["dimension", "--input", "traj.csv", "--columns", "2,9"],
     {"traj.csv": "# alpha=0.9\n# h=0.1\nt,x0,x1,x2\n0,1,2,3\n0.1,2,3,4\n"}),
    (["dimension", "--input", "traj.csv", "--transient", "0.95"],
     {"traj.csv": TRAJECTORY + "0.2,3,4\n0.3,4,5\n0.4,5,6\n"}),
    (["dimension", "--input", "traj.csv"],
     {"traj.csv": "# alpha=0.9\n# h=0.1\nt,x0,x1\n0,1\n0.1,2\n"}),
    (["simulate", "--config", "doc.json"],
     {"doc.json": json.dumps({"system": "duffing",
                              "alpha": [0.9, 0.9 / np.sqrt(2.0)]})}),
    (["dimension", "--input", "traj.npz"], {"traj.npz": TRAJECTORY}),
], ids=["columns-a", "columns-empty", "csv-no-header", "x0-text",
        "x0-short", "config-x0-scalar", "config-not-json", "config-h-text",
        "config-x0-text", "config-alpha-text", "config-param-text", "config-transient-text",
        "config-tangent-history-text", "t-end-inf", "config-t0-inf",
        "stability-t-nan", "config-sector-alpha", "mlf-overflow",
        "csv-no-rows", "span-inf", "steps-past-array-size",
        "steps-past-address-space", "config-not-utf8", "csv-not-utf8",
        "csv-not-utf8-past-8kb", "config-lyapunov-scheme-abm",
        "config-array", "config-params-array", "columns-past-dim",
        "transient-discards-every-row", "csv-short-rows",
        "config-duffing-incommensurable-orders", "npz-not-a-zip"])
def test_bad_input_is_a_config_error(argv, files, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_bytes(
            text if isinstance(text, bytes) else text.encode())
    assert run(argv + ["--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if any(isinstance(text, bytes) for text in files.values()):
        assert f"{next(iter(files))!r} is not UTF-8 text" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_unwritable_output_names_the_destination(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(["simulate", "--system", "lorenz", "--t-end", "0.1",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert ".tmp" not in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_scalar_x0_pads_an_observable_chain(tmp_path):
    out = tmp_path / "duffing.csv"
    assert run(["simulate", "--system", "duffing", "--x0", "0.3",
                "--t-end", "0.05", "--out", str(out)]) == 0
    x = read_trajectory_csv(str(out)).x
    assert x.shape[1] == 9
    assert x[0].tolist() == [0.3] + [0.0] * 8


@pytest.mark.parametrize("flags, first_row", [
    (["--x0", "-9,-5,14"], [0.0, -9.0, -5.0, 14.0]),
    (["--t0", "-1e-3"], [-1e-3, -9.0, -5.0, 14.0]),
])
def test_negative_flag_values_are_not_options(flags, first_row, tmp_path):
    # (-9, -5, 14) is Chen's own default state
    out = tmp_path / "chen.csv"
    assert run(["simulate", "--system", "chen", *flags, "--t-end", "0.05",
                "--out", str(out)]) == 0
    traj = read_trajectory_csv(str(out))
    assert [traj.t[0], *traj.x[0]] == first_row


def test_list_systems_prints_the_catalog(capsys):
    assert run(["list-systems"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lorenz  3  0.995  sigma=10.0 rho=28.0 beta=2.6666666666666665",
        "duffing  9  0.9,0.8  delta=0.2 gamma=1.0 cubic_coeff=5.0 "
        "forcing_amp=0.3 forcing_freq=1.2",
        "chen  3  0.9  a=35.0 b=3.0 c=28.0",
        "rossler  3  0.9  a=0.2 b=0.2 c=5.7",
        "chua  3  0.98  a=9.8 b=14.87 m0=-1.27 m1=-0.68",
    ]
    x0 = {name: cli.make_system(name).params["default_x0"]
          for name in ("lorenz", "duffing", "chen", "rossler", "chua")}
    assert x0 == {"lorenz": (1.0, 1.0, 1.0), "duffing": (0.1,) + (0.0,) * 8,
                  "chen": (-9.0, -5.0, 14.0), "rossler": (1.0, 1.0, 0.0),
                  "chua": (0.7, 0.0, 0.0)}


@pytest.mark.parametrize("alpha, z, route", [
    ("0.7", "0", "zero"), ("1", "-50", "exp"),
    ("0.7", "-20", "asymptotic"), ("0.7", "-3", "contour"),
    ("0.7", "-3-5.5j", "contour"), ("1.001", "-10", "mpmath"),
])
def test_mlf_reports_its_route_on_stderr_only(alpha, z, route, tmp_path,
                                              capsys):
    out = tmp_path / "mlf.json"
    assert run(["mlf", "--alpha", alpha, f"--z={z}", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"route: {route}\n"
    assert captured.out.startswith(f"E_[{float(alpha)},1.0]({z}) = ")
    assert "route" not in captured.out
    assert "route" not in out.read_text()


# -- config document keys ------------------------------------------------


@pytest.mark.parametrize("key", ["tangent_histroy", "history_reset_blocks",
                                 "memory_window", "corrector_iters"])
def test_unknown_config_key_is_a_config_error(key, tmp_path, monkeypatch,
                                              capsys):
    # a misspelt or retired key would otherwise be ignored without a word
    monkeypatch.chdir(tmp_path)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"system": "lorenz", "t_end": 5, key: "exact"}))
    assert run(["lyapunov", "--config", "doc.json", "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_config_document_is_shared_across_commands(tmp_path, monkeypatch):
    # keys that only another command reads are accepted
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps({
        "system": "lorenz", "t_end": 5, "renorm_every": 10,
        "tangent_history": "restart", "transient": 1.0}))
    assert run(["simulate", "--config", "doc.json", "--out", "a.csv"]) == 0
    assert run(["stability", "--config", "doc.json", "--out", "s.json"]) == 0


@pytest.mark.parametrize("command, key, value", [
    ("lyapunov", "renorm_every", 10.5),
    ("lyapunov", "renorm_every", True),
    ("lyapunov", "renorm_every", float("inf")),
])
def test_config_integer_is_not_truncated(command, key, value, tmp_path,
                                         monkeypatch, capsys):
    # int() would run 10 and 1 without a word, and overflow on Infinity
    monkeypatch.chdir(tmp_path)
    doc = {"system": "lorenz", "t_end": 0.5, key: value}
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert run([command, "--config", "doc.json", "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
    # an integral float is still an integer
    doc[key] = 2.0
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert run([command, "--config", "doc.json", "--out", "out"]) == 0


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "h", True),
    ("simulate", "t0", False),
    ("simulate", "t_end", True),
    ("lyapunov", "transient", False),
    ("simulate", "x0", [1.0, True, 1.0]),
    ("simulate", "alpha", True),
])
def test_config_bool_is_not_a_number(command, key, value, tmp_path,
                                     monkeypatch, capsys):
    # float() would run true as 1.0 and false as 0.0 without a word
    monkeypatch.chdir(tmp_path)
    doc = {"system": "lorenz", "t_end": 0.5, key: value}
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert run([command, "--config", "doc.json", "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


@pytest.mark.parametrize("alpha", ["0.8", "0.7"])
def test_duffing_alpha_at_or_below_order_beta_is_a_config_error(
        alpha, tmp_path, capsys):
    # the chain would lead with order_beta: a clash at 0.8, a divergence
    # at step 20 below it
    out = tmp_path / "duffing.csv"
    assert run(["simulate", "--system", "duffing", "--alpha", alpha,
                "--t-end", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert alpha in err and "order_beta (0.8)" in err
    for stale in ("Traceback", "duplicate leading order", "trust region"):
        assert stale not in err
    assert not out.exists()


SUBCOMMANDS = sorted(next(
    action for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("command", [[]] + [[c] for c in SUBCOMMANDS],
                         ids=["fracdyn"] + SUBCOMMANDS)
def test_help_renders_for_every_subcommand(command, capsys):
    # argparse formats help only when asked, so a stray '%' in a help
    # string fails only then; the subcommands' own help strings show in
    # the top-level help
    assert run(command + ["--help"]) == 0
    usage = " ".join(["usage: fracdyn"] + command) + " "
    assert capsys.readouterr().out.startswith(usage)


def test_reproduce_cases_use_only_known_config_keys():
    for case in _CASES.values():
        assert set(case) - {"claims"} <= _CONFIG_KEYS


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(fracdyn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "fracdyn", "list-systems"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout.split()[0] == "lorenz"
