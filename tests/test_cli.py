"""Tests for the command-line front end: exit codes and artifact contracts."""

import warnings

import pytest

from fracdyn.cli import main

ARTIFACTS = ("comparison.txt", "dimension.json", "lyapunov.json",
             "stability.json", "trajectory.csv")


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
])
def test_exit_codes(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
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


def test_reproduce_is_byte_identical_and_leaves_no_temp_files(tmp_path):
    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert run(["reproduce", "1", "--t-end", "5",
                    "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == list(ARTIFACTS)
        blobs.append([(out_dir / n).read_bytes() for n in ARTIFACTS])
    assert blobs[0] == blobs[1]
    assert not list(tmp_path.rglob("*.tmp"))


def test_stability_command_and_reproduce_share_one_report(tmp_path):
    assert run(["reproduce", "1", "--t-end", "5",
                "--out-dir", str(tmp_path / "case1")]) == 0
    out = tmp_path / "stability.json"
    assert run(["stability", "--system", "lorenz", "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "case1" / "stability.json"
                                ).read_bytes()
