"""CLI behaviour: CSV format, figure coverage, reproducibility, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ehrenfestcat
from ehrenfestcat import cli
from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import specfun as sf

#: the directory that holds the ``ehrenfestcat`` package, so that the
#: child interpreter imports the same code whatever its working directory
SRC_DIR = str(Path(ehrenfestcat.__file__).resolve().parent.parent)


def run_cli(argv, tmp_path=None, env_dir=None, check=True):
    cmd = [sys.executable, "-m", "ehrenfestcat.cli"] + argv
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    if env_dir is not None:
        env["EHRENFESTCAT_OUTDIR"] = str(env_dir)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def read_csv(path):
    meta = {}
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh]
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            if "=" in line:
                key, val = line[1:].split("=", 1)
                meta[key.strip()] = val.strip()
        else:
            body_start = i
            break
    header = lines[body_start].split(",")
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[body_start + 1 :]])
    return meta, header, rows


def test_qn_small_case(tmp_path):
    out = tmp_path / "qn.csv"
    cli.main(["qn", "--N", "1", "--lambda", "0.6", "--mu", "0.6", "--xi", "0.5",
              "--out", str(out)])
    meta, header, rows = read_csv(out)
    assert header == ["n", "q_n", "q_free_n"]
    q0 = rows[rows[:, 0] == 0.0, 1][0]
    assert q0 == pytest.approx(0.5862069, abs=1e-6)


def test_pjn_with_check_column(tmp_path):
    out = tmp_path / "p.csv"
    cli.main(["pjn", "--N", "5", "--lambda", "0.6", "--mu", "0.2", "--xi", "0.5",
              "--j", "2", "--t", "1.0", "--check", "--out", str(out)])
    _, header, rows = read_csv(out)
    assert header == ["n", "p_jn", "p_jn_quadrature"]
    assert np.abs(rows[:, 1] - rows[:, 2]).max() < 1e-8
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-9)


def test_figure_id_coverage():
    panels = {
        "2": 4, "3": 4, "4": 4, "5": 2, "6": 4, "7": 4, "8": 2, "9": 2, "10": 2,
    }
    for fig, count in panels.items():
        got = [f for f in cli.FIGURE_IDS if f.rstrip("abcd") == fig]
        assert len(got) == count, f"figure {fig}: {got}"


@pytest.mark.parametrize("fig_id", cli.FIGURE_IDS)
def test_figure_panels_generate(fig_id, tmp_path):
    out = tmp_path / f"fig{fig_id}.csv"
    cli.main(["figure", "--id", fig_id, "--out", str(out)])
    meta, header, rows = read_csv(out)
    assert meta["figure"] == fig_id
    assert rows.size > 0
    assert np.isfinite(rows).all()


def test_figure_2a_content(tmp_path):
    out = tmp_path / "f.csv"
    cli.main(["figure", "--id", "2a", "--out", str(out)])
    meta, header, rows = read_csv(out)
    assert meta["lambda"] == "0.6" and meta["xi"] == "0.5"
    assert header == ["n", "q_n", "q_free_n"]
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
    assert rows[:, 2].sum() == pytest.approx(1.0, abs=1e-9)


def test_figure_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["figure", "--id", "6a", "--out", str(a)])
    cli.main(["figure", "--id", "6a", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_figure_all_equals_the_single_panels(tmp_path, capsys):
    # one process writes every panel, in FIGURE_IDS order, with the bytes of 28 single calls
    cli.main(["figure", "--id", "all", "--out-dir", str(tmp_path / "all")])
    printed = capsys.readouterr().out.split()
    assert printed == [str(tmp_path / "all" / f"fig{fid}.csv") for fid in cli.FIGURE_IDS]
    assert len(cli.FIGURE_IDS) == 28 and len(list((tmp_path / "all").iterdir())) == 28
    for fid in cli.FIGURE_IDS:
        cli.main(["figure", "--id", fid, "--out-dir", str(tmp_path / "one")])
        name = f"fig{fid}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), fid


def test_figure_all_refuses_one_out_file(tmp_path):
    proc = run_cli(["figure", "--id", "all", "--out", "x.csv"], tmp_path, check=False)
    assert proc.returncode == 2 and "--out-dir" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_figure_columns_are_array_calls(monkeypatch):
    # per-point loops in the panels show as call counts, without timing: panel 6 is
    # two _dp_rule blocks (W_cat over x), 10a/10b four (a D_p ratio per lambda = mu
    # over the xi grid), and the transient panels one block check per law call and
    # no ProbVector: they read the (time, state) array that p_cat_closed_rows returns
    transient = ("3a", "3b", "3c", "3d", "8a", "8b")
    for fid in transient:
        cli._figure_columns(fid)                      # the stationary laws are cached
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kw):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(sf, "_dp_rule", counted("rule", sf._dp_rule))
    monkeypatch.setattr(eh, "_check_laws", counted("check", eh._check_laws))
    monkeypatch.setattr(eh, "p_cat_closed_rows", counted("rows", eh.p_cat_closed_rows))
    monkeypatch.setattr(eh, "ProbVector", counted("vector", eh.ProbVector))
    for fid, most in (("6a", 2), ("6d", 2), ("10a", 4), ("10b", 4)):
        counts.clear()
        cli._figure_columns(fid)
        assert counts.get("rule", 0) <= most, (fid, counts)
    for fid in transient:
        counts.clear()
        cli._figure_columns(fid)
        assert counts == {"rows": 1, "check": 1}, (fid, counts)


def test_simulate_byte_identical_with_seed(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--model", "chain", "--N", "5", "--lambda", "0.6", "--mu", "0.6",
            "--xi", "0.5", "--j", "2", "--t", "1.0", "--paths", "2000", "--seed", "99"]
    cli.main(args + ["--out", str(a)])
    cli.main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert "# stream = 3\n" in a.read_text()


def test_outdir_environment_variable(tmp_path):
    run_cli(["qn", "--N", "2", "--lambda", "0.5", "--mu", "0.5", "--xi", "0.25"],
            env_dir=tmp_path)
    assert (tmp_path / "qn.csv").exists()


@pytest.mark.parametrize("suite", ["specfun", "all"])
def test_validate_specfun_exit_zero(tmp_path, suite):
    proc = run_cli(["validate", "--suite", suite], tmp_path=tmp_path)
    assert "[pass]" in proc.stdout and "[FAIL]" not in proc.stdout


def test_parameter_error_exit_code(tmp_path):
    proc = run_cli(["qn", "--N", "0", "--lambda", "0.6", "--mu", "0.6"],
                   tmp_path=tmp_path, check=False)
    assert proc.returncode == 2
    assert "positive integer" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--xi", "nan"), ("--xi", "inf"), ("--lambda", "inf"),
                                         ("--mu", "nan")])
def test_non_finite_parameter_exit_code(tmp_path, flag, value):
    # --xi nan once wrote the catastrophe-free law as q_n and exited 0
    argv = ["qn", "--N", "10", "--lambda", "0.6", "--mu", "0.6", "--xi", "0.5"]
    argv[argv.index(flag) + 1] = value
    proc = run_cli(argv, tmp_path=tmp_path, check=False)
    assert proc.returncode == 2
    assert "must be" in proc.stderr and "finite" in proc.stderr
    assert not (tmp_path / "qn.csv").exists()


#: moments arguments; a case appends an option again, and argparse checks each copy and keeps the last
MOMENTS_ARGV = ["moments", "--N", "10", "--lambda", "0.6", "--mu", "0.6", "--xi", "0.5", "--j", "6",
                "--points", "3"]


@pytest.mark.parametrize("argv, option, message, csv", [
    (MOMENTS_ARGV + ["--t-max", "nan"], "--t-max", "must be finite, got nan", "moments.csv"),
    (MOMENTS_ARGV + ["--points", "0"], "--points", "must be a positive integer, got 0", "moments.csv"),
    (MOMENTS_ARGV + ["--lambda", "nan"], "--lambda", "must be finite, got nan", "moments.csv"),
    (["diffusion-density", "--alpha", "1.2", "--nu", "0.001", "--xi", "0.5", "--y", "nan", "--t", "1"],
     "--y", "must be finite, got nan", "diffusion_density.csv"),
], ids=["moments", "moments-points", "moments-lambda", "diffusion-density"])
def test_non_finite_argument_exit_code(tmp_path, argv, option, message, csv):
    # the nan cases once wrote rows of nan and exited 0; the error names the option typed
    proc = run_cli(argv, tmp_path=tmp_path, check=False)
    assert proc.returncode == 2
    assert f"error: argument {option}: {message}" in proc.stderr
    assert not (tmp_path / csv).exists()


def test_unknown_argument_exit_code(tmp_path):
    proc = run_cli(["qn", "--bogus", "1"], tmp_path=tmp_path, check=False)
    assert proc.returncode == 2


def test_seventeen_digit_round_trip(tmp_path):
    out = tmp_path / "q.csv"
    cli.main(["qn", "--N", "10", "--lambda", "0.6", "--mu", "0.2", "--xi", "0.5",
              "--out", str(out)])
    from ehrenfestcat import ehrenfest as eh

    _, _, rows = read_csv(out)
    p = eh.ChainParams(N=10, lam=0.6, mu=0.2, xi=0.5)
    exact = eh.q_cat_row(p).values
    assert np.array_equal(rows[:, 1], exact)  # %.17g is lossless for doubles


def test_write_csv_bytes_equal_per_value_format(tmp_path):
    # one row format over the tolist() values gives the bytes of
    # f"{x:.17g}" per value, at the values where float formats differ most
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308,
              1.0, -3.0, 1e16, 2.0**53 + 2.0, 1e17, 123456789.0, 0.1, 1.0 / 3.0,
              1.7976931348623157e308, -2.5e-310]
    cols = {"a": values, "b": values[::-1], "c": np.arange(len(values))}
    out = cli.write_csv(str(tmp_path / "v.csv"), {"k": 1}, cols)
    body = "\n".join(",".join(f"{float(x):.17g}" for x in row)
                     for row in zip(values, values[::-1], range(len(values))))
    want = f"# ehrenfestcat {ehrenfestcat.__version__}\n# k = 1\na,b,c\n{body}\n"
    assert Path(out).read_bytes() == want.encode()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
