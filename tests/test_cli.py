import csv
import hashlib
import json
import math
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cubelab import analysis, cli
from cubelab.cli import ANALYZE_COLUMNS, main, parse_eta_grid
from cubelab.errors import ParameterError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eta_grid_parsing():
    grid = parse_eta_grid("0.05:1.0:40:log")
    assert len(grid) == 40
    assert grid[0] == pytest.approx(0.05) and grid[-1] == pytest.approx(1.0)
    ratios = np.diff(np.log(grid))
    np.testing.assert_allclose(ratios, ratios[0])
    lin = parse_eta_grid("0.1:0.3:3")
    np.testing.assert_allclose(lin, [0.1, 0.2, 0.3])
    with pytest.raises(ParameterError):
        parse_eta_grid("0:1:5")
    with pytest.raises(ParameterError):
        parse_eta_grid("0.1:1")
    with pytest.raises(ParameterError):
        parse_eta_grid("0.1:1:5:cubic")
    for grid in ("0.1:inf:2", "nan:1:2", "0.1:nan:2"):
        with pytest.raises(ParameterError, match="positive and finite"):
            parse_eta_grid(grid)
    for grid in ("a:1:3", "0.1:1:x", "0.1:1:2.5"):
        with pytest.raises(ParameterError, match=f"bad eta grid '{grid}': "):
            parse_eta_grid(grid)
    for grid in ("1:0.1:3", "0.1:1:0"):
        with pytest.raises(ParameterError, match="need 0 < min <= max, count >= 1"):
            parse_eta_grid(grid)


def test_analyze_csv_deterministic(capsys):
    args = ["analyze", "--model", "bits", "--beta", "0.5", "--dim", "4",
            "--sampler", "dups", "--score", "stein", "--eta", "0.4"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    header, row = out1.strip().split("\n")
    assert header == ",".join(ANALYZE_COLUMNS)
    values = dict(zip(header.split(","), row.split(",")))
    assert values["sampler"] == "dups"
    assert float(values["w_to_target"]) <= 1e-11
    assert float(values["kappa"]) < 1.0


def test_analyze_json_structure(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "analyze", "--model", "ising", "--rows", "2",
                         "--cols", "2", "--J", "0.4", "--h", "0.1",
                         "--sampler", "gibbs", "--eta", "0.5",
                         "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"manifest", "results", "stationary", "target", "versions"}
    assert len(doc["stationary"]) == 16
    assert doc["results"]["score"] == ""
    assert doc["manifest"]["model"] == "ising"
    assert "cubelab" in doc["versions"]


def test_analyze_json_solves_stationary_once(tmp_path, capsys, monkeypatch):
    from cubelab import analysis

    calls = []
    solve = analysis.stationary

    def counted(kernel, *args, **kwargs):
        calls.append(kernel)
        return solve(kernel, *args, **kwargs)

    monkeypatch.setattr(analysis, "stationary", counted)
    code, _, _ = run_cli(capsys, "analyze", "--model", "bits", "--beta", "0.5",
                         "--dim", "3", "--sampler", "dmaps", "--score", "glauber",
                         "--eta", "0.5", "--format", "json",
                         "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert len(calls) == 1


def test_sweep_rows_and_gibbs_score_column(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--model", "bits", "--beta", "0.3",
                         "--dim", "3", "--sampler", "gibbs,dups",
                         "--score", "stein", "--eta-grid", "0.3:0.7:3",
                         "--out", str(out))
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    etas = [float(r["eta"]) for r in rows]
    assert etas == sorted(etas)
    for row in rows:
        if row["sampler"] == "gibbs":
            assert row["score"] == ""
        else:
            assert row["score"] == "stein"


def test_sweep_skip_kappa(tmp_path, capsys):
    out = tmp_path / "fast.csv"
    code, _, _ = run_cli(capsys, "sweep", "--model", "bits", "--beta", "0.3",
                         "--dim", "3", "--sampler", "dups", "--score", "stein",
                         "--eta", "0.5", "--skip-kappa", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["kappa"] == ""
    assert float(rows[0]["lambda2"]) < 1.0


def test_sweep_parallel_identical(tmp_path, capsys):
    base = ["sweep", "--model", "mixture", "--beta", "0.4", "--dim", "3",
            "--sampler", "dula", "--score", "gibbs", "--eta-grid", "0.3:0.6:4"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, *base, "--out", str(a), "--jobs", "1")[0] == 0
    assert run_cli(capsys, *base, "--out", str(b), "--jobs", "2")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_passes_on_flat_bits(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "bits", "--beta", "0.1",
                           "--dim", "6", "--eta", "0.8")
    assert code == 0
    assert "[FAIL]" not in out
    assert "[PASS] gibbs_contraction" in out


def test_check_skips_with_reasons(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "ising", "--rows", "2",
                           "--cols", "2", "--J", "2.0", "--eta", "0.5",
                           "--score", "glauber")
    assert code == 0  # nothing applicable fails; everything is skipped
    assert "[SKIP]" in out and "precondition unmet" in out
    code, out, _ = run_cli(capsys, "check", "--model", "bits", "--beta", "0.1",
                           "--dim", "4", "--eta", "0.8", "--score", "glauber")
    assert "requires the gibbs score" in out


def test_check_reports_known_violation(capsys):
    # the small-step two-stage rate genuinely fails for constant scores at
    # small eta; the checker must say FAIL and exit 1
    code, out, _ = run_cli(capsys, "check", "--model", "bits", "--beta", "0.5",
                           "--dim", "4", "--eta", "0.4", "--score", "glauber")
    assert code == 1
    assert "[FAIL] dups_contraction_small_step" in out


def test_check_over_eta_grid(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "bits", "--beta", "0.1",
                           "--dim", "4", "--eta-grid", "0.7:0.9:2",
                           "--score", "glauber")
    assert code == 0
    assert out.count("eta=0.7") > 0 and out.count("eta=0.9") > 0


def test_analyze_rejects_eta_grid(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "bits", "--beta", "0.5",
                           "--dim", "3", "--sampler", "gibbs",
                           "--eta-grid", "0.4:0.6:3")
    assert code == 2
    assert "single --eta" in err


def test_parameter_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "bits", "--beta", "0.5",
                           "--dim", "4", "--sampler", "gibbs", "--eta", "-1.0")
    assert code == 2
    assert "parameter error" in err
    code, _, err = run_cli(capsys, "analyze", "--model", "bits",
                           "--sampler", "gibbs", "--eta", "0.5")
    assert code == 2  # missing --beta/--dim


@pytest.mark.parametrize("argv", [
    ["analyze", "--sampler", "gibbs", "--eta", "0.3"],
    ["analyze", "--sampler", "dula", "--score", "stein", "--eta", "0.3"],
    ["bounds", "--eta", "0.3"],
    ["check", "--eta", "0.3"],
], ids=lambda argv: "-".join(argv[:3]))
def test_log_weights_that_overflow_are_a_parameter_error(capsys, argv):
    # every parameter is finite, but beta (sum x - b)^2 is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, "--model", "curieweiss", "--beta", "1e308",
                                 "--b", "0", "--dim", "3")
    assert code == 2 and out == "" and caught == []
    assert err.count("\n") == 1
    assert err.startswith("parameter error: CurieWeiss(beta=1e+308, b=0.0, dim=3) has a "
                          "non-finite ")


def test_capability_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "ising", "--rows", "4",
                           "--cols", "4", "--J", "0.1", "--sampler", "gibbs",
                           "--eta", "0.9")
    assert code == 3
    assert "capability error" in err


def test_simulate_csv(tmp_path, capsys):
    out, dump = tmp_path / "chains.csv", tmp_path / "dump.csv"
    args = ["simulate", "--model", "curieweiss", "--beta", "0.2", "--b", "0",
            "--dim", "4", "--sampler", "dmaps", "--score", "glauber",
            "--eta", "0.5", "--steps", "2000", "--burn-in", "100",
            "--thin", "4", "--chains", "3", "--seed", "5", "--out", str(out),
            "--dump", str(dump)]
    assert run_cli(capsys, *args)[0] == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) >= {"chain", "retained", "mean_magnetization",
                            "acceptance_fraction", "marginal_0", "hist_0"}
    first, first_dump = out.read_bytes(), dump.read_bytes()
    assert run_cli(capsys, *args)[0] == 0
    assert out.read_bytes() == first
    assert dump.read_bytes() == first_dump


@pytest.mark.parametrize("argv", [
    ["analyze", "--sampler", "dmala", "--eta", "0.5"],
    ["sweep", "--sampler", "dula", "--score", "glauber", "--eta-grid", "0.4:0.6:2"],
    ["check", "--eta", "0.8", "--score", "glauber"],
    ["bounds", "--eta", "0.5", "--score", "glauber"],
    ["simulate", "--sampler", "dula", "--eta", "0.5", "--steps", "20", "--chains", "2",
     "--dump", "DUMP"],
    ["ctmc", "--horizon", "5"],
], ids=["analyze", "sweep", "check", "bounds", "simulate", "ctmc"])
def test_every_csv_file_ends_its_lines_with_a_newline(tmp_path, capsys, argv):
    """Every CSV a subcommand writes, through `--out` or `--dump`, ends each
    line with a bare newline and holds no carriage return."""
    out, dump = tmp_path / "out.csv", tmp_path / "dump.csv"
    argv = [str(dump) if a == "DUMP" else a for a in argv]
    assert run_cli(capsys, *argv, "--model", "bits", "--beta", "0.1", "--dim", "3",
                   "--out", str(out))[0] == 0
    for path in (out, dump) if "--dump" in argv else (out,):
        text = path.read_bytes()
        assert text.endswith(b"\n") and text.count(b"\n") >= 2
        assert b"\r" not in text, path.name


def test_ctmc_csv(tmp_path, capsys):
    from cubelab.cli import _fmt
    from cubelab.ctmc import ctmc_simulate, glauber_rates
    from cubelab.models import IndependentBits
    from cubelab.statespace import BitState

    out = tmp_path / "traj.csv"
    args = ["ctmc", "--model", "bits", "--beta", "0.3", "--dim", "3",
            "--horizon", "25", "--seed", "11", "--out", str(out)]
    assert run_cli(capsys, *args)[0] == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["time"] == "0"
    times = [float(r["time"]) for r in rows]
    assert times == sorted(times) and times[-1] <= 25.0
    for r in rows:
        assert 0 <= int(r["state"], 16) < 8
    # the file equals the one written from each state's own signs
    rng = np.random.default_rng(11)
    x0 = BitState(int(rng.integers(0, 8)), 3)
    traj = ctmc_simulate(glauber_rates(IndependentBits(0.3, 3)), x0, 25.0, rng)
    lines = ["time,state,magnetization"]
    for j, t in enumerate([0.0, *traj.times]):
        state = traj.state_at(j)
        lines.append(f"{_fmt(float(t))},{state.bits:x},"
                     f"{_fmt(float(state.signs().sum()) / 3)}")
    assert any(float(r["magnetization"]) < 0 for r in rows)
    assert out.read_text() == "\n".join(lines) + "\n"


def test_ctmc_streamed_rows_keep_the_text(tmp_path, capsys, monkeypatch):
    """The CSV and JSON of a seeded run, over three blocks of streamed rows,
    against digests of the text written when every row was built first."""
    import hashlib

    from cubelab import cli

    args = ["ctmc", "--model", "ising", "--rows", "2", "--cols", "3", "--J", "0.4",
            "--h", "0.1", "--horizon", "5000", "--seed", "5"]
    code, csv_text, _ = run_cli(capsys, *args)
    assert code == 0 and len(csv_text.splitlines()) == 9975 > 2 * cli._ROW_BLOCK
    assert (hashlib.sha256(csv_text.encode()).hexdigest()
            == "8bc97de77efeb4fb7d48fd0cfb9670befd522e9c77e156131d051d9d0b6902c7")
    out = tmp_path / "traj.csv"
    assert run_cli(capsys, *args, "--out", str(out))[0] == 0
    assert out.read_text() == csv_text
    code, json_text, _ = run_cli(capsys, *args, "--format", "json")
    # everything before the package versions, which vary by install
    head = json_text.split('"versions"')[0]
    assert code == 0 and json.loads(json_text)["versions"]
    assert (hashlib.sha256(head.encode()).hexdigest()
            == "5ada1985dec9d4c9862b5323331e687150e02db7231ce722a336ac73e3844bee")
    # the CSV rows reach `_emit` as a lazy iterable, not as a list
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda a, rows, *r: seen.append(rows) or emit(a, rows, *r))
    assert run_cli(capsys, *args)[1] == csv_text
    assert not isinstance(seen[0], list)


def test_ctmc_same_seed_writes_identical_files(tmp_path, capsys):
    args = ["ctmc", "--model", "bits", "--beta", "0.3", "--dim", "10", "--horizon", "3000",
            "--seed", "7"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    # several blocks of drawn randomness
    assert len(first.read_text().splitlines()) > 3 * 4096
    assert first.read_bytes() == second.read_bytes()


def test_ctmc_csv_lines_are_the_rows_formatted_per_cell(capsys):
    """The CSV of a seeded run over several blocks of rows, written from the
    trajectory's arrays, is byte for byte the rows that the JSON output
    holds, each cell formatted by `_fmt`."""
    from cubelab.ctmc import ctmc_simulate, glauber_rates
    from cubelab.models import CurieWeiss
    from cubelab.statespace import BitState

    code, text, _ = run_cli(capsys, "ctmc", "--model", "curieweiss", "--beta", "0.02",
                            "--dim", "10", "--horizon", "3000", "--seed", "9")
    rng = np.random.default_rng(9)
    x0 = BitState(int(rng.integers(0, 1 << 10)), 10)
    traj = ctmc_simulate(glauber_rates(CurieWeiss(0.02, 0.0, 10)), x0, 3000.0, rng)
    lines = [",".join(cli._fmt(row[c]) for c in ("time", "state", "magnetization"))
             for row in cli._trajectory_rows(traj)]
    assert code == 0 and len(lines) > 2 * cli._ROW_BLOCK
    assert text == "time,state,magnetization\n" + "\n".join(lines) + "\n"


def test_the_parser_is_built_once_and_commands_are_looked_up_per_call(capsys, monkeypatch):
    argv = ["check", "--model", "bits", "--beta", "0.3", "--dim", "3", "--eta", "0.4",
            "--score", "glauber"]
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1) and out.startswith("[")
    monkeypatch.setattr(cli, "make_parser", lambda: pytest.fail("parser rebuilt"))
    ran = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: ran.append(args.score) or 7)
    assert run_cli(capsys, *argv) == (7, "", "")
    assert ran == ["glauber"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "bits", "--beta", "0.3", "--dim", "3", "--sampler", "dula",
     "--eta", "0.5", "--steps", "10", "--seed", "-1"],
    ["ctmc", "--model", "bits", "--beta", "0.3", "--dim", "3", "--horizon", "1",
     "--seed", "-1"],
], ids=["simulate", "ctmc"])
def test_negative_seed_is_a_parameter_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "parameter error: seed must be >= 0, got -1\n"


def test_ctmc_above_the_packed_word_cap_is_a_capability_error(tmp_path, capsys):
    """Trajectory states are int64 words: d = 64 exits 3 before anything is
    drawn, while d = 63 still runs."""
    base = ["ctmc", "--model", "curieweiss", "--beta", "0.005", "--horizon", "0.05"]
    code, out, err = run_cli(capsys, *base, "--dim", "64")
    assert code == 3 and out == ""
    assert "capability error" in err and "d <= 63" in err
    path = tmp_path / "traj.csv"
    assert run_cli(capsys, *base, "--dim", "63", "--out", str(path))[0] == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(0 <= int(r["state"], 16) < 1 << 63 for r in rows)


def test_bounds_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--model", "mixture", "--beta", "0.4",
                           "--dim", "4", "--score", "glauber", "--eta", "0.5")
    assert code == 0
    header, row = out.strip().split("\n")
    cols = header.split(",")
    assert "beta2" in cols and "flag_8d_beta2_le_1" in cols and "dmaps_rate" in cols


@pytest.mark.parametrize("argv", [
    ["bounds", "--score", ""],
    ["bounds", "--score", ","],
    ["check", "--score", ""],
    ["sweep", "--sampler", ""],
    ["sweep", "--score", " , "],
])
def test_empty_name_lists_are_parameter_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--model", "bits", "--beta", "0.3",
                             "--dim", "3", "--eta", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: empty")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--sampler", "dula,warp", "--eta", "0.5"],
     "unknown sampler 'warp', expected one of "),
    (["sweep", "--score", "stein,hamming", "--eta", "0.5"],
     "unknown score 'hamming', expected one of "),
    (["simulate", "--sampler", "dula", "--eta-grid", "0.4:0.6:2", "--steps", "10"],
     "simulate takes a single --eta"),
    (["bounds"], "provide --eta or --eta-grid"),
], ids=["sampler", "score", "simulate-grid", "no-eta"])
def test_malformed_arguments_are_parameter_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--model", "bits", "--beta", "0.3", "--dim", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"parameter error: {message}") and err.count("\n") == 1


def test_sweep_across_the_gibbs_limit_is_a_parameter_error(tmp_path, capsys):
    """The default `--sampler all` includes gibbs, which is undefined where
    exp(-2/eta) > 1/d; the sweep fails rather than drop or blank those rows,
    and writes no output."""
    path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--model", "bits", "--beta", "0.3", "--dim", "4",
                             "--eta-grid", "0.3:2:3", "--skip-kappa", "--out", str(path))
    assert code == 2 and out == ""
    assert err == ("parameter error: gibbs requires exp(-2/eta) <= 1/d: "
                   "exp(-2/2.0) = 0.367879 > 1/4\n")
    assert not path.exists()
    # naming the other samplers runs the same grid
    assert run_cli(capsys, "sweep", "--model", "bits", "--beta", "0.3", "--dim", "4",
                   "--eta-grid", "0.3:2:3", "--skip-kappa",
                   "--sampler", "dula,dmala,dups,dmaps,prox")[0] == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_parameter_error(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--model", "bits", "--beta", "0.3",
                             "--dim", "3", "--eta", "0.5", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"parameter error: jobs must be >= 1, got {jobs}\n"


def test_sweep_forks_no_more_workers_than_rows(tmp_path, capsys, monkeypatch):
    from cubelab import cli

    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    base = ["sweep", "--model", "bits", "--beta", "0.3", "--dim", "3", "--eta", "0.5",
            "--skip-kappa", "--sampler", "gibbs,dula", "--score", "stein,gibbs"]
    code, _, _ = run_cli(capsys, *base, "--jobs", "64", "--out", str(tmp_path / "a.csv"))
    assert code == 0 and created == [3]
    code, _, _ = run_cli(capsys, *base, "--jobs", "2", "--out", str(tmp_path / "b.csv"))
    assert code == 0 and created == [3, 2]
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


@pytest.mark.parametrize("sampler,score", [("dmala", "stein"), ("prox", "glauber")])
def test_analyze_row_keys_are_the_columns(sampler, score):
    from cubelab.cli import analyze_row
    from cubelab.models import CurieWeiss

    row, _ = analyze_row(CurieWeiss(0.2, 0.1, 3), sampler, score, 0.5, with_kappa=False)
    assert list(row) == ANALYZE_COLUMNS


def test_bounds_header_is_fixed(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--model", "bits", "--beta", "0.3",
                           "--dim", "3", "--eta", "0.5", "--score", "gibbs,stein")
    assert code == 0
    header, *rows = out.strip().split("\n")
    assert header.split(",") == [
        "eta", "score", "dim", "beta1", "beta2", "min_alignment",
        "flag_d_beta2_le_1", "flag_4d_beta2_le_1", "flag_8d_beta2_le_1",
        "flag_2d_beta2_le_exp_neg_beta1", "flag_4d_beta2_exp4beta1_le_1",
        "flag_step_le_inv_d", "flag_alignment_ge_neg_half_inv_eta",
        "flag_shifted_step_le_inv_d", "rate_gibbs", "rate_dula", "rate_dula_small_step",
        "rate_dups", "rate_dups_small_step", "err_dula_small_step", "err_dups_small_step",
        "err_dula_static", "err_dups_static", "dmaps_lipschitz", "dmaps_rejection",
        "dmaps_rate"]
    assert [r.split(",")[1] for r in rows] == ["gibbs", "stein"]


def test_check_rows_match_the_bounds_csv(tmp_path, capsys):
    """Each `check` row's bound is the value of its claim's column in the
    `bounds` CSV, and a precondition skip names exactly the claim's flags
    that read False there."""
    from cubelab.analysis import _CLAIMS

    claims = {c.certificate[0]: c for c in _CLAIMS if c.certificate}
    grid = ["--score", "all", "--eta-grid", "0.3:0.8:2"]
    reasons = []
    for model in (["bits", "--beta", "0.3", "--dim", "4"],
                  ["mixture", "--beta", "0.4", "--dim", "4"],
                  ["curieweiss", "--beta", "0.2", "--b", "0.1", "--dim", "4"],
                  ["ising", "--rows", "2", "--cols", "2", "--J", "0.3", "--h", "0.1"]):
        argv = ["--model", *model, *grid, "--out"]
        assert run_cli(capsys, "check", *argv, str(tmp_path / "c.csv"))[0] in (0, 1)
        assert run_cli(capsys, "bounds", *argv, str(tmp_path / "b.csv"))[0] == 0
        with open(tmp_path / "b.csv") as fh:
            bounds = {(r["eta"], r["score"]): r for r in csv.DictReader(fh)}
        with open(tmp_path / "c.csv") as fh:
            checks = list(csv.DictReader(fh))
        assert len(checks) == len(claims) * len(bounds) == len(claims) * 6
        for row in checks:
            claim = claims[row["certificate"]]
            report = bounds[(row["eta"], row["score"])]
            assert row["bound"] == report[claim.column]
            unmet = [f for f in claim.conditions if report[f"flag_{f}"] == "False"]
            if row["reason"].startswith("precondition unmet: "):
                assert row["reason"] == "precondition unmet: " + ", ".join(unmet)
            elif not row["reason"].startswith("requires the "):
                assert unmet == []
            reasons.append(row["reason"].split(":")[0])
    # the grid reaches checked rows and every kind of skip but the cap
    assert {"", "precondition unmet"} <= set(reasons)
    assert any(r.startswith("requires the ") for r in reasons)


@pytest.fixture
def tabulated(monkeypatch):
    """The kinds of the score tables built from here on, one per build."""
    from cubelab import scores

    kinds = []
    tabulate = scores.tabulate_scores

    def counted(model, kind):
        kinds.append(kind)
        return tabulate(model, kind)

    monkeypatch.setattr(scores, "tabulate_scores", counted)
    return kinds


@pytest.mark.parametrize("call", ["analyze_row", "run_certificates", "analyze_row_gibbs",
                                  "run_certificates_glauber"])
def test_scored_rows_tabulate_each_score_once(call, tabulated):
    """The kernels and the bound report of one row share one table; a gibbs
    kernel shares the glauber table of the bound report."""
    from cubelab import analysis, cli
    from cubelab.models import BitsMixture, CurieWeiss, IndependentBits

    model = CurieWeiss(0.2, 0.1, 4)
    if call == "analyze_row":
        cli.analyze_row(model, "dmaps", "stein", 0.4)
    elif call == "run_certificates":
        analysis.run_certificates(model, "stein", 0.4)
    elif call == "analyze_row_gibbs":
        cli.analyze_row(BitsMixture(0.5, 4), "gibbs", None, 0.3)
    else:
        results = analysis.run_certificates(IndependentBits(0.5, 4), "glauber", 0.4)
        assert results[0].certificate == "gibbs_contraction" and results[0].status == "pass"
    assert tabulated == ["glauber" if call.endswith(("gibbs", "glauber")) else "stein"]


def test_diagnose_sweep_tabulates_each_score_once(capsys, tabulated):
    """Twenty sweep rows over two step sizes read two score tables: every
    row of a kind shares the memoized table of the same model."""
    code, out, _ = run_cli(capsys, "sweep", "--model", "mixture", "--beta", "0.5", "--dim", "8",
                           "--eta-grid", "0.3:0.6:2", "--sampler", "all",
                           "--score", "stein,glauber", "--skip-kappa")
    assert code == 0 and len(out.strip().split("\n")) == 21
    assert sorted(tabulated) == ["glauber", "stein"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "bits", "--beta", "nan", "--dim", "3", "--sampler", "dups",
     "--eta", "0.4"],
    ["check", "--model", "curieweiss", "--beta", "0.1", "--b", "inf", "--dim", "3",
     "--eta", "0.4"],
    ["simulate", "--model", "ising", "--rows", "2", "--cols", "2", "--J", "nan",
     "--sampler", "dula", "--eta", "0.4", "--steps", "10"],
    ["bounds", "--model", "mixture", "--beta", "inf", "--dim", "3", "--eta", "0.4"],
    ["ctmc", "--model", "bits", "--beta", "nan", "--dim", "3", "--horizon", "1"],
])
def test_non_finite_model_parameters_are_parameter_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "parameter error" in err and "must be finite" in err


@pytest.mark.parametrize("argv", [
    # a flip probability saturates to 1 at every state
    ["--model", "curieweiss", "--beta", "8", "--b", "0", "--dim", "5", "--sampler", "dmala",
     "--score", "glauber", "--eta", "0.8"],
    # each row moves with probability 1e-87 to 1e-85; err_dups_small_step is 4.0e-42
    *[["--model", "curieweiss", "--beta", "0.2", "--b", "0", "--dim", "6", "--sampler", s,
       "--eta", "0.01"]
      for s in ("dups", "dmala", "dmaps", "prox")],
])
def test_analyze_in_the_small_step_and_saturated_regimes(capsys, argv):
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 0 and err == ""
    header, row = out.strip().split("\n")
    values = dict(zip(header.split(","), row.split(",")))
    for column in ("w_to_target", "tv_to_target", "lambda2", "db_residual", "kappa",
                   "stationary_residual"):
        assert math.isfinite(float(values[column])), column
    # every sampler here is reversible for the target
    assert float(values["tv_to_target"]) <= 1e-15


@pytest.mark.parametrize("argv, message", [
    # exp(-2/eta) = e^-1000 underflows, so the kernel is the identity
    *[(["analyze", "--model", "bits", "--beta", "0.5", "--dim", "3", "--sampler", s,
        "--eta", "0.002"], f"{s} kernel at eta=0.002 is reducible in double precision")
      for s in ("dups", "dmala", "dmaps", "prox")],
    (["check", "--model", "bits", "--beta", "0.5", "--dim", "3", "--eta", "0.002",
      "--score", "glauber"], "kernel at eta=0.002 is reducible in double precision"),
    # the stationary law is 0.0 at 14 of 16 states
    (["analyze", "--model", "curieweiss", "--beta", "60", "--b", "0.5", "--dim", "4",
      "--sampler", "prox", "--eta", "0.02"], "stationary law underflows to 0"),
])
def test_numerical_errors_exit_1_with_one_stderr_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical error: ") and message in err


def test_a_failed_transport_lp_exits_1_with_one_stderr_line(capsys, monkeypatch):
    def failing_linprog(*args, **kwargs):
        return SimpleNamespace(success=False, message="no optimum (patched)")

    monkeypatch.setattr(analysis, "linprog", failing_linprog)
    code, out, err = run_cli(capsys, "analyze", "--model", "ising", "--rows", "2", "--cols",
                             "3", "--J", "0.4", "--sampler", "gibbs", "--eta", "0.5")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical error: transport dual LP failed")


@pytest.mark.parametrize("argv", [
    ["analyze", "--sampler", "dups", "--score", "glauber", "--eta", "0.6"],
    ["check", "--score", "glauber", "--eta", "0.6"],
], ids=["analyze", "check"])
def test_a_false_declared_symmetry_exits_1_before_any_solve(capsys, monkeypatch, argv):
    """A target that declares the global flip at b != 0, which its kernels
    break, is refused when its first kernel is built, before any transport
    solve."""
    from cubelab.models import CurieWeiss

    declared = CurieWeiss.symmetries
    monkeypatch.setattr(CurieWeiss, "symmetries",
                        lambda self: declared(self) + (((0, 1, 2, 3), 0b1111),))
    monkeypatch.setattr(analysis, "_transport_values", None)
    code, out, err = run_cli(capsys, argv[0], "--model", "curieweiss", "--beta", "0.01",
                             "--b", "0.05", "--dim", "4", *argv[1:])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical error: kernel breaks the declared symmetry (sigma=(0, 1, "
                          "2, 3), flip_mask=0xf) on its transition probabilities by ")


def test_a_level_chain_on_an_overflowing_target_exits_2(capsys):
    """At d = 13 the chain steps against level tables, which refuse an
    overflowing log weight as the d = 12 tables do."""
    for dim in ("12", "13"):
        code, out, err = run_cli(capsys, "simulate", "--model", "curieweiss", "--beta", "1e307",
                                 "--b", "0", "--dim", dim, "--sampler", "dmala", "--eta", "0.5",
                                 "--steps", "20")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"parameter error: CurieWeiss(beta=1e+307, b=0.0, dim={dim}) "
                                    "has a non-finite log weight at state 0x0: inf"]


@pytest.mark.parametrize("sampler", ["gibbs", "dula", "dmala", "dups", "dmaps"])
def test_a_lockstep_chain_on_an_overflowing_target_exits_2(capsys, sampler):
    """A 4x4 grid steps on +-1 vectors, which check the closed forms at the
    chains' starting states as the 3x3 grid's tables check every state."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", "--model", "ising", "--rows", "4",
                                 "--cols", "4", "--J", "1e308", "--sampler", sampler,
                                 "--eta", "0.5", "--steps", "5")
    assert code == 2 and out == "" and caught == []
    assert err.splitlines() == ["parameter error: IsingGrid(rows=4, cols=4, J=1e+308, h=0.0, "
                                "periodic=False) has a non-finite log weight at state 0x9d33: inf"]


@pytest.mark.parametrize("sampler", ["gibbs", "dula", "dmala", "dups", "dmaps"])
def test_a_lockstep_chain_that_overflows_on_a_later_proposal_exits_2(capsys, sampler):
    """At J = 1e307 the 4x4 grid's chains start finite. dmala's base and
    dmaps's log weight overflow on later proposals: the run exits 2 with
    one stderr line naming the step, and no warning. The closed forms that
    gibbs, dula and dups read stay finite there, and they run through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", "--model", "ising", "--rows", "4",
                                 "--cols", "4", "--J", "1e307", "--sampler", sampler,
                                 "--eta", "0.5", "--steps", "200")
    assert caught == []
    stops = {"dmala": 66, "dmaps": 10}
    if sampler not in stops:
        assert code == 0 and err == "" and out.startswith("chain,")
        return
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("parameter error: IsingGrid(rows=4, cols=4, J=1e+307, h=0.0, "
                          f"periodic=False) has a non-finite {sampler} step at step "
                          f"{stops[sampler]}: overflow encountered in ")


@pytest.mark.parametrize("model, sampler, stop", [
    (["--rows", "3", "--cols", "3", "--J", "1e307", "--seed", "7"], "dmaps",
     "IsingGrid(rows=3, cols=3, J=1e+307, h=0.0, periodic=False) has a non-finite dmaps "
     "step at step 45 of chain 0: log acceptance ratio -inf"),
    (["--rows", "3", "--cols", "3", "--J", "1e307", "--seed", "0"], "dmaps", None),
    (["--beta", "8e306", "--dim", "20"], "dmala",
     "BitsMixture(beta=8e+306, dim=20) has a non-finite dmala step at step 0 of chain 0: "
     "log acceptance ratio inf")], ids=["table", "table-finite", "level"])
def test_a_word_chain_whose_metropolis_terms_overflow_exits_2(capsys, model, sampler, stop):
    """The tables of a 3x3 grid at J = 1e307 (table path) and the level
    rows of a 20-bit mixture at beta 8e306 (level path) are finite, but the
    Python float sums of a step's Metropolis terms can overflow: the run
    then exits 2 with one stderr line naming the step, as the +-1 lockstep
    path does, where a -inf would have been rejected and a +inf accepted
    without a word. At seed 0 none of the grid's 200 log ratios overflows,
    and the run goes through."""
    family = "ising" if "--rows" in model else "mixture"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", "--model", family, *model,
                                 "--sampler", sampler, "--eta", "0.5", "--steps", "200")
    assert caught == []
    if stop is None:
        assert code == 0 and err == "" and out.startswith("chain,")
        return
    assert code == 2 and out == ""
    assert err.splitlines() == [f"parameter error: {stop}"]


_DIGEST_MODELS = {
    "table-d6": ["--model", "curieweiss", "--beta", "0.1", "--b", "0.3", "--dim", "6"],
    "table-d10": ["--model", "mixture", "--beta", "0.3", "--dim", "10"],
    "level-d24": ["--model", "mixture", "--beta", "0.2", "--dim", "24"],
    "lockstep-4x4": ["--model", "ising", "--rows", "4", "--cols", "4", "--J", "0.3",
                     "--h", "0.1"],
}
# SHA-256 of seeded `simulate` outputs, per "path/sampler/score[/dump]": the
# CSV on stdout, or with /dump the --dump file. They pin every float a step
# compares and the RNG stream layout; a change that alters the stream
# layout on purpose updates them.
_SIMULATE_DIGESTS = {
    "table-d6/gibbs/none":
        "40590545c3b53fd7df3791f5361820da13048e0471c4b36b7835c00970b7260c",
    "table-d6/dula/glauber":
        "b37abe43522c04cf80d92319e9806b92c793055a7a0652f2bc02b3b7d40ed2e9",
    "table-d6/dmala/stein":
        "ab42b4929886e609809d66a9a08b6e49b93abd903f24f21bed6c74b0d17e9f11",
    "table-d6/dups/gibbs":
        "fab5dcf84241fe9d45b84dbb1a81899d1b4d8b565e077e537e43b48cab197bd0",
    "table-d6/dmaps/glauber":
        "95796b406f9ba2b2f5dd73456d916ce0f53ae1e33360997ebeb867e01939d55a",
    "table-d10/gibbs/none":
        "293a9bb0fd8636e9da0147aac2436e59309cc509abd8d5647bd4ccab6f776011",
    "table-d10/dula/stein":
        "7202b2312ae64471b296734f380fb79b2a0f0e23101ec8d32e0fd73e20279066",
    "table-d10/dmala/gibbs":
        "5d400fb80624eec40d54c1ffc9fcd90033406d450e9d1efdc35cb778303487b9",
    "table-d10/dups/glauber":
        "f36b1d0d9b9d113ad6126a4857208bc06c7155af68da65110ac1914ca5a22f1b",
    "table-d10/dmaps/stein":
        "8508433747d97b3004bc3c1933a2675eb1885ccd97e27a062749f5cc1595ac99",
    "level-d24/dmala/glauber":
        "a13090f634e1230fc3ce90bd65d8aa2b692cface40fc34346376154a3a8c90f6",
    "level-d24/dmaps/stein":
        "792eb698204612df4af9cf8db1fbff55bb1ae69736095c191dca99f5fec25954",
    "lockstep-4x4/dmaps/gibbs":
        "a22c6368915bd009e9418eccb9a2a65c13bde97886d006f36dbd6426bc143e60",
    "level-d24/dmaps/glauber/dump":
        "2dfe99aae8146bf6422526f965a2d15d0f5fe19e0838b2762367d2f6e88cce03",
}


@pytest.mark.parametrize("case", sorted(_SIMULATE_DIGESTS))
def test_seeded_simulate_outputs_keep_their_bytes(capsys, tmp_path, case):
    """Each sampler on the table path at d = 6 and d = 10, dmala and dmaps
    on the level path at d = 24 and dmaps on +-1 vectors in lockstep on a
    4x4 grid, over 3,000 steps of two chains, write the bytes they wrote
    when the digests were taken; so does one --dump file."""
    path, sampler, score, *dump = case.split("/")
    argv = ["simulate", *_DIGEST_MODELS[path], "--sampler", sampler,
            "--eta", "0.45" if sampler == "gibbs" else "0.8", "--steps", "3000",
            "--burn-in", "100", "--thin", "3", "--chains", "2", "--seed", "11"]
    if score != "none":
        argv += ["--score", score]
    if dump:
        argv += ["--dump", str(tmp_path / "dump.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    data = (tmp_path / "dump.csv").read_bytes() if dump else out.encode()
    assert hashlib.sha256(data).hexdigest() == _SIMULATE_DIGESTS[case]


def test_every_target_family_is_a_model_choice_built_from_its_fields():
    """Each `TargetModel` subclass of `cubelab.models` is a `--model` choice
    under its `name`, built from the flags named after its dataclass
    fields, in field order; a missing flag is named in that order."""
    import dataclasses
    import inspect

    from cubelab import models

    families = [cls for _, cls in inspect.getmembers(models, inspect.isclass)
                if issubclass(cls, models.TargetModel) and cls is not models.TargetModel]
    parser = cli.make_parser()
    assert sorted(cls.name for cls in families) == sorted(cli._MODELS)
    values = {"beta": 0.25, "dim": 3, "b": 0.5, "rows": 2, "cols": 3, "J": 0.75, "h": -0.125,
              "periodic": True}
    missing = {"bits": "beta, --dim", "mixture": "beta, --dim", "ising": "rows, --cols, --J",
               "curieweiss": "beta, --dim"}
    for cls in families:
        assert cli._MODELS[cls.name] is cls
        fields = [f.name for f in dataclasses.fields(cls)]
        flags = [a for f in fields
                 for a in (["--periodic"] if f == "periodic" else [f"--{f}", str(values[f])])]
        args = parser.parse_args(["bounds", "--model", cls.name, "--eta", "0.5", *flags])
        assert cli.build_model(args) == cls(**{f: values[f] for f in fields})
        args = parser.parse_args(["bounds", "--model", cls.name, "--eta", "0.5"])
        with pytest.raises(ParameterError, match=re.escape(
                f"model {cls.name!r} requires --{missing[cls.name]}")):
            cli.build_model(args)


def test_a_finite_lockstep_run_keeps_its_bytes(tmp_path, capsys):
    """The start check changes no draw: a seeded 4x4 dmaps run writes the
    bytes it wrote before the check existed."""
    import hashlib

    out, dump = tmp_path / "chains.csv", tmp_path / "dump.csv"
    code, _, _ = run_cli(capsys, "simulate", "--model", "ising", "--rows", "4", "--cols", "4",
                         "--J", "0.3", "--h", "0.1", "--sampler", "dmaps", "--eta", "0.5",
                         "--steps", "300", "--chains", "3", "--seed", "7", "--out", str(out),
                         "--dump", str(dump))
    assert code == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "85ec7e186cf4b8d1673d61c3354fd9a27059623e8c84829dfa6cc76e6e2f24d5")
    assert (hashlib.sha256(dump.read_bytes()).hexdigest()
            == "48b268abc12ededdd8e5e35f7c2f7d7148b65e5124edc14448a757482248bee3")


def _no_constant(name):
    raise AssertionError(f"the document holds the non-JSON constant {name}")


@pytest.mark.parametrize("command", ["bounds", "check", "json"])
def test_bounds_flags_survive_large_beta1(capsys, command):
    if command == "json":
        # beta1 = 2400 at d = 3: err_dula_static overflows to inf, which the
        # document writes as the string "inf", not as a bare Infinity
        code, out, err = run_cli(capsys, "bounds", "--model", "curieweiss", "--beta", "400",
                                 "--b", "0", "--dim", "3", "--eta", "0.5", "--format", "json")
        assert code == 0, err
        rows = json.loads(out, parse_constant=_no_constant)["bounds"]
        assert [row["err_dula_static"] for row in rows] == ["inf"] * 3
        return
    # beta1 = 200: exp(4 beta1) overflows a double
    code, out, err = run_cli(capsys, command, "--model", "curieweiss", "--beta", "25",
                             "--b", "0", "--dim", "5", "--eta", "0.5", "--score", "glauber")
    assert code == 0, err
    if command == "bounds":
        header, row = out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert values["flag_4d_beta2_exp4beta1_le_1"] == "False"


_BITS = ("--model", "bits", "--beta", "0.3", "--dim", "3")
_MISSING = "/nonexistent/x.csv"


@pytest.mark.parametrize("argv", [
    ("analyze", *_BITS, "--sampler", "dula", "--eta", "0.5", "--out", _MISSING),
    ("sweep", *_BITS, "--eta", "0.5", "--out", _MISSING),
    ("check", *_BITS, "--eta", "0.5", "--out", _MISSING),
    ("simulate", *_BITS, "--sampler", "dula", "--eta", "0.5", "--steps", "10",
     "--dump", _MISSING),
    ("ctmc", *_BITS, "--horizon", "1", "--out", _MISSING),
], ids=lambda argv: argv[0])
def test_unwritable_output_is_a_parameter_error_before_any_work(capsys, monkeypatch, argv):
    def no_work(args):
        raise AssertionError("the model was built before the output path was checked")

    monkeypatch.setattr(cli, "build_model", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"parameter error: --{argv[-2][2:]} '{_MISSING}' is in "
                          "'/nonexistent', which does not exist")
    assert err.count("\n") == 1
    assert not os.path.exists(os.path.dirname(_MISSING))


def test_output_path_under_a_regular_file_is_a_parameter_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "a.csv"
    code, out, err = run_cli(capsys, "analyze", *_BITS, "--sampler", "dula", "--eta", "0.5",
                             "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"parameter error: --out '{path}' is in '{blocker}', which is not a directory\n"


def test_output_path_naming_a_directory_is_a_parameter_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", *_BITS, "--sampler", "dula", "--eta", "0.5",
                             "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"parameter error: --out '{tmp_path}' is a directory\n"
    # a new file in a writable directory passes the check
    path = tmp_path / "a.csv"
    assert run_cli(capsys, "analyze", *_BITS, "--sampler", "dula", "--eta", "0.5",
                   "--out", str(path))[0] == 0
    assert path.read_text().startswith("eta,sampler,")
