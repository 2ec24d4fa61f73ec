"""End-to-end CLI behavior: records, exit codes, determinism."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fig8lab
from fig8lab import cli, qdilog
from fig8lab.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines]


def test_jones_single_record(capsys):
    code, out, _ = run(["jones", "--u", "0.5", "--p", "2", "--N", "101"], capsys)
    assert code == 0
    header, record = parse_jsonl(out)
    assert header["schema"] == "fig8lab/1" and header["command"] == "jones"
    assert record["N"] == 101
    assert isinstance(record["logmag"], float) and isinstance(record["phase"], float)


def test_jones_range_rows(capsys):
    code, out, _ = run(
        ["jones", "--u", "0.5", "--p", "2", "--N", "101..501", "--step", "50"], capsys
    )
    assert code == 0
    records = parse_jsonl(out)[1:]
    assert len(records) == 9
    assert [r["N"] for r in records] == list(range(101, 502, 50))


def test_bad_u_exits_2(capsys):
    code, _, err = run(["jones", "--u", "1.5", "--p", "2", "--N", "101"], capsys)
    assert code == 2
    assert "u must lie" in err


@pytest.mark.parametrize("command", ["jones", "theorem"])
@pytest.mark.parametrize("n_args, flag", [
    (["--N", "101..501", "--step", "-1"], "--step"),
    (["--N", "20..10"], "--N"),
    (["--N", "101..501", "--step", "0"], "--step"),
    (["--N", "0"], "--N"),
    (["--N", "3,-1"], "--N"),
    (["--N", "0..5"], "--N"),
    (["--N", "7,9", "--step", "5"], "--step"),
    (["--N", "5.."], "--N"),
    (["--N", "1..2..3"], "--N"),
    (["--N", "5,x"], "--N"),
])
def test_empty_or_bad_n_range_exits_2(command, n_args, flag, capsys):
    code, out, err = run([command, "--u", "0.5", "--p", "2", *n_args], capsys)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv, text", [
    pytest.param(["lemmas", "--samples", "-3"], "--samples", id="lemmas-negative-samples"),
    pytest.param(["lemmas", "--seed", "-1"], "--seed", id="lemmas-negative-seed"),
    # the accuracy target is qdilog.TOL and the pass bounds are cli constants
    pytest.param(["lemmas", "--tol", "1e-3"], "unrecognized arguments: --tol", id="lemmas-no-tol"),
    pytest.param(["lemmas", "--threshold", "1"], "unrecognized arguments: --threshold",
                 id="lemmas-no-threshold"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "10,10"],
                 "two distinct N", id="modularity-repeated-N"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--zagier", "--p", "0"],
                 "p and N must be positive", id="modularity-zagier-p-zero"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--p", "0"],
                 "p and N must be positive", id="modularity-p-zero"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--zagier", "--N-list", "0,5"],
                 "p and N must be positive", id="modularity-zagier-n-zero"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--p", "1,x"], "--p",
                 id="modularity-p-not-integer"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--N-list", "5,,7"], "--N-list",
                 id="modularity-N-list-empty-entry"),
    pytest.param(["modularity", "--eta", "0,-1,1,x"], "--eta", id="modularity-eta-not-integer"),
    pytest.param(["region", "--u", "0.5", "--p", "2", "--m", "5", "--res", "50"],
                 "m must lie in [0, p-1]", id="region-m-above-strips"),
    pytest.param(["region", "--u", "0.5", "--p", "2", "--m", "-1", "--res", "50"],
                 "m must lie in [0, p-1]", id="region-negative-m"),
    *(pytest.param(["region", "--u", "0.5", "--p", "2", "--m", "1", "--res", "50", "--nu", nu],
                   "nu must lie in (0, 0.5)", id=f"region-nu-{nu}") for nu in ("0", "0.5", "nan")),
    # the grid box ends at x = 1 - nu = 0.8, short of sigma_0 (Re 0.8526)
    pytest.param(["region", "--u", "0.5", "--p", "1", "--m", "0", "--res", "50", "--nu", "0.2"],
                 "nu = 0.2 leaves sigma_0 outside the grid box", id="region-nu-past-the-saddle"),
])
def test_bad_value_exits_2(argv, text, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert text in err


@pytest.mark.parametrize("argv", [
    ["jones", "--u", "0.5", "--p", "2", "--N", "101"],
    ["region", "--u", "0.5", "--p", "1", "--m", "0", "--res", "50"],
], ids=["jones", "region"])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(argv + ["--out", target], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and target in err


def test_repeated_list_values_are_dropped(capsys):
    _, out, _ = run(["jones", "--u", "0.5", "--p", "2", "--N", "7,5,7"], capsys)
    assert [r["N"] for r in parse_jsonl(out)[1:]] == [5, 7]
    _, out, _ = run(["modularity", "--eta", "0,-1,1,0", "--p", "2,1,2",
                     "--N-list", "99,49,99"], capsys)
    samples = [(r["p"], r["N"]) for r in parse_jsonl(out)[1:] if "ratio" in r]
    assert samples == [(2, 49), (2, 99), (1, 49), (1, 99)]


def test_unknown_flag_exits_2(capsys):
    code = main(["jones", "--nope"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["jones", "--u", "0.5", "--p", "2", "--N", "101", "--samples", "3"],
    ["theorem", "--u", "0.5", "--p", "2", "--N", "101", "--seed", "1"],
    ["region", "--u", "0.5", "--p", "3", "--m", "2", "--format", "csv"],
])
def test_flag_of_another_subcommand_exits_2(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


def test_header_params_are_the_flags_read(capsys):
    _, out, _ = run(["jones", "--u", "0.5", "--p", "2", "--N", "11"], capsys)
    params = parse_jsonl(out)[0]["params"]
    assert params == {"u": 0.5, "p": 2, "N": "11", "step": 1}


@pytest.mark.parametrize("argv, params", [
    (["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "50,100"],
     {"eta": "0,-1,1,0", "p": "1", "N_list": "50,100", "u": 0.5, "zagier": False}),
    (["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "50,100", "--u", "0.3"],
     {"eta": "0,-1,1,0", "p": "1", "N_list": "50,100", "u": 0.3, "zagier": False}),
    (["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "50,100", "--zagier"],
     {"eta": "0,-1,1,0", "p": "1", "N_list": "50,100", "zagier": True}),
], ids=["default-u", "explicit-u", "zagier-has-no-u"])
def test_modularity_header_records_u_only_where_read(argv, params, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert parse_jsonl(out)[0]["params"] == params


@pytest.mark.parametrize("u", ["0.5", "0.3"])
def test_modularity_zagier_refuses_u(u, capsys):
    # --zagier is the u = 0 experiment: a --u there would be read and ignored
    code, out, err = run(["modularity", "--eta", "0,-1,1,0", "--zagier", "--u", u,
                          "--p", "1", "--N-list", "50,100"], capsys)
    assert code == 2
    assert out == ""
    assert "--u" in err and "--zagier" in err


def test_parser_reuse_leaks_no_state(capsys):
    # main builds its parser once per process; every later call must print
    # what the same call prints as the first call of a process
    theorem = ["theorem", "--u", "0.5", "--p", "2", "--N", "4"]
    jones = ["jones", "--u", "0.5", "--p", "2", "--N", "11"]
    # the modularity handler writes args.u = 0.5 into its namespace; the
    # --zagier call after it refuses any u it is given
    modularity = ["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "5,7"]
    sequence = [modularity, modularity + ["--zagier"],
                jones + ["--format", "csv"], jones,
                ["jones", "--u", "0.5", "--nope"], jones,
                ["--help"], ["theorem", "--help"], theorem]
    first = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        first.append(run(argv, capsys))
    cli._build_parser.cache_clear()
    assert [run(argv, capsys) for argv in sequence] == first
    assert cli._build_parser.cache_info().misses == 1
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert "u" in parse_jsonl(first[0][1])[0]["params"]
    assert "u" not in parse_jsonl(first[1][1])[0]["params"]
    assert first[2][1].startswith("# fig8lab/1") and first[3][1].startswith("{")
    assert "usage: fig8lab" in first[6][1] and "usage: fig8lab theorem" in first[7][1]
    assert "ratio_re" in parse_jsonl(first[8][1])[1]


def test_theorem_computes_every_n(capsys):
    # N = 100, 102, 104 share the factor 2 with p; the ratio is as smooth
    # across them as across odd N
    code, out, _ = run(
        ["theorem", "--u", "0.5", "--p", "2", "--N", "99..104"], capsys
    )
    assert code == 0
    records = parse_jsonl(out)[1:]
    assert [r["N"] for r in records] == list(range(99, 105))
    gaps = [r["abs_ratio_minus_1"] for r in records]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_lemmas_pass_and_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["lemmas", "--samples", "4", "--seed", "11"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("seed", range(4))
def test_lemmas_identity_draws_are_the_rng_choice_stream(seed, monkeypatch):
    # an index draw T[rng.integers(len(T))] takes what rng.choice(T) takes from the stream
    drawn = []
    monkeypatch.setattr(cli, "identity_residuals",
                        lambda samples: drawn.extend(samples) or [0.0] * len(samples))
    rng = np.random.default_rng(seed)
    cli._sample_identity_rows(rng, 50)
    ref = np.random.default_rng(seed)
    expected = []
    for name in ("shift", "gamma_half", "unit_shift"):
        for _ in range(50):
            u = float(ref.choice(cli._LEMMA_GRID_U))
            p = int(ref.choice(cli._LEMMA_GRID_P))
            n = int(ref.choice(cli._LEMMA_GRID_N))
            g = p / n
            if name == "shift":
                z = complex(ref.uniform(0.1, 0.9), ref.uniform(-0.5, 0.5))
            elif name == "gamma_half":
                z = complex(ref.uniform(0.1, 0.9) * g * ref.choice((-1, 1)), ref.uniform(-0.3, 0.3))
            else:
                z = complex(ref.uniform(-0.45, 0.45) * g, ref.uniform(-0.3, 0.3))
            expected.append((name, u, p, n, z))
    assert [(name, ctx.u, ctx.p, ctx.n, z) for name, z, ctx in drawn] == expected
    # the L_k rows draw on from the same state
    assert rng.bit_generator.state == ref.bit_generator.state


def test_lemmas_benchmark_rows_in_order_and_within_bounds(capsys):
    # the benchmark's lemmas call: its 214 rows (LEMMA_ROWS) come in order, 150
    # identity rows, 25 L_k rows, the f_sigma row and f_p12 rows of each (u, p) and
    # 3 constants, so that a batched evaluation which drops or reorders a row fails
    code, out, err = run(["lemmas", "--samples", "50", "--seed", "0"], capsys)
    assert code == 0, err
    rows = parse_jsonl(out)[1:]
    grid = [(u, p) for u in (0.05, 0.2, 0.5, 0.9) for p in (1, 2, 3)]
    expected = ([(kind, None, None, None) for kind in ("shift", "gamma_half", "unit_shift") for _ in range(50)]
                + [("l_k", None, None, None)] * 25
                + [row for u, p in grid for row in [("f_sigma", u, p, None)] + [("f_p12", u, p, m) for m in range(p)]]
                + [(name, None, None, None) for name in ("kappa", "c_10_kappa", "c_pm_derivative_bound")])

    def key(r):
        kind = "l_k" if r["check"].endswith("_quadrature") else r["check"]
        lemma = kind in ("f_sigma", "f_p12")
        return (kind, r["u"] if lemma else None, r["p"] if lemma else None, r.get("m"))
    assert len(rows) == 214
    assert [key(r) for r in rows] == expected
    # each identity row meets its identity of E_N, and each L_k row the closed form, to 1e-12
    bad = [(r["check"], r["residual"]) for r in rows[:175] if r["residual"] > 1e-12]
    assert not bad, bad
    # every inequality and constant row passes
    failed = [r for r in rows[175:] if r["pass"] is not True]
    assert not failed, failed


def test_lemmas_tight_threshold_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "IDENTITY_BOUND", 1e-20)
    code, _, err = run(["lemmas", "--samples", "3"], capsys)
    assert code == 1
    assert "FAIL" in err


def test_lemmas_reads_no_accuracy_flags(capsys):
    code, out, _ = run(["lemmas", "--samples", "1"], capsys)
    assert code == 0
    assert parse_jsonl(out)[0]["params"] == {"samples": 1, "seed": 0}
    _, out, _ = run(["lemmas", "--help"], capsys)
    assert "--samples" in out and "--tol" not in out and "--threshold" not in out


def test_lemmas_seed_with_strip_edge_sample_passes(capsys):
    # seed 3 draws a unit-shift point 0.11 Re gamma from the strip edge
    code, _, err = run(["lemmas", "--samples", "50", "--seed", "3"], capsys)
    assert code == 0, err


def test_lemmas_unmeetable_tol_exits_3(monkeypatch, capsys):
    _, out, _ = run(["lemmas", "--samples", "5"], capsys)
    first = json.loads(out.splitlines()[1])
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    code, _, err = run(["lemmas", "--samples", "5"], capsys)
    assert code == 3
    assert "failed to meet tol" in err
    for field in ("z = ", "(u, p, N) = ", "level 3", "best |delta| = "):
        assert field in err
    # the first identity row already misses 1e-16, so the error names its context
    assert f"(u, p, N) = ({first['u']}, {first['p']}, {first['N']})" in err


def test_lemmas_tol_reaches_the_l_k_rows(monkeypatch, capsys):
    # with no identity samples only the L_k quadratures see qdilog.TOL
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    code, _, err = run(["lemmas", "--samples", "0"], capsys)
    assert code == 3
    assert "failed to meet tol" in err and " at L_" in err


@pytest.mark.parametrize("argv, stage", [
    (["theorem", "--u", "0.9", "--p", "1", "--N", "12801"], "theorem ratio"),
    (["modularity", "--eta", "0,-1,1,0", "--u", "0.9", "--p", "1", "--N-list", "6401,12801"],
     "modularity ratio / rhs"),
], ids=["theorem", "modularity"])
def test_overflowing_ratio_exits_3(argv, stage, capsys):
    # the float Jones sum at N = 12801 puts the ratio's log above 709
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {stage} at (u, p, N) = (0.9, 1, 12801) overflows a float")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_region_emits_grid_files(tmp_path, capsys):
    prefix = tmp_path / "grid"
    code, out, _ = run(
        ["region", "--u", "0.5", "--p", "3", "--m", "2", "--res", "200",
         "--out", str(prefix)], capsys
    )
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["components_d_cap_e"] == 2
    header = json.loads((tmp_path / "grid.json").read_text())
    assert header["components_d_cap_e"] == 2
    csv_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert csv_lines[0].startswith("x,y,re_phi")
    assert len(csv_lines) == 1 + 200 * 200


@pytest.mark.parametrize("u, res", [(u, res) for u in (0.9, 0.95, 0.96, 0.962) for res in (60, 400)]
                         + [(0.05, 50), (0.02, 50)])
def test_region_counts_two_lobes_near_kappa_and_at_small_u(u, res, capsys):
    # near kappa the second lobe is a sliver a few cells wide, which a grid
    # count missed or split (it printed 1 at res 60 and 3 at u = 0.96, res
    # 400); at u = 0.05 and 0.02, res 50, only the walk's refinement finds
    # the second run (test_region_refuses_an_unresolved_count)
    code, out, err = run(["region", "--u", str(u), "--p", "1", "--m", "0", "--res", str(res)], capsys)
    assert code == 0, err
    assert json.loads(out)["components_d_cap_e"] == 2


@pytest.mark.parametrize("u", [0.05, 0.02])
def test_region_refuses_an_unresolved_count(u, capsys, monkeypatch):
    from fig8lab import region

    monkeypatch.setattr(region, "WALK_HALVINGS", 0)
    code, out, err = run(["region", "--u", str(u), "--p", "1", "--m", "0", "--res", "50"], capsys)
    assert code == 3
    assert out == ""
    # without a halving, the walk at cell spacing sees one of the two runs
    assert err.startswith(f"error: region count at (u, p, m) = ({u}, 1, 0): the boundary walk")
    assert "k = 1, not 2" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_region_nu_sets_the_x_bounds(tmp_path, capsys):
    # the grid spans (m + nu)/p to (m + 1 - nu)/p: 0.55 to 0.95 at p = 2, m = 1
    prefix = tmp_path / "grid"
    code, _, _ = run(["region", "--u", "0.5", "--p", "2", "--m", "1", "--res", "50",
                      "--nu", "0.1", "--out", str(prefix)], capsys)
    assert code == 0
    header = json.loads((tmp_path / "grid.json").read_text())
    assert header["params"]["nu"] == 0.1
    assert header["params"]["bounds"][:2] == [0.55, 0.95]


def test_modularity_records(capsys):
    code, out, _ = run(
        ["modularity", "--eta", "0,-1,1,0", "--u", "0.5", "--p", "1,2",
         "--N-list", "149,299"], capsys
    )
    assert code == 0
    records = parse_jsonl(out)[1:]
    sample_rows = [r for r in records if "ratio" in r]
    estimate_rows = [r for r in records if "C_extrapolated" in r]
    spread_rows = [r for r in records if "spread" in r]
    assert len(sample_rows) == 4 and len(estimate_rows) == 2 and len(spread_rows) == 1
    assert all(abs(complex(*r["C_extrapolated"]) - 1) < 0.1 for r in estimate_rows)


def test_modularity_exploratory_eta(capsys):
    code, out, _ = run(
        ["modularity", "--eta", "1,0,1,1", "--u", "0.3", "--p", "1",
         "--N-list", "101,149"], capsys
    )
    assert code == 0
    assert len(parse_jsonl(out)) >= 4


def test_modularity_zagier_mode(capsys):
    code, out, _ = run(
        ["modularity", "--eta", "0,-1,1,0", "--zagier", "--p", "1",
         "--N-list", "100,200"], capsys
    )
    assert code == 0
    records = parse_jsonl(out)[1:]
    assert len(records) == 2
    assert all("lhs" in r and "rhs" in r and "bd_constant_re" in r for r in records)


@pytest.mark.parametrize("argv,keys,n_rows", [
    pytest.param(["jones", "--u", "0.5", "--p", "1", "--N", "11,21"],
                 ["N", "u", "p", "logmag", "phase"], 2, id="jones"),
    pytest.param(["theorem", "--u", "0.5", "--p", "3", "--N", "30,31"],
                 ["N", "u", "p", "ratio_re", "ratio_im", "abs_ratio_minus_1"], 2,
                 id="theorem"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "99,199"],
                 ["eta", "u", "p", "N", "ratio", "rhs", "C_estimate", "C_extrapolated",
                  "spread"], 4, id="modularity"),
    # no identity rows: the 10 L_k rows and the 39 inequality rows
    pytest.param(["lemmas", "--samples", "0"],
                 ["check", "expected", "m", "margin", "p", "pass", "re_f0", "re_f_sigma0",
                  "residual", "u", "value", "z_im", "z_re"], 49, id="lemmas"),
])
def test_csv_format(tmp_path, argv, keys, n_rows):
    # list cells and eta contain commas and must come back whole
    out = tmp_path / "rows.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    meta, body = out.read_text().split("\n", 1)
    assert meta.startswith("# fig8lab/1")
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == sorted(keys)
    assert len(rows) == 1 + n_rows
    assert all(len(row) == len(rows[0]) for row in rows)
    # a bool cell is written as 1 or 0
    if "pass" in keys:
        column = rows[0].index("pass")
        assert all(row[column] in ("1", "0") for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["jones", "--u", "0.5", "--p", "2", "--N", "101"],
    ["theorem", "--u", "0.5", "--p", "2", "--N", "101"],
    # a scipy.integrate quadrature would add about 0.9 s of start-up
    ["lemmas", "--samples", "5"],
    # scipy would add about 0.4 s of start-up and 16 MB of traced allocations
    ["region", "--u", "0.5", "--p", "1", "--m", "0", "--res", "50"],
    ["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "5,7"],
    ["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "5,7", "--zagier"],
], ids=["jones", "theorem", "lemmas", "region", "modularity", "modularity-zagier"])
def test_subcommand_imports_no_test_only_package(argv):
    # numpy is the one runtime dependency; the test extra must not leak into main
    script = (
        "import sys\n"
        "from fig8lab.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.partition('.')[0] in ('scipy', 'mpmath', 'hypothesis', 'sympy')))\n"
    )
    path = [str(Path(fig8lab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_package_surface_is_exact():
    # a new export is a deliberate diff here; everything else is imported
    # from its module
    public = {name for name, value in vars(fig8lab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {
        "BranchCutError", "DomainError", "QuadratureError", "EvalContext",
        "jones_exp", "t_n", "li2", "saddle_data", "cusp_volume",
        "jones_at_cusp", "asymptotic_ratio", "identity_residuals", "grid_scan",
        "label_components", "estimate_c", "ModularMatrix",
    }
