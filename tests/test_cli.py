"""End-to-end CLI behavior: records, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fig8lab
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
])
def test_empty_or_bad_n_range_exits_2(command, n_args, flag, capsys):
    code, out, err = run([command, "--u", "0.5", "--p", "2", *n_args], capsys)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv, text", [
    pytest.param(["lemmas", "--tol", "0"], "--tol", id="lemmas-zero-tol"),
    pytest.param(["lemmas", "--tol", "-1e-3"], "--tol", id="lemmas-negative-tol"),
    pytest.param(["lemmas", "--samples", "-3"], "--samples", id="lemmas-negative-samples"),
    pytest.param(["lemmas", "--threshold", "nan"], "--threshold", id="lemmas-nan-threshold"),
    pytest.param(["lemmas", "--threshold", "-1"], "--threshold", id="lemmas-negative-threshold"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "10,10"],
                 "two distinct N", id="modularity-repeated-N"),
    pytest.param(["region", "--u", "0.5", "--p", "2", "--m", "5", "--res", "50"],
                 "m must lie in [0, p-1]", id="region-m-above-strips"),
    pytest.param(["region", "--u", "0.5", "--p", "2", "--m", "-1", "--res", "50"],
                 "m must lie in [0, p-1]", id="region-negative-m"),
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
    ["jones", "--u", "0.5", "--p", "2", "--N", "101", "--tol", "1e-3"],
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


def test_theorem_skips_noncoprime(capsys):
    code, out, _ = run(
        ["theorem", "--u", "0.5", "--p", "2", "--N", "100..102"], capsys
    )
    assert code == 0
    records = parse_jsonl(out)[1:]
    by_n = {r["N"]: r for r in records}
    assert by_n[100].get("skipped") and by_n[102].get("skipped")
    assert "abs_ratio_minus_1" in by_n[101]


def test_lemmas_pass_and_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["lemmas", "--samples", "4", "--seed", "11"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_lemmas_tight_threshold_fails(capsys):
    code, _, err = run(
        ["lemmas", "--samples", "3", "--threshold", "1e-20"], capsys
    )
    assert code == 1
    assert "FAIL" in err


def test_lemmas_seed_with_strip_edge_sample_passes(capsys):
    # seed 3 draws a unit-shift point 0.11 Re gamma from the strip edge
    code, _, err = run(["lemmas", "--samples", "50", "--seed", "3"], capsys)
    assert code == 0, err


def test_lemmas_unmeetable_tol_exits_3(capsys):
    code, _, err = run(["lemmas", "--samples", "5", "--tol", "1e-16"], capsys)
    assert code == 3
    assert "failed to meet tol" in err
    for field in ("z = ", "(u, p, N) = ", "level 3", "best |delta| = "):
        assert field in err


def test_lemmas_tol_reaches_the_l_k_rows(capsys):
    # with no identity samples only the L_k quadratures see --tol
    code, _, err = run(["lemmas", "--samples", "0", "--tol", "1e-16"], capsys)
    assert code == 3
    assert "failed to meet tol" in err and " at L_" in err


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
                 ["N", "u", "p", "ratio_re", "ratio_im", "abs_ratio_minus_1",
                  "skipped", "reason"], 2, id="theorem"),
    pytest.param(["modularity", "--eta", "0,-1,1,0", "--p", "1", "--N-list", "99,199"],
                 ["eta", "u", "p", "N", "ratio", "rhs", "C_estimate", "C_extrapolated",
                  "spread"], 4, id="modularity"),
])
def test_csv_format(tmp_path, argv, keys, n_rows):
    # list cells, eta and the skip reason contain commas and must come back whole
    out = tmp_path / "rows.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    meta, body = out.read_text().split("\n", 1)
    assert meta.startswith("# fig8lab/1")
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == sorted(keys)
    assert len(rows) == 1 + n_rows
    assert all(len(row) == len(rows[0]) for row in rows)


def _scipy_modules_loaded_by(argv):
    """Exit code of main(argv) in a fresh interpreter and the scipy modules it loaded."""
    script = (
        "import sys\n"
        "from fig8lab.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    path = [str(Path(fig8lab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_region_imports_no_scipy():
    # scipy would add about 0.4 s of start-up and 16 MB of traced allocations
    argv = ["region", "--u", "0.5", "--p", "1", "--m", "0", "--res", "50"]
    assert _scipy_modules_loaded_by(argv) == "0 []"


def test_lemmas_imports_no_scipy():
    # a scipy.integrate quadrature would add about 0.9 s of start-up
    assert _scipy_modules_loaded_by(["lemmas", "--samples", "5"]) == "0 []"
