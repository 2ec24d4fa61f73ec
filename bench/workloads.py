"""The benchmark workloads: what one pass runs, and how its outputs are checked.

A pass is a fixed list of calls into fig8lab, made in-process and serially:
``fig8lab.cli.main(argv)`` for the subcommands and the public library
functions for the identity residuals.  Names are looked up on their module
at call time, so the tracing wrappers of ``spans`` see every call.

Each workload computes its reference values with ``oracle`` (mpmath, no
fig8lab) when it is built, outside any timed region, and turns the outputs
of one pass into a list of ``Check``s.  A check fails when its call exited
non-zero, when its value is missing, or when its error exceeds the
tolerance the acceptance suite uses for that kind of value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import mpmath as mp

from fig8lab import cli, jones, qdilog

import oracle

JONES_TOL = 1e-6          # Jones values, theorem ratios, modularity values
LEMMA_TOL = 1e-7          # functional-equation residuals and lemma constants
LK_TOL = 1e-8             # L_k quadrature against the closed forms (absolute)
DECOMPOSITION_TOL = 1e-9
PRODUCT_TOL = 1e-7
REGION_TOL = 1e-6         # Re Phi_m cells, threshold and sigma_m
C_TOL = 0.05              # |C_extrapolated - 1| for eta = S
DIGITS_CAP = 16.0


@dataclass
class Outcome:
    code: int
    text: str
    err: str = ""
    files: dict = field(default_factory=dict)   # name -> sha256 of a file the call wrote

    def records(self) -> list:
        return [json.loads(line) for line in self.text.splitlines() if line.startswith("{")]


@dataclass
class Call:
    label: str
    run: Callable[[], Outcome]
    files: tuple = ()


@dataclass
class Check:
    label: str
    error: float | None       # relative error against the oracle; None for a yes/no check
    ok: bool
    known_defect: bool = False

    @property
    def digits(self) -> float | None:
        if self.error is None:
            return None
        if not math.isfinite(self.error):
            return 0.0
        return DIGITS_CAP if self.error <= 0.0 else min(DIGITS_CAP, -math.log10(self.error))


@dataclass
class Workload:
    name: str
    calls: list
    check: Callable[[list], list]     # outcomes of one pass -> checks


def cli_call(argv: list) -> Call:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return Outcome(code, out.getvalue(), err.getvalue())
    return Call(" ".join(argv), run)


def library_call(label: str, fn: Callable[[], object]) -> Call:
    def run() -> Outcome:
        try:
            return Outcome(0, repr(fn()))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            return Outcome(3, f"{type(exc).__name__}: {exc}")
    return Call(label, run)


def run_call(call: Call) -> tuple:
    """Outcome of one call, and its wall time."""
    start = time.perf_counter()
    outcome = call.run()
    return outcome, time.perf_counter() - start


def run_pass(work: Workload) -> tuple:
    """Outcomes of one pass, and the wall time of each call."""
    outcomes, seconds = [], []
    for call in work.calls:
        outcome, elapsed = run_call(call)
        outcomes.append(outcome)
        seconds.append(elapsed)
    return outcomes, seconds


def attach_file_digests(work: Workload, outcomes: list) -> None:
    """Record a digest of every file a call wrote, so passes can be compared."""
    for call, outcome in zip(work.calls, outcomes):
        for path in call.files:
            p = Path(path)
            outcome.files[p.name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None


def _missing(label: str, known_defect: bool = False) -> Check:
    return Check(label, None, False, known_defect)


def _numeric(label: str, error: float, tol: float, code: int, known_defect: bool = False) -> Check:
    return Check(label, error, code == 0 and error <= tol, known_defect)


def _rel(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def _expand_n(text: str, step: int) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1, step))
    return [int(t) for t in text.split(",")]


# ---------------------------------------------------------------------------
# jones_sweep
# ---------------------------------------------------------------------------

# (u, p, N argument, step).  Each point known to be wrong today is a call of
# its own, so that a later refusal (non-zero exit) fails that point only.
SWEEP = (
    (0.5, 2, "101..1001", 100), (0.5, 2, "1601", 1), (0.5, 2, "3201", 1),
    (0.2, 1, "401,801,1601,3201", 1), (0.2, 1, "6401", 1),
    (0.9, 1, "51,101,151,201", 1), (0.9, 1, "401", 1),
)
ETA_S = (0, -1, 1, 0)
MOD_P = (1, 2, 3)
MOD_N = (299, 599, 899)
MOD_U = 0.5

# Float64 values that miss JONES_TOL on the parent of the benchmark: the
# log-domain sum cancels more digits than a double holds (see README.md).
KNOWN_WRONG_JONES = {(0.5, 2, 1601), (0.5, 2, 3201), (0.2, 1, 6401), (0.9, 1, 401)}
KNOWN_WRONG_MODULARITY = {(1, 899)}      # (p, N) of the eta = S ratio at u = 0.5
KNOWN_WRONG_C = {1}                      # p whose C extrapolation uses that ratio


def jones_sweep_oracle() -> dict:
    ref = {"jones": {}, "ratio": {}, "modularity": {}, "zagier": {}}
    for u, p, n_text, step in SWEEP:
        for n in _expand_n(n_text, step):
            value = oracle.converged(lambda: oracle.jones_sum(n, oracle.xi_of(u, p) / n))
            rhs = oracle.converged(lambda: oracle.theorem_rhs(u, p, n))
            ref["jones"][(u, p, n)] = oracle.log_parts(value)
            ref["ratio"][(u, p, n)] = complex(value / rhs)
    for p in MOD_P:
        for n in MOD_N:
            ratio, rhs = oracle.converged(lambda: oracle.modularity_sample(ETA_S, MOD_U, p, n))
            ref["modularity"][(p, n)] = (oracle.log_parts(ratio), oracle.log_parts(rhs), complex(ratio / rhs))
            lhs, rhs = oracle.converged(lambda: oracle.zagier_sample(ETA_S, p, n))
            ref["zagier"][(p, n)] = (oracle.log_parts(lhs), oracle.log_parts(rhs))
    n1, n2 = MOD_N[-2], MOD_N[-1]
    ref["c_extrapolated"] = {
        p: (n2 * ref["modularity"][(p, n2)][2] - n1 * ref["modularity"][(p, n1)][2]) / (n2 - n1)
        for p in MOD_P
    }
    return ref


def jones_sweep_calls() -> list:
    calls = []
    for command in ("jones", "theorem"):
        for u, p, n_text, step in SWEEP:
            argv = [command, "--u", str(u), "--p", str(p), "--N", n_text]
            calls.append(cli_call(argv + (["--step", str(step)] if step != 1 else [])))
    mod = ["modularity", "--eta", ",".join(map(str, ETA_S)),
           "--p", ",".join(map(str, MOD_P)), "--N-list", ",".join(map(str, MOD_N))]
    calls.append(cli_call(mod + ["--u", str(MOD_U)]))
    calls.append(cli_call(mod + ["--zagier"]))
    return calls


def check_jones_sweep(outcomes: list, ref: dict) -> list:
    checks = []
    per_command = len(SWEEP)
    for c_index, command in enumerate(("jones", "theorem")):
        for (u, p, n_text, step), out in zip(SWEEP, outcomes[c_index * per_command:]):
            by_n = {r.get("N"): r for r in out.records()[1:]}
            for n in _expand_n(n_text, step):
                label = f"{command} u={u} p={p} N={n}"
                known = (u, p, n) in KNOWN_WRONG_JONES
                rec = by_n.get(n)
                if rec is None:
                    checks.append(_missing(label, known))
                elif command == "jones":
                    err = oracle.log_relative_error(rec["logmag"], rec["phase"], ref["jones"][(u, p, n)])
                    checks.append(_numeric(label, err, JONES_TOL, out.code, known))
                else:
                    err = _rel(complex(rec["ratio_re"], rec["ratio_im"]), ref["ratio"][(u, p, n)])
                    checks.append(_numeric(label, err, JONES_TOL, out.code, known))

    mod_out, zag_out = outcomes[2 * per_command], outcomes[2 * per_command + 1]
    samples = {(r["p"], r["N"]): r for r in mod_out.records()[1:] if "ratio" in r}
    estimates = {r["p"]: r for r in mod_out.records()[1:] if "C_extrapolated" in r}
    zagier = {(r["p"], r["N"]): r for r in zag_out.records()[1:]}
    for p in MOD_P:
        for n in MOD_N:
            known = (p, n) in KNOWN_WRONG_MODULARITY
            ratio_ref, rhs_ref, _ = ref["modularity"][(p, n)]
            rec = samples.get((p, n))
            for key, target in (("ratio", ratio_ref), ("rhs", rhs_ref)):
                label = f"modularity u={MOD_U} p={p} N={n} {key}"
                known_key = known and key == "ratio"     # the rhs has no Jones sum
                if rec is None:
                    checks.append(_missing(label, known_key))
                else:
                    err = oracle.log_relative_error(*rec[key], target)
                    checks.append(_numeric(label, err, JONES_TOL, mod_out.code, known_key))
            rec = zagier.get((p, n))
            for key, target in zip(("lhs", "rhs"), ref["zagier"][(p, n)]):
                label = f"modularity zagier p={p} N={n} {key}"
                if rec is None:
                    checks.append(_missing(label))
                else:
                    err = oracle.log_relative_error(*rec[key], target)
                    checks.append(_numeric(label, err, JONES_TOL, zag_out.code))
        label = f"modularity u={MOD_U} p={p} C_extrapolated"
        known = p in KNOWN_WRONG_C
        rec = estimates.get(p)
        if rec is None:
            checks.append(_missing(label, known))
        else:
            value = complex(*rec["C_extrapolated"])
            check = _numeric(label, _rel(value, ref["c_extrapolated"][p]), JONES_TOL, mod_out.code, known)
            check.ok = check.ok and abs(value - 1.0) <= C_TOL
            checks.append(check)
    return checks


def jones_sweep(seed: int, out_dir: Path) -> Workload:
    """Long Jones products: the log-domain kernel at N up to 6401.

    The inputs are the fixed grid above for every seed; the seed is not used.
    """
    ref = jones_sweep_oracle()
    return Workload("jones_sweep", jones_sweep_calls(),
                    lambda outcomes: check_jones_sweep(outcomes, ref))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

LEMMA_SAMPLES = 50
# lemmas draws its samples from --seed, and its cost does not settle: over
# seeds 0-39 the pass time spreads 16% (quartile distance over median) and the
# allocation peak 66%, because a sample near the strip edge needs a much
# longer contour.  The lemmas seed is therefore fixed (the CLI default).
LEMMA_SEED = 0
# rows lemmas prints: three identity families, the L_k sample, and the
# f_sigma / f_p12 grid over u in (0.05, 0.2, 0.5, 0.9), p in (1, 2, 3) plus three constants
LEMMA_ROWS = 3 * LEMMA_SAMPLES + max(LEMMA_SAMPLES // 2, 10) + 4 * (2 + 3 + 4) + 3
DECOMPOSITION = tuple((u, p, n) for u in (0.2, 0.5, 0.9) for p, n in ((2, 97), (3, 101)))
PRODUCT = ((4, 12), (6, 9))
PRODUCT_U = 0.5
IDENTITY_ROWS = ("shift", "gamma_half", "unit_shift")
# lemmas exits 3 on 15 of seeds 0-259: check_unit_shift's T_N quadrature does
# not converge when Re z lies near the strip edge -p/(2N).  This sample, drawn
# by seed 3, shows that defect on every run (see README.md).
EDGE_SAMPLE = (complex(-0.004006817540464774, -0.05885511384705713), 0.2, 1, 97)
EDGE_REFUSAL = "quadrature failed to meet tol at maximum refinement"


def identities_calls() -> list:
    """(call, tolerance, known defect) for one pass."""
    calls = [(cli_call(["lemmas", "--samples", str(LEMMA_SAMPLES), "--seed", str(LEMMA_SEED)]), None, False)]
    for u, p, n in DECOMPOSITION:
        calls.append((library_call(
            f"decomposition_residual u={u} p={p} N={n}",
            lambda u=u, p=p, n=n: jones.decomposition_residual(qdilog.EvalContext(u=u, p=p, n=n))),
            DECOMPOSITION_TOL, False))
    for p, n in PRODUCT:
        for k in range(1, n):
            calls.append((library_call(
                f"product_identity_residual u={PRODUCT_U} p={p} N={n} k={k}",
                lambda k=k, p=p, n=n: jones.product_identity_residual(
                    k, qdilog.EvalContext(u=PRODUCT_U, p=p, n=n))),
                PRODUCT_TOL, False))
    z, u, p, n = EDGE_SAMPLE
    calls.append((library_call(
        f"check_unit_shift u={u} p={p} N={n} z={z}",
        lambda: qdilog.check_unit_shift(z, qdilog.EvalContext(u=u, p=p, n=n))),
        LEMMA_TOL, True))
    return calls


def _lemma_constant(name: str):
    if name == "kappa":
        return mp.acosh(mp.mpf(3) / 2)
    if name == "c_10_kappa":
        return oracle.c_pm(math.acosh(1.5), 1, 0)     # the program's float kappa
    return oracle.c_pm_derivative_bound()


def _check_lemma_row(row: dict, code: int) -> Check:
    kind = row["check"]
    label = "lemmas " + kind + " " + " ".join(
        f"{k}={row[k]}" for k in ("u", "p", "m", "N", "z_re", "z_im") if k in row)
    if kind in IDENTITY_ROWS:
        # exact functional equations: the residual is the error itself
        return _numeric(label, row["residual"], LEMMA_TOL, code)
    if kind.endswith("_quadrature"):
        k = int(kind[1])
        z = complex(row["z_re"], row["z_im"])
        with mp.workdps(30):
            ref = complex(oracle.l_k_closed(k, z))
        value = complex(qdilog.l_k_quadrature(k, z))
        ok = code == 0 and row["residual"] <= LK_TOL and abs(value - ref) <= LK_TOL
        return Check(label, abs(value - ref) / abs(ref), ok)
    with mp.workdps(30):
        if kind == "f_sigma":
            u, p = row["u"], row["p"]
            re_f0 = mp.re(4 * p * mp.pi ** 2 / oracle.xi_of(u, p))
            re_fs = mp.re(oracle.potential(oracle.sigma0(u, p), u, p))
            error = max(_rel(row["re_f0"], float(re_f0)), _rel(row["re_f_sigma0"], float(re_fs)))
            truth = 0 < re_f0 < re_fs
        elif kind == "f_p12":
            margin = oracle.p12_margin(row["u"], row["p"], row["m"])
            error = _rel(row["margin"], float(margin))
            truth = margin > 0
        else:
            value = _lemma_constant(kind)
            error = _rel(row["value"], float(value))
            truth = abs(float(value) - row["expected"]) <= {"kappa": 1e-6}.get(kind, 5e-3)
    return Check(label, error, code == 0 and error <= LEMMA_TOL and row["pass"] == bool(truth))


def check_identities(outcomes: list, specs: list) -> list:
    """specs: (label, tolerance, known defect) of each call after lemmas."""
    lemmas, rest = outcomes[0], outcomes[1:]
    rows = lemmas.records()[1:]
    checks = [_check_lemma_row(row, lemmas.code) for row in rows]
    # a refused lemmas call prints nothing: each row it owed counts as failed
    checks += [_missing(f"lemmas row {i} not printed") for i in range(len(rows), LEMMA_ROWS)]
    for (label, tol, known), out in zip(specs, rest):
        if out.code != 0:
            checks.append(_missing(label, known and EDGE_REFUSAL in out.text))
        else:
            checks.append(_numeric(label, float(out.text), tol, out.code))
    return checks


def identities(seed: int, out_dir: Path) -> Workload:
    """Quadrature-heavy: T_N/E_N identities, the beta/f_N decomposition and
    the q-factorial identity; many very short Jones products.

    The inputs are fixed for every seed; the seed is not used.
    """
    calls = identities_calls()
    specs = [(call.label, tol, known) for call, tol, known in calls[1:]]
    return Workload("identities", [c for c, _, _ in calls],
                    lambda outcomes: check_identities(outcomes, specs))


# ---------------------------------------------------------------------------
# region_grid
# ---------------------------------------------------------------------------

REGIONS = ((3, 2, 0.5), (1, 0, 0.5), (2, 1, 0.2))     # (p, m, u)
REGION_RES = 400
REGION_CELLS = 32
CSV_ROW = "%.17g,%.17g,%.17g,%d,%d,%d,%d,%d"
CSV_HEADER = "x,y,re_phi,in_u,in_e,in_d,in_rbar,in_runder"


def region_calls(out_stem: Path) -> list:
    calls = []
    for i, (p, m, u) in enumerate(REGIONS):
        argv = ["region", "--u", str(u), "--p", str(p), "--m", str(m), "--res", str(REGION_RES)]
        if i == 0:
            call = cli_call(argv + ["--out", str(out_stem)])
            call.files = (f"{out_stem}.csv", f"{out_stem}.json")
        else:
            call = cli_call(argv)
        calls.append(call)
    return calls


def region_oracle() -> dict:
    ref = {}
    with mp.workdps(30):
        for p, m, u in REGIONS:
            s0 = oracle.sigma0(u, p)
            sigma_m = s0 + 2j * m * mp.pi / oracle.xi_of(u, p)
            ref[(p, m, u)] = (float(mp.re(oracle.potential(s0, u, p))), complex(sigma_m))
    return ref


def _read_grid_csv(path: Path):
    """Parse the cell dump; returns (columns, lines that do not re-format identically)."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None, -1
    xs, ys, phis, flags = [], [], [], []
    mismatched = 0
    for line in lines[1:]:
        parts = line.split(",")
        x, y, phi = float(parts[0]), float(parts[1]), float(parts[2])
        f = [int(v) for v in parts[3:]]
        if CSV_ROW % (x, y, phi, *f) != line:
            mismatched += 1
        xs.append(x)
        ys.append(y)
        phis.append(phi)
        flags.append(f)
    return (np.array(xs), np.array(ys), np.array(phis), np.array(flags, dtype=bool)), mismatched


def _check_csv(stem: Path, threshold: float, seed: int, key) -> list:
    """Bit-exact round trip of the written grid, and mpmath Re Phi_m at seeded cells."""
    label = f"region p={key[0]} m={key[1]} u={key[2]}"
    header_path, csv_path = Path(f"{stem}.json"), Path(f"{stem}.csv")
    if not header_path.exists() or not csv_path.exists():
        return [_missing(label + " csv round trip")]
    header = json.loads(header_path.read_text())
    columns, mismatched = _read_grid_csv(csv_path)
    if columns is None:
        return [_missing(label + " csv round trip")]
    x, y, phi, flags = columns
    x_lo, x_hi, y_lo, y_hi = header["params"]["bounds"]
    nx, ny = header["params"]["resolution"]
    X, Y = np.meshgrid(np.linspace(x_lo, x_hi, nx), np.linspace(y_lo, y_hi, ny))
    in_u, in_e, in_d = flags[:, 0], flags[:, 1], flags[:, 2]
    with np.errstate(invalid="ignore"):
        consistent = (
            mismatched == 0 and x.size == nx * ny
            and np.array_equal(x, X.ravel()) and np.array_equal(y, Y.ravel())
            and np.array_equal(np.isnan(phi), ~in_u)
            and np.array_equal(in_d, in_e & (phi < header["threshold"]))
            and header["threshold"] == threshold
        )
    checks = [Check(label + " csv round trip", None, bool(consistent))]

    p, m, u = key
    inside = np.flatnonzero(in_u)
    picks = np.random.default_rng(seed).choice(inside, size=min(REGION_CELLS, inside.size), replace=False)
    with mp.workdps(30):
        for i in sorted(picks):
            ref = float(mp.re(oracle.shifted_potential(mp.mpc(x[i], y[i]), m, u, p)))
            err = abs(phi[i] - ref) / max(abs(ref), 1.0)
            checks.append(_numeric(f"{label} cell x={float(x[i])!r} y={float(y[i])!r}", float(err), REGION_TOL, 0))
    return checks


def check_region_grid(outcomes: list, ref: dict, out_stem: Path, seed: int) -> list:
    checks = []
    for i, (key, out) in enumerate(zip(REGIONS, outcomes)):
        label = f"region p={key[0]} m={key[1]} u={key[2]}"
        records = out.records()
        if out.code != 0 or not records:
            checks += [_missing(label + " components"), _missing(label + " threshold"),
                       _missing(label + " sigma_m")]
            continue
        summary = records[-1]
        threshold_ref, sigma_ref = ref[key]
        checks.append(Check(label + " components", None, summary["components_d_cap_e"] == 2))
        checks.append(_numeric(label + " threshold", _rel(summary["threshold"], threshold_ref), REGION_TOL, 0))
        checks.append(_numeric(label + " sigma_m", _rel(complex(*summary["sigma_m"]), sigma_ref), REGION_TOL, 0))
        if i == 0:
            checks += _check_csv(out_stem, summary["threshold"], seed, key)
    return checks


def region_grid(seed: int, out_dir: Path) -> Workload:
    """Vectorised Li2 over 400x400 grids, component labelling and the CSV writer.

    The seed picks the cells of the written grid that are checked against mpmath.
    """
    out_stem = out_dir / "region_p3m2"
    ref = region_oracle()
    return Workload("region_grid", region_calls(out_stem),
                    lambda outcomes: check_region_grid(outcomes, ref, out_stem, seed))


WORKLOADS = {"jones_sweep": jones_sweep, "identities": identities, "region_grid": region_grid}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)
