"""Command-line entry point: every experiment as a subcommand.

Output is machine readable and deterministic: a schema header line followed
by one record per line (JSON) or CSV rows.  Identical invocations (including
--seed) produce byte-identical files.  Exit codes: 0 pass, 1 assertion
failures, 2 bad input, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from math import gcd

import numpy as np

from .numkernel import DomainError, QuadratureError, l0_closed, l1_closed, l2_closed
from .qdilog import (
    KAPPA,
    EvalContext,
    QuadratureConfig,
    check_gamma_half,
    check_shift_identity,
    check_unit_shift,
    l_k_quadrature,
)
from .jones import jones_at_cusp
from .saddle import asymptotic_ratio, kappa
from .region import (
    c_pm,
    c_pm_derivative_bound,
    check_f_p12,
    check_f_sigma,
    components_d_cap_e,
    grid_scan,
    write_grid_csv,
    write_grid_header,
)
from .modularity import ModularMatrix, estimate_c, zagier_lhs, zagier_rhs, bettin_drappeau_c

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

def _emit(header: dict, records: list[dict], args) -> None:
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "json":
            out.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            for rec in records:
                out.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            keys = sorted({k for rec in records for k in rec})
            meta = " ".join(f"{k}={v}" for k, v in sorted(header.items()) if k != "schema")
            out.write(f"# {header['schema']} {meta}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([_csv_cell(rec.get(k)) for k in keys] for rec in records)
    finally:
        if args.out:
            out.close()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _header(command: str, args, **extra) -> dict:
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "format", "command") and v is not None
    }
    return {"schema": "fig8lab/1", "command": command, "params": params, **extra}


def _parse_n_range(text: str, step: int) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1, step))
    return [int(t) for t in text.split(",")]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_jones(args) -> int:
    n_values = _parse_n_range(args.N, args.step)

    def one(n):
        value = jones_at_cusp(EvalContext(u=args.u, p=args.p, n=n))
        return {"N": n, "u": args.u, "p": args.p,
                "logmag": value.logmag, "phase": value.phase}

    records = sorted((one(n) for n in n_values), key=lambda r: r["N"])
    _emit(_header("jones", args), records, args)
    return EXIT_OK


def cmd_theorem(args) -> int:
    n_values = _parse_n_range(args.N, args.step)

    def one(n):
        if gcd(args.p, n) != 1 and not args.allow_noncoprime:
            return {"N": n, "skipped": True, "reason": f"gcd(p,N)={gcd(args.p, n)}"}
        ratio = asymptotic_ratio(
            EvalContext(u=args.u, p=args.p, n=n),
            allow_noncoprime=args.allow_noncoprime,
        )
        return {"N": n, "u": args.u, "p": args.p,
                "ratio_re": ratio.real, "ratio_im": ratio.imag,
                "abs_ratio_minus_1": abs(ratio - 1.0)}

    records = sorted((one(n) for n in n_values), key=lambda r: r["N"])
    _emit(_header("theorem", args), records, args)
    return EXIT_OK


_LEMMA_GRID_U = (0.2, 0.5, 0.9)
_LEMMA_GRID_P = (1, 2, 3)
_LEMMA_GRID_N = (31, 40, 97)


def _sample_identity_rows(rng, cfg, samples, threshold):
    rows = []
    for name in ("shift", "gamma_half", "unit_shift"):
        for _ in range(samples):
            u = float(rng.choice(_LEMMA_GRID_U))
            p = int(rng.choice(_LEMMA_GRID_P))
            n = int(rng.choice(_LEMMA_GRID_N))
            ctx = EvalContext(u=u, p=p, n=n)
            if name == "shift":
                z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
                residual = check_shift_identity(z, ctx, cfg)
            elif name == "gamma_half":
                g = ctx.gamma.real
                z = complex(rng.uniform(0.1, 0.9) * g * rng.choice((-1, 1)),
                            rng.uniform(-0.3, 0.3))
                residual = check_gamma_half(z, ctx, cfg)
            else:
                g = ctx.gamma.real
                z = complex(rng.uniform(-0.45, 0.45) * g, rng.uniform(-0.3, 0.3))
                residual = check_unit_shift(z, ctx, cfg)
            rows.append({"check": name, "u": u, "p": p, "N": n,
                         "z_re": z.real, "z_im": z.imag,
                         "residual": residual, "pass": residual <= threshold})
    return rows


def _lk_rows(rng, cfg, samples, threshold):
    closed = {0: l0_closed, 1: l1_closed, 2: l2_closed}
    rows = []
    for _ in range(samples):
        k = int(rng.integers(0, 3))
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-1.0, 1.0))
        err = abs(l_k_quadrature(k, z, cfg) - closed[k](z))
        rows.append({"check": f"l{k}_quadrature", "z_re": z.real, "z_im": z.imag,
                     "residual": err, "pass": err <= threshold})
    return rows


def _inequality_rows():
    rows = []
    for u in (0.05, 0.2, 0.5, 0.9):
        for p in (1, 2, 3):
            fs = check_f_sigma(u, p)
            rows.append({"check": "f_sigma", "u": u, "p": p,
                         "re_f0": fs.re_f0, "re_f_sigma0": fs.re_f_sigma0,
                         "pass": fs.ok})
            for m in range(p):
                pc = check_f_p12(u, p, m)
                rows.append({"check": "f_p12", "u": u, "p": p, "m": m,
                             "margin": pc.margin, "pass": pc.ok})
    for name, value, expected, tol in (
        ("kappa", kappa(), 0.962424, 1e-6),
        ("c_10_kappa", c_pm(KAPPA, 1, 0), -14.9942, 5e-3),
        ("c_pm_derivative_bound", c_pm_derivative_bound(), -18.274, 5e-3),
    ):
        rows.append({"check": name, "value": value, "expected": expected,
                     "pass": abs(value - expected) <= tol})
    return rows


def cmd_lemmas(args) -> int:
    rng = np.random.default_rng(args.seed)
    cfg = QuadratureConfig(tol=args.tol)
    rows = _sample_identity_rows(rng, cfg, args.samples, args.threshold)
    rows += _lk_rows(rng, cfg, max(args.samples // 2, 10), max(args.tol, 1e-8))
    rows += _inequality_rows()
    _emit(_header("lemmas", args), rows, args)
    failed = [r for r in rows if not r["pass"]]
    if failed:
        for r in failed:
            print(f"FAIL {r['check']}: {r}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_region(args) -> int:
    grid = grid_scan(args.m, args.u, args.p, resolution=args.res, nu=args.nu)
    components = components_d_cap_e(grid)
    if args.out:
        write_grid_csv(grid, args.out + ".csv")
        write_grid_header(grid, args.out + ".json", components)
    summary = {"schema": "fig8lab/1", "command": "region",
               "components_d_cap_e": components,
               "threshold": grid.threshold,
               "sigma_m": [grid.sigma_m.real, grid.sigma_m.imag]}
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def cmd_modularity(args) -> int:
    eta = ModularMatrix.from_string(args.eta)
    p_list = [int(t) for t in args.p.split(",")]
    n_list = [int(t) for t in args.N_list.split(",")]
    records = []
    if args.zagier:
        for p in p_list:
            for n in n_list:
                lhs = zagier_lhs(eta, p, n)
                rhs = zagier_rhs(eta, p, n)
                records.append({
                    "eta": str(eta), "p": p, "N": n,
                    "lhs": [lhs.logmag, lhs.phase],
                    "rhs": [rhs.logmag, rhs.phase],
                    "bd_constant_re": bettin_drappeau_c(eta).real,
                    "bd_constant_im": bettin_drappeau_c(eta).imag,
                })
        header = _header("modularity-zagier", args)
    else:
        result = estimate_c(eta, args.u, p_list, n_list)
        for p, n, ratio, rhs, r in result.samples:
            records.append({
                "eta": str(eta), "u": args.u, "p": p, "N": n,
                "ratio": [ratio.logmag, ratio.phase],
                "rhs": [rhs.logmag, rhs.phase],
                "C_estimate": [r.real, r.imag],
            })
        for p, est in sorted(result.estimates.items()):
            records.append({"eta": str(eta), "u": args.u, "p": p,
                            "C_extrapolated": [est.real, est.imag]})
        records.append({"eta": str(eta), "u": args.u, "spread": result.spread})
        header = _header("modularity", args)
    _emit(header, records, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fig8lab",
        description="Numerical experiments on the colored Jones polynomial "
                    "of the figure-eight knot at exponential points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("jones", help="evaluate J_N(E;e^{xi/N})")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", required=True, help="single N, list, or range lo..hi")
    sp.add_argument("--step", type=int, default=1)
    output(sp)
    sp.set_defaults(func=cmd_jones)

    sp = sub.add_parser("theorem", help="sweep the main-asymptotics ratio")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", required=True)
    sp.add_argument("--step", type=int, default=1)
    sp.add_argument("--allow-noncoprime", action="store_true")
    output(sp)
    sp.set_defaults(func=cmd_theorem)

    sp = sub.add_parser("lemmas", help="identity and inequality residual suite")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--threshold", type=float, default=1e-7,
                    help="pass/fail residual threshold for the identities")
    sp.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    sp.add_argument("--seed", type=int, default=0)
    output(sp)
    sp.set_defaults(func=cmd_lemmas)

    sp = sub.add_parser("region", help="saddle-region grid scan and components")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--res", type=int, default=400)
    sp.add_argument("--nu", type=float, default=0.02)
    sp.add_argument("--out", help="prefix of the grid files OUT.csv and OUT.json")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("modularity", help="quantum-modularity ratio experiments")
    sp.add_argument("--eta", required=True, help="matrix entries a,b,c,d")
    sp.add_argument("--u", type=float, default=0.5)
    sp.add_argument("--p", default="1,2,3")
    sp.add_argument("--N-list", dest="N_list", default="299,599,899")
    sp.add_argument("--zagier", action="store_true",
                    help="u=0 root-of-unity comparison (exploratory)")
    output(sp)
    sp.set_defaults(func=cmd_modularity)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
