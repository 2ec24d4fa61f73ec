"""Command-line entry point: every experiment as a subcommand.

Output is machine readable and deterministic: a schema header line followed
by one record per line (JSON) or CSV rows.  Identical invocations (including
--seed) produce byte-identical files.  Exit codes: 0 pass, 1 assertion
failures, 2 bad input (including an --out that cannot be written, or a flag
that the chosen mode would not read, such as a --step other than 1 with a
--N that is not a range lo..hi), 3 numeric non-convergence (a quadrature
that misses qdilog.TOL, a region count that the boundary walk does not
resolve to 2 within region.WALK_HALVINGS halvings, or a value that overflows
a float).

lemmas has no accuracy flags: every quadrature runs at qdilog.TOL, an
identity row passes at residual IDENTITY_BOUND and an L_k row at LK_BOUND.

The argument parser is built once per process, on the first call of main,
and reused by every later call in the same process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .numkernel import DomainError, QuadratureError, reduce_phase
from .qdilog import KAPPA, EvalContext, identity_residuals, l_k_closed, l_k_quadrature
from .jones import jones_at_cusp
from .saddle import asymptotic_ratio, f_zero_value, saddle_data
from .region import (
    c_pm,
    c_pm_derivative_bound,
    check_f_p12,
    components_d_cap_e,
    grid_scan,
    write_grid_csv,
    write_grid_header,
)
from .modularity import ModularMatrix, estimate_c, zagier_sample, bettin_drappeau_c

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


def _log_parts(value: complex) -> list[float]:
    """[log|v|, arg v] of a complex log, the phase reduced into (-pi, pi]; zero has phase 0."""
    if value.real == -math.inf:
        return [value.real, 0.0]
    return [value.real, float(reduce_phase(value.imag))]


def _header(command: str, args) -> dict:
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "format", "command") and v is not None
    }
    return {"schema": "fig8lab/1", "command": command, "params": params}


def _parse_list(text: str, flag: str) -> list[int]:
    """A comma-separated list of integers, repeats dropped, first occurrences in order."""
    try:
        return list(dict.fromkeys(int(t) for t in text.split(",")))
    except ValueError:
        raise DomainError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _parse_n_range(text: str, step: int) -> list[int]:
    if step < 1:
        raise DomainError(f"--step must be a positive integer, got {step}")
    if ".." in text:
        try:
            lo, hi = (int(t) for t in text.split(".."))
        except ValueError:
            raise DomainError(f"--N range must be lo..hi with integer ends, got {text!r}") from None
        values = list(range(lo, hi + 1, step))
        if not values:
            raise DomainError(f"--N range {text} is empty: its end lies below its start")
    elif step != 1:
        raise DomainError(f"--step {step} applies only to a range --N lo..hi, got --N {text}")
    else:
        values = _parse_list(text, "--N")
    if min(values) < 1:
        raise DomainError(f"--N values must be positive integers, got {text}")
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _n_sweep(command: str, args, fields) -> int:
    """One record per N of --N, in increasing N: N, u, p and the fields(ctx) dict."""
    records = [{"N": n, "u": args.u, "p": args.p, **fields(EvalContext(u=args.u, p=args.p, n=n))}
               for n in sorted(_parse_n_range(args.N, args.step))]
    _emit(_header(command, args), records, args)
    return EXIT_OK


def cmd_jones(args) -> int:
    def fields(ctx):
        logmag, phase = _log_parts(jones_at_cusp(ctx))
        return {"logmag": logmag, "phase": phase}

    return _n_sweep("jones", args, fields)


def cmd_theorem(args) -> int:
    def fields(ctx):
        ratio = asymptotic_ratio(ctx)
        return {"ratio_re": ratio.real, "ratio_im": ratio.imag,
                "abs_ratio_minus_1": abs(ratio - 1.0)}

    return _n_sweep("theorem", args, fields)


_LEMMA_GRID_U = (0.2, 0.5, 0.9)
_LEMMA_GRID_P = (1, 2, 3)
_LEMMA_GRID_N = (31, 40, 97)
# lemmas pass bounds: identity residuals, and L_k quadrature against the closed forms
IDENTITY_BOUND = 1e-7
LK_BOUND = 1e-8


def _draw(rng, values: tuple):
    """One of values, drawn as rng.choice(values) draws it, without its conversion to an array."""
    return values[rng.integers(len(values))]


def _sample_identity_rows(rng, samples):
    drawn = []
    contexts = {}
    for name in ("shift", "gamma_half", "unit_shift"):
        for _ in range(samples):
            key = (_draw(rng, _LEMMA_GRID_U), _draw(rng, _LEMMA_GRID_P), _draw(rng, _LEMMA_GRID_N))
            ctx = contexts.get(key)
            if ctx is None:
                ctx = contexts[key] = EvalContext(*key)
            g = ctx.gamma.real
            if name == "shift":
                z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
            elif name == "gamma_half":
                z = complex(rng.uniform(0.1, 0.9) * g * _draw(rng, (-1, 1)),
                            rng.uniform(-0.3, 0.3))
            else:
                z = complex(rng.uniform(-0.45, 0.45) * g, rng.uniform(-0.3, 0.3))
            drawn.append((name, z, ctx))
    residuals = identity_residuals(drawn)
    return [{"check": name, "u": ctx.u, "p": ctx.p, "N": ctx.n,
             "z_re": z.real, "z_im": z.imag,
             "residual": residual, "pass": residual <= IDENTITY_BOUND}
            for (name, z, ctx), residual in zip(drawn, residuals)]


def _lk_rows(rng, samples):
    drawn = [(int(rng.integers(0, 3)), complex(rng.uniform(0.05, 0.95), rng.uniform(-1.0, 1.0)))
             for _ in range(samples)]
    ks, zs = (np.array(column) for column in zip(*drawn))
    values = l_k_quadrature(ks, zs).tolist()
    closed = l_k_closed(ks, zs).tolist()
    rows = []
    for (k, z), value, exact in zip(drawn, values, closed):
        err = abs(value - exact)
        rows.append({"check": f"l{k}_quadrature", "z_re": z.real, "z_im": z.imag,
                     "residual": err, "pass": err <= LK_BOUND})
    return rows


def _inequality_rows():
    grid = [(u, p) for u in (0.05, 0.2, 0.5, 0.9) for p in (1, 2, 3)]
    triples = [(u, p, m) for u, p in grid for m in range(p)]
    margins = iter(check_f_p12(*(np.array(column) for column in zip(*triples))).tolist())
    rows = []
    for u, p in grid:
        re_f0 = f_zero_value(u, p).real
        re_f_sigma0 = saddle_data(u, p).f_sigma0.real
        rows.append({"check": "f_sigma", "u": u, "p": p,
                     "re_f0": re_f0, "re_f_sigma0": re_f_sigma0,
                     "pass": 0.0 < re_f0 < re_f_sigma0})
        for m in range(p):
            margin = next(margins)
            rows.append({"check": "f_p12", "u": u, "p": p, "m": m,
                         "margin": margin, "pass": margin > 0.0})
    for name, value, expected, bound in (
        ("kappa", KAPPA, 0.962424, 1e-6),
        ("c_10_kappa", c_pm(KAPPA, 1, 0), -14.9942, 5e-3),
        ("c_pm_derivative_bound", c_pm_derivative_bound(), -18.274, 5e-3),
    ):
        rows.append({"check": name, "value": value, "expected": expected,
                     "pass": abs(value - expected) <= bound})
    return rows


def cmd_lemmas(args) -> int:
    if args.samples < 0:
        raise DomainError(f"--samples must be a non-negative integer, got {args.samples}")
    if args.seed < 0:
        raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rows = _sample_identity_rows(rng, args.samples)
    rows += _lk_rows(rng, max(args.samples // 2, 10))
    rows += _inequality_rows()
    _emit(_header("lemmas", args), rows, args)
    failed = [r for r in rows if not r["pass"]]
    if failed:
        for r in failed:
            print(f"FAIL {r['check']}: {r}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_region(args) -> int:
    components = components_d_cap_e(args.m, args.u, args.p, resolution=args.res, nu=args.nu)
    if args.out:
        grid = grid_scan(args.m, args.u, args.p, resolution=args.res, nu=args.nu)
        write_grid_csv(grid, args.out + ".csv")
        write_grid_header(grid, args.out + ".json", components)
    sd = saddle_data(args.u, args.p)
    sigma_m = sd.sigma_m(args.m)
    summary = {"schema": "fig8lab/1", "command": "region",
               "components_d_cap_e": components,
               "threshold": sd.f_sigma0.real,
               "sigma_m": [sigma_m.real, sigma_m.imag]}
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


_MODULARITY_U = 0.5


def cmd_modularity(args) -> int:
    if args.zagier and args.u is not None:
        raise DomainError("--u does not apply with --zagier, the u = 0 experiment")
    if not args.zagier and args.u is None:
        args.u = _MODULARITY_U
    try:
        eta = ModularMatrix.from_string(args.eta)
    except ValueError as exc:          # DomainError included
        raise DomainError(f"--eta {args.eta!r}: {exc}") from None
    p_list = _parse_list(args.p, "--p")
    n_list = _parse_list(args.N_list, "--N-list")
    records = []
    if args.zagier:
        bd_constant = bettin_drappeau_c(eta)
        for p in p_list:
            for n in n_list:
                lhs, rhs = zagier_sample(eta, p, n)
                records.append({
                    "eta": str(eta), "p": p, "N": n,
                    "lhs": _log_parts(lhs),
                    "rhs": _log_parts(rhs),
                    "bd_constant_re": bd_constant.real,
                    "bd_constant_im": bd_constant.imag,
                })
        header = _header("modularity-zagier", args)
    else:
        result = estimate_c(eta, args.u, p_list, n_list)
        for p, n, ratio, rhs, r in result.samples:
            records.append({
                "eta": str(eta), "u": args.u, "p": p, "N": n,
                "ratio": _log_parts(ratio),
                "rhs": _log_parts(rhs),
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    Reusing it is safe: parse_args builds a fresh namespace every call, no
    argument has a mutable default or an append action, and the cmd_*
    functions look up module globals when they run.
    """
    parser = argparse.ArgumentParser(
        prog="fig8lab",
        description="Numerical experiments on the colored Jones polynomial "
                    "of the figure-eight knot at exponential points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    def n_sweep(sp):
        sp.add_argument("--u", type=float, required=True)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--N", required=True, help="single N, list, or range lo..hi")
        sp.add_argument("--step", type=int, default=1,
                        help="stride of a range --N lo..hi; only a range takes one")
        output(sp)

    sp = sub.add_parser("jones", help="evaluate J_N(E;e^{xi/N})")
    n_sweep(sp)
    sp.set_defaults(func=cmd_jones)

    sp = sub.add_parser("theorem", help="sweep the main-asymptotics ratio over N")
    n_sweep(sp)
    sp.set_defaults(func=cmd_theorem)

    sp = sub.add_parser("lemmas", help="identity and inequality residual suite")
    sp.add_argument("--samples", type=int, default=50,
                    help="random samples per identity; it also sets max(samples // 2, 10) "
                         "L_k quadrature rows, so --samples 0 still runs 10 of them")
    sp.add_argument("--seed", type=int, default=0)
    output(sp)
    sp.set_defaults(func=cmd_lemmas)

    sp = sub.add_parser("region", help="count the components of D_m within E_m; "
                                       "--out also writes the region grid")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--res", type=int, default=400,
                    help="cells per side of the --out grid, and samples per side of the "
                         "boundary walk that counts the components (at least 50)")
    sp.add_argument("--nu", type=float, default=0.02,
                    help="the box spans (m + nu)/p to (m + 1 - nu)/p in Re z; nu in (0, 0.5), "
                         "small enough to keep sigma_m inside")
    sp.add_argument("--out", help="prefix of the grid files OUT.csv and OUT.json")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("modularity", help="quantum-modularity ratio experiments")
    sp.add_argument("--eta", required=True, help="matrix entries a,b,c,d")
    sp.add_argument("--u", type=float, help=f"default {_MODULARITY_U}; not with --zagier")
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
    except (QuadratureError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
