"""Command-line interface.

Every subcommand writes CSV with a `#`-prefixed comment header recording
the parameters and library version, 17 significant digits, and stable
row ordering, so repeated runs with the same arguments (and seed, where
one applies) are byte-identical.

Exit codes: 2 parameter validation, 3 numerical tolerance / validation
failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import __version__
from . import ehrenfest as eh
from . import mc
from . import oujump as ou
from .specfun import NonConvergenceError
from .validate import SUITES, ValidationError, run_suites

_FIG_XI_LIST = (0.25, 0.5, 1.0, 1.5)
_FIG_XI_LIST_WITH_FREE = (0.0, 0.25, 0.5, 1.0, 1.5)
_FIG8_TIMES = (0.5, 1.0, 2.0)


def _fmt(x):
    return f"{float(x):.17g}"


def _out_dir(args):
    if getattr(args, "out_dir", None):
        return args.out_dir
    return os.environ.get("EHRENFESTCAT_OUTDIR", ".")


def write_csv(path, params, columns):
    """CSV with `# key = value` metadata lines, then a header row and data."""
    names = list(columns)
    cols = [np.atleast_1d(np.asarray(columns[c], dtype=float)) for c in names]
    lines = [f"# ehrenfestcat {__version__}"]
    for key, value in params.items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(names))
    row_fmt = ",".join(["%.17g"] * len(cols))   # the same digits as _fmt, per row
    lines.extend(row_fmt % row for row in zip(*(col.tolist() for col in cols), strict=True))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _chain_from_args(args):
    return eh.ChainParams(N=args.N, lam=args.lam, mu=args.mu, xi=args.xi)


def _diffusion_from_args(args):
    return ou.DiffusionParams(alpha=args.alpha, beta=args.beta, nu=args.nu, xi=args.xi)


# ----------------------------------------------------------------------
# plain subcommands


def cmd_qn(args):
    p = _chain_from_args(args)
    stat = eh.stationary_row(p)
    free = eh.q_free_row(p)
    path = args.out or os.path.join(_out_dir(args), "qn.csv")
    write_csv(
        path,
        {"N": p.N, "lambda": p.lam, "mu": p.mu, "xi": p.xi},
        {"n": stat.states, "q_n": stat.values, "q_free_n": free.values},
    )
    print(path)


def cmd_pjn(args):
    p = _chain_from_args(args)
    row = eh.p_cat_closed_row(p, args.j, args.t)
    cols = {"n": row.states, "p_jn": row.values}
    if args.check:
        cols["p_jn_quadrature"] = eh.p_cat_quadrature_row(p, args.j, args.t).values
    path = args.out or os.path.join(_out_dir(args), "pjn.csv")
    write_csv(path, {"N": p.N, "lambda": p.lam, "mu": p.mu, "xi": p.xi,
                     "j": args.j, "t": args.t}, cols)
    print(path)


def cmd_moments(args):
    p = _chain_from_args(args)
    pfree = dataclasses.replace(p, xi=0.0)
    grid = eh.default_time_grid(p, args.points, args.t_max)
    cols = {
        "t": grid,
        "mean": eh.mean_cat(p, args.j, grid),
        "variance": eh.var_cat(p, args.j, grid),
        "mean_free": eh.mean_cat(pfree, args.j, grid),
        "variance_free": eh.var_cat(pfree, args.j, grid),
    }
    path = args.out or os.path.join(_out_dir(args), "moments.csv")
    write_csv(path, {"N": p.N, "lambda": p.lam, "mu": p.mu, "xi": p.xi, "j": args.j}, cols)
    print(path)


def cmd_fpt(args):
    p = _chain_from_args(args)
    mean, m2 = eh.fpt_moments_linear(p, args.j)
    meta = {"N": p.N, "lambda": p.lam, "mu": p.mu, "xi": p.xi, "j": args.j,
            "mean": _fmt(mean), "second_moment": _fmt(m2),
            "variance": _fmt(m2 - mean * mean)}
    if p.is_symmetric:
        grid = eh.default_time_grid(p, args.points, args.t_max)
        dens = eh.fpt_density_cat_curve(p, args.j, grid)
        cols = {"t": dens.grid, "density": dens.samples}
    else:
        # no closed-form density off the symmetric diagonal; moments only
        cols = {"mean": [mean], "second_moment": [m2]}
    path = args.out or os.path.join(_out_dir(args), "fpt.csv")
    write_csv(path, meta, cols)
    print(path)


def cmd_diffusion_density(args):
    d = _diffusion_from_args(args)
    sd = np.sqrt(d.nu)
    lo = args.x_min if args.x_min is not None else d.beta - 6.0 * sd
    hi = args.x_max if args.x_max is not None else d.beta + 6.0 * sd
    xs = np.linspace(lo, hi, args.points)
    cols = {
        "x": xs,
        "f": ou.f_cat(d, xs, args.y, args.t),
        "stationary": ou.W_cat(d, xs) if d.xi > 0.0 else [ou.w_free(d, float(x)) for x in xs],
    }
    path = args.out or os.path.join(_out_dir(args), "diffusion_density.csv")
    write_csv(path, {"alpha": d.alpha, "beta": d.beta, "nu": d.nu, "xi": d.xi,
                     "y": args.y, "t": args.t}, cols)
    print(path)


def cmd_diffusion_fpt(args):
    d = _diffusion_from_args(args)
    meta = {"alpha": d.alpha, "beta": d.beta, "nu": d.nu, "xi": d.xi, "y": args.y}
    if d.xi > 0.0:
        mean = ou.mean_fpt_cat(d, args.y)
        m2 = ou.m2_fpt_cat(d, args.y)
        meta["mean"] = _fmt(mean)
        meta["second_moment"] = _fmt(m2)
        meta["variance"] = _fmt(m2 - mean * mean)
    t_max = args.t_max if args.t_max is not None else 10.0 / (d.alpha + d.xi)
    grid = np.linspace(0.0, t_max, args.points)
    if d.beta == 0.0:
        dens = ou.fpt_density_cat_sym(d, args.y, grid)
    else:
        # no closed form off beta=0: numerical transform inversion
        dens = [d.xi if t == 0.0 else
                ou.talbot_invert(lambda s: ou.fpt_laplace_cat(d, args.y, s), float(t))
                for t in grid]
    path = args.out or os.path.join(_out_dir(args), "diffusion_fpt.csv")
    write_csv(path, meta, {"t": grid, "density": dens})
    print(path)


def cmd_simulate(args):
    cfg = mc.SimConfig(seed=args.seed, n_paths=args.paths, horizon=args.horizon)
    if args.model == "chain":
        p = eh.ChainParams(N=args.N, lam=args.lam, mu=args.mu, xi=args.xi)
        est = mc.estimate_chain_law(p, args.j, args.t, cfg)
        cols = {"n": est.law.states, "p_hat": est.law.values, "std_error": est.std_error}
        meta = {"model": "chain", "N": p.N, "lambda": p.lam, "mu": p.mu, "xi": p.xi,
                "j": args.j, "t": args.t, "paths": args.paths, "seed": args.seed}
    else:
        d = ou.DiffusionParams(alpha=args.alpha, beta=args.beta, nu=args.nu, xi=args.xi)
        est = mc.estimate_fpt(d, args.y, cfg, half_step_check=False)
        cols = {"t_mid": est.density.grid, "density": est.density.samples}
        meta = {"model": "diffusion", "alpha": d.alpha, "beta": d.beta, "nu": d.nu,
                "xi": d.xi, "y": args.y, "paths": args.paths, "seed": args.seed,
                "fpt_mean": _fmt(est.mean.value), "fpt_mean_se": _fmt(est.mean.std_error),
                "fpt_variance": _fmt(est.variance.value),
                "censored": est.n_censored}
    meta["stream"] = mc.STREAM_VERSION
    path = args.out or os.path.join(_out_dir(args), f"simulate_{args.model}.csv")
    write_csv(path, meta, cols)
    print(path)


def cmd_validate(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    run_suites(names)


# ----------------------------------------------------------------------
# figure reproduction

_FIG2 = {"2a": (0.6, 0.6, 0.5), "2b": (0.6, 0.6, 1.0), "2c": (0.2, 0.6, 0.5), "2d": (0.6, 0.2, 0.5)}
_FIG3 = {"3a": (0.6, 0.6, 0.5, 6), "3b": (0.6, 0.6, 1.0, 6), "3c": (0.2, 0.6, 0.5, 6), "3d": (0.6, 0.2, 0.5, -6)}
_FIG4 = {"4a": (0.6, 0.6, "mean"), "4b": (0.6, 0.6, "variance"),
         "4c": (0.6, 0.2, "mean"), "4d": (0.6, 0.2, "variance")}
_FIG5 = {"5a": 3, "5b": 6}
_FIG6 = {"6a": (0.6, 0.6, 0.5), "6b": (0.6, 0.6, 1.0), "6c": (0.2, 0.3, 0.5), "6d": (0.3, 0.2, 0.5)}
_FIG7 = {"7a": (0.6, 0.6, "mean"), "7b": (0.6, 0.6, "variance"),
         "7c": (0.3, 0.2, "mean"), "7d": (0.3, 0.2, "variance")}
_FIG8 = {"8a": 0.0, "8b": 0.5}
_FIG9 = {"9a": 3, "9b": 6}
_FIG10 = {"10a": "mean", "10b": "variance"}

FIGURE_IDS = (
    list(_FIG2) + list(_FIG3) + list(_FIG4) + list(_FIG5) + list(_FIG6)
    + list(_FIG7) + list(_FIG8) + list(_FIG9) + list(_FIG10)
)


def _figure_columns(fig_id):
    N, eps = 10, 0.01
    if fig_id in _FIG2:
        lam, mu, xi = _FIG2[fig_id]
        p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
        stat, free = eh.stationary_row(p), eh.q_free_row(p)
        meta = {"N": N, "lambda": lam, "mu": mu, "xi": xi}
        return meta, {"n": stat.states, "q_n": stat.values, "q_free_n": free.values}

    if fig_id in _FIG3:
        lam, mu, xi, j = _FIG3[fig_id]
        p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
        grid = eh.default_time_grid(p)
        rows = eh.p_cat_closed_rows(p, j, grid)
        cols = {"t": grid}
        for n in range(-N, N + 1):
            cols[f"p_n{n}"] = rows[:, n + N]
        return {"N": N, "lambda": lam, "mu": mu, "xi": xi, "j": j}, cols

    if fig_id in _FIG4:
        lam, mu, which = _FIG4[fig_id]
        j = 6
        pfree = eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.0)
        grid = eh.default_time_grid(pfree)
        cols = {"t": grid}
        f = eh.mean_cat if which == "mean" else eh.var_cat
        for xi in _FIG_XI_LIST:
            cols[f"{which}_xi{xi}"] = f(eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi), j, grid)
        cols[f"{which}_free"] = f(pfree, j, grid)
        return {"N": N, "lambda": lam, "mu": mu, "j": j, "quantity": which}, cols

    if fig_id in _FIG5:
        j = _FIG5[fig_id]
        lam = mu = 0.6
        grid = eh.default_time_grid(eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.5))
        cols = {"t": grid}
        for xi in _FIG_XI_LIST + (0.0,):
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
            cols[f"g_xi{xi}" if xi > 0.0 else "g_free"] = eh.fpt_density_cat_curve(p, j, grid).samples
        return {"N": N, "lambda": lam, "mu": mu, "j": j}, cols

    if fig_id in _FIG6:
        lam, mu, xi = _FIG6[fig_id]
        p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
        d = ou.scale_params(ou.ScalingMap(eps, p))
        dfree = ou.DiffusionParams(alpha=d.alpha, beta=d.beta, nu=d.nu, xi=0.0)
        stat, free = eh.stationary_row(p), eh.q_free_row(p)
        xs = stat.states * eps
        cols = {
            "n": stat.states,
            "x": xs,
            "q_n": stat.values,
            "w_scaled": eps * ou.W_cat(d, xs),
            "q_free_n": free.values,
            "w_free_scaled": [eps * ou.w_free(dfree, float(x)) for x in xs],
        }
        return {"N": N, "lambda": lam, "mu": mu, "xi": xi, "epsilon": eps}, cols

    if fig_id in _FIG7:
        lam, mu, which = _FIG7[fig_id]
        j = 6
        y = j * eps
        pfree = eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.0)
        grid = eh.default_time_grid(pfree)
        cols = {"t": grid}
        for xi in _FIG_XI_LIST_WITH_FREE:
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
            d = ou.scale_params(ou.ScalingMap(eps, p))
            if which == "mean":
                cols[f"chain_xi{xi}"] = eh.mean_cat(p, j, grid)
                cols[f"diffusion_xi{xi}"] = ou.mean_cat_x(d, y, grid) / eps
            else:
                cols[f"chain_xi{xi}"] = eh.var_cat(p, j, grid)
                cols[f"diffusion_xi{xi}"] = ou.var_cat_x(d, y, grid) / eps**2
        return {"N": N, "lambda": lam, "mu": mu, "j": j, "epsilon": eps, "quantity": which}, cols

    if fig_id in _FIG8:
        xi = _FIG8[fig_id]
        lam = mu = 0.6
        j = 6
        y = j * eps
        p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
        d = ou.scale_params(ou.ScalingMap(eps, p))
        states = p.states
        cols = {"n": states, "x": states * eps}
        for t, row in zip(_FIG8_TIMES, eh.p_cat_closed_rows(p, j, _FIG8_TIMES)):
            cols[f"p_t{t}"] = row
            cols[f"f_scaled_t{t}"] = eps * ou.f_cat(d, states * eps, y, t)
        return {"N": N, "lambda": lam, "mu": mu, "xi": xi, "j": j, "epsilon": eps,
                "times": list(_FIG8_TIMES)}, cols

    if fig_id in _FIG9:
        j = _FIG9[fig_id]
        lam = mu = 0.6
        y = j * eps
        grid = eh.default_time_grid(eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.5))
        cols = {"t": grid}
        for xi in _FIG_XI_LIST_WITH_FREE:
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
            d = ou.scale_params(ou.ScalingMap(eps, p))
            cols[f"chain_xi{xi}"] = eh.fpt_density_cat_curve(p, j, grid).samples
            cols[f"diffusion_xi{xi}"] = ou.fpt_density_cat_sym(d, y, grid)
        return {"N": N, "lambda": lam, "mu": mu, "j": j, "epsilon": eps}, cols

    if fig_id in _FIG10:
        which = _FIG10[fig_id]
        j = 3
        y = j * eps
        xis = np.round(np.arange(0.05, 5.0 + 1e-9, 0.05), 10)
        cols = {"xi": xis}
        for mu in (0.3, 0.6):
            p = eh.ChainParams(N=N, lam=mu, mu=mu)    # the reset rates come as the xi grid
            d = ou.scale_params(ou.ScalingMap(eps, p))
            m, m2 = eh.fpt_moments_linear(p, j, xis)
            cols[f"chain_mu{mu}"] = m if which == "mean" else m2 - m * m
            cols[f"diffusion_mu{mu}"] = (ou.mean_fpt_cat if which == "mean" else ou.var_fpt_cat)(d, y, xis)
        return {"N": N, "j": j, "epsilon": eps, "quantity": which,
                "lambda=mu": "0.3, 0.6"}, cols

    raise ValueError(f"unknown figure id {fig_id!r}; known: {', '.join(FIGURE_IDS)}")


def cmd_figure(args):
    if args.id == "all" and args.out:
        raise ValueError("--id all writes one fig<id>.csv per panel to --out-dir; --out names a single file")
    for fig_id in FIGURE_IDS if args.id == "all" else [args.id]:
        meta, cols = _figure_columns(fig_id)
        meta["figure"] = fig_id
        path = args.out or os.path.join(_out_dir(args), f"fig{fig_id}.csv")
        write_csv(path, meta, cols)
        print(path)


# ----------------------------------------------------------------------


def _checked(parse, ok, need):
    """argparse type: parse the text, then refuse a value that fails ok; argparse names the option."""
    def check(text):
        if not ok(value := parse(text)):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value
    check.__name__ = parse.__name__      # text that is no number: "invalid float value: ..."
    return check


_FINITE = _checked(float, np.isfinite, "finite")
_COUNT = _checked(int, lambda n: n >= 1, "a positive integer")


def _add_chain_args(sp, with_j=True):
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=_FINITE, required=True)
    sp.add_argument("--mu", type=_FINITE, required=True)
    sp.add_argument("--xi", type=_FINITE, default=0.0)
    if with_j:
        sp.add_argument("--j", type=int, required=True)


def _add_diffusion_args(sp):
    sp.add_argument("--alpha", type=_FINITE, required=True)
    sp.add_argument("--beta", type=_FINITE, default=0.0)
    sp.add_argument("--nu", type=_FINITE, required=True)
    sp.add_argument("--xi", type=_FINITE, default=0.0)


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="ehrenfestcat",
        description="Ehrenfest chain with catastrophes and its OU jump-diffusion limit",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("qn", help="stationary law of the chain")
    _add_chain_args(sp, with_j=False)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_qn)

    sp = sub.add_parser("pjn", help="transient law of the chain at one time")
    _add_chain_args(sp)
    sp.add_argument("--t", type=_FINITE, required=True)
    sp.add_argument("--check", action="store_true", help="add the quadrature-path column")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pjn)

    sp = sub.add_parser("moments", help="mean and variance curves of the chain")
    _add_chain_args(sp)
    sp.add_argument("--t-max", type=_FINITE, default=None)
    sp.add_argument("--points", type=_COUNT, default=400)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("fpt", help="chain first-passage time to 0")
    _add_chain_args(sp)
    sp.add_argument("--t-max", type=_FINITE, default=None)
    sp.add_argument("--points", type=_COUNT, default=400)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_fpt)

    sp = sub.add_parser("diffusion-density", help="jump-diffusion transition and stationary densities")
    _add_diffusion_args(sp)
    sp.add_argument("--y", type=_FINITE, required=True)
    sp.add_argument("--t", type=_FINITE, required=True)
    sp.add_argument("--x-min", type=_FINITE, default=None)
    sp.add_argument("--x-max", type=_FINITE, default=None)
    sp.add_argument("--points", type=_COUNT, default=201)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_diffusion_density)

    sp = sub.add_parser("diffusion-fpt", help="jump-diffusion first-passage time to 0")
    _add_diffusion_args(sp)
    sp.add_argument("--y", type=_FINITE, required=True)
    sp.add_argument("--t-max", type=_FINITE, default=None)
    sp.add_argument("--points", type=_COUNT, default=400)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_diffusion_fpt)

    sp = sub.add_parser("figure", help="write the data behind one figure panel, or every panel (--id all)")
    sp.add_argument("--id", required=True, choices=FIGURE_IDS + ["all"])
    sp.add_argument("--out")
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("validate", help="run the numerical validation suites")
    sp.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("simulate", help="Monte Carlo estimates")
    sp.add_argument("--model", choices=["chain", "diffusion"], required=True)
    sp.add_argument("--N", type=int, default=10)
    sp.add_argument("--lambda", dest="lam", type=_FINITE, default=0.6)
    sp.add_argument("--mu", type=_FINITE, default=0.6)
    sp.add_argument("--alpha", type=_FINITE, default=1.2)
    sp.add_argument("--beta", type=_FINITE, default=0.0)
    sp.add_argument("--nu", type=_FINITE, default=0.001)
    sp.add_argument("--xi", type=_FINITE, default=0.5)
    sp.add_argument("--j", type=int, default=6)
    sp.add_argument("--y", type=_FINITE, default=0.03)
    sp.add_argument("--t", type=_FINITE, default=1.0)
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=20260810)
    sp.add_argument("--horizon", type=float, default=None)   # inf: no censoring
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_simulate)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (NonConvergenceError, eh.QuadratureError, ValidationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(3)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        sys.exit(4)
    return 0


if __name__ == "__main__":
    main()
