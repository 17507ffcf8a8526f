"""The benchmark's workloads: the operations of one round and how each is checked.

A round is a fixed list of operations.  Each operation calls into the
library through its module attributes at call time (so that the tracer
can stand in for them) and its output is checked against an oracle from
``oracles.py`` or against a property the method must have.  Checks run
outside the timed section; oracles are imported and computed only then.

Some operations hit faults of the program that are known and kept on
purpose as counted failures (see README.md).  Exactly the operations that
fail today are named as hitting a fault, each with the forms it may take:
the wrong value or the raise seen today, and for a wrong value also the
raise a routine that cannot meet its accuracy should give instead.  Any
other failure makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ehrenfestcat import cli, mc
from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import oujump as ou
from ehrenfestcat.specfun import NonConvergenceError

FAULT_P_CAT = ("p_cat_closed_row returns non-finite or inaccurate rows "
               "(alternating sum in _f_over_c_log_table)")
FAULT_TALBOT = ("talbot_invert raises NonConvergenceError at small t "
                "(complex-order D_p loses precision at large |s|)")
FAULT_TALBOT_INACCURATE = ("talbot_invert passes its own agreement test with a value "
                           "off by more than its tolerance at small t")
FAULT_OU_FPT = ("mc detects the OU first passage only at grid points, "
                "so the estimated mean is biased high")

#: absolute tolerance on chain probabilities against expm and null-space
#: solves; finite rows of the closed forms agree to 8e-13 or better
PROB_ATOL = 1e-10
#: relative tolerance on quantities both sides compute to near machine
#: precision (chain moments, passage densities, beta = 0 passage means)
TIGHT_RTOL = 1e-9
#: renewal quadrature against the library's diffusion densities
DENSITY_RTOL = 1e-8
#: passage-time variances (the library differentiates its transform by
#: finite differences) and the finite-difference backward equation
LOOSE_RTOL = 1e-6
#: Talbot inversion: the inverter's own agreement criterion
TALBOT_RTOL, TALBOT_ATOL = 1e-4, 1e-7
#: Monte Carlo estimates must lie within this many standard errors
MC_Z = 5.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when right, else what is wrong
    fault: str | None = None                 # the named program fault this op may hit
    fault_raises: tuple = ()                 # exceptions that are that fault
    fault_wrong: bool = False                # whether a wrong value is that fault


@dataclass
class Workload:
    ops: list[Op]
    read: Callable[[object], object] = lambda out: out   # op result as checked and hashed
    before_round: Callable[[], None] = lambda: None      # untimed preparation of a round
    notes: dict = field(default_factory=dict)   # values measured by the checks
    paths: dict = field(default_factory=dict)   # op name -> Monte Carlo paths


def build(name, seed, smoke, workdir) -> Workload:
    return {"figures": figures, "chain_large_n": chain_large_n,
            "diffusion": diffusion, "monte_carlo": monte_carlo}[name](seed, smoke, workdir)


# ----------------------------------------------------------------------
# helpers


def _close(got, want, what, rtol=0.0, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = np.flatnonzero(bad.ravel())[0]
        err = np.max(np.abs(got - want)) if np.all(np.isfinite(got)) else math.nan
        return (f"{what}: {int(bad.sum())} of {bad.size} off (max error {err:.3e}); "
                f"first at {i}: {got.ravel()[i]!r} vs {want.ravel()[i]!r}")
    return None


def _first(*errors):
    return next((e for e in errors if e), None)


def digest(obj) -> str:
    """sha256 of a canonical byte form of an op's output (or exception)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj}".encode())
    else:
        h.update(repr(obj).encode())


@functools.cache
def _generator(N, lam, mu, xi):
    import oracles
    return oracles.generator(N, lam, mu, xi)


def _oracles():
    import oracles
    return oracles


# ----------------------------------------------------------------------
# figures: every panel of the figure set through the CLI

FIG_N, FIG_EPS = 10, 0.01
FIG_XIS = (0.25, 0.5, 1.0, 1.5)
FIG_XIS_FREE = (0.0,) + FIG_XIS
#: the reset rates of panels 10a/10b, also swept in the diffusion workload
XI_SWEEP = np.round(np.arange(0.05, 5.0 + 1e-9, 0.05), 10)
SMOKE_PANELS = ("2a", "3d", "4b", "5a", "6c", "7d", "8b", "9a", "10b")

# the panel parameters of the figure set, written out independently of the CLI
PANELS = {
    "2a": ("stationary", 0.6, 0.6, 0.5), "2b": ("stationary", 0.6, 0.6, 1.0),
    "2c": ("stationary", 0.2, 0.6, 0.5), "2d": ("stationary", 0.6, 0.2, 0.5),
    "3a": ("transient", 0.6, 0.6, 0.5, 6), "3b": ("transient", 0.6, 0.6, 1.0, 6),
    "3c": ("transient", 0.2, 0.6, 0.5, 6), "3d": ("transient", 0.6, 0.2, 0.5, -6),
    "4a": ("moments", 0.6, 0.6, "mean"), "4b": ("moments", 0.6, 0.6, "variance"),
    "4c": ("moments", 0.6, 0.2, "mean"), "4d": ("moments", 0.6, 0.2, "variance"),
    "5a": ("fpt", 3), "5b": ("fpt", 6),
    "6a": ("stationary_vs_diffusion", 0.6, 0.6, 0.5), "6b": ("stationary_vs_diffusion", 0.6, 0.6, 1.0),
    "6c": ("stationary_vs_diffusion", 0.2, 0.3, 0.5), "6d": ("stationary_vs_diffusion", 0.3, 0.2, 0.5),
    "7a": ("moments_vs_diffusion", 0.6, 0.6, "mean"), "7b": ("moments_vs_diffusion", 0.6, 0.6, "variance"),
    "7c": ("moments_vs_diffusion", 0.3, 0.2, "mean"), "7d": ("moments_vs_diffusion", 0.3, 0.2, "variance"),
    "8a": ("transient_vs_diffusion", 0.0), "8b": ("transient_vs_diffusion", 0.5),
    "9a": ("fpt_vs_diffusion", 3), "9b": ("fpt_vs_diffusion", 6),
    "10a": ("fpt_moments_vs_xi", "mean"), "10b": ("fpt_moments_vs_xi", "variance"),
}


def figures(seed, smoke, workdir):
    ids = SMOKE_PANELS if smoke else tuple(cli.FIGURE_IDS)
    out = {"dir": None, "rounds": 0}

    def fresh_dir():
        # Each round writes into a new directory, as a first run does.  On
        # ext4, truncating a CSV written moments before waits for its
        # writeback (tens of ms per file), which would make later rounds
        # measure the disk instead of the program.
        if out["dir"]:
            shutil.rmtree(out["dir"], ignore_errors=True)
        out["rounds"] += 1
        out["dir"] = os.path.join(workdir, f"round{out['rounds']}")
        os.makedirs(out["dir"])

    ops = [Op(f"figure.{fid}", functools.partial(_run_panel, fid, out),
              functools.partial(_check_panel, fid)) for fid in ids]
    return Workload(ops, read=_read_bytes, before_round=fresh_dir)


def _run_panel(fid, out):
    try:
        cli.main(["figure", "--id", fid, "--out-dir", out["dir"]])
    except SystemExit as exc:
        raise RuntimeError(f"ehrenfestcat figure --id {fid} exited with {exc.code}") from None
    return os.path.join(out["dir"], f"fig{fid}.csv")


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def parse_csv(data: bytes):
    body = [line for line in data.decode().splitlines() if not line.startswith("#")]
    names = body[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    return {name: rows[:, k] for k, name in enumerate(names)}


def _time_grid(rate):
    return np.linspace(0.0, 10.0 / rate, 400)


def _moments(rows, N):
    n = np.arange(-N, N + 1)
    mean = rows @ n
    return mean, rows @ (n * n) - mean * mean


def _check_panel(fid, data):
    O = _oracles()
    try:
        cols = parse_csv(data)
    except (ValueError, IndexError) as exc:
        return f"unreadable CSV: {exc}"
    kind, *args = PANELS[fid]
    N, eps = FIG_N, FIG_EPS
    states = np.arange(-N, N + 1)
    errs = []

    def need(name):
        if name not in cols:
            errs.append(f"missing column {name}")
            return np.full(1, np.nan)
        return cols[name]

    def cmp(name, want, **tol):
        errs.append(_close(need(name), want, name, **tol))

    if kind == "stationary":
        lam, mu, xi = args
        cmp("n", states)
        cmp("q_n", O.stationary(_generator(N, lam, mu, xi)), atol=PROB_ATOL)
        cmp("q_free_n", O.stationary(_generator(N, lam, mu, 0.0)), atol=PROB_ATOL)
    elif kind == "transient":
        lam, mu, xi, j = args
        grid = _time_grid(lam + mu + xi)
        rows = O.transient_rows(_generator(N, lam, mu, xi), N, j, grid)
        cmp("t", grid, rtol=1e-15)
        for n in states:
            cmp(f"p_n{n}", rows[:, n + N], atol=PROB_ATOL)
        mass = sum(need(f"p_n{n}") for n in states)
        errs.append(_close(mass, np.ones_like(grid), "row sums", atol=PROB_ATOL))
    elif kind == "moments":
        lam, mu, which = args
        grid = _time_grid(lam + mu)
        cmp("t", grid, rtol=1e-15)
        for xi, col in [(xi, f"{which}_xi{xi}") for xi in FIG_XIS] + [(0.0, f"{which}_free")]:
            mean, var = _moments(O.transient_rows(_generator(N, lam, mu, xi), N, 6, grid), N)
            cmp(col, mean if which == "mean" else var, rtol=TIGHT_RTOL, atol=TIGHT_RTOL)
    elif kind == "fpt":
        (j,) = args
        grid = _time_grid(0.6 + 0.6 + 0.5)
        cmp("t", grid, rtol=1e-15)
        for xi, col in [(xi, f"g_xi{xi}") for xi in FIG_XIS] + [(0.0, "g_free")]:
            cmp(col, O.fpt_density(_generator(N, 0.6, 0.6, xi), N, j, grid),
                rtol=TIGHT_RTOL, atol=PROB_ATOL)
    elif kind == "stationary_vs_diffusion":
        lam, mu, xi = args
        alpha, beta, nu, _ = O.ou_params(N, lam, mu, xi, eps)
        xs = states * eps
        cmp("n", states)
        cmp("x", xs, rtol=1e-15)
        cmp("q_n", O.stationary(_generator(N, lam, mu, xi)), atol=PROB_ATOL)
        cmp("q_free_n", O.stationary(_generator(N, lam, mu, 0.0)), atol=PROB_ATOL)
        cmp("w_scaled", [eps * O.renewal_stationary(x, alpha, beta, nu, xi) for x in xs],
            rtol=DENSITY_RTOL, atol=1e-14)
        cmp("w_free_scaled", [eps * O.stationary_free(x, beta, nu) for x in xs],
            rtol=DENSITY_RTOL, atol=1e-14)
    elif kind == "moments_vs_diffusion":
        lam, mu, which = args
        j, y = 6, 6 * eps
        grid = _time_grid(lam + mu)
        cmp("t", grid, rtol=1e-15)
        for xi in FIG_XIS_FREE:
            mean, var = _moments(O.transient_rows(_generator(N, lam, mu, xi), N, j, grid), N)
            alpha, beta, nu, _ = O.ou_params(N, lam, mu, xi, eps)
            m1, m2 = O.ou_moments(y, alpha, beta, nu, xi, grid)
            if which == "mean":
                cmp(f"chain_xi{xi}", mean, rtol=TIGHT_RTOL, atol=TIGHT_RTOL)
                cmp(f"diffusion_xi{xi}", m1 / eps, rtol=TIGHT_RTOL, atol=TIGHT_RTOL)
            else:
                cmp(f"chain_xi{xi}", var, rtol=TIGHT_RTOL, atol=TIGHT_RTOL)
                cmp(f"diffusion_xi{xi}", (m2 - m1 * m1) / eps**2, rtol=TIGHT_RTOL, atol=TIGHT_RTOL)
    elif kind == "transient_vs_diffusion":
        (xi,) = args
        j, y = 6, 6 * eps
        alpha, beta, nu, _ = O.ou_params(N, 0.6, 0.6, xi, eps)
        xs = states * eps
        times = (0.5, 1.0, 2.0)
        rows = O.transient_rows(_generator(N, 0.6, 0.6, xi), N, j, times)
        cmp("n", states)
        for k, t in enumerate(times):
            cmp(f"p_t{t}", rows[k], atol=PROB_ATOL)
            if xi > 0.0:
                want = [eps * O.renewal_density(x, t, y, alpha, beta, nu, xi) for x in xs]
            else:
                want = [eps * O.gauss_free(x, t, y, alpha, beta, nu) for x in xs]
            cmp(f"f_scaled_t{t}", want, rtol=DENSITY_RTOL, atol=1e-14)
    elif kind == "fpt_vs_diffusion":
        (j,) = args
        y = j * eps
        grid = _time_grid(0.6 + 0.6 + 0.5)
        alpha, _, nu, _ = O.ou_params(N, 0.6, 0.6, 0.0, eps)
        cmp("t", grid, rtol=1e-15)
        for xi in FIG_XIS_FREE:
            cmp(f"chain_xi{xi}", O.fpt_density(_generator(N, 0.6, 0.6, xi), N, j, grid),
                rtol=TIGHT_RTOL, atol=PROB_ATOL)
            cmp(f"diffusion_xi{xi}", [O.fpt_density_sym(t, y, alpha, nu, xi) for t in grid],
                rtol=TIGHT_RTOL, atol=PROB_ATOL)
    elif kind == "fpt_moments_vs_xi":
        (which,) = args
        j, y = 3, 3 * eps
        cmp("xi", XI_SWEEP, rtol=1e-15)
        for mu in (0.3, 0.6):
            chain = np.array([O.fpt_moments(_generator(N, mu, mu, float(xi)), N, j) for xi in XI_SWEEP])
            diff = np.array([_fpt_moments_sym(y, 2.0 * mu, N * eps * eps, float(xi)) for xi in XI_SWEEP])
            if which == "mean":
                cmp(f"chain_mu{mu}", chain[:, 0], rtol=TIGHT_RTOL)
                cmp(f"diffusion_mu{mu}", diff[:, 0], rtol=TIGHT_RTOL)
            else:
                cmp(f"chain_mu{mu}", chain[:, 1] - chain[:, 0] ** 2, rtol=TIGHT_RTOL)
                cmp(f"diffusion_mu{mu}", diff[:, 1], rtol=LOOSE_RTOL)
    return _first(*errs)


@functools.cache
def _fpt_moments_sym(y, alpha, nu, xi):
    return _oracles().fpt_moments_sym(y, alpha, nu, xi)


# ----------------------------------------------------------------------
# chain_large_n: the chain closed forms in few large calls

CHAIN_NS = (20, 40, 80)
CHAIN_RATES = ((0.6, 0.6, "rho1"), (0.9, 0.3, "rho3"), (0.3, 0.9, "rho1_3"))
CHAIN_XI = 0.5
CHAIN_TIMES = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 8.0)
CHAIN_FPT_POINTS = 100
#: p_cat_closed_row fails today at every t up to this one, per N: the rows
#: are non-finite, negative or (N = 20, t = 0.3) off expm by up to 6e-10
P_CAT_FAILS_UP_TO_T = {20: 0.3, 40: 1.0, 80: 1.0}


def chain_large_n(seed, smoke, workdir):
    ops = []
    for N in (CHAIN_NS[:1] if smoke else CHAIN_NS):
        for lam, mu, tag in CHAIN_RATES:
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=CHAIN_XI)
            j = N // 2
            key = (N, lam, mu, CHAIN_XI)
            name = f"N{N}.{tag}"
            ops.append(Op(f"q_cat_row.{name}", functools.partial(_q_cat_row, p),
                          functools.partial(_check_stationary, key)))
            for t in CHAIN_TIMES:
                op = Op(f"p_cat_closed_row.{name}.t{t}", functools.partial(_p_cat_row, p, j, t),
                        functools.partial(_check_transient_row, key, j, t))
                if t <= P_CAT_FAILS_UP_TO_T[N]:
                    op.fault, op.fault_wrong, op.fault_raises = FAULT_P_CAT, True, (ValueError,)
                ops.append(op)
            if lam == mu:
                grid = np.linspace(0.0, 10.0 / (lam + mu + CHAIN_XI), CHAIN_FPT_POINTS)
                ops.append(Op(f"fpt_density_cat_curve.{name}",
                              functools.partial(_fpt_curve, p, j, grid),
                              functools.partial(_check_fpt_curve, key, j, grid)))
            ops.append(Op(f"fpt_moments_linear.{name}", functools.partial(_fpt_linear, p, j),
                          functools.partial(_check_fpt_moments, key, j)))
    return Workload(ops)


def _q_cat_row(p):
    return eh.q_cat_row(p)


def _p_cat_row(p, j, t):
    return eh.p_cat_closed_row(p, j, t)


def _fpt_curve(p, j, grid):
    return eh.fpt_density_cat_curve(p, j, grid)


def _fpt_linear(p, j):
    return eh.fpt_moments_linear(p, j)


def _check_stationary(key, out):
    return _close(out.values, _oracles().stationary(_generator(*key)), "q_n", atol=PROB_ATOL)


def _check_transient_row(key, j, t, out):
    want = _oracles().transient_rows(_generator(*key), key[0], j, [t])[0]
    return _close(out.values, want, f"p(t={t})", atol=PROB_ATOL)


def _check_fpt_curve(key, j, grid, out):
    want = _oracles().fpt_density(_generator(*key), key[0], j, grid)
    return _first(_close(out.grid, grid, "grid"),
                  _close(out.samples, want, "density", rtol=TIGHT_RTOL, atol=PROB_ATOL))


def _check_fpt_moments(key, j, out):
    want = _oracles().fpt_moments(_generator(*key), key[0], j)
    return _close(out, want, "passage moments", rtol=TIGHT_RTOL)


# ----------------------------------------------------------------------
# diffusion: the OU-with-resets closed forms and Talbot inversion

ALPHA, NU, XI = 1.2, 0.001, 0.5
DENSITY_BETAS = (0.0, 0.004, -0.01)
DENSITY_TIMES = (0.25, 1.0)
DENSITY_Y = 0.06
DENSITY_POINTS = 120      # even, so that x = 0 (excluded by f_cat_sym) is not on the grid
FPT_Y = 0.03
TALBOT_BETAS = (0.0, 0.004, -0.004, 0.01, -0.01)
#: the diffusion-fpt CLI grid on [0, 10/(alpha+xi)], without t = 0
TALBOT_GRID = np.linspace(0.0, 10.0 / (ALPHA + XI), 400)[1:]
SMOKE_TALBOT_POINTS = 40  # the first points of that grid, where the inverter fails
#: talbot_invert raises today at this many of the smallest grid times, per beta
TALBOT_RAISES_BELOW = {0.0: 4, 0.004: 1, -0.004: 5, 0.01: 0, -0.01: 8}
#: and returns a value off by 1.3e-4 relative at these (beta, grid index)
TALBOT_INACCURATE_AT = {(0.004, 1)}


def diffusion(seed, smoke, workdir):
    xs = np.linspace(-0.15, 0.15, 20 if smoke else DENSITY_POINTS)
    xis = XI_SWEEP[::10] if smoke else XI_SWEEP
    n_talbot = SMOKE_TALBOT_POINTS if smoke else TALBOT_GRID.size
    ops = []
    for beta in DENSITY_BETAS:
        d = ou.DiffusionParams(alpha=ALPHA, beta=beta, nu=NU, xi=XI)
        norm_w = functools.partial(_normalisation, "W_cat", d, None)
        for x in xs:
            x = float(x)
            ops.append(Op(f"W_cat.b{beta}.x{x:.4f}", functools.partial(_w_cat, d, x),
                          functools.partial(_check_w, d, x, norm_w)))
        for t in DENSITY_TIMES:
            norm_f = functools.partial(_normalisation, "f_cat", d, t)
            for x in xs:
                x = float(x)
                ops.append(Op(f"f_cat.b{beta}.t{t}.x{x:.4f}", functools.partial(_f_cat, d, x, t),
                              functools.partial(_check_f, d, x, t, norm_f)))
            if beta == 0.0:
                norm_s = functools.partial(_normalisation, "f_cat_sym", d, t)
                for x in xs:
                    x = float(x)
                    ops.append(Op(f"f_cat_sym.t{t}.x{x:.4f}", functools.partial(_f_cat_sym, d, x, t),
                                  functools.partial(_check_f, d, x, t, norm_s)))
        for xi in xis:
            dx = ou.DiffusionParams(alpha=ALPHA, beta=beta, nu=NU, xi=float(xi))
            ops.append(Op(f"mean_fpt_cat.b{beta}.xi{xi}", functools.partial(_mean_fpt, dx),
                          functools.partial(_check_fpt_moment, dx, 0)))
            ops.append(Op(f"var_fpt_cat.b{beta}.xi{xi}", functools.partial(_var_fpt, dx),
                          functools.partial(_check_fpt_moment, dx, 1)))
    for beta in TALBOT_BETAS:
        d = ou.DiffusionParams(alpha=ALPHA, beta=beta, nu=NU, xi=XI)
        for k in range(n_talbot):
            t = float(TALBOT_GRID[k])
            op = Op(f"talbot.b{beta}.t{t:.6f}", functools.partial(_talbot, d, t),
                    functools.partial(_check_talbot, d, k))
            if k < TALBOT_RAISES_BELOW[beta]:
                op.fault, op.fault_raises = FAULT_TALBOT, (NonConvergenceError,)
            elif (beta, k) in TALBOT_INACCURATE_AT:
                op.fault, op.fault_wrong = FAULT_TALBOT_INACCURATE, True
                op.fault_raises = (NonConvergenceError,)
            ops.append(op)
    return Workload(ops)


def _w_cat(d, x):
    return ou.W_cat(d, x)


def _f_cat(d, x, t):
    return ou.f_cat(d, x, DENSITY_Y, t)


def _f_cat_sym(d, x, t):
    return ou.f_cat_sym(d, x, DENSITY_Y, t)


def _mean_fpt(d):
    return ou.mean_fpt_cat(d, FPT_Y)


def _var_fpt(d):
    return ou.var_fpt_cat(d, FPT_Y)


def _talbot(d, t):
    return ou.talbot_invert(lambda s: ou.fpt_laplace_cat(d, FPT_Y, s), t)


@functools.cache
def _normalisation(which, d, t):
    """Whether the library's density integrates to 1 over x (checked by quad)."""
    from scipy.integrate import quad
    if which == "W_cat":
        f = lambda x: ou.W_cat(d, x)
    elif which == "f_cat":
        f = lambda x: ou.f_cat(d, x, DENSITY_Y, t)
    else:
        f = lambda x: ou.f_cat_sym(d, x, DENSITY_Y, t)
    edges = sorted({-0.5, min(0.0, d.beta), max(0.0, d.beta), 0.5})
    total = sum(quad(f, a, b, epsabs=1e-12, epsrel=1e-11, limit=400)[0]
                for a, b in zip(edges[:-1], edges[1:]) if b > a)
    if abs(total - 1.0) > 1e-8:
        return f"{which} integrates to {total!r} over x, not 1"
    return None


def _check_w(d, x, norm, out):
    want = _oracles().renewal_stationary(x, d.alpha, d.beta, d.nu, d.xi)
    return _first(_close(out, want, "W_cat", rtol=DENSITY_RTOL, atol=1e-12), norm())


def _check_f(d, x, t, norm, out):
    want = _oracles().renewal_density(x, t, DENSITY_Y, d.alpha, d.beta, d.nu, d.xi)
    return _first(_close(out, want, "f_cat", rtol=DENSITY_RTOL, atol=1e-12), norm())


@functools.cache
def _fpt_moments_ref(d):
    O = _oracles()
    if d.beta == 0.0:
        return O.fpt_moments_sym(FPT_Y, d.alpha, d.nu, d.xi)
    return O.fpt_moments_fd(FPT_Y, d.alpha, d.beta, d.nu, d.xi)


def _check_fpt_moment(d, k, out):
    rtol = TIGHT_RTOL if (k == 0 and d.beta == 0.0) else LOOSE_RTOL
    return _close(out, _fpt_moments_ref(d)[k], ("mean", "variance")[k], rtol=rtol)


@functools.cache
def _talbot_ref(d):
    """Passage density on TALBOT_GRID: the closed form at beta = 0, else the
    diagonalised backward equation (within 2e-8 relative of it at beta = 0)."""
    O = _oracles()
    if d.beta == 0.0:
        return np.array([O.fpt_density_sym(float(t), FPT_Y, d.alpha, d.nu, d.xi) for t in TALBOT_GRID])
    return O.fpt_density_fd(TALBOT_GRID, FPT_Y, d.alpha, d.beta, d.nu, d.xi)


def _check_talbot(d, k, out):
    return _close(out, _talbot_ref(d)[k], "density", rtol=TALBOT_RTOL, atol=TALBOT_ATOL)


# ----------------------------------------------------------------------
# monte_carlo: the four estimators of mc

MC_CHAIN = dict(N=10, lam=0.6, mu=0.6, xi=0.5)
MC_LAW_J, MC_LAW_T, MC_FPT_J = 6, 1.0, 3
MC_OU_END_Y, MC_OU_END_T, MC_OU_FPT_Y = 0.06, 1.0, 0.03
MC_PATHS = {"chain_law": 20_000, "chain_fpt": 20_000, "ou_endpoints": 10_000, "ou_fpt": 100_000}
MC_SMOKE_PATHS = {"chain_law": 2_000, "chain_fpt": 2_000, "ou_endpoints": 1_000, "ou_fpt": 100_000}
#: the OU passage estimate hits a known fault on every seed; it runs on this
#: fixed stream seed (the CLI's default) so that its failure does not depend
#: on --seed
MC_OU_FPT_SEED = 20260810


def monte_carlo(seed, smoke, workdir):
    paths = MC_SMOKE_PATHS if smoke else MC_PATHS
    p = eh.ChainParams(**MC_CHAIN)
    d = ou.DiffusionParams(alpha=ALPHA, beta=0.0, nu=NU, xi=XI)
    cfg = {k: mc.SimConfig(seed=seed, n_paths=n) for k, n in paths.items()}
    cfg["ou_fpt"] = mc.SimConfig(seed=MC_OU_FPT_SEED, n_paths=paths["ou_fpt"],
                                 fpt_grid_dt=4.0 * mc.default_fpt_grid_dt(d))
    wl = Workload([], paths=dict(paths))
    wl.ops = [
        Op("chain_law", functools.partial(_chain_law, p, cfg["chain_law"]),
           functools.partial(_check_chain_law, p, paths["chain_law"])),
        Op("chain_fpt", functools.partial(_chain_fpt, p, cfg["chain_fpt"]),
           functools.partial(_check_chain_fpt, p)),
        Op("ou_endpoints", functools.partial(_ou_endpoints, d, cfg["ou_endpoints"]),
           functools.partial(_check_ou_endpoints, d)),
        Op("ou_fpt", functools.partial(_ou_fpt, d, cfg["ou_fpt"]),
           functools.partial(_check_ou_fpt, d, wl.notes),
           fault=FAULT_OU_FPT, fault_wrong=True),
    ]
    return wl


def _chain_law(p, cfg):
    return mc.estimate_chain_law(p, MC_LAW_J, MC_LAW_T, cfg)


def _chain_fpt(p, cfg):
    return mc.estimate_fpt(p, MC_FPT_J, cfg)


def _ou_endpoints(d, cfg):
    return mc.sample_ou_endpoints(d, MC_OU_END_Y, MC_OU_END_T, cfg)


def _ou_fpt(d, cfg):
    return mc.estimate_fpt(d, MC_OU_FPT_Y, cfg, half_step_check=False)


def _z_check(what, value, want, se):
    z = (value - want) / se if se > 0.0 else (0.0 if value == want else math.inf)
    if not abs(z) <= MC_Z:
        return f"{what}: {value!r} vs {want!r} is {z:+.2f} standard errors off"
    return None


def _check_chain_law(p, n, out):
    """Per-state z-tests where the expected count is at least 20, the
    remaining states pooled into one bin, and a chi-square test over the
    same bins at the tail probability of MC_Z standard errors."""
    from scipy.stats import chi2, norm
    want = _oracles().transient_rows(_generator(p.N, p.lam, p.mu, p.xi), p.N, MC_LAW_J, [MC_LAW_T])[0]
    got = out.law.values
    big = want * n >= 20.0
    errs = [_z_check(f"P(M={s - p.N})", got[s], want[s], math.sqrt(want[s] * (1 - want[s]) / n))
            for s in np.flatnonzero(big)]
    expected, observed = list(want[big] * n), list(got[big] * n)
    pooled, pooled_got = float(want[~big].sum()), float(got[~big].sum())
    if pooled * n >= 20.0:
        errs.append(_z_check("pooled rare states", pooled_got, pooled,
                             math.sqrt(pooled * (1 - pooled) / n)))
        expected.append(pooled * n)
        observed.append(pooled_got * n)
    elif pooled_got * n > pooled * n + MC_Z * math.sqrt(pooled * n) + MC_Z:
        errs.append(f"pooled rare states: {pooled_got * n:.0f} paths, expected {pooled * n:.2f}")
    e, o = np.array(expected), np.array(observed)
    stat = float(np.sum((o - e) ** 2 / e))
    if chi2.sf(stat, e.size - 1) < 2.0 * norm.sf(MC_Z):
        errs.append(f"chi-square {stat:.1f} on {e.size - 1} degrees of freedom")
    return _first(*errs)


def _check_chain_fpt(p, out):
    mean, second = _oracles().fpt_moments(_generator(p.N, p.lam, p.mu, p.xi), p.N, MC_FPT_J)
    return _first(None if out.n_censored == 0 else f"{out.n_censored} paths censored",
                  _z_check("passage mean", out.mean.value, mean, out.mean.std_error),
                  _z_check("passage variance", out.variance.value, second - mean * mean,
                           out.variance.std_error))


def _check_ou_endpoints(d, out):
    m1, m2 = _oracles().ou_moments(MC_OU_END_Y, d.alpha, d.beta, d.nu, d.xi, [MC_OU_END_T])
    n = out.size
    return _first(
        _z_check("endpoint mean", float(out.mean()), float(m1[0]), float(out.std(ddof=1)) / math.sqrt(n)),
        _z_check("endpoint second moment", float((out**2).mean()), float(m2[0]),
                 float((out**2).std(ddof=1)) / math.sqrt(n)),
    )


def _check_ou_fpt(d, notes, out):
    mean, _ = _fpt_moments_sym(MC_OU_FPT_Y, d.alpha, d.nu, d.xi)
    notes["ou_fpt_bias_z"] = (out.mean.value - mean) / out.mean.std_error
    return _first(None if out.n_censored == 0 else f"{out.n_censored} paths censored",
                  _z_check("passage mean", out.mean.value, mean, out.mean.std_error))
