"""Self-check suites behind the `validate` CLI subcommand.

Each suite runs a condensed version of the library's cross-checks
(special-function identities, the chain oracle triangle, diffusion
density consistency, Monte Carlo concordance) and reports one line per
check.  The full-size versions live in the test suite; these are sized
to finish in seconds so a build can be smoke-checked from the command
line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import ehrenfest as eh
from . import mc
from . import oujump as ou
from . import specfun as sf


class ValidationError(RuntimeError):
    """At least one validation check exceeded its tolerance."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _f1_bruteforce(a, b, c, d, x, y):
    """Exact-rational double sum; the oracle for the terminating Appell sum."""
    af, df = Fraction(a), Fraction(d)
    xf, yf = Fraction(x), Fraction(y)
    total = Fraction(0)
    for m in range(int(-b) + 1):
        for n in range(int(-c) + 1):
            num = Fraction(1)
            for i in range(m + n):
                num *= af + i
            for i in range(m):
                num *= Fraction(b) + i
            for i in range(n):
                num *= Fraction(c) + i
            den = Fraction(1)
            for i in range(m + n):
                den *= df + i
            den *= math.factorial(m) * math.factorial(n)
            total += num / den * xf**m * yf**n
    return float(total)


def suite_specfun(tol):
    checks = []
    # terminating Appell sum vs exact rational arithmetic
    worst = 0.0
    for (a, b, c, d, x, y) in [
        (0.4167, -3, -2, 5.2, -3.0, -1.0 / 3.0),
        (0.8, -5, -1, 9.1, -0.5, -2.0),
        (1.3, -4, -4, 11.0, 2.0, -1.5),
    ]:
        got = sf.appell_f1_terminating(a, b, c, d, x, y)
        ref = _f1_bruteforce(a, b, c, d, x, y)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    checks.append(CheckResult("appell-f1 vs exact rational", worst <= 1e-11, f"rel {worst:.2e}"))

    # recurrence D_{p+1} - z D_p + p D_{p-1} = 0
    worst = 0.0
    for p in (-2.5, -1.7, -1.2):
        for z in (-5.0, -1.0, 0.5, 3.0, 5.0):
            lhs = (
                sf.parabolic_cylinder_D(p + 1, z)
                - z * sf.parabolic_cylinder_D(p, z)
                + p * sf.parabolic_cylinder_D(p - 1, z)
            )
            worst = max(worst, abs(lhs) / abs(sf.parabolic_cylinder_D(p, z)))
    checks.append(CheckResult("cylinder-D recurrence", worst <= 1e-9, f"rel {worst:.2e}"))

    # complex-order log D_p (series or WKB) at real orders vs the real-order rule, |z| <= 1.8
    worst = 0.0
    for p in (-0.4, -2.0, -7.5, -40.0, -150.0):
        for z in (-1.8, -0.9, 0.0, 0.8, 1.8):
            got = sf.parabolic_cylinder_D_complex_log(complex(p), z)
            worst = max(worst, abs(got - sf.parabolic_cylinder_D_log(p, z)))
    checks.append(CheckResult("complex-order cylinder-D vs real order", worst <= 1e-9,
                              f"abs log {worst:.2e}"))

    # Psi(1, 1/2 - k; x): its recurrence side vs its continued-fraction side at the switch
    x = sf.PSI_A1_CF_SWITCH
    stream = sf.psi_a1_stream(x)
    worst = max(abs(next(stream) / sf._psi_a1_cf(k, x) - 1.0) for k in range(41))
    checks.append(CheckResult("psi recurrence vs continued fraction", worst <= 1e-12,
                              f"rel {worst:.2e}"))
    return checks


def suite_chain(tol):
    checks = []
    worst_tri = 0.0
    worst_norm = 0.0
    worst_sym = 0.0
    for N in (1, 2, 5):
        for lam, mu in ((0.6, 0.6), (0.2, 0.6)):
            for xi in (0.0, 0.5, 1.5):
                p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
                pm = eh.ChainParams(N=N, lam=mu, mu=lam, xi=xi)
                grid = np.array([0.5, 2.0])
                rows = zip(grid, eh.ode_transient(p, 0, grid), eh.p_cat_closed_rows(p, 0, grid),
                           eh.p_cat_closed_rows(pm, 0, grid))
                for t, o, rc, rm in rows:
                    rq = eh.p_cat_quadrature_row(p, 0, t)
                    worst_tri = max(
                        worst_tri,
                        np.abs(rc.values - rq.values).max(),
                        np.abs(rc.values - o.values).max(),
                    )
                    worst_norm = max(worst_norm, rc.normalization_defect())
                    worst_sym = max(worst_sym, np.abs(rc.values - rm.values[::-1]).max())
    p = eh.ChainParams(N=40, lam=0.6, mu=0.6, xi=0.5)
    o = eh.ode_transient(p, 20, np.array([0.01]))[0]
    worst_tri = max(worst_tri, np.abs(eh.p_cat_closed_row(p, 20, 0.01).values - o.values).max())
    checks.append(CheckResult("transient oracle triangle", worst_tri <= tol, f"abs {worst_tri:.2e}"))

    # small times at N = 40, where q - T(t) cancels most, vs the renewal quadrature
    worst = 0.0
    for lam, mu in ((0.6, 0.6), (0.2, 0.6)):
        p = eh.ChainParams(N=40, lam=lam, mu=mu, xi=0.5)
        for t, rc in zip((1e-3, 0.01), eh.p_cat_closed_rows(p, 20, (1e-3, 0.01))):
            worst = max(worst, np.abs(rc.values - eh.p_cat_quadrature_row(p, 20, t).values).max())
    checks.append(CheckResult("transient rows at small t vs quadrature", worst <= 1e-10,
                              f"abs {worst:.2e}"))

    # the grid route on the 400-point default grid vs the Kolmogorov ODE
    worst = 0.0
    for N in (10, 40):
        for lam, mu in ((0.6, 0.6), (0.2, 0.6)):
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.5)
            grid = eh.default_time_grid(p)
            for rc, o in zip(eh.p_cat_closed_rows(p, N // 2, grid), eh.ode_transient(p, N // 2, grid)):
                worst = max(worst, np.abs(rc.values - o.values).max())
    checks.append(CheckResult("transient rows on the default grid vs ODE", worst <= tol,
                              f"abs {worst:.2e}"))
    checks.append(CheckResult("transient normalization", worst_norm <= 1e-9, f"abs {worst_norm:.2e}"))
    checks.append(CheckResult("rate-swap mirror symmetry", worst_sym <= 1e-12, f"abs {worst_sym:.2e}"))

    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
    qc = eh.q_cat_row(p).values
    qq = eh.q_cat_quadrature_row(p).values
    dq = np.abs(qc - qq).max()
    checks.append(CheckResult("stationary closed vs quadrature", dq <= 1e-9, f"abs {dq:.2e}"))

    dm = abs(eh.mean_cat(p, 6, 1.0) - eh.p_cat_closed_row(p, 6, 1.0).mean())
    dv = abs(eh.m2_cat(p, 6, 1.0) - eh.p_cat_closed_row(p, 6, 1.0).second_moment())
    checks.append(CheckResult("moment identities", max(dm, dv) <= 1e-8, f"abs {max(dm, dv):.2e}"))

    mlin, _ = eh.fpt_moments_linear(p, 3)
    mq, _ = quad(lambda t: t * eh.fpt_density_cat(p, 3, t), 0.0, 60.0, limit=300)
    checks.append(CheckResult("fpt mean linear-solve vs quadrature", abs(mlin - mq) <= 1e-6, f"abs {abs(mlin - mq):.2e}"))
    return checks


def suite_diffusion(tol):
    checks = []
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)

    sd = math.sqrt(d.nu)
    norm, _ = quad(lambda x: ou.W_cat(d, x), -12 * sd, 12 * sd, points=[0.0], limit=300)
    checks.append(CheckResult("stationary density normalization", abs(norm - 1.0) <= 1e-7, f"abs {abs(norm - 1.0):.2e}"))

    db = ou.DiffusionParams(alpha=0.5, beta=0.02, nu=0.001, xi=0.5)
    dbm = ou.DiffusionParams(alpha=0.5, beta=-0.02, nu=0.001, xi=0.5)
    ws = max(abs(ou.W_cat(db, x) - ou.W_cat(dbm, -x)) for x in np.linspace(-0.08, 0.1, 19))
    checks.append(CheckResult("stationary density mirror symmetry", ws <= 1e-12, f"abs {ws:.2e}"))

    worst = 0.0
    for x in (0.02, -0.05):
        for t in (0.5, 2.0):
            worst = max(worst, abs(ou.f_cat(d, x, 0.06, t) - ou.f_cat_sym(d, x, 0.06, t)))
    checks.append(CheckResult("reset density series vs quadrature", worst <= 1e-6, f"abs {worst:.2e}"))

    m = ou.mean_fpt_cat(d, 0.03)
    mi, _ = quad(lambda t: t * ou.fpt_density_cat_sym(d, 0.03, t), 0.0, 80.0, limit=400)
    checks.append(CheckResult("fpt mean formula vs quadrature", abs(m - mi) <= 1e-6, f"abs {abs(m - mi):.2e}"))

    glim = ou.fpt_laplace_free(d, 0.03, 1e-8)
    checks.append(CheckResult("fpt transform -> 1 as s -> 0", abs(glim - 1.0) <= 1e-6, f"abs {abs(glim - 1.0):.2e}"))

    v = ou.talbot_invert(lambda s: 1.0 / (s + 1.0), 1.0)
    checks.append(CheckResult("talbot inversion of known pair", abs(v - math.exp(-1.0)) <= 1e-8, f"abs {abs(v - math.exp(-1.0)):.2e}"))
    return checks


def suite_mc(tol):
    checks = []
    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
    cfg = mc.SimConfig(seed=20260810, n_paths=5000, horizon=50.0)
    est = mc.estimate_chain_law(p, 6, 1.0, cfg)
    closed = eh.p_cat_closed_row(p, 6, 1.0).values
    se = np.sqrt(closed * (1.0 - closed) / cfg.n_paths)
    z = float(np.max(np.abs(est.law.values - closed) / np.maximum(se, 1e-12)))
    checks.append(CheckResult("chain law vs closed form (5 se)", z <= 5.0, f"max z {z:.2f}"))

    a = mc.simulate_chain_path(p, 6, cfg, 11)
    b = mc.simulate_chain_path(p, 6, cfg, 11)
    same = np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
    checks.append(CheckResult("path determinism", same, "replayed identically"))

    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)
    cfg2 = mc.SimConfig(seed=7, n_paths=5000, horizon=5.0, fpt_grid_dt=0.05)
    m, _ = mc.estimate_ou_moments(d, 0.06, 1.0, cfg2)
    zm = abs(m.value - ou.mean_cat_x(d, 0.06, 1.0)) / m.std_error
    checks.append(CheckResult("diffusion mean vs closed form (5 se)", zm <= 5.0, f"z {zm:.2f}"))
    return checks


SUITES = {
    "specfun": suite_specfun,
    "chain": suite_chain,
    "diffusion": suite_diffusion,
    "mc": suite_mc,
}


def run_suites(names, tol=1e-7, out=print):
    """Run the named suites; raise ValidationError if any check fails."""
    failed = []
    for name in names:
        for check in SUITES[name](tol):
            status = "pass" if check.passed else "FAIL"
            out(f"[{status}] {name}: {check.name} ({check.detail})")
            if not check.passed:
                failed.append(f"{name}: {check.name} ({check.detail})")
    if failed:
        raise ValidationError("; ".join(failed))
