"""Acceptance criteria: the exit gate for the build.

One test per criterion, each printing a [PASS] line with its measured
worst-case numbers.  Tolerances are pinned here and nowhere else.  Run
with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ehrenfestcat import cli
from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import mc
from ehrenfestcat import oujump as ou
from ehrenfestcat import validate as val

RATE_PAIRS = ((0.6, 0.6), (0.2, 0.6), (0.6, 0.2), (0.3, 0.2))
XIS = (0.0, 0.25, 0.5, 1.0, 1.5)
NS = (1, 2, 5, 10)
TIMES = (0.1, 0.5, 1.0, 5.0)


def sweep_params():
    for N in NS:
        for lam, mu in RATE_PAIRS:
            for xi in XIS:
                yield eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)


def sweep_starts(p):
    return [j for j in (-6, 0, 6) if abs(j) <= p.N]


def test_criterion_1_oracle_triangle():
    t0 = time.time()
    worst = 0.0
    grid = np.array(TIMES)
    for p in sweep_params():
        for j in sweep_starts(p):
            odes = eh.ode_transient(p, j, grid)
            for t, o in zip(grid, odes):
                rc = eh.p_cat_closed_row(p, j, t).values
                rq = eh.p_cat_quadrature_row(p, j, t).values
                worst = max(
                    worst,
                    np.abs(rc - rq).max(),
                    np.abs(rc - o).max(),
                    np.abs(rq - o).max(),
                )
    elapsed = time.time() - t0
    assert worst <= 1e-7, f"oracle triangle disagreement {worst:.3e}"
    assert elapsed < 120.0, f"runtime target exceeded: {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: oracle triangle <= 1e-7 "
          f"(worst {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_2_stationary_law():
    worst_pair = 0.0
    worst_norm = 0.0
    for p in sweep_params():
        if p.xi == 0.0:
            continue
        qc = eh.q_cat_row(p)
        qq = eh.q_cat_quadrature_row(p)
        worst_pair = max(worst_pair, np.abs(qc.values - qq.values).max())
        worst_norm = max(worst_norm, abs(qc.values.sum() - 1.0))
    worst_limit = 0.0
    for N in NS:
        for lam, mu in RATE_PAIRS:
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=1e-6)
            dev = np.abs(eh.q_cat_row(p).values - eh.q_free_row(p).values).max()
            worst_limit = max(worst_limit, dev)
    assert worst_pair <= 1e-9, f"closed vs quadrature {worst_pair:.3e}"
    assert worst_norm <= 1e-10, f"normalization defect {worst_norm:.3e}"
    assert worst_limit <= 1e-4, f"xi->0 limit deviation {worst_limit:.3e}"
    print(f"\n[PASS] criterion 2: stationary law (pair {worst_pair:.3e}, "
          f"norm {worst_norm:.3e}, limit {worst_limit:.3e})")


def test_criterion_3_moment_identities():
    worst_moment = 0.0
    worst_limit = 0.0
    for p in sweep_params():
        for j in sweep_starts(p):
            for t in TIMES:
                row = eh.p_cat_closed_row(p, j, t)
                worst_moment = max(
                    worst_moment,
                    abs(eh.mean_cat(p, j, t) - row.mean()),
                    abs(eh.m2_cat(p, j, t) - row.second_moment()),
                )
        t_inf = 50.0 / (p.lam + p.mu + p.xi)
        worst_limit = max(
            worst_limit,
            abs(eh.mean_cat(p, 0, t_inf) - eh.mean_cat_limit(p)),
            abs(eh.m2_cat(p, 0, t_inf) - eh.m2_cat_limit(p)),
        )
    assert worst_moment <= 1e-8, f"moment identity {worst_moment:.3e}"
    assert worst_limit <= 1e-6, f"limit evaluation {worst_limit:.3e}"
    print(f"\n[PASS] criterion 3: moment identities (closed vs summed "
          f"{worst_moment:.3e}, limits {worst_limit:.3e})")


def test_criterion_4_exact_scaling():
    eps = 0.01
    worst_mean = 0.0
    for p in sweep_params():
        d = ou.scale_params(ou.ScalingMap(eps, p))
        for j in sweep_starts(p):
            y = j * eps
            for t in TIMES:
                worst_mean = max(
                    worst_mean,
                    abs(eps * eh.mean_cat(p, j, t) - ou.mean_cat_x(d, y, t)),
                )
    assert worst_mean <= 1e-12, f"exact mean identity broke: {worst_mean:.3e}"

    # the variance identity is exact when lam == mu (the deviation is
    # identically zero), so convergence ratios are measured off-diagonal
    worst_ratio = 0.0
    for lam, mu in ((0.2, 0.6), (0.3, 0.2)):
        base = eh.ChainParams(N=10, lam=lam, mu=mu, xi=0.5)
        dbase = ou.scale_params(ou.ScalingMap(0.01, base))
        alpha, gamma, nu = dbase.alpha, (lam - mu) / 0.01, dbase.nu
        y, t = 0.04, 1.0
        devs = []
        for e in (0.01, 0.001):
            p = ou.chain_for_scale(alpha, gamma, nu, base.xi, e)
            d = ou.scale_params(ou.ScalingMap(e, p))
            j = round(y / e)
            devs.append(abs(e**2 * eh.var_cat(p, j, t) - ou.var_cat_x(d, y, t)))
        worst_ratio = max(worst_ratio, devs[1] / devs[0])
    assert worst_ratio <= 0.15, f"variance convergence ratio {worst_ratio:.3f}"
    print(f"\n[PASS] criterion 4: scaling identities (mean {worst_mean:.2e}, "
          f"variance ratio {worst_ratio:.3f})")


def test_criterion_5_lattice_to_density_figure_point():
    # figure-parameter check at N = 10, eps = 0.01.
    #
    # KNOWN HONEST FAILURE.  The exact value of the left-hand side is
    # 0.50261 (confirmed to 16 digits by three independent routes:
    # closed-form lattice law, renewal quadrature, and arbitrary-
    # precision evaluation of both sides) while the stated bound is
    # 0.02 * max W = 0.45082.  The sup error sits at the reset cusp
    # n = 0 and follows the clean second-order law err/peak = 0.223/N,
    # i.e. 2.23% of the peak at N = 10, so no implementation can land
    # under a 2% bound -- see the criterion-5 paragraph of the README,
    # section "Tests and the acceptance suite".
    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
    eps = 0.01
    d = ou.scale_params(ou.ScalingMap(eps, p))
    q = eh.q_cat_row(p).values
    w = np.array([ou.W_cat(d, float(n * eps)) for n in p.states])
    err10 = np.abs(q / eps - w).max()
    bound = 0.02 * w.max()
    print(f"\n[INFO] criterion 5 (figure point): measured {err10:.5f}, "
          f"bound {bound:.5f}, ratio to peak {err10 / w.max():.5f}")
    assert err10 <= bound, (
        f"lattice-density error {err10:.5f} > {bound:.5f}: the exact "
        f"discretization error at N=10 is 2.23% of the peak; the 2% bound "
        f"is unattainable (see the criterion-5 paragraph of the README)"
    )


def test_criterion_5_lattice_to_density_refinement():
    # refinement sweep at fixed nu = N eps^2 = 0.004 (the eps list forces
    # integer N only at this nu): N = 10, 40, 160
    alpha, xi, nu = 1.2, 0.5, 0.004
    errs = []
    for e in (0.02, 0.01, 0.005):
        pc = ou.chain_for_scale(alpha, 0.0, nu, xi, e)
        dc = ou.scale_params(ou.ScalingMap(e, pc))
        qe = (eh.q_cat_row(pc).values if pc.N <= 10
              else eh.q_cat_quadrature_row(pc).values)
        we = np.array([ou.W_cat(dc, float(n * e)) for n in pc.states])
        errs.append(np.abs(qe / e - we).max())
    assert errs[0] > errs[1] > errs[2], f"not monotone: {errs}"
    print(f"\n[PASS] criterion 5 (refinement): errors decrease "
          f"{[f'{x:.4f}' for x in errs]}")


def test_criterion_6_diffusion_densities():
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)
    worst_pair = 0.0
    for x in (0.02, -0.02, 0.05, -0.05):
        for t in (0.5, 2.0):
            worst_pair = max(
                worst_pair,
                abs(ou.f_cat_sym(d, x, 0.06, t) - ou.f_cat(d, x, 0.06, t)),
            )
    assert worst_pair <= 1e-6, f"series vs quadrature {worst_pair:.3e}"

    worst_norm = 0.0
    for dd in (d, ou.DiffusionParams(alpha=0.5, beta=0.02, nu=0.001, xi=0.5)):
        sd = math.sqrt(dd.nu)
        lo = min(0.0, dd.beta) - 12.0 * sd
        hi = max(0.0, dd.beta) + 12.0 * sd
        mass, _ = quad(lambda x: ou.W_cat(dd, x), lo, hi, points=[0.0, dd.beta], limit=400)
        worst_norm = max(worst_norm, abs(mass - 1.0))
        for t in (0.4, 1.5):
            mass_t, _ = quad(lambda x: ou.f_cat(dd, x, 0.05, t), lo, hi,
                             points=[0.0, 0.05], limit=400)
            worst_norm = max(worst_norm, abs(mass_t - 1.0))
    assert worst_norm <= 1e-6, f"density normalization {worst_norm:.3e}"

    dm = ou.DiffusionParams(alpha=0.5, beta=-0.02, nu=0.001, xi=0.5)
    dp = ou.DiffusionParams(alpha=0.5, beta=0.02, nu=0.001, xi=0.5)
    worst_sym = max(
        abs(ou.W_cat(dp, float(x)) - ou.W_cat(dm, float(-x)))
        for x in np.linspace(-0.1, 0.12, 45)
    )
    assert worst_sym <= 1e-12, f"mirror symmetry {worst_sym:.3e}"
    print(f"\n[PASS] criterion 6: diffusion densities (pair {worst_pair:.3e}, "
          f"norm {worst_norm:.3e}, symmetry {worst_sym:.3e})")


def test_criterion_7_first_passage():
    # exact start value
    for xi in (0.25, 0.5, 1.5):
        p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=xi)
        assert eh.fpt_density_cat(p, 3, 0.0) == xi
        assert eh.fpt_density_cat(p, 6, 0.0) == xi

    # chain: linear solve vs density quadrature (symmetric rates)
    worst_chain = 0.0
    for xi in (0.25, 0.5, 1.0, 1.5):
        p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=xi)
        m, _ = eh.fpt_moments_linear(p, 3)
        mq, _ = quad(lambda t: t * eh.fpt_density_cat(p, 3, t), 0.0, 80.0, limit=400)
        worst_chain = max(worst_chain, abs(m - mq))
    assert worst_chain <= 1e-6, f"chain FPT mean {worst_chain:.3e}"

    # diffusion: closed-form mean vs density quadrature
    worst_diff = 0.0
    for alpha in (0.6, 1.2):
        for xi in (0.5, 2.0):
            d = ou.DiffusionParams(alpha=alpha, beta=0.0, nu=0.001, xi=xi)
            m = ou.mean_fpt_cat(d, 0.03)
            mq, _ = quad(lambda t: t * ou.fpt_density_cat_sym(d, 0.03, t), 0.0,
                         40.0 + 80.0 / xi, limit=400)
            worst_diff = max(worst_diff, abs(m - mq))
    assert worst_diff <= 1e-6, f"diffusion FPT mean {worst_diff:.3e}"

    # strict decrease in xi on the figure grid
    xis = np.round(np.arange(0.05, 5.0 + 1e-9, 0.05), 10)
    for mu in (0.3, 0.6):
        chain_means = []
        diff_means = []
        for xi in xis:
            p = eh.ChainParams(N=10, lam=mu, mu=mu, xi=float(xi))
            chain_means.append(eh.fpt_moments_linear(p, 3)[0])
            d = ou.scale_params(ou.ScalingMap(0.01, p))
            diff_means.append(ou.mean_fpt_cat(d, 0.03))
        assert all(a > b for a, b in zip(chain_means, chain_means[1:]))
        assert all(a > b for a, b in zip(diff_means, diff_means[1:]))
    print(f"\n[PASS] criterion 7: first passage (chain {worst_chain:.3e}, "
          f"diffusion {worst_diff:.3e}, means strictly decreasing in xi)")


@pytest.mark.slow
def test_criterion_8_monte_carlo_concordance(tmp_path):
    t0 = time.time()
    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)

    # transient law at 1e5 paths
    cfg_law = mc.SimConfig(seed=811, n_paths=100000, horizon=2.0)
    law = mc.estimate_chain_law(p, 6, 1.0, cfg_law)
    closed = eh.p_cat_closed_row(p, 6, 1.0).values
    se = np.sqrt(closed * (1.0 - closed) / cfg_law.n_paths)
    z_law = float(np.max(np.abs(law.law.values - closed) / np.maximum(se, 1e-12)))
    assert z_law < 4.0, f"law max z = {z_law:.2f}"

    # diffusion moments at 1e5 paths
    cfg_m = mc.SimConfig(seed=812, n_paths=100000, fpt_grid_dt=0.05)
    mean, m2 = mc.estimate_ou_moments(d, 0.06, 1.0, cfg_m)
    z_mean = abs(mean.value - ou.mean_cat_x(d, 0.06, 1.0)) / mean.std_error
    z_m2 = abs(m2.value - ou.m2_cat_x(d, 0.06, 1.0)) / m2.std_error
    assert z_mean < 4.0 and z_m2 < 4.0, f"moments z = {z_mean:.2f}, {z_m2:.2f}"

    # chain FPT mean at 1e6 paths (event times are exact)
    cfg_c = mc.SimConfig(seed=813, n_paths=1000000)
    chain_est = mc.estimate_fpt(p, 3, cfg_c, half_step_check=False)
    m_ref, _ = eh.fpt_moments_linear(p, 3)
    z_chain = abs(chain_est.mean.value - m_ref) / chain_est.mean.std_error
    assert z_chain < 4.0, f"chain FPT z = {z_chain:.2f}"
    assert not chain_est.flagged

    # diffusion FPT mean at 1e6 paths: at beta = 0 the passage times are
    # exact (the Brownian time change, no grid), so each of the two runs
    # is compared with the closed form directly
    dt = mc.default_fpt_grid_dt(d)
    cfg_d1 = mc.SimConfig(seed=814, n_paths=1000000, horizon=25.0, fpt_grid_dt=dt)
    cfg_d2 = mc.SimConfig(seed=815, n_paths=1000000, horizon=25.0, fpt_grid_dt=dt / 2.0)
    ref = ou.mean_fpt_cat(d, 0.03)
    z_diff = 0.0
    for cfg_d in (cfg_d1, cfg_d2):
        est = mc.estimate_fpt(d, 0.03, cfg_d, half_step_check=False)
        z = (est.mean.value - ref) / est.mean.std_error
        assert abs(z) < 4.0, f"diffusion FPT z = {z:.2f} at seed {cfg_d.seed} ({est.mean.value:.5f} vs {ref:.5f})"
        z_diff = max(z_diff, abs(z))

    # histogram against the closed-form density at 1e5 paths
    cfg_h = mc.SimConfig(seed=816, n_paths=100000, horizon=25.0, fpt_grid_dt=dt)
    hist = mc.estimate_fpt(d, 0.03, cfg_h, half_step_check=False)
    width = hist.density.grid[1] - hist.density.grid[0]
    worst_hist = 0.0
    for m, h in zip(hist.density.grid, hist.density.samples):
        p_bin, _ = quad(lambda t: ou.fpt_density_cat_sym(d, 0.03, t),
                        m - width / 2.0, m + width / 2.0)
        se_bin = math.sqrt(max(p_bin * (1.0 - p_bin), 1e-12) / cfg_h.n_paths)
        worst_hist = max(worst_hist, abs(h * width - p_bin) / (4.0 * se_bin))
    assert worst_hist < 1.0, f"histogram sup-distance {worst_hist:.2f} x 4se"

    # fixed seed => byte-identical CSVs
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--model", "diffusion", "--alpha", "1.2", "--nu", "0.001",
            "--xi", "0.5", "--y", "0.03", "--paths", "2000", "--seed", "99",
            "--horizon", "25.0"]
    cli.main(args + ["--out", str(a)])
    cli.main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()

    elapsed = time.time() - t0
    assert elapsed < 600.0, f"runtime target exceeded: {elapsed:.0f}s"
    print(f"\n[PASS] criterion 8: Monte Carlo concordance (law z {z_law:.2f}, "
          f"moments z {max(z_mean, z_m2):.2f}, chain FPT z {z_chain:.2f}, "
          f"diffusion FPT z {z_diff:.2f}, hist {worst_hist:.2f}x, {elapsed:.0f}s)")


def test_criterion_9_special_function_suite():
    results = val.suite_specfun()
    for check in results:
        assert check.passed, f"{check.name}: {check.detail}"
    print("\n[PASS] criterion 9: special-function invariants "
          + "; ".join(f"{c.name} ({c.detail})" for c in results))
