"""Jump-diffusion checks: scaling map, densities, first-passage, inversion."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import oujump as ou
from ehrenfestcat import specfun as sf
from ehrenfestcat.specfun import NonConvergenceError

D_SYM = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.5)
D_BETA = ou.DiffusionParams(alpha=0.5, beta=0.02, nu=0.001, xi=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        ou.DiffusionParams(alpha=0.0, beta=0.0, nu=1.0)
    with pytest.raises(ValueError):
        ou.DiffusionParams(alpha=1.0, beta=0.0, nu=-1.0)
    with pytest.raises(ValueError):
        ou.ScalingMap(0.0, eh.ChainParams(N=2, lam=1.0, mu=1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(bad):
    # beta = nan and xi = nan were once accepted
    for field in ("alpha", "beta", "nu", "xi"):
        args = dict(alpha=1.2, beta=0.0, nu=0.001, xi=0.5) | {field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ou.DiffusionParams(**args)
    with pytest.raises(ValueError, match="^epsilon must be"):
        ou.ScalingMap(bad, eh.ChainParams(N=2, lam=1.0, mu=1.0))


def test_scale_params_symmetric_case():
    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
    d = ou.scale_params(ou.ScalingMap(0.01, p))
    assert d.alpha == pytest.approx(1.2)
    assert d.beta == 0.0
    assert d.nu == pytest.approx(0.001)
    assert d.xi == 0.5


def test_scale_params_drifting_case():
    p = eh.ChainParams(N=10, lam=0.3, mu=0.2, xi=0.5)
    m = ou.ScalingMap(0.01, p)
    assert m.gamma_drift == pytest.approx(10.0)
    d = ou.scale_params(m)
    assert d.alpha == pytest.approx(0.5)
    assert d.nu == pytest.approx(0.001)
    assert d.beta == pytest.approx(0.02)


def test_scale_params_beta_antisymmetric():
    a = ou.scale_params(ou.ScalingMap(0.01, eh.ChainParams(N=10, lam=0.3, mu=0.2, xi=0.5)))
    b = ou.scale_params(ou.ScalingMap(0.01, eh.ChainParams(N=10, lam=0.2, mu=0.3, xi=0.5)))
    assert a.beta == pytest.approx(-b.beta)


def test_chain_for_scale_roundtrip():
    p = ou.chain_for_scale(alpha=0.5, gamma=10.0, nu=0.001, xi=0.5, epsilon=0.01)
    assert p == eh.ChainParams(N=10, lam=0.3, mu=0.2, xi=0.5)
    with pytest.raises(ValueError):
        ou.chain_for_scale(alpha=0.5, gamma=0.0, nu=0.001, xi=0.5, epsilon=0.02)


# ----------------------------------------------------------------------
# free process


def test_f_free_is_normalized():
    val, _ = quad(lambda x: ou.f_free(D_BETA, x, 0.02, 0.7), -1.0, 1.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_f_free_long_time_is_stationary():
    for x in np.linspace(-0.1, 0.12, 12):
        assert ou.f_free(D_BETA, float(x), 0.05, 60.0) == pytest.approx(
            ou.w_free(D_BETA, float(x)), rel=1e-9, abs=1e-12
        )


def test_f_free_rejects_zero_time():
    with pytest.raises(ValueError):
        ou.f_free(D_SYM, 0.0, 0.0, 0.0)


def test_f_free_laplace_matches_time_quadrature():
    x, y, s = 0.01, 0.02, 0.5
    direct = ou.f_free_laplace(D_SYM, x, y, s)
    qv, _ = quad(lambda t: math.exp(-s * t) * ou.f_free(D_SYM, x, y, t), 0.0, np.inf,
                 limit=400)
    assert direct == pytest.approx(qv, rel=1e-7)


def test_f_free_laplace_min_max_symmetry():
    # the cylinder-function product depends on (x, y) only through min/max
    for s in (0.3, 1.1):
        a = ou.f_free_laplace(D_BETA, 0.01, 0.04, s)
        b = ou.f_free_laplace(D_BETA, 0.04, 0.01, s)
        ea = math.exp(-(0.01 - 0.04) * (0.05 - 2 * D_BETA.beta) / (2 * D_BETA.nu))
        eb = math.exp(-(0.04 - 0.01) * (0.05 - 2 * D_BETA.beta) / (2 * D_BETA.nu))
        assert a / ea == pytest.approx(b / eb, rel=1e-12)


def test_f_free_laplace_even_at_zero_beta():
    for s in (0.4, 2.0):
        assert ou.f_free_laplace(D_SYM, 0.01, 0.03, s) == pytest.approx(
            ou.f_free_laplace(D_SYM, -0.01, -0.03, s), rel=1e-12
        )


@pytest.mark.parametrize("x, y", [(0.0, 1.5), (0.2, 1.5), (0.0, 2.5)])
def test_f_free_laplace_far_start_vs_mpmath(x, y):
    # the cylinder factor at z = sqrt(2/nu) max(x, y) underflows (e^{-1125}
    # at y = 1.5) while the Gaussian quotient overflows; in logs neither does
    mpmath = pytest.importorskip("mpmath")
    s = 0.5
    with mpmath.workdps(30):
        a, nu, xm, ym = map(mpmath.mpf, (D_SYM.alpha, D_SYM.nu, x, y))
        sq, p = mpmath.sqrt(2 / nu), -s / a
        ref = (2 ** (s / a - 1) / (mpmath.pi * a * mpmath.sqrt(nu))
               * mpmath.gamma(s / (2 * a)) * mpmath.gamma(0.5 + s / (2 * a))
               * mpmath.exp(-(xm - ym) * (xm + ym) / (2 * nu))
               * mpmath.pcfd(p, -sq * min(xm, ym)) * mpmath.pcfd(p, sq * max(xm, ym)))
    assert ou.f_free_laplace(D_SYM, x, y, s) == pytest.approx(float(ref), rel=1e-12, abs=0)


# ----------------------------------------------------------------------
# stationary and transient densities with resets


def test_w_cat_normalized():
    for d in (D_SYM, D_BETA):
        sd = math.sqrt(d.nu)
        lo = min(0.0, d.beta) - 12.0 * sd
        hi = max(0.0, d.beta) + 12.0 * sd
        val, _ = quad(lambda x: ou.W_cat(d, x), lo, hi, points=[0.0, d.beta], limit=400)
        assert val == pytest.approx(1.0, abs=1e-7)


def test_w_cat_mirror_symmetry():
    dm = ou.DiffusionParams(alpha=0.5, beta=-0.02, nu=0.001, xi=0.5)
    for x in np.linspace(-0.09, 0.11, 23):
        assert ou.W_cat(D_BETA, float(x)) == pytest.approx(
            ou.W_cat(dm, float(-x)), rel=1e-12, abs=1e-300
        )


def test_w_cat_small_xi_limit():
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=1e-4)
    xs = np.linspace(-0.12, 0.12, 25)
    peak = ou.w_free(d, 0.0)
    dev = max(abs(ou.W_cat(d, float(x)) - ou.w_free(d, float(x))) for x in xs)
    assert dev / peak < 1e-3  # tolerance relative to the density scale


def test_w_cat_far_mean_vs_renewal_quad():
    # x = 0 with beta = -0.9 puts a cylinder argument at z = -40.2, past the
    # overflow edge of D_p but inside the log form's; W_cat is the renewal
    # integral xi int e^{-xi t} f_free(x, t | 0) dt, taken in t = w^2
    d = ou.DiffusionParams(alpha=1.2, beta=-0.9, nu=0.001, xi=0.5)
    got = ou.W_cat(d, 0.0)
    ref, _ = quad(lambda w: 2.0 * w * math.exp(-d.xi * w * w) * ou.f_free(d, 0.0, 0.0, w * w),
                  0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    assert math.isfinite(got)
    assert got == pytest.approx(d.xi * ref, rel=1e-10)


def test_w_cat_requires_xi():
    with pytest.raises(ValueError):
        ou.W_cat(ou.DiffusionParams(alpha=1.0, beta=0.0, nu=0.01, xi=0.0), 0.1)


def test_f_cat_normalized():
    for d in (D_SYM, D_BETA):
        for t in (0.3, 2.0):
            val, _ = quad(lambda x: ou.f_cat(d, x, 0.05, t), -0.3, 0.3,
                          points=[0.0, 0.05], limit=300)
            assert val == pytest.approx(1.0, abs=1e-6)


def test_f_cat_long_time_is_stationary():
    for d in (D_SYM, D_BETA):
        t = 40.0 / min(d.alpha, d.xi)
        for x in np.linspace(-0.08, 0.1, 10):
            assert ou.f_cat(d, float(x), 0.05, t) == pytest.approx(
                ou.W_cat(d, float(x)), abs=1e-5
            )


def test_f_cat_sym_matches_quadrature_route():
    for x in (0.02, -0.02, 0.05, -0.05):
        for t in (0.5, 2.0):
            assert ou.f_cat_sym(D_SYM, x, 0.06, t) == pytest.approx(
                ou.f_cat(D_SYM, x, 0.06, t), abs=1e-6
            )


def test_f_cat_sym_zero_xi_is_free():
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.0)
    assert ou.f_cat_sym(d, 0.02, 0.06, 0.8) == pytest.approx(
        ou.f_free(d, 0.02, 0.06, 0.8), rel=1e-14
    )


def test_f_cat_sym_even_in_x_from_origin():
    for t in (0.4, 1.5):
        assert ou.f_cat_sym(D_SYM, 0.03, 0.0, t) == pytest.approx(
            ou.f_cat_sym(D_SYM, -0.03, 0.0, t), rel=1e-12
        )


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_f_cat_sym_far_tail_vs_f_cat(t):
    # the Psi arguments x^2/(nu s) from 50, the top of the diffusion
    # benchmark's grid, to the thousands: below x^2/(nu s) = x it runs the
    # Psi recurrence downward from one continued fraction per block, above
    # it upward.  y = -x keeps the free part below the reset part.  Past
    # about 745 the reset part underflows: the series stops at its zero
    # terms and returns the free part, 0 here, as f_cat does
    s = -math.expm1(-2.0 * D_SYM.alpha * t)
    for w in (50.0, 200.0, 600.0, 2000.0, 5000.0):
        x = math.sqrt(w * D_SYM.nu * s)
        got = ou.f_cat_sym(D_SYM, x, -x, t)
        want = ou.f_cat(D_SYM, x, -x, t)
        assert got == pytest.approx(want, rel=1e-10, abs=0), w
        assert (got == 0.0) == (w > 745.0), w


def _mp_renewal(d, x, y, t):
    """e^{-xi t} f_free(x, t | y) + xi int_0^t e^{-xi tau} f_free(x, tau | 0) dtau, or
    with y None its t -> inf limit (W_cat), by 30-digit mpmath quadrature.

    mpmath.quad misjudges its own error on these integrands unless the range
    is cut finely: at tau = t 10^-k (the layer of width x^2/(alpha nu) near 0),
    every 1/(4 alpha) up to 20/alpha (the free relaxation), then at 20/alpha
    + k/xi.  The infinite range stops at 20/alpha + 400/xi (e^{-400} below).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, nu, xi = map(mpmath.mpf, (d.alpha, d.beta, d.nu, d.xi))
        xm = mpmath.mpf(x)
        end = 20 / a + 400 / xi if y is None else mpmath.mpf(t)

        def free(start, tau):
            v = nu / 2 * -mpmath.expm1(-2 * a * tau)
            return (mpmath.exp(-(xm - b - (start - b) * mpmath.exp(-a * tau)) ** 2 / (2 * v))
                    / mpmath.sqrt(2 * mpmath.pi * v))

        pts = {end * mpmath.mpf(10) ** -k for k in range(1, 16)} | {k / (4 * a) for k in range(1, 81)}
        pts |= {20 / a + k / xi for k in (1, 2, 5, 10, 20, 40, 80, 160)}
        pts = [mpmath.mpf(0)] + sorted(p for p in pts if p < end) + [end]
        reset = xi * mpmath.quad(lambda tau: mpmath.exp(-xi * tau) * free(0, tau), pts)
        return float(reset if y is None else mpmath.exp(-xi * end) * free(mpmath.mpf(y), end) + reset)


@pytest.mark.parametrize("t", [1.0, 2.0, 2.5])
@pytest.mark.parametrize("x", [0.02, 0.06])
def test_f_cat_sym_vs_mpmath_renewal_integral(x, t):
    # the series is geometric in s = 1 - e^{-2 alpha t}: s = 0.91, 0.99 and
    # 0.9975 here, so a stop rule that ignores the tail after the last term
    # loses digits as t grows; t = 2.5 is the edge of the region that the
    # 10,000-term budget serves
    got = ou.f_cat_sym(D_SYM, x, 0.06, t)
    assert got == pytest.approx(_mp_renewal(D_SYM, x, 0.06, t), rel=1e-12, abs=0)


def test_f_cat_array_matches_scalar_calls():
    # one route: the row sums run in the same order for one x as for many
    xs = np.linspace(-0.15, 0.15, 120)
    for d in (D_SYM, dataclasses.replace(D_SYM, beta=0.004), D_BETA, dataclasses.replace(D_SYM, xi=0.0)):
        for t in (0.25, 3.0):
            got = ou.f_cat(d, xs, 0.06, t)
            one = np.array([ou.f_cat(d, float(x), 0.06, t) for x in xs])
            assert got.shape == xs.shape
            assert np.all(np.abs(got - one) <= 2 * np.spacing(np.abs(one)))
    assert type(ou.f_cat(D_SYM, 0.02, 0.06, 1.0)) is float
    assert type(ou.f_cat(D_SYM, np.float64(0.02), 0.06, 1.0)) is float


@pytest.mark.parametrize("b", [0.0, -10.0])
@pytest.mark.parametrize("alpha_t", [1e-3, 100.0])
@pytest.mark.parametrize("xi_over_alpha", [0.01, 100.0])
def test_f_cat_region_corners_vs_mpmath(b, alpha_t, xi_over_alpha):
    # the stated region: any alpha t (past 40 the rest is closed form),
    # xi/alpha <= 100, |beta|/sqrt(nu) <= 10, any x; 1e-12 absolute is 1e-14
    # of the density's scale here
    nu = 0.001
    d = ou.DiffusionParams(alpha=1.2, beta=b * math.sqrt(nu), nu=nu, xi=1.2 * xi_over_alpha)
    xs = np.array([0.0, -3.0, 6.0]) * math.sqrt(nu)
    got = ou.f_cat(d, xs, 0.06, alpha_t / d.alpha)
    want = [_mp_renewal(d, x, 0.06, alpha_t / d.alpha) for x in xs.tolist()]
    assert got == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("xi_over_alpha", [0.4, 100.0])
def test_f_cat_cusp_at_zero_vs_mpmath(xi_over_alpha):
    # the density has a cusp at x = 0: its reset part falls like xi |x| /
    # (alpha nu) from its x = 0 value.  A rule in w alone cannot follow it
    # below x ~ sqrt(nu)/10 and returns the x = 0 value (4e-5 too high at
    # x = 1e-7 by adaptive quadrature too); the closed-form layer does
    d = ou.DiffusionParams(alpha=1.2, beta=0.004, nu=0.001, xi=1.2 * xi_over_alpha)
    xs = np.array([1e-9, -1e-7, 1e-5, 1e-3, 0.0999, -0.1001]) * math.sqrt(d.nu)
    got = ou.f_cat(d, xs, 0.06, 1.0)
    want = [_mp_renewal(d, x, 0.06, 1.0) for x in xs.tolist()]
    assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_f_cat_raises_just_outside_its_region():
    nu = 0.001
    xs = np.array([0.0, 0.004, 0.01, 0.3, 3.0, 8.0]) * math.sqrt(nu)

    def call(b, xi_over_alpha, alpha_t):
        d = ou.DiffusionParams(alpha=1.2, beta=b * math.sqrt(nu), nu=nu, xi=1.2 * xi_over_alpha)
        return ou.f_cat(d, xs, 0.06, alpha_t / 1.2)

    call(0.0, 100.0, 1.0)
    with pytest.raises(eh.QuadratureError) as err:
        call(0.0, 500.0, 1.0)  # the rule gap is 3.7e-10 near x = 0
    assert err.value.achieved > ou.F_CAT_TOL
    call(10.0, 1.0, 100.0)
    with pytest.raises(eh.QuadratureError):
        call(15.0, 1.0, 100.0)  # the mean's move from 0 to beta is too sharp for the tau rule


def test_w_cat_far_tail_vs_renewal_integral():
    # W_cat = xi f_free_laplace in logs: relative accuracy down to the least
    # normal double, and 0.0 where the density is below half the least subnormal
    for d in (D_SYM, dataclasses.replace(D_SYM, beta=0.004)):
        for a in (20.0, 26.5, 28.0):
            x = a * math.sqrt(d.nu)
            got, want = ou.W_cat(d, x), _mp_renewal(d, x, None, None)
            if a < 27.0:
                assert want > np.finfo(float).tiny and got == pytest.approx(want, rel=1e-12), a
            else:
                assert want < 2.5e-324 and got == 0.0, a


@pytest.mark.parametrize("beta", [0.0, 0.004, -0.01])
@pytest.mark.parametrize("xi", [0.05, 0.5, 5.0])
def test_var_fpt_is_m2_minus_mean_squared_from_one_ratio_call(beta, xi, monkeypatch):
    d = ou.DiffusionParams(alpha=1.2, beta=beta, nu=0.001, xi=xi)
    want = ou.m2_fpt_cat(d, 0.03) - ou.mean_fpt_cat(d, 0.03) ** 2
    calls = []

    def counted(p, z1, z2):
        calls.append(p)
        return sf.parabolic_cylinder_D_ratio(p, z1, z2)

    monkeypatch.setattr(ou, "parabolic_cylinder_D_ratio", counted)
    assert ou.var_fpt_cat(d, 0.03) == want
    assert calls == [-xi / 1.2]


def test_f_cat_sym_domain(monkeypatch):
    with pytest.raises(ValueError):
        ou.f_cat_sym(D_BETA, 0.01, 0.0, 1.0)  # beta != 0
    with pytest.raises(ValueError):
        ou.f_cat_sym(D_SYM, 0.0, 0.01, 1.0)  # x = 0
    # alpha t = 6 needs about e^{12} terms, far past the budget: refused before summing
    with pytest.raises(ValueError, match="more than 10000 terms"):
        ou.f_cat_sym(D_SYM, 0.02, 0.06, 5.0)
    # with a budget of 1,500 the check predicts 1,261 terms here, the sum
    # needs 1,748 (Psi factors far from 1/k at x^2/(nu s) = 40): the sum itself raises
    monkeypatch.setattr(ou, "SERIES_MAX_TERMS", 1500)
    with pytest.raises(NonConvergenceError):
        ou.f_cat_sym(dataclasses.replace(D_SYM, xi=5.0), 0.2, 0.06, 2.0)


def test_f_cat_sym_term_budget_edge():
    # the series needs about e^{2 alpha t} terms: with the default 10,000
    # it returns at alpha t = 3 (t = 2.5, 8,615 terms) and refuses alpha t =
    # 3.12 (t = 2.6, 10,919 terms) before summing; f_cat serves that t
    got = ou.f_cat_sym(D_SYM, 0.02, 0.06, 2.5)
    assert got == pytest.approx(ou.f_cat(D_SYM, 0.02, 0.06, 2.5), rel=1e-9)
    with pytest.raises(ValueError, match="more than 10000 terms"):
        ou.f_cat_sym(D_SYM, 0.02, 0.06, 2.6)


# ----------------------------------------------------------------------
# moments


def test_mean_cat_x_endpoints():
    assert ou.mean_cat_x(D_BETA, 0.07, 0.0) == pytest.approx(0.07)
    lim = D_BETA.alpha * D_BETA.beta / (D_BETA.xi + D_BETA.alpha)
    assert ou.mean_cat_x(D_BETA, 0.07, 1e3) == pytest.approx(lim)
    assert ou.mean_cat_x_limit(D_BETA) == pytest.approx(lim)


def test_m2_cat_x_initial_value():
    for y in (-0.04, 0.0, 0.07):
        assert ou.m2_cat_x(D_BETA, y, 0.0) == pytest.approx(y * y, abs=1e-16)


def test_m2_cat_x_limit():
    t = 200.0
    assert ou.m2_cat_x(D_BETA, 0.07, t) == pytest.approx(ou.m2_cat_x_limit(D_BETA), rel=1e-12)


def test_exact_lattice_mean_identity():
    # eps * chain mean equals the diffusion mean at y = j*eps, exactly in t
    eps = 0.01
    for p in (
        eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5),
        eh.ChainParams(N=10, lam=0.3, mu=0.2, xi=1.5),
        eh.ChainParams(N=5, lam=0.2, mu=0.6, xi=0.25),
    ):
        d = ou.scale_params(ou.ScalingMap(eps, p))
        j = min(p.N, 4)
        y = j * eps
        for t in (0.0, 0.3, 1.7, 8.0):
            assert eps * eh.mean_cat(p, j, t) == pytest.approx(
                ou.mean_cat_x(d, y, t), abs=1e-15
            )


def test_variance_scaling_convergence():
    # eps^2 * chain variance -> diffusion variance as eps shrinks (nu fixed)
    alpha, gamma, nu, xi = 0.8, 20.0, 0.001, 0.5
    j_over = 4  # start at y = 0.004 -> j = y/eps
    y = 0.004
    t = 1.0
    devs = []
    for eps in (0.01, 0.001):
        p = ou.chain_for_scale(alpha, gamma, nu, xi, eps)
        d = ou.scale_params(ou.ScalingMap(eps, p))
        j = round(y / eps)
        devs.append(abs(eps**2 * eh.var_cat(p, j, t) - ou.var_cat_x(d, y, t)))
    assert devs[1] < 0.2 * devs[0]


@pytest.mark.parametrize("lam, mu", [(0.6, 0.6), (0.6, 0.2), (0.3, 0.2)])
def test_moments_array_matches_scalar_calls(lam, mu):
    # one route per moment: a grid call equals the scalar calls bit for bit
    # (the variances square the mean as m * m, not m ** 2, for that)
    j, eps = 6, 0.01
    grid = eh.default_time_grid(eh.ChainParams(N=10, lam=lam, mu=mu))
    for xi in (0.0, 0.25, 0.5, 1.0, 1.5):
        p = eh.ChainParams(N=10, lam=lam, mu=mu, xi=xi)
        d = ou.scale_params(ou.ScalingMap(eps, p))
        calls = [(f, p, j) for f in (eh.mean_free, eh.var_free, eh.mean_cat, eh.m2_cat, eh.var_cat)]
        calls += [(f, d, j * eps) for f in (ou.mean_cat_x, ou.m2_cat_x, ou.var_cat_x)]
        for f, model, start in calls:
            got = f(model, start, grid)
            one = [f(model, start, t) for t in grid.tolist()]
            assert type(one[0]) is np.float64
            assert np.array_equal(got, one), (f.__name__, xi)


@pytest.mark.parametrize("beta", [0.0, 0.02])
def test_var_cat_x_is_exactly_zero_at_t0(beta):
    # the start is certain at t = 0; m2 - m * m rounds to 4.3e-19 there at beta = 0.02
    d = dataclasses.replace(D_BETA, beta=beta)
    for y in np.linspace(-0.1, 0.1, 21).tolist() + [0.06]:
        for v in (ou.var_cat_x(d, y, 0.0), ou.var_cat_x(d, y, np.array([0.0, 1.0]))[0]):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, y


@pytest.mark.parametrize("d", [D_SYM, D_BETA, dataclasses.replace(D_SYM, beta=-0.01)])
def test_x_and_xi_arrays_match_float_calls(d):
    # an x or xi array runs each cylinder argument as one _dp_rule block, whose sums
    # add in another order: W_cat to a few ulp, the passage moments within their
    # stated accuracy (the second moment's bracket cancels at small xi)
    xs = np.linspace(-0.15, 0.15, 31)
    w = ou.W_cat(d, xs)
    for k, x in enumerate(xs.tolist()):
        assert w[k] == pytest.approx(ou.W_cat(d, x), rel=1e-14, abs=0), x
    xis = np.round(np.arange(0.05, 5.0 + 1e-9, 0.05), 10)
    for f, rel in ((ou.mean_fpt_cat, 1e-14), (ou.m2_fpt_cat, 1e-12), (ou.var_fpt_cat, 1e-12)):
        for y in (0.03, -0.03):
            got = f(d, y, xis)
            for k, xi in enumerate(xis.tolist()):
                one = f(dataclasses.replace(d, xi=xi), y)
                assert got[k] == pytest.approx(one, rel=rel, abs=0), (f.__name__, y, xi)
                assert f(d, y, xi) == one       # a float xi is the call at d.xi = xi
            assert type(f(d, y)) is float and type(f(d, y, 0.5)) is float
    with pytest.raises(ValueError, match="xi must be finite and positive, got 0.0"):
        ou.mean_fpt_cat(d, 0.03, np.array([0.5, 0.0]))


# ----------------------------------------------------------------------
# first passage


def test_fpt_laplace_free_tends_to_one():
    for d, y in ((D_SYM, 0.03), (D_BETA, 0.03), (D_BETA, -0.05)):
        assert ou.fpt_laplace_free(d, y, 1e-8) == pytest.approx(1.0, abs=1e-6)


def test_fpt_laplace_sym_matches_general():
    # at beta = 0 the transform is 2^{s/(2a)}/sqrt(pi) Gamma(1/2 + s/(2a))
    # e^{y^2/(2nu)} D_{-s/a}(sqrt(2/nu)|y|); at the far start y = 1.5,
    # e^{y^2/(2nu)} alone overflows a double
    mpmath = pytest.importorskip("mpmath")
    for y, s in ((0.03, 0.2), (0.03, 0.7), (-0.03, 3.0), (1.5, 0.5)):
        with mpmath.workdps(30):
            a, nu, ym, sm = map(mpmath.mpf, (D_SYM.alpha, D_SYM.nu, y, s))
            ref = (2 ** (sm / (2 * a)) / mpmath.sqrt(mpmath.pi) * mpmath.gamma(0.5 + sm / (2 * a))
                   * mpmath.exp(ym**2 / (2 * nu)) * mpmath.pcfd(-sm / a, mpmath.sqrt(2 / nu) * abs(ym)))
        assert ou.fpt_laplace_free(D_SYM, y, s) == pytest.approx(float(ref), rel=1e-10)


def test_fpt_laplace_matches_density_quadrature():
    s = 0.8
    qv, _ = quad(lambda t: math.exp(-s * t) * ou.fpt_density_free_sym_x(D_SYM, 0.03, t),
                 0.0, np.inf, limit=300)
    assert ou.fpt_laplace_free(D_SYM, 0.03, s) == pytest.approx(qv, rel=1e-7)


def test_fpt_density_free_sym_x_normalized():
    val, _ = quad(lambda t: ou.fpt_density_free_sym_x(D_SYM, 0.03, t), 0.0, np.inf,
                  limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_fpt_density_free_sym_x_even_and_vanishing_at_zero():
    for t in (0.2, 1.1):
        assert ou.fpt_density_free_sym_x(D_SYM, 0.04, t) == pytest.approx(
            ou.fpt_density_free_sym_x(D_SYM, -0.04, t), rel=1e-14
        )
    assert ou.fpt_density_free_sym_x(D_SYM, 0.04, 1e-6) == 0.0


def test_fpt_density_cat_sym_at_zero_is_xi():
    assert ou.fpt_density_cat_sym(D_SYM, 0.03, 0.0) == D_SYM.xi


def test_fpt_densities_sym_take_a_time_array():
    # the CLI and figure grids start at t = 0, where the value is xi; no
    # RuntimeWarning (an error under this suite) from log(0) or 0/0 there
    grid = np.linspace(0.0, 10.0 / (D_SYM.alpha + D_SYM.xi), 400)
    got = ou.fpt_density_cat_sym(D_SYM, 0.03, grid)
    assert got[0] == D_SYM.xi
    assert np.array_equal(got, [ou.fpt_density_cat_sym(D_SYM, 0.03, float(t)) for t in grid])
    free = ou.fpt_density_free_sym_x(D_SYM, -0.03, grid[1:])
    assert np.array_equal(free, [ou.fpt_density_free_sym_x(D_SYM, -0.03, float(t)) for t in grid[1:]])
    assert type(ou.fpt_density_cat_sym(D_SYM, 0.03, 0.5)) is float
    assert type(ou.fpt_density_free_sym_x(D_SYM, 0.03, 0.5)) is float
    with pytest.raises(ValueError):
        ou.fpt_density_free_sym_x(D_SYM, 0.03, grid)
    with pytest.raises(ValueError):
        ou.fpt_density_cat_sym(D_SYM, 0.03, [1.0, -1e-9])


def test_fpt_density_cat_sym_normalized():
    val, _ = quad(lambda t: ou.fpt_density_cat_sym(D_SYM, 0.03, t), 0.0, 80.0, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_fpt_density_cat_sym_zero_xi_reduction():
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.0)
    for t in (0.2, 1.0):
        assert ou.fpt_density_cat_sym(d, 0.03, t) == ou.fpt_density_free_sym_x(d, 0.03, t)


def test_mean_fpt_matches_symmetric_display():
    # the beta=0 mean display is (1/xi)[1 - the beta=0 transform at s=xi],
    # 2^{q/2}/sqrt(pi) Gamma(1/2 + q/2) e^{y^2/(2nu)} D_{-q}(sqrt(2/nu) y), q = xi/alpha
    from scipy.special import gamma, pbdv

    direct = ou.mean_fpt_cat(D_SYM, 0.03)
    q, y = D_SYM.xi / D_SYM.alpha, 0.03
    g = 2 ** (q / 2) / math.sqrt(math.pi) * gamma(0.5 + q / 2) * math.exp(y * y / (2 * D_SYM.nu))
    via_sym = (1.0 - g * pbdv(-q, math.sqrt(2 / D_SYM.nu) * y)[0]) / D_SYM.xi
    assert direct == pytest.approx(via_sym, rel=1e-10)


def test_mean_fpt_matches_density_quadrature():
    mi, _ = quad(lambda t: t * ou.fpt_density_cat_sym(D_SYM, 0.03, t), 0.0, 80.0, limit=400)
    assert ou.mean_fpt_cat(D_SYM, 0.03) == pytest.approx(mi, abs=1e-6)


def test_m2_fpt_matches_density_quadrature():
    m2q, _ = quad(lambda t: t * t * ou.fpt_density_cat_sym(D_SYM, 0.03, t), 0.0, 120.0,
                  limit=400)
    assert ou.m2_fpt_cat(D_SYM, 0.03) == pytest.approx(m2q, abs=1e-6)


def _mp_fpt_moments(d, y, dps):
    """(g, mean, second moment, variance) of the reset passage time in dps digits.

    E[T^2] = (2/xi^2)(1 - g + xi g') with g the free transform at s = xi,
    and g' by mpmath.diff.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        alpha, beta, nu, xi = map(mpmath.mpf, (d.alpha, d.beta, d.nu, d.xi))
        sq, sgn, y = mpmath.sqrt(2 / nu), (1 if y > 0 else -1), mpmath.mpf(y)

        def g(s):
            return (mpmath.exp(y * (y - 2 * beta) / (2 * nu)) * mpmath.pcfd(-s / alpha, sgn * (y - beta) * sq)
                    / mpmath.pcfd(-s / alpha, -sgn * beta * sq))

        gx = g(xi)
        m1 = (1 - gx) / xi
        m2 = 2 / xi**2 * (1 - gx + xi * mpmath.diff(g, xi))
        return float(gx), float(m1), float(m2), float(m2 - m1 * m1)


@pytest.mark.parametrize("beta", [0.0, 0.004, -0.01])
def test_fpt_moments_vs_mpmath(beta):
    # in 30 digits; at xi = 0.05 the bracket of E[T^2] cancels to 1e-3 of its terms
    for xi in (0.05, 0.5, 5.0):
        d = ou.DiffusionParams(alpha=1.2, beta=beta, nu=0.001, xi=xi)
        _, _, m2, var = _mp_fpt_moments(d, 0.03, 30)
        assert ou.m2_fpt_cat(d, 0.03) == pytest.approx(m2, rel=1e-12, abs=0), xi
        assert ou.var_fpt_cat(d, 0.03) == pytest.approx(var, rel=1e-12, abs=0), xi


def test_fpt_moments_far_from_the_mean_vs_mpmath():
    # beta = 0.9 puts the cylinder arguments at z_num = -38.9 and
    # z_den = -40.2, past the linear D_p's edge (z > -37.4); the ratio is
    # formed in logs and is 8.9e-24 here
    d = ou.DiffusionParams(alpha=1.2, beta=0.9, nu=0.001, xi=0.5)
    g, mean, _, var = _mp_fpt_moments(d, 0.03, 30)
    assert ou.fpt_laplace_free(d, 0.03, d.xi) == pytest.approx(g, rel=1e-13, abs=0)
    assert ou.mean_fpt_cat(d, 0.03) == pytest.approx(mean, rel=1e-14, abs=0)
    assert ou.var_fpt_cat(d, 0.03) == pytest.approx(var, rel=1e-12, abs=0)


@pytest.mark.parametrize("y", [0.03, -0.03])
@pytest.mark.parametrize("z_den", [-80.0, -79.9, 6.0])
def test_fpt_moments_at_the_edges_of_their_region_vs_mpmath(z_den, y):
    # the region var_fpt_cat states at alpha = 1.2, nu = 0.001, xi = 0.5:
    # z_den = -sgn(y) beta sqrt(2/nu) from the log D_p guard at -80 (a
    # passage against the drift, beta ~ 1.79) to 6, a start drifting
    # toward 0; y = -0.03 mirrors y = 0.03 with beta -> -beta
    beta = -math.copysign(1.0, y) * z_den / math.sqrt(2.0 / 0.001)
    d = ou.DiffusionParams(alpha=1.2, beta=beta, nu=0.001, xi=0.5)
    assert ou._fpt_free_args(d, y)[2] == pytest.approx(z_den, rel=1e-15)
    _, mean, _, var = _mp_fpt_moments(d, y, 40)
    assert ou.mean_fpt_cat(d, y) == pytest.approx(mean, rel=1e-12, abs=0)
    assert ou.var_fpt_cat(d, y) == pytest.approx(var, rel=1e-12, abs=0)


@pytest.mark.parametrize("y", [0.03, -0.03])
def test_fpt_moments_past_their_region(y):
    # just past z_den = -80 both moments refuse the start; far past
    # z_den = 6 (z_den = 44.7, z_num = 46.1) the variance keeps the loss
    # its docstring states
    sq = math.sqrt(2.0 / 0.001)
    d = ou.DiffusionParams(alpha=1.2, beta=math.copysign(80.01 / sq, y), nu=0.001, xi=0.5)
    for moment in (ou.mean_fpt_cat, ou.var_fpt_cat):
        with pytest.raises(ValueError):
            moment(d, y)
    d = dataclasses.replace(d, beta=-math.copysign(1.0, y))
    _, mean, _, var = _mp_fpt_moments(d, y, 40)
    assert ou.mean_fpt_cat(d, y) == pytest.approx(mean, rel=1e-13, abs=0)
    assert ou.var_fpt_cat(d, y) == pytest.approx(var, rel=1e-9, abs=0)


def test_mean_fpt_decreasing_in_xi():
    means = [
        ou.mean_fpt_cat(ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=float(xi)), 0.03)
        for xi in np.linspace(0.1, 5.0, 20)
    ]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_fpt_laplace_cat_limit():
    # total mass: g_s -> 1 as s -> 0 (passage is certain under resets)
    for d in (D_SYM, D_BETA):
        assert ou.fpt_laplace_cat(d, 0.03, 1e-8) == pytest.approx(1.0, abs=1e-6)


def test_fpt_domain_errors():
    with pytest.raises(ValueError):
        ou.mean_fpt_cat(D_SYM, 0.0)
    with pytest.raises(ValueError):
        ou.fpt_density_cat_sym(D_BETA, 0.03, 1.0)
    with pytest.raises(ValueError):
        ou.mean_fpt_cat(ou.DiffusionParams(alpha=1.0, beta=0.0, nu=0.01, xi=0.0), 0.1)


# ----------------------------------------------------------------------
# Laplace inversion


def test_talbot_known_pair():
    for a in (1.0, 3.0):
        for t in (0.1, 1.0, 10.0):
            got = ou.talbot_invert(lambda s: 1.0 / (s + a), t)
            assert abs(got - math.exp(-a * t)) < 1e-8


def test_talbot_recovers_fpt_density():
    for t in (0.1, 0.5, 2.0):
        got = ou.talbot_invert(lambda s: ou.fpt_laplace_cat(D_SYM, 0.03, s), t)
        ref = ou.fpt_density_cat_sym(D_SYM, 0.03, t)
        assert got == pytest.approx(ref, rel=1e-5)


def test_talbot_recovers_free_density():
    d = ou.DiffusionParams(alpha=1.2, beta=0.0, nu=0.001, xi=0.0)
    got = ou.talbot_invert(lambda s: ou.f_free_laplace(d, 0.01, 0.02, s), 0.6)
    assert got == pytest.approx(ou.f_free(d, 0.01, 0.02, 0.6), rel=1e-5)


def test_talbot_general_beta_density_integrates_to_one():
    # no closed form off beta = 0; the inverted transform must still be a density
    grid = np.linspace(1e-3, 30.0, 400)
    vals = [ou.talbot_invert(lambda s: ou.fpt_laplace_cat(D_BETA, 0.03, s), float(t))
            for t in grid]
    assert all(v > -1e-8 for v in vals)
    mass = np.trapezoid(vals, grid)
    assert mass == pytest.approx(1.0, abs=5e-3)  # trapezoid + tail truncation error


def test_talbot_flags_precision_exhaustion():
    # node counts past the double-precision sweet spot amplify roundoff
    # (the weights grow like e^{2M/5}: 72 nodes are 2.8e-5 off here, 80
    # disagree with 70 by 1.6e-3); the agreement check must refuse them
    # instead of returning garbage
    with pytest.raises(NonConvergenceError):
        ou.talbot_invert(lambda s: ou.fpt_laplace_cat(D_SYM, 0.03, s), 0.3, n_nodes=96)


def test_talbot_small_times_vs_closed_form():
    # the eight smallest times of the diffusion-fpt grid, whose contours
    # reach the largest orders of the complex-order D_p
    for t in np.linspace(0.0, 10.0 / 1.7, 400)[1:9]:
        got = ou.talbot_invert(lambda s: ou.fpt_laplace_cat(D_SYM, 0.03, s), float(t))
        assert got == pytest.approx(ou.fpt_density_cat_sym(D_SYM, 0.03, float(t)), rel=1e-8)


def test_talbot_calls_transform_once_on_all_nodes():
    seen = []

    def transform(s):
        seen.append(s)
        return 1.0 / (s + 1.0)

    for n_nodes, m_check in ((16, 14), (24, 21), (12, 10)):
        seen.clear()
        got = ou.talbot_invert(transform, 0.7, n_nodes=n_nodes)
        assert len(seen) == 1
        assert seen[0].shape == (n_nodes + m_check,) and seen[0].dtype == complex
        assert abs(got - math.exp(-0.7)) < 1e-8
    with pytest.raises(ValueError, match="shape"):
        ou.talbot_invert(lambda s: 1.0, 1.0)


@pytest.mark.parametrize("beta", [0.0, 0.004])
def test_laplace_forms_take_complex_scalars_and_node_arrays(beta):
    d = ou.DiffusionParams(alpha=1.2, beta=beta, nu=0.001, xi=0.5)
    s = np.array([3.0 + 0.0j, 2.0 + 5.0j, -4.0 + 9.0j, -30.0 + 40.0j])
    forms = [lambda s: ou.f_free_laplace(d, 0.01, 0.03, s),
             lambda s: ou.fpt_laplace_free(d, 0.03, s)]
    for form in forms:
        many = form(s)
        assert many.shape == s.shape
        for k, sk in enumerate(s):
            one = form(complex(sk))
            assert isinstance(one, complex) and np.ndim(one) == 0
            assert one == many[k]


def test_laplace_forms_make_one_complex_cylinder_call(monkeypatch):
    # one complex-order D_p call serves both cylinder arguments of a form;
    # the passage transforms take the ratio entry point, which skips log D_p(0)
    calls = []

    def counted(p, z):
        calls.append(("log", np.shape(z)))
        return sf.parabolic_cylinder_D_complex_log(p, z)

    def counted_ratio(p, z1, z2):
        calls.append(("ratio", np.shape(z1) + np.shape(z2)))
        return sf.parabolic_cylinder_D_complex_log_ratio(p, z1, z2)

    monkeypatch.setattr(ou, "parabolic_cylinder_D_complex_log", counted)
    monkeypatch.setattr(ou, "parabolic_cylinder_D_complex_log_ratio", counted_ratio)
    s = np.array([3.0 + 0.0j, 2.0 + 5.0j, -4.0 + 9.0j, -30.0 + 40.0j])
    forms = [(lambda s: ou.f_free_laplace(D_BETA, 0.01, 0.03, s), ("log", (2,))),
             (lambda s: ou.fpt_laplace_free(D_BETA, 0.03, s), ("ratio", ())),
             (lambda s: ou.fpt_laplace_cat(D_BETA, 0.03, s), ("ratio", ()))]
    for form, call in forms:
        for arg in (s, complex(s[1])):
            calls.clear()
            form(arg)
            assert calls == [call]


def test_talbot_rejects_bad_input():
    with pytest.raises(ValueError):
        ou.talbot_invert(lambda s: 1.0 / s, 0.0)
    with pytest.raises(ValueError):
        ou.talbot_invert(lambda s: 1.0 / s, 1.0, n_nodes=4)
