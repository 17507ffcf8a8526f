"""Ornstein-Uhlenbeck jump-diffusion approximation of the chain.

X(t) is an OU process with drift -alpha*(x - beta) and infinitesimal
variance alpha*nu, reset to 0 at constant rate xi.  The module carries
the lattice-to-diffusion parameter map, the free transition density and
its Laplace transform, the stationary and transient densities with
resets, moments, first-passage quantities through 0 (closed forms for
beta = 0, Laplace-domain formulas plus numerical inversion otherwise),
and a fixed-Talbot inverter, which evaluates a transform once, on an
array of all its contour nodes.  f_cat takes an array of x and a fixed pair
of Gauss-Legendre rules; no routine here runs adaptive quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, loggamma

from .ehrenfest import ChainParams, QuadratureError, _check_int, _check_real, _reset_moments
from .specfun import (
    SERIES_MAX_TERMS,
    SERIES_RTOL,
    NonConvergenceError,
    _integrate_getattr,
    parabolic_cylinder_D,  # unused here; the benchmark's tracer wraps this name
    parabolic_cylinder_D_complex_log,
    parabolic_cylinder_D_complex_log_ratio,
    parabolic_cylinder_D_log,
    parabolic_cylinder_D_ratio,
    psi_a1_stream,
)

__all__ = [
    "DiffusionParams",
    "ScalingMap",
    "scale_params",
    "chain_for_scale",
    "f_free",
    "f_free_mean",
    "f_free_var",
    "w_free",
    "f_free_laplace",
    "W_cat",
    "f_cat",
    "f_cat_sym",
    "mean_cat_x",
    "m2_cat_x",
    "var_cat_x",
    "mean_cat_x_limit",
    "m2_cat_x_limit",
    "fpt_laplace_free",
    "fpt_density_free_sym_x",
    "fpt_density_cat_sym",
    "fpt_laplace_cat",
    "mean_fpt_cat",
    "m2_fpt_cat",
    "var_fpt_cat",
    "talbot_invert",
]
__getattr__ = _integrate_getattr(__name__, ("quad",))


@dataclass(frozen=True)
class DiffusionParams:
    """Jump-diffusion parameters: reversion rate alpha, centre beta,
    stationary spread nu (variance nu/2), reset rate xi."""

    alpha: float
    beta: float
    nu: float
    xi: float = 0.0

    def __post_init__(self):
        _check_real("alpha", self.alpha, "positive")
        _check_real("beta", self.beta)
        _check_real("nu", self.nu, "positive")
        _check_real("xi", self.xi, "non-negative")

    @property
    def is_symmetric(self):
        return self.beta == 0.0


@dataclass(frozen=True)
class ScalingMap:
    """Lattice spacing epsilon together with the chain being rescaled."""

    epsilon: float
    chain: ChainParams

    def __post_init__(self):
        _check_real("epsilon", self.epsilon, "positive")

    @property
    def gamma_drift(self):
        return (self.chain.lam - self.chain.mu) / self.epsilon


def scale_params(m: ScalingMap) -> DiffusionParams:
    """Diffusion parameters induced by the chain under spacing epsilon:
    alpha = lam + mu, gamma = (lam - mu)/eps, nu = N eps^2, beta = gamma nu / alpha."""
    c = m.chain
    alpha = c.lam + c.mu
    nu = c.N * m.epsilon**2
    beta = m.gamma_drift * nu / alpha
    return DiffusionParams(alpha=alpha, beta=beta, nu=nu, xi=c.xi)


def chain_for_scale(alpha, gamma, nu, xi, epsilon) -> ChainParams:
    """Chain whose image under scale_params has the given (alpha, gamma, nu, xi).

    nu/epsilon^2 must be a whole number of states.
    """
    for name, value, sign in (("alpha", alpha, "positive"), ("gamma", gamma, None), ("nu", nu, "positive"),
                              ("xi", xi, "non-negative"), ("epsilon", epsilon, "positive")):
        _check_real(name, value, sign)
    n_float = nu / epsilon**2
    N = round(n_float)
    if abs(n_float - N) > 1e-9 * max(1.0, n_float):
        raise ValueError(f"nu/epsilon^2 = {n_float} is not an integer state count")
    lam = 0.5 * (alpha + gamma * epsilon)
    mu = 0.5 * (alpha - gamma * epsilon)
    return ChainParams(N=N, lam=lam, mu=mu, xi=xi)


# ----------------------------------------------------------------------
# free process


def f_free_mean(d: DiffusionParams, y, t):
    _check_real("y", y)
    _check_real("t", t, "non-negative")
    return d.beta * (-math.expm1(-d.alpha * t)) + y * math.exp(-d.alpha * t)


def f_free_var(d: DiffusionParams, t):
    _check_real("t", t, "non-negative")
    return 0.5 * d.nu * (-math.expm1(-2.0 * d.alpha * t))


def f_free(d: DiffusionParams, x, y, t):
    """Free OU transition density at a scalar or array x and t > 0 (t = 0 is a point mass):
    normal with mean beta(1-e^{-at}) + y e^{-at} and variance (nu/2)(1 - e^{-2at})."""
    _check_real("x", x)
    _check_real("t", t, "positive")
    m, v = f_free_mean(d, y, t), f_free_var(d, t)
    value = np.exp(-((np.asarray(x, dtype=float) - m) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    return float(value) if value.ndim == 0 else value


def w_free(d: DiffusionParams, x) -> float:
    """Steady-state density of the free process, N(beta, nu/2)."""
    _check_real("x", x)
    return math.exp(-((x - d.beta) ** 2) / d.nu) / math.sqrt(math.pi * d.nu)


def f_free_laplace(d: DiffusionParams, x, y, s):
    """Laplace transform (in t) of the free transition density.

    Product of two gamma factors, a Gaussian-quotient exponential, and
    two parabolic cylinder functions with min/max argument ordering, all
    in logs, so that neither the gammas overflow nor a far cylinder
    factor underflows.  s is real and positive, or complex: a scalar or
    an array of contour nodes.  For real s, x may be a 1-D array: one
    _dp_rule block per cylinder argument, each entry the float call's to a few ulp.
    """
    alpha, beta, nu = d.alpha, d.beta, d.nu
    x = _check_real("x", x)
    _check_real("y", y)
    cplx = np.iscomplexobj(s)
    if not cplx:
        _check_real("s", s, "positive")
    sq = math.sqrt(2.0 / nu)
    floats = isinstance(x, float)
    lo, hi = (min(x, y), max(x, y)) if floats else (np.minimum(x, y), np.maximum(x, y))
    z1, z2 = -sq * (lo - beta), sq * (hi - beta)
    lg = loggamma if cplx else math.lgamma
    lval = (
        (s / alpha - 1.0) * math.log(2.0)
        - math.log(math.pi * alpha * math.sqrt(nu))
        + lg(s / (2.0 * alpha))
        + lg(0.5 + s / (2.0 * alpha))
        - (x - y) * (x + y - 2.0 * beta) / (2.0 * nu)
    )
    p = -s / alpha
    if cplx:
        return np.exp(lval + parabolic_cylinder_D_complex_log(p, (z1, z2)).sum(axis=0))
    return (math.exp if floats else np.exp)(lval + parabolic_cylinder_D_log(p, z1) + parabolic_cylinder_D_log(p, z2))


# ----------------------------------------------------------------------
# process with resets


def W_cat(d: DiffusionParams, x):
    """Steady-state density with resets, xi * f_free_laplace(x | 0) at s = xi.

    The renewal relation at t -> inf, at a float or a 1-D array x.  Far in
    the tail the value underflows to 0.0.
    """
    if not d.xi > 0.0:
        raise ValueError("W_cat requires xi > 0; use w_free for the free process")
    return d.xi * f_free_laplace(d, x, 0.0, d.xi)


#: f_cat raises QuadratureError where its two rules differ by more than this, absolute
F_CAT_TOL = 1e-10
#: node counts per segment of f_cat's two Gauss-Legendre rules; the finer gives the value
F_CAT_NODES = (128, 160)
_F_CAT_RULE = []


def _f_cat_rule():
    """Nodes and weights on [0, 1] of the F_CAT_NODES rules, built on first use (10 ms):
    Newton steps in long double from Tricomi's estimates, as numpy's leggauss weights
    are off by up to 1e-13 relative near the ends, where fast-decaying integrands sit."""
    if not _F_CAT_RULE:
        rule = []
        for n in F_CAT_NODES:
            x = np.longdouble(np.cos(np.pi * (4 * np.arange(1, n + 1) - 1) / (4 * n + 2)) * (1 - (n - 1) / (8 * n**3)))
            for _ in range(4):  # from within 6e-7; the last P_n' is at converged nodes
                p0, p1 = np.ones_like(x), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                x = x - p1 / dp
            rule.append(((1 + x) / 2, 1 / ((1 - x * x) * dp * dp)))
        _F_CAT_RULE[:] = [np.concatenate(r).astype(float) for r in zip(*rule)]  # stored whole: threads never see half
    return _F_CAT_RULE


def f_cat(d: DiffusionParams, x, y, t):
    """Transition density with resets at a scalar or 1-D array x, by the renewal relation
    e^{-xi t} f_free(x,t|y) + xi int_0^t e^{-xi tau} f_free(x,tau|0) dtau.

    The integral runs in w, u = 1 - e^{-2 alpha tau} = w^2, up to tau_c = min(t, 1/(2 alpha)), then
    in tau up to min(t, 40/alpha); past that f_free(x,tau|0) = w_free(x) in double precision and
    the rest is closed form.  As w -> 0 the w-integrand is g0 (1 + g1 w^2 + ...) e^{-x^2/(nu w^2)},
    a layer at w ~ |x|/sqrt(nu), the cusp at x = 0: for |x| < sqrt(nu)/10 its first two terms are
    integrated in closed form.  Both Gauss-Legendre rules of F_CAT_NODES nodes per segment run in
    one pass over every x, summed alike for one x or many; the finer gives the value, and a gap
    past F_CAT_TOL raises QuadratureError.  At xi = 0 the value is the free part.

    Region: any alpha t, xi/alpha <= 100, |beta|/sqrt(nu) <= 10, any x (far tails keep their
    relative accuracy).  At alpha = 1.2, nu = 0.001 its corners were within 1e-12 of a 30-digit
    mpmath renewal integral, with gaps below 6e-12 (they scale as 1/sqrt(nu)); at xi/alpha = 500
    the gap is 4e-10 and it raises.  About 60 us a scalar x, 8 us a point for 120 (2-core VM).
    """
    value = f_free(d, x, y, t) * math.exp(-d.xi * t)  # f_free checks x, y and t first
    x = np.asarray(x, dtype=float)
    alpha, beta, nu, xi = d.alpha, d.beta, d.nu, d.xi
    if xi > 0.0:
        xr, (s, wt) = x.reshape(-1, 1), _f_cat_rule()
        tau_c, tau_e = min(t, 1.0 / (2.0 * alpha)), min(t, 40.0 / alpha)
        w_c = math.sqrt(-math.expm1(-2.0 * alpha * tau_c))
        u_near = (w_c * s) ** 2
        tau = np.concatenate([-np.log1p(-u_near) / (2.0 * alpha), tau_c + (tau_e - tau_c) * s])
        u = np.concatenate([u_near, -np.expm1(-2.0 * alpha * tau[s.size:])])
        # e^{-xi tau} / sqrt(pi nu u) times dtau/dw = w / (alpha (1 - u)) near 0, after it dtau
        jac = np.concatenate([w_c * np.sqrt(u_near) / (alpha * (1.0 - u_near)), np.full(s.size, tau_e - tau_c)])
        amp = np.exp(-xi * tau) * jac * np.concatenate([wt, wt]) / np.sqrt(math.pi * nu * u)
        terms = np.exp(-((xr - beta * -np.expm1(-alpha * tau)) ** 2) / (nu * u)) * amp
        near = np.abs(xr[:, 0]) < 0.1 * math.sqrt(nu)
        if near.any():
            # g0 (1 + g1 w^2) (e^{-x^2/(nu w^2)} - 1) off each node, back as g0 (j0 + g1 j2) in closed form
            xn, z = xr[near], np.abs(xr[near]) / (math.sqrt(nu) * w_c)
            g0 = np.exp(xn * beta / nu) / (alpha * math.sqrt(math.pi * nu))
            g1 = 1.0 - xi / (2.0 * alpha) + beta * (xn - beta) / (4.0 * nu)
            terms[near, : s.size] -= g0 * (1.0 + g1 * u_near) * np.expm1(-xn * xn / (nu * u_near)) * (w_c * wt)
            e, ez = -np.expm1(-z * z), math.sqrt(math.pi) * z * erfc(z)  # j0 = -w_c (e + ez)
            j2 = -(w_c**3) * (e + 2.0 * z * z * (1.0 - e - ez)) / 3.0
            terms[np.flatnonzero(near)[:, None], [0, F_CAT_NODES[0]]] += g0 * (g1 * j2 - w_c * (e + ez))
        rules = np.add.reduceat(terms, [0, F_CAT_NODES[0], s.size, s.size + F_CAT_NODES[0]], axis=1).reshape(-1, 2, 2).sum(axis=1)
        gap = xi * np.abs(rules[:, 1] - rules[:, 0])
        if np.max(gap, initial=0.0) > F_CAT_TOL:
            raise QuadratureError(f"f_cat rules differ by {gap.max():.3e} at x = {xr[gap.argmax(), 0]:.6g}", achieved=gap.max())
        tail = math.exp(-xi * tau_e) * -math.expm1(-xi * (t - tau_e)) / math.sqrt(math.pi * nu)
        value = value + xi * rules[:, 1].reshape(x.shape) + tail * np.exp(-((x - beta) ** 2) / nu)
    return float(value) if np.ndim(value) == 0 else value


def f_cat_sym(d: DiffusionParams, x, y, t) -> float:
    """Transition density with resets for beta = 0, as a single series.

    The reset part of the renewal density expands into the binomial
    series sum_k (-1)^k C(q-1, k) ... with q = xi/(2 alpha); its
    time-independent half sums exactly to the stationary density (the
    t = 0 limit must collapse to a point mass), which cancels the
    stationary term and leaves

      e^{-xi t} f_free(x,t|y)
        + xi/(2 alpha sqrt(pi nu)) sum_{k>=0} (-1)^k C(q-1,k) s^{k+1/2}
              e^{-x^2/(nu s)} Psi(1, 1/2-k; x^2/(nu s)),   s = 1-e^{-2 alpha t}.

    Each term is positive and shrinks by at least s from one to the next,
    so the tail after a term is at most term * s/(1-s) (the unrearranged
    form has an O(K^{-q}) tail, unusable in double precision).  Stops
    after three consecutive terms whose tail bound term/(1-s) is below
    SERIES_RTOL * partial sum, or that equal 0.

    The terms fall like s^k k^{-1-q}, so the stop comes near the K with
    s^K K^{-1-q} = SERIES_RTOL (1 - s), which grows like e^{2 alpha t}.  A
    K past SERIES_MAX_TERMS raises ValueError before summing: the
    region is alpha t <= 3 (at alpha = 1.2, xi = 0.5 it returns at t = 2.5
    and refuses t = 2.6); f_cat serves larger alpha t.
    """
    if d.beta != 0.0:
        raise ValueError("f_cat_sym requires beta = 0; use f_cat for general beta")
    _check_real("x", x, "nonzero")  # the Psi arguments need x^2 > 0
    free_part = f_free(d, x, y, t) * math.exp(-d.xi * t)  # f_free checks y and t first
    if d.xi == 0.0:
        return free_part
    alpha, nu, xi = d.alpha, d.nu, d.xi
    q = xi / (2.0 * alpha)
    s = -math.expm1(-2.0 * alpha * t)
    ws = x * x / (nu * s)
    pref = xi / (2.0 * alpha * math.sqrt(math.pi * nu))
    ls = math.log(s)
    if SERIES_MAX_TERMS * -ls + (1.0 + q) * math.log(SERIES_MAX_TERMS) < 2.0 * alpha * t - math.log(SERIES_RTOL):
        raise ValueError(f"the reset-density series needs more than {SERIES_MAX_TERMS} terms at "
                         f"alpha t = {alpha * t:.4g} (s = {s:.6f}); use f_cat")
    lw = -ws + 0.5 * ls
    stop = SERIES_RTOL * math.exp(-2.0 * alpha * t)  # SERIES_RTOL * (1 - s)
    coef = 1.0  # (-1)^k C(q-1, k) = prod_{i<=k} (i-q)/i, positive for 0<q<1
    total = 0.0
    small = 0
    psi = psi_a1_stream(ws)
    for k in range(SERIES_MAX_TERMS):
        term = coef * math.exp(lw + k * ls) * next(psi)
        total += term
        if term <= stop * total:  # the terms carry e^{-x^2/(nu s)}, 0 past x^2/(nu s) ~ 745
            small += 1
            if small >= 3:
                return free_part + pref * total
        else:
            small = 0
        coef *= (k + 1 - q) / (k + 1)
    raise NonConvergenceError(
        f"reset-density series needed more than {SERIES_MAX_TERMS} terms "
        f"(s = {s:.6f}; the series is geometric in s, so very large alpha*t "
        "is better served by f_cat)"
    )


def _ou_moments(d: DiffusionParams, y, t):
    """_reset_moments of the OU process, whose variance source is alpha nu + xi m^2."""
    _check_real("y", y)
    L = mean_cat_x_limit(d)
    return _reset_moments(y, t, L, d.alpha, d.xi, d.alpha * d.nu + d.xi * L * L, 2.0 * d.xi * L)


def mean_cat_x(d: DiffusionParams, y, t):
    """Conditional mean of the reset process at t, a float or a 1-D array (then an array), free at xi = 0;
    see ehrenfest._reset_moments."""
    return _ou_moments(d, y, t)[0]


def mean_cat_x_limit(d: DiffusionParams) -> float:
    return d.alpha * d.beta / (d.xi + d.alpha)


def m2_cat_x(d: DiffusionParams, y, t):
    """Conditional second moment of the reset process at t, as mean_cat_x."""
    return _ou_moments(d, y, t)[1]


def m2_cat_x_limit(d: DiffusionParams) -> float:
    alpha, beta, nu, xi = d.alpha, d.beta, d.nu, d.xi
    return alpha * nu / (xi + 2.0 * alpha) + 2.0 * alpha**2 * beta**2 / ((xi + alpha) * (xi + 2.0 * alpha))


def var_cat_x(d: DiffusionParams, y, t):
    """Conditional variance of the reset process at t, as mean_cat_x."""
    return _ou_moments(d, y, t)[2]


# ----------------------------------------------------------------------
# first passage through 0


def _fpt_free_args(d: DiffusionParams, y):
    """(expo, z_num, z_den) of fpt_laplace_free = e^expo D_p(z_num) / D_p(z_den); the start y must be nonzero."""
    _check_real("y", y, "nonzero")
    sq = math.sqrt(2.0 / d.nu)
    sgn = 1.0 if y > 0.0 else -1.0
    return y * (y - 2.0 * d.beta) / (2.0 * d.nu), sgn * (y - d.beta) * sq, -sgn * d.beta * sq


def fpt_laplace_free(d: DiffusionParams, y, s):
    """Laplace transform of the free first-passage density through 0.

    exp(y(y-2beta)/(2nu)) * D_{-s/a}(sgn(y)(y-beta) sqrt(2/nu))
                          / D_{-s/a}(-sgn(y) beta sqrt(2/nu)).
    Complex s (a scalar or an array of contour nodes) serves contour inversion.
    The exponent is (z_num^2 - z_den^2)/4, so real s takes parabolic_cylinder_D_ratio.
    """
    expo, z_num, z_den = _fpt_free_args(d, y)
    if np.iscomplexobj(s):
        return np.exp(expo + parabolic_cylinder_D_complex_log_ratio(-s / d.alpha, z_num, z_den))
    _check_real("s", s, "positive")
    return parabolic_cylinder_D_ratio(-s / d.alpha, z_num, z_den)[0]


def fpt_density_free_sym_x(d: DiffusionParams, y, t):
    """Free first-passage density through 0 for beta = 0 (closed form), at a scalar or array t > 0."""
    if d.beta != 0.0:
        raise ValueError("the closed-form passage density requires beta = 0")
    _check_real("y", y, "nonzero")
    t = np.asarray(_check_real("t", t, "positive"))
    alpha, nu = d.alpha, d.nu
    s = -np.expm1(-2.0 * alpha * t)
    lval = math.log(2.0 * alpha * abs(y)) - 0.5 * math.log(math.pi * nu) - alpha * t - 1.5 * np.log(s) \
        - y * y * (1.0 - s) / (nu * s)
    return float(np.exp(lval)) if t.ndim == 0 else np.exp(lval)


def fpt_density_cat_sym(d: DiffusionParams, y, t):
    """First-passage density through 0 with resets, beta = 0, at a scalar or array t >= 0.

    e^{-xi t} g_free + xi e^{-xi t} Erf(|y| e^{-at} / sqrt(nu(1-e^{-2at})));
    the Erf factor is the free survival probability, so the value at
    t = 0 is xi.
    """
    t = np.asarray(_check_real("t", t, "non-negative"))
    pos = t > 0.0
    tp = np.where(pos, t, 1.0)  # t = 0 takes xi below, and no log(0)
    g = fpt_density_free_sym_x(d, y, tp)  # checks beta and y
    if d.xi > 0.0:
        s = -np.expm1(-2.0 * d.alpha * tp)
        g = np.exp(-d.xi * tp) * (g + d.xi * erf(abs(y) * np.exp(-d.alpha * tp) / np.sqrt(d.nu * s)))
    value = np.where(pos, g, d.xi)
    return float(value) if value.ndim == 0 else value


def fpt_laplace_cat(d: DiffusionParams, y, s):
    """Laplace transform of the reset first-passage density:
    s/(s+xi) * gfree_{s+xi} + xi/(s+xi)."""
    if not np.iscomplexobj(s):
        _check_real("s", s, "positive")
    return (s * fpt_laplace_free(d, y, s + d.xi) + d.xi) / (s + d.xi)


def mean_fpt_cat(d: DiffusionParams, y, xi=None):
    """Mean first-passage time through 0 with resets: (1 - gfree_xi)/xi.

    xi (as in m2_fpt_cat and var_fpt_cat), a float or a 1-D array, replaces d.xi: an
    array takes one ratio call, each entry within the stated accuracy of the float call's."""
    return _fpt_cat_moments(d, y, xi, "mean_fpt_cat")[0]


def m2_fpt_cat(d: DiffusionParams, y, xi=None):
    """Second moment of the reset first-passage time.

    (2/xi^2) [1 - g + xi g'] with g = fpt_laplace_free at s = xi and
    g' = -(g/alpha) d/dp log[D_p(z_num)/D_p(z_den)] at p = -xi/alpha, taken
    exactly from the nodes of parabolic_cylinder_D_ratio.  The bracket
    cancels at small xi (to 1e-3 of its terms at xi = 0.05), so it and
    var_fpt_cat are within 1e-12 relative of mpmath at alpha = 1.2,
    nu = 0.001, y = 0.03, beta in {0, 0.004, -0.01}, xi in {0.05, 0.5, 5}.
    """
    return _fpt_cat_moments(d, y, xi, "m2_fpt_cat")[1]


def var_fpt_cat(d: DiffusionParams, y, xi=None):
    """Variance of the reset passage time, m2_fpt_cat - mean_fpt_cat^2 from one ratio call.

    At alpha = 1.2, nu = 0.001, xi = 0.5, y = +-0.03 it (and the mean) is
    within 1e-12 relative of mpmath for z_den = -sgn(y) beta sqrt(2/nu) in
    [-80, 6], i.e. beta from 1.79 to -0.134 at y = 0.03; below -80 both
    raise ValueError.  Past 6 the drift takes the start to 0 in a time short
    against 1/xi, g nears 1, and the bracket of m2_fpt_cat and then m2 -
    mean^2 cancel: at z_den = 44.7 (beta = -1) it is 1.8e-10 off.
    """
    mean, m2 = _fpt_cat_moments(d, y, xi, "var_fpt_cat")
    return m2 - mean**2


def _fpt_cat_moments(d: DiffusionParams, y, xi, name):
    """(mean, second moment) of the reset passage time at xi (d.xi if None), from one D_p ratio call."""
    if xi is None and not d.xi > 0.0:
        raise ValueError(f"{name} requires xi > 0")
    xi, (_, z_num, z_den) = d.xi if xi is None else _check_real("xi", xi, "positive"), _fpt_free_args(d, y)
    g, dlog = parabolic_cylinder_D_ratio(-xi / d.alpha, z_num, z_den)
    return (1.0 - g) / xi, 2.0 / xi**2 * (1.0 - g - xi * g * dlog / d.alpha)


# ----------------------------------------------------------------------
# Laplace inversion


@functools.cache
def _talbot_rule(*Ms):
    """Nodes sigma_k = t s_k (first the real 2M/5) of the Talbot rules, M in Ms, and a row of weights per rule."""
    sigma, w = [], []
    for M in Ms:
        theta = np.pi * np.arange(1, M) / M
        cot = 1.0 / np.tan(theta)
        sigma.append(2.0 * M / 5.0 * np.concatenate([[1.0], theta * (cot + 1j)]))
        w.append(np.exp(sigma[-1]) * np.concatenate([[0.5], 1.0 + 1j * (theta * (1.0 + cot * cot) - cot)]))
    rule = np.repeat(np.arange(len(Ms)), Ms)                   # block diagonal: row k on rule k's nodes
    sigma, weights = np.concatenate(sigma), np.where(np.arange(len(Ms))[:, None] == rule, np.concatenate(w), 0j)
    sigma.flags.writeable = weights.flags.writeable = False  # cached: shared by every call
    return sigma, weights


def talbot_invert(transform, t, n_nodes=16, check_rtol=1e-4, check_atol=1e-7) -> float:
    """Invert a Laplace transform at time t on the fixed Talbot contour.

    The fixed-Talbot method of Abate & Valko (IJNME 60, 2004), repeated at
    0.875x the nodes: disagreement beyond check_rtol relative (plus the
    check_atol floor, for values below the method's double-precision
    noise) raises, as it signals a singularity on the wrong side of the
    contour or precision exhaustion.  transform is called once, on a 1-D
    complex array of the nodes of both counts (the contour enters the left
    half plane away from the negative real axis), and must return an
    array of that shape; a scalar-only one (say, through cmath) cannot.

    The weights carry a factor e^{2M/5}, so node counts past ~70 amplify
    the transforms' roundoff instead of adding accuracy (hence the check
    runs below n_nodes).  The only guarantee is that check; an accepted
    value can be off by as much as check_rtol.  On the passage density
    (alpha = 1.2, nu = 0.001, xi = 0.5, y = 0.03, beta in {0, +-0.004,
    +-0.01}) the default 16 nodes were measured within 2.5e-8 relative of
    a backward-equation oracle wherever the density exceeds 1e-2, and
    within 1.4e-8 absolute on all of [0.0147, 5.88]; at beta = 0, y = 0.06
    within 8.2e-8 relative of fpt_density_cat_sym.  One inversion of
    fpt_laplace_cat (one D_p ratio call) took 260 us on a loaded 2-core VM.
    """
    _check_real("t", t, "positive")
    _check_real("check_rtol", check_rtol, "non-negative")
    _check_real("check_atol", check_atol, "non-negative")
    n_nodes = _check_int("n_nodes", n_nodes, "positive")
    if n_nodes < 12:
        raise ValueError(f"n_nodes too small: {n_nodes}")
    m_check = max(10, int(round(0.875 * n_nodes)))
    sigma, weights = _talbot_rule(n_nodes, m_check)
    values = np.asarray(transform(sigma / t))
    if values.shape != sigma.shape:
        raise ValueError(f"transform returned shape {values.shape} for {sigma.size} nodes")
    f1, f2 = (2.0 / (5.0 * t) * (weights @ values).real).tolist()
    if abs(f1 - f2) > check_rtol * max(abs(f1), abs(f2)) + check_atol:
        raise NonConvergenceError(
            f"Talbot node counts {n_nodes} and {m_check} disagree "
            f"by {abs(f1 - f2):.3e} at t = {t}"
        )
    return f1
