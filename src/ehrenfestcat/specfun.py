"""Special functions for the chain and jump-diffusion closed forms.

The Kummer function Psi(1, 1/2 - k; x) of the reset-density series, and
the parabolic cylinder function D_p for non-positive real order (with
its log and its order derivative) and for complex order.  The
terminating Appell F1 sum, the paper's form of the chain's stationary
law, stays for its tests and for benchmark/trace_targets.py.

Real-order D_p has one route at every z: its positive-integrand
integral representation, summed by a trapezoid rule on fixed nodes in
log t, never by adaptive quadrature.  For contour inversion, log D_p
takes an array of complex orders and a few real |z| <= 1.8 at once: the
Kummer series where it does not cancel, from one coefficient matrix that
serves every z, and a WKB expansion of D_p'/D_p where it does.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad  # noqa: F401  unused; benchmark/trace_targets.py patches it
from scipy.special import digamma, erfcx, loggamma, rgamma


class NonConvergenceError(RuntimeError):
    """A truncated series or iteration failed to reach its tolerance."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the infinite series (complex-order Kummer Phi, reset density)."""

    rel_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_SERIES = SeriesControl()

#: no branch reads this: every real z takes the fixed-node rule of
#: _dp_rule.  benchmark/trace_targets.py counts the calls with z above it.
DP_Z_SWITCH = 0.0


def _kahan(terms):
    """Compensated sum of an iterable of floats."""
    total = 0.0
    carry = 0.0
    for t in terms:
        y = t - carry
        tmp = total + y
        carry = (tmp - total) - y
        total = tmp
    return total


def _as_nonpositive_int(b, name):
    m = round(b)
    if abs(b - m) > 1e-9 or m > 0:
        raise ValueError(f"{name} must be a non-positive integer, got {b}")
    return int(m)


#: relative accuracy asked of the terminating Appell F1 sum; when the
#: rounding estimate of the float sum is worse, it is summed exactly
F1_REL_TARGET = 1e-12


def appell_f1_terminating(a, b, c, d, x, y):
    """Appell F1(a; b, c; d; x, y) for non-positive integers b and c.

    Evaluates the finite double sum

        sum_{m=0}^{-b} sum_{n=0}^{-c} (a)_{m+n} (b)_m (c)_n / (d)_{m+n}
                                      * x^m y^n / (m! n!),

    which terminates in both indices and is therefore valid for all real
    x, y (the series definition's |x|,|y| < 1 restriction does not apply).

    The terms are summed in floating point first, with ``sum|t|`` kept
    beside the compensated sum.  A term is reached by at most ``-b - c``
    recurrence steps of a few roundings each, so the rounding error is a
    small multiple of ``(1 - b - c) * eps * sum|t|``.  The float sum is
    returned while that estimate stays within ``F1_REL_TARGET * |sum|``,
    which keeps it within about 1e-11 relative.  Otherwise (an alternating
    sum that cancels, down to an exact zero) the double sum is evaluated
    again in exact rational arithmetic: b and c are integers and every
    float is a binary rational, so the result is then the correctly
    rounded value of the sum.  Sums whose terms share one sign (such as
    the chain's stationary law in its F1 form) take that route only beyond
    ``1 - b - c = F1_REL_TARGET / eps``, about 4500.
    """
    mb = -_as_nonpositive_int(b, "b")
    nc = -_as_nonpositive_int(c, "c")
    dr = round(d)
    if abs(d - dr) < 1e-12 and dr <= 0 and -dr < mb + nc:
        raise ValueError(f"d={d} hits a pole before the double sum terminates")
    terms = _f1_terms(a, mb, nc, d, x, y, 1.0)
    total = _kahan(terms)
    rounding = (1 + mb + nc) * math.ulp(1.0) * math.fsum(map(abs, terms))
    if rounding <= F1_REL_TARGET * abs(total):
        return total
    a, d, x, y = map(Fraction, (a, d, x, y))
    return float(sum(_f1_terms(a, mb, nc, d, x, y, Fraction(1))))


def _f1_terms(a, mb, nc, d, x, y, one):
    """Terms of the F1 double sum with b = -mb, c = -nc, in the type of ``one``."""
    terms = []
    row = one  # (a)_m (b)_m / (d)_m x^m / m!  at current m, n = 0
    for m in range(mb + 1):
        t = row
        for n in range(nc + 1):
            terms.append(t)
            if n < nc:
                t *= (a + m + n) * (n - nc) / ((d + m + n) * (n + 1)) * y
        if m < mb:
            row *= (a + m) * (m - mb) / ((d + m) * (m + 1)) * x
    return terms


#: below this argument the incomplete-gamma continued fraction for the
#: Psi(1, 1/2-k; x) family converges too slowly at small k; the upward
#: recurrence from the closed-form k = 0 value serves there instead
PSI_A1_CF_SWITCH = 8.0


def _psi_a1_cf(k, x):
    # modified Lentz on  b0 + a1/(b1 + a2/(b2 + ...)) with
    # b_j = x + k + 3/2 + 2j,  a_j = -j*(k + 1/2 + j)
    tiny = 1e-300
    b0 = x + k + 1.5
    f = b0 if b0 != 0.0 else tiny
    c = f
    d = 0.0
    for j in range(1, 500):
        aj = -j * (k + 0.5 + j)
        bj = x + k + 1.5 + 2 * j
        d = bj + aj * d
        if d == 0.0:
            d = tiny
        c = bj + aj / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return 1.0 / f
    raise NonConvergenceError(f"continued fraction for Psi(1,1/2-{k};{x}) stalled")


def psi_a1_stream(x):
    """Generator of Psi(1, 1/2 - k; x) for k = 0, 1, 2, ... and x > 0, O(1) per term.

    The reset-density series of f_cat_sym runs k into the thousands.  Both
    routes rest on Psi(1, 1/2-k; x) = e^x x^{k+1/2} Gamma(-k-1/2, x):

    * x <= PSI_A1_CF_SWITCH: the incomplete-gamma recurrence
      U_{k+1} = (1 - x U_k)/(k + 3/2), seeded by the closed form
      Psi(1, 1/2; x) = 2 - 2 sqrt(pi x) erfcx(sqrt x), from Gamma(-1/2, x)
      (DLMF 8.4); errors grow by x/(k + 3/2) per step only while k < x;
    * larger x: the classical continued fraction, which collapses to
      U_k = 1/(x + k + 3/2 - 1*(k+3/2)/(x + k + 7/2 - 2*(k+5/2)/...))
      and converges in a few dozen iterations once x or k is sizable.

    Within 3e-13 relative of mpmath.hyperu for x in [1e-4, 8] and
    k <= 1000.
    """
    if not x > 0.0:
        raise ValueError(f"psi_a1_stream requires x > 0, got {x}")
    if x <= PSI_A1_CF_SWITCH:
        u = 2.0 - 2.0 * math.sqrt(math.pi * x) * erfcx(math.sqrt(x))
        k = 0
        while True:
            yield u
            u = (1.0 - x * u) / (k + 1.5)
            k += 1
    else:
        k = 0
        while True:
            yield _psi_a1_cf(k, x)
            k += 1


#: log of the largest double, 709.78
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


def _check_dp_args(p, z, log=False):
    if p > 0.0:
        raise ValueError(f"parabolic_cylinder_D requires p <= 0, got p={p}")
    if log and z < -80.0:
        raise ValueError(f"log D_p is tested for z >= -80, got z={z}")
    if not log and z < 0.0 and z * z / 2.0 > 700.0:
        raise ValueError(f"D_p overflows double precision for z={z}; need z > -37.4")


def parabolic_cylinder_D(p, z):
    """Parabolic cylinder function D_p(z) for p <= 0 and z > -37.4.

    The positive-integrand representation (q = -p > 0)

        D_p(z) = e^{-z^2/4} / Gamma(q) * int_0^inf t^{q-1} e^{-t^2/2 - z t} dt

    summed by the fixed-node rule of _dp_rule, at every z.  Within 1e-13
    relative of mpmath.pcfd over q in [1e-3, 100] and z in [-37, 37].  It
    underflows to 0 once z^2/4 passes about 700; parabolic_cylinder_D_log
    does not.
    """
    _check_dp_args(p, z)
    if p == 0.0:
        return math.exp(-z * z / 4.0)
    q = -p
    m, s, _ = _dp_rule(q, z)
    if q < 170.0 and m < 700.0:
        # rgamma and e^m apart keep lgamma(q)'s rounding out of the exponent
        return s * rgamma(q) * math.exp(m) * math.exp(-z * z / 4.0)
    return s * math.exp(m - z * z / 4.0 - math.lgamma(q))


def parabolic_cylinder_D_log(p, z):
    """log D_p(z) for p <= 0 and z >= -80, from the same rule; it never under- or overflows."""
    _check_dp_args(p, z, log=True)
    if p == 0.0:
        return -z * z / 4.0
    m, s, _ = _dp_rule(-p, z)
    return m + math.log(s) - z * z / 4.0 - math.lgamma(-p)


def parabolic_cylinder_D_ratio(p, z1, z2):
    """(R, d/dp log R) for R = e^{(z1^2 - z2^2)/4} D_p(z1) / D_p(z2), p < 0.

    Both factors come from _dp_rule at any z >= -80, z <= 0 included,
    in logs, with 1/Gamma(-p) and the Gaussians cancelled.  Within 1e-13
    (R) and 1e-12 (d/dp log R, absolute below 1) of mpmath for q = -p in
    [1e-3, 100], z1 in (1, 37] or {-5, -1, 0} with z2 in {0, -1}, and
    z1, z2 in {-38.9, -40.2, -50, -80} wherever R is a normal double.
    R must stay within the double range (below 1.8e308): where it passes
    it, as at (p, z1, z2) = (-1, -38.9, 0), the call raises ValueError.
    """
    for z in (z1, z2):
        _check_dp_args(p, z, log=True)
    if p == 0.0:
        raise ValueError("parabolic_cylinder_D_ratio requires p < 0")
    m1, s1, dlog1 = _dp_rule(-p, z1)
    m2, s2, dlog2 = _dp_rule(-p, z2)
    r = math.exp(m1 - m2) * s1 / s2 if m1 - m2 < _LOG_DOUBLE_MAX else math.inf
    if r == math.inf:
        raise ValueError(f"R = e^((z1^2 - z2^2)/4) D_p(z1)/D_p(z2) passes the double range "
                         f"at p={p}, z1={z1}, z2={z2} (log R = {m1 - m2 + math.log(s1 / s2):.1f})")
    return r, dlog2 - dlog1


def _dp_rule(q, z):
    """Trapezoid rule in u = log t for I = int t^{q-1} e^{-t^2/2 - zt} dt, q > 0.

    e^{phi(u)}, phi = qu - t^2/2 - zt, is analytic and decays double-
    exponentially as u -> inf, so the rule converges exponentially in 1/h
    (Trefethen & Weideman, SIAM Rev. 56, 2014; Gil, Segura & Temme, ACM
    TOMS 32, Algorithm 850).  Nodes u0 + jh, u0 = log(0.05/(|z|+1)): j >= 0
    runs to t* + 9 past the peak t* (phi'' <= -1 in t, so phi is 40 below
    it); j < 0 is summed exactly, e^{-zt - t^2/2} = sum c_n t^n with
    (n+1) c_{n+1} = -z c_n - c_{n-1} (terms fall like 0.05^n) and each
    power a geometric series.  Returns (m, s, dlog): I = e^m s and
    dlog = d/dq log D_{-q}(z) = int (u + 1/q) e^phi du / I - psi(q + 1),
    i.e. int u e^phi du / I - psi(q) with the two 1/q poles cancelled.
    """
    h = min(0.1, 0.3 / math.sqrt(q + max(-z, 0.0) ** 2))
    u0 = math.log(0.05 / (abs(z) + 1.0))
    t_peak = 0.5 * (math.sqrt(z * z + 4.0 * q) - z)
    u = u0 + h * np.arange(math.ceil((math.log(t_peak + 9.0) - u0) / h) + 1)
    t = np.exp(u)
    phi = q * u - t * (0.5 * t + z)
    m = phi.max()
    w = np.exp(phi - m)
    s = float(w.sum())
    su = float((u + 1.0 / q) @ w)
    # b = c_n e^{(q+n)u0 - m} is under 1e-20 b_0 by n = 16; r = e^{-(q+n)h} in the tail sums
    t0 = math.exp(u0)
    b, b_prev = math.exp(q * u0 - m), 0.0
    for n in range(16):
        e = math.expm1((q + n) * h)
        s += b / e
        su += b / e * (u0 + 1.0 / q - h * (e + 1.0) / e)
        b, b_prev = (-z * t0 * b - t0 * t0 * b_prev) / (n + 1), b
    return float(m), h * s, su / s - float(digamma(q + 1.0))


#: admissible |z| of the complex-order D_p: the region where its accuracy is tested
DP_COMPLEX_ZMAX = 1.8
#: terms of the WKB expansion of D_p'/D_p for large complex orders
WKB_TERMS = 10


def parabolic_cylinder_D_complex_log(p, z):
    """log D_p(z) for complex orders p (an array, or a scalar) and real z, |z| <= 1.8.

    z is a scalar, or a short sequence with one row of the result each.
    The two terms of the Kummer-series formula cancel by about
    e^{2|z| Re sqrt(-p)}, and their gamma factors overflow at large |p|.
    So a pair (p, z) with |p| >= 100 or |z| Re sqrt(-p) > 1.75 + 30/|p|
    takes the WKB expansion of _dp_wkb_log, and the rest the series, whose
    coefficient matrix and gamma factors serve every z (see _phi_rows).
    No entry depends on the others: a row equals the call with its z
    alone, bit for bit.  On the Talbot contours of the passage transform
    (alpha = 1.2, xi = 0.5, t in [0.0147, 6]) this is within 3.2e-9
    relative of mpmath.pcfd for |z| <= 1.8, worst near z = 1.8, t = 0.62,
    where the series cancels most.  It raises ValueError beyond, where
    moderate orders lose digits (8.5e-9 at z = 2.5, 2.5e-4 at 5).
    """
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    if np.abs(zs).max() > DP_COMPLEX_ZMAX:
        raise ValueError(f"complex-order D_p is restricted to |z| <= {DP_COMPLEX_ZMAX}, got z={z}")
    q = np.asarray(p, dtype=complex).ravel()
    size = np.abs(q)
    wkb = (size >= 100.0) | (np.abs(zs)[:, None] * np.sqrt(-q).real * size > 1.75 * size + 30.0)
    out = np.empty(wkb.shape, dtype=complex)
    rows = np.flatnonzero(~wkb.all(axis=0))
    if rows.size:
        # 2^{p/2} e^{-x/2} sqrt(pi) [Phi(-p/2, 1/2; x) / Gamma((1-p)/2)
        #                            - sqrt(2) z Phi((1-p)/2, 3/2; x) / Gamma(-p/2)],  x = z^2/2
        x, a = zs * zs / 2.0, (np.array([[0.0], [1.0]]) - q[rows]) / 2.0
        phi = _phi_rows(a, np.array([[0.5], [1.5]]), x, DEFAULT_SERIES)
        lg = loggamma(a)
        out[:, rows] = (0.5 * math.log(math.pi) - a[0] * math.log(2.0) - lg[1] - x[:, None] / 2.0
                        + np.log(phi[:, 0] - math.sqrt(2.0) * zs[:, None] * np.exp(lg[1] - lg[0]) * phi[:, 1]))
    for i in np.flatnonzero(wkb.any(axis=1)):
        out[i, wkb[i]] = _dp_wkb_log(q[wkb[i]], zs[i])
    return out.reshape(np.shape(z) + np.shape(p))[()]


def _phi_rows(a, c, x, ctl):
    """Phi(a, c; x_i) at [i, ...], for complex a and real c that broadcast together, 1-D x >= 0.

    The coefficients (a)_n / ((c)_n n!) are one array for every x: the
    cumprod of (a + n) times the real 1/((c + n)(n + 1)).  Each x sums it
    times its powers x^(n+1) along axis 0, which numpy adds in order for a
    batch of sums (a cancelling sum loses less so than pairwise).  A sum has
    converged once its last term is below rel_tol * |sum|; it keeps its
    value at the first column count where it did; the count doubles until all have.
    """
    x, n_cols, phi, done = np.reshape(x, (-1,) + (1,) * np.ndim(a)), 32, 0.0, False
    while True:
        n = np.arange(float(n_cols)).reshape((-1,) + (1,) * np.ndim(a))
        coef = np.cumprod((a + n) * (1.0 / ((c + n) * (n + 1.0))), axis=0)
        terms = coef[:, None] * x ** (n[:, None] + 1.0)
        phi = np.where(done, phi, 1.0 + terms.sum(axis=0))
        done = done | (np.abs(terms[-1]) < ctl.rel_tol * np.abs(phi))
        if done.all():
            return phi
        if n_cols >= ctl.max_terms:
            raise NonConvergenceError(f"complex-order Kummer series exceeded {ctl.max_terms} terms (x={x.ravel()})")
        n_cols = min(2 * n_cols, ctl.max_terms)


def _wkb_table(n_terms):
    """k[n-2, i, j], n = 2..n_terms: the WKB terms w_n = sum k z^i c^j Q^{-(3n-1)/2}.

    D_p'' = Q D_p with Q = z^2/4 + c, c = -p - 1/2, so w = D_p'/D_p solves
    w' = Q - w^2.  D_p is recessive as z -> inf: w_0 = -sqrt(Q), w_1 =
    -Q'/(4Q), and a_n = (a_{n-1}' Q - (3n-4)/2 a_{n-1} Q' + sum_{0<m<n}
    a_m a_{n-m}) / 2 for w_n = a_n Q^{-(3n-1)/2}.
    """
    a = [{(0, 0): -1.0}, {(1, 0): -0.125}]
    for n in range(2, n_terms + 1):
        t = collections.defaultdict(float)
        for (i, j), k in a[-1].items():
            t[i + 1, j] += k * (i - 3 * n + 4) / 8.0
            if i:
                t[i - 1, j + 1] += k * i / 2.0
        for m in range(1, n):
            for (i1, j1), k1 in a[m].items():
                for (i2, j2), k2 in a[n - m].items():
                    t[i1 + i2, j1 + j2] += k1 * k2 / 2.0
        a.append(t)
    table = np.zeros((n_terms - 1, n_terms + 1, n_terms // 2 + 1))
    for n, terms in enumerate(a[2:]):
        for (i, j), k in terms.items():
            table[n, i, j] = k
    return table


_WKB = _wkb_table(WKB_TERMS)
# 10-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(10)
# gives it; written out so that importing the module calls no LAPACK routine
_GL_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982, 0.1494513491505804, 0.06667134430868814])
_GL_X, _GL_W = np.concatenate([-_GL_X[::-1], _GL_X]), np.concatenate([_GL_W[::-1], _GL_W])


def _dp_wkb_log(p, z):
    """log D_p(z) = log D_p(0) + int_0^z w, for a 1-D array of complex orders.

    w_0 and w_1 integrate in closed form; w_2..w_WKB_TERMS by 10-point
    Gauss-Legendre on [0, z].  Re sqrt(Q) > 0 all along the real axis, so
    the expansion follows the recessive solution at every real z.
    """
    c = -p - 0.5
    zg = 0.5 * z * (_GL_X + 1.0)
    Q = zg[:, None] ** 2 / 4.0 + c
    sQ = np.sqrt(Q)
    P = 1.0 / (Q * sQ)
    a = np.vander(zg, WKB_TERMS + 1, increasing=True) @ _WKB @ np.vander(c, WKB_TERMS // 2 + 1, increasing=True).T
    higher = sQ * (a * np.cumprod(np.broadcast_to(P, a.shape), axis=0) * P).sum(axis=0)
    s = np.sqrt(z * z / 4.0 + c)
    return (p * (0.5 * math.log(2.0)) + 0.5 * math.log(math.pi) - loggamma((1.0 - p) / 2.0)
            - z / 2.0 * s - c * np.log((z / 2.0 + s) / np.sqrt(c)) - 0.25 * np.log1p(z * z / (4.0 * c))
            + 0.5 * z * (_GL_W @ higher))
