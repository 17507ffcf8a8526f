"""Special functions for the chain and jump-diffusion closed forms.

The Kummer function Psi(1, 1/2 - k; x) of the reset-density series, and
the parabolic cylinder function D_p for non-positive real order (with
its log and its order derivative) and for complex order.  The
terminating Appell F1 sum, the paper's form of the chain's stationary
law, is exact; no library route calls it: the tests build that form
from it to check ehrenfest.q_cat_row, and benchmark/trace_targets.py patches it.

Real-order D_p has one route at every z: its positive-integrand
integral representation, summed by a trapezoid rule on fixed nodes in
log t, never by adaptive quadrature.  For contour inversion, log D_p and
log D_p(z1)/D_p(z2) take complex orders and real |z| <= 1.8 through one
core for log D_p(z) - log D_p(0): the Kummer series from one coefficient
matrix for every z, or where it cancels one WKB pass of D_p'/D_p.
"""

from __future__ import annotations

import collections
import functools
import math
import types
from fractions import Fraction

import numpy as np
from scipy.special import digamma, erfcx, loggamma, rgamma


class NonConvergenceError(RuntimeError):
    """A truncated series or iteration failed to reach its tolerance."""


def _integrate_getattr(module, names):
    """Module __getattr__ (PEP 562): the names that benchmark/trace_targets.py patches, loaded on first access."""
    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        import scipy.integrate
        return getattr(scipy.integrate, name)
    return __getattr__


__getattr__ = _integrate_getattr(__name__, ("quad",))


#: truncation of the infinite series (complex-order Kummer Phi, oujump's reset density): a sum
#: stops once its terms fall below SERIES_RTOL times it, and refuses past SERIES_MAX_TERMS terms
SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 10000

#: no branch reads this: every real z takes the fixed-node rule of
#: _dp_rule.  benchmark/trace_targets.py counts the calls with z above it.
DP_Z_SWITCH = 0.0


def appell_f1_terminating(a, b, c, d, x, y):
    """Appell F1(a; b, c; d; x, y) for non-positive integers b and c, correctly rounded.

    Evaluates the finite double sum

        sum_{m=0}^{-b} sum_{n=0}^{-c} (a)_{m+n} (b)_m (c)_n / (d)_{m+n}
                                      * x^m y^n / (m! n!),

    which terminates in both indices and is therefore valid for all real
    x, y (the series definition's |x|,|y| < 1 restriction does not apply).
    Every float is a binary rational, so the sum is taken in exact rational
    arithmetic, each term from the one before by the ratio of its
    Pochhammer symbols, and rounded to a float once: cancelling sums, down
    to an exact zero, lose nothing.
    """
    mb, nc = -round(b), -round(c)
    for name, v, k in (("b", b, mb), ("c", c, nc)):
        if abs(v + k) > 1e-9 or k < 0:
            raise ValueError(f"{name} must be a non-positive integer, got {v}")
    dr = round(d)
    if abs(d - dr) < 1e-12 and dr <= 0 and -dr < mb + nc:
        raise ValueError(f"d={d} hits a pole before the double sum terminates")
    a, d, x, y = map(Fraction, (a, d, x, y))
    total, row = Fraction(0), Fraction(1)  # row: the term at (m, 0)
    for m in range(mb + 1):
        t = row
        for n in range(nc + 1):
            total += t
            if n < nc:
                t *= (a + m + n) * (n - nc) * y / ((d + m + n) * (n + 1))
        if m < mb:
            row *= (a + m) * (m - mb) * x / ((d + m) * (m + 1))
    return float(total)


#: below this argument the incomplete-gamma continued fraction for the
#: Psi(1, 1/2-k; x) family converges too slowly at small k; the upward
#: recurrence from the closed-form k = 0 value serves there instead
PSI_A1_CF_SWITCH = 8.0
PSI_A1_BLOCK = 64  #: terms per continued fraction where psi_a1_stream recurs downward


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

    The reset-density series of f_cat_sym runs k into the thousands.  With
    U_k = Psi(1, 1/2-k; x) = e^x x^{k+1/2} Gamma(-k-1/2, x), the recurrence
    U_{k+1} = (1 - x U_k)/(k + 3/2) carries an error up by x/(k + 3/2) per
    step, so it runs only in its stable direction (Gil, Segura & Temme 2007):

    * x <= PSI_A1_CF_SWITCH: upward from U_0 = 2 - 2 sqrt(pi x) erfcx(sqrt x) (DLMF 8.4);
    * larger x: downward while k + 1/2 <= x, each block of PSI_A1_BLOCK terms
      from one continued fraction (_psi_a1_cf) at its top, then upward.

    Within 3e-13 relative of mpmath.hyperu for x in [1e-4, 1e4] and k <= 1000.
    """
    if not x > 0.0:
        raise ValueError(f"psi_a1_stream requires x > 0, got {x}")
    if x <= PSI_A1_CF_SWITCH:
        k, u = 0, 2.0 - 2.0 * math.sqrt(math.pi * x) * erfcx(math.sqrt(x))
    else:
        k_down = math.floor(x - 0.5)
        for k in range(0, k_down + 1, PSI_A1_BLOCK):
            top = min(k + PSI_A1_BLOCK - 1, k_down)
            block = [_psi_a1_cf(top, x)]
            for j in range(top, k, -1):
                block.append((1.0 - (j + 0.5) * block[-1]) / x)
            yield from reversed(block)
        k, u = top + 1, (1.0 - x * block[0]) / (top + 1.5)
    while True:
        yield u
        u = (1.0 - x * u) / (k + 1.5)
        k += 1


#: log of the largest double, 709.78
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
#: the argument types of the real-order D_p's float bodies; anything else is an array
_REAL = (int, float)


def _check_dp_args(p, z, log=False):
    """ValueError at (p, z) outside the region; arrays are checked entry by entry, naming the first bad one."""
    if not (isinstance(p, _REAL) and isinstance(z, _REAL)):
        bad = np.greater(p, 0.0) | ((z < -80.0) if log else (z < 0.0) & (z * z / 2.0 > 700.0))
        if not bad.any():
            return
        p, z = (float(np.broadcast_to(v, bad.shape)[bad][0]) for v in (p, z))
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
    """log D_p(z) for a float p <= 0 and z >= -80 (a float or a 1-D array), from the same rule.

    It never under- or overflows."""
    _check_dp_args(p, z, log=True)
    if p == 0.0:
        return -z * z / 4.0
    m, s, _ = _dp_rule(-p, z)
    return m + (math.log if isinstance(z, _REAL) else np.log)(s) - z * z / 4.0 - math.lgamma(-p)


def parabolic_cylinder_D_ratio(p, z1, z2):
    """(R, d/dp log R) for R = e^{(z1^2 - z2^2)/4} D_p(z1) / D_p(z2), p < 0.

    Both factors come from _dp_rule at any z >= -80, z <= 0 included,
    in logs, with 1/Gamma(-p) and the Gaussians cancelled.  Within 1e-13
    (R) and 1e-12 (d/dp log R, absolute below 1) of mpmath for q = -p in
    [1e-3, 100], z1 in (1, 37] or {-5, -1, 0} with z2 in {0, -1}, and
    z1, z2 in {-38.9, -40.2, -50, -80} wherever R is a normal double.
    R must stay within the double range (below 1.8e308): where it passes
    it, as at (p, z1, z2) = (-1, -38.9, 0), the call raises ValueError.
    p, z1 and z2 may be 1-D arrays that broadcast: two _dp_rule block calls.
    """
    for z in (z1, z2):
        _check_dp_args(p, z, log=True)
    floats = isinstance(p, _REAL) and isinstance(z1, _REAL) and isinstance(z2, _REAL)
    if p == 0.0 if floats else np.any(np.equal(p, 0.0)):
        raise ValueError("parabolic_cylinder_D_ratio requires p < 0")
    m1, s1, dlog1 = _dp_rule(-p, z1)
    m2, s2, dlog2 = _dp_rule(-p, z2)
    if floats:
        r = math.exp(m1 - m2) * s1 / s2 if m1 - m2 < _LOG_DOUBLE_MAX else math.inf
    else:
        with np.errstate(over="ignore"):
            r = np.exp(m1 - m2) * s1 / s2
    over = r == math.inf
    if not (over if floats else over.any()):
        return r, dlog2 - dlog1
    p, z1, z2, log_r = (np.broadcast_to(v, np.shape(r))[over][0] for v in (p, z1, z2, m1 - m2 + np.log(s1 / s2)))
    raise ValueError(f"R = e^((z1^2 - z2^2)/4) D_p(z1)/D_p(z2) passes the double range "
                     f"at p={p}, z1={z1}, z2={z2} (log R = {log_r:.1f})")


#: math's forms of the numpy functions _dp_rule uses, for a float (q, z)
_MATH = types.SimpleNamespace(sqrt=math.sqrt, log=math.log, ceil=math.ceil, exp=math.exp, expm1=math.expm1,
                              minimum=min, maximum=max)


def _dp_steps(q, z, xp):
    """(h, u0, node count) of _dp_rule at (q, z): xp is _MATH for floats, numpy for arrays."""
    h = xp.minimum(0.1, 0.3 / xp.sqrt(q + xp.maximum(-z, 0.0) ** 2))
    u0 = xp.log(0.05 / (abs(z) + 1.0))
    t_peak = 0.5 * (xp.sqrt(z * z + 4.0 * q) - z)
    return h, u0, xp.ceil((xp.log(t_peak + 9.0) - u0) / h) + 1


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

    Floats take one row of nodes; 1-D arrays that broadcast, one block padded to
    the largest node count and masked, each entry the float call's to a few ulp.
    """
    if isinstance(q, _REAL) and isinstance(z, _REAL):
        xp, (h, u0, n) = _MATH, _dp_steps(q, z, _MATH)
        u = u0 + h * np.arange(n)
        t = np.exp(u)
        phi = q * u - t * (0.5 * t + z)
        m = float(phi.max())
        w = np.exp(phi - m)
        s, su = float(w.sum()), float((u + 1.0 / q) @ w)
    else:
        q, z = (np.ravel(v) for v in np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(z, dtype=float)))
        xp, (h, u0, n) = np, _dp_steps(q, z, np)
        j = np.arange(n.max())
        u = u0[:, None] + h[:, None] * np.minimum(j, n[:, None] - 1)    # padding repeats the last node
        t = np.exp(u)
        phi = np.where(j < n[:, None], q[:, None] * u - t * (0.5 * t + z[:, None]), -np.inf)
        m = phi.max(axis=1)
        w = np.exp(phi - m[:, None])
        s, su = w.sum(axis=1), np.einsum("kj,kj->k", u + 1.0 / q[:, None], w)
    # b = c_k e^{(q+k)u0 - m} is under 1e-20 b_0 by k = 16; r = e^{-(q+k)h} in the tail sums
    t0 = xp.exp(u0)
    zt, tt, c = -z * t0, t0 * t0, u0 + 1.0 / q
    b, b_prev = xp.exp(q * u0 - m), 0.0
    for k in range(16):
        e = xp.expm1((q + k) * h)
        tail = b / e
        s += tail
        su += tail * (c - h * (e + 1.0) / e)
        b, b_prev = (zt * b - tt * b_prev) / (k + 1), b
    dlog = su / s - digamma(q + 1.0)
    return m, h * s, float(dlog) if xp is _MATH else dlog


#: admissible |z| of the complex-order D_p: the region where its accuracy is tested
DP_COMPLEX_ZMAX = 1.8
#: terms of the WKB expansion of D_p'/D_p for large complex orders
WKB_TERMS = 10


def parabolic_cylinder_D_complex_log(p, z):
    """log D_p(z) for complex orders p (an array, or a scalar) and real z, |z| <= 1.8.

    log D_p(0) = (p/2) log 2 + (1/2) log pi - log Gamma((1-p)/2) plus the log
    ratio to D_p(0); z is a scalar, or a sequence with one row each, equal bit for
    bit to the call with its z alone.  On the Talbot contours of the passage
    transform (alpha = 1.2, xi = 0.5, t in [0.0147, 6]) within 3.2e-9 relative of
    mpmath.pcfd, worst near z = 1.8, t = 0.62, where the series cancels most; it
    raises ValueError past |z| = 1.8, where moderate orders lose digits (2.5e-4 at 5).
    """
    q = np.asarray(p, dtype=complex)
    log_d0 = q * (0.5 * math.log(2.0)) + 0.5 * math.log(math.pi) - loggamma((1.0 - q) / 2.0)
    return log_d0 + parabolic_cylinder_D_complex_log_ratio(p, z, 0.0)


def parabolic_cylinder_D_complex_log_ratio(p, z1, z2):
    """log(D_p(z1) / D_p(z2)) for complex orders p and real |z1|, |z2| <= 1.8; z1 may be a sequence.

    Each z gives B_p(z) = log D_p(z) - log D_p(0), so log D_p(0) is never
    formed, and B_p(0) = 0 costs nothing.  The Kummer-series formula cancels
    by about e^{2|z| Re sqrt(-p)}, and its gamma factors overflow at large |p|.
    So (p, z) with |p| >= 100 or |z| Re sqrt(-p) > 1.75 + 30/|p| takes WKB (all
    such pairs in one pass), and the rest one series matrix (see _phi_rows).
    """
    p, rows_of_z1 = np.asarray(p, dtype=complex), np.ndim(z1)
    q, zs = p.ravel(), np.array((*z1, z2) if rows_of_z1 else (z1, z2), dtype=float)
    if np.abs(zs).max() > DP_COMPLEX_ZMAX:
        raise ValueError(f"complex-order D_p is restricted to |z| <= {DP_COMPLEX_ZMAX}, got z={zs}")
    out, live, size = np.zeros((zs.size, q.size), dtype=complex), zs.nonzero()[0], np.abs(q)
    wkb = (size >= 100.0) | (np.abs(zs[live, None]) * np.sqrt(-q).real * size > 1.75 * size + 30.0)
    rows, cols = live[~wkb.all(axis=1)], (~wkb.all(axis=0)).nonzero()[0]
    if rows.size:
        # e^{-x/2} [Phi(-p/2, 1/2; x) - sqrt(2) z Gamma((1-p)/2)/Gamma(-p/2) Phi((1-p)/2, 3/2; x)],  x = z^2/2
        zr = zs[rows, None]
        x, a = zr * zr / 2.0, (np.array([[0.0], [1.0]]) - q[cols]) / 2.0
        phi, lg = _phi_rows(a, np.array([[0.5], [1.5]]), x[:, 0]), loggamma(a)
        out[rows[:, None], cols] = -x / 2.0 + np.log(phi[:, 0] - math.sqrt(2.0) * zr * np.exp(lg[1] - lg[0]) * phi[:, 1])
    if wkb.any():
        i, k = np.nonzero(wkb)
        out[live[i], k] = _dp_wkb_brackets(q, zs[live], wkb)
    return (out[:-1] - out[-1]).reshape((zs.size - 1,) * rows_of_z1 + p.shape)[()]


def _phi_rows(a, c, x):
    """Phi(a, c; x_i) at [i, ...], for complex a and real c that broadcast together, 1-D x >= 0.

    The coefficients (a)_n / ((c)_n n!) are one array for every x: the
    cumprod of (a + n) times the real 1/((c + n)(n + 1)).  Each x sums it
    times its powers x^(n+1) along axis 0, which numpy adds in order for a
    batch of sums (a cancelling sum loses less so than pairwise).  A sum has
    converged once its last term is below SERIES_RTOL * |sum|; it keeps its
    value at the first column count where it did; the count doubles until all have.
    """
    x, n_cols, phi, done = np.asarray(x).reshape((-1,) + (1,) * np.ndim(a)), 32, 0.0, False
    while True:
        n, n1, step = _kummer_steps(n_cols, np.shape(c), np.asarray(c, dtype=float).tobytes(), np.ndim(a))
        coef = np.cumprod((a + n) * step, axis=0)
        terms = coef[:, None] * x ** n1
        phi = np.where(done, phi, 1.0 + terms.sum(axis=0))
        done = done | (np.abs(terms[-1]) < SERIES_RTOL * np.abs(phi))
        if done.all():
            return phi
        if n_cols >= SERIES_MAX_TERMS:
            raise NonConvergenceError(f"complex-order Kummer series exceeded {SERIES_MAX_TERMS} terms (x={x.ravel()})")
        n_cols = min(2 * n_cols, SERIES_MAX_TERMS)


@functools.lru_cache(maxsize=16)
def _kummer_steps(n_cols, c_shape, c_bytes, ndim):
    """n < n_cols on a new axis 0 (and ndim more), n + 1 with one more, and 1/((c + n)(n + 1)); read-only."""
    n = np.arange(float(n_cols)).reshape((-1,) + (1,) * ndim)
    n1, step = n[:, None] + 1.0, 1.0 / ((np.frombuffer(c_bytes).reshape(c_shape) + n) * (n + 1.0))
    n.flags.writeable = n1.flags.writeable = step.flags.writeable = False
    return n, n1, step


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
# k[n-2, i, j] = 0 unless i = n - 2j: the (n, j) terms times zg^(n-2j) = (z/2)^(n-2j) (x_g + 1)^(n-2j)
_WKB_E = np.maximum(np.arange(2, WKB_TERMS + 1)[:, None, None] - 2 * np.arange(WKB_TERMS // 2 + 1), 0)
_WKB_G = np.take_along_axis(_WKB, _WKB_E, axis=1) * (_GL_X[:, None] + 1.0) ** _WKB_E


def _dp_wkb_brackets(q, zs, pairs):
    """B_p(z) = int_0^z w at the pairs (zs[i], q[k]) where pairs[i, k], in row-major order.

    w_0 and w_1 integrate in closed form; w_2..w_WKB_TERMS by 10-point Gauss-Legendre
    on [0, z], their polynomial coefficients by one matrix product per z.  Re sqrt(Q) > 0
    on the real axis, so the expansion follows the recessive solution at every real z.
    """
    i, k = np.nonzero(pairs)
    z, c, c_pow = zs[i], -q[k] - 0.5, np.vander(-q - 0.5, WKB_TERMS // 2 + 1, increasing=True).T
    a = np.concatenate([(_WKB_G * (0.5 * zi) ** _WKB_E).reshape(-1, _WKB_E.shape[-1]) @ c_pow[:, on]
                        for zi, on in zip(zs, pairs) if on.any()], axis=-1).reshape(_WKB_G.shape[:2] + (-1,))
    zg = 0.5 * z * (_GL_X[:, None] + 1.0)
    Q = zg**2 / 4.0 + c
    sQ = np.sqrt(Q)
    P = 1.0 / (Q * sQ)
    higher = sQ * (a * np.cumprod(np.broadcast_to(P, a.shape), axis=0) * P).sum(axis=0)
    s = np.sqrt(z * z / 4.0 + c)
    return (-z / 2.0 * s - c * np.log((z / 2.0 + s) / np.sqrt(c)) - 0.25 * np.log1p(z * z / (4.0 * c))
            + 0.5 * z * (_GL_W @ higher))
