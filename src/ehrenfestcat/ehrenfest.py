"""Exact analysis of the mean-reverting urn chain with catastrophes.

The chain M(t) lives on the integers -N..N, moves up at rate lam*(N-n),
down at rate mu*(N+n), and is reset to 0 by catastrophes arriving at
constant rate xi.  The module provides the catastrophe-free transition
law (a convolution of two binomials), the stationary and transient laws
with catastrophes in closed form, exact moments, first-passage-time
quantities, and three independent evaluation routes (closed form,
renewal quadrature, Kolmogorov ODE) that are cross-checked in the tests.

The free rows convolve the two binomial laws, each exponentiated from its
log pmf, as sums of positive products; the renewal tail and the passage
moments are tridiagonal solves whose every step adds positive terms.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import NonConvergenceError, _integrate_getattr
from .specfun import appell_f1_terminating  # noqa: F401  unused; benchmark/trace_targets.py patches it

__all__ = [
    "ChainParams",
    "ProbVector",
    "Curve",
    "QuadratureError",
    "rates",
    "generator_matrix",
    "b1",
    "b2",
    "p_free_row",
    "q_free_row",
    "q_free_mean",
    "q_free_var",
    "mean_free",
    "var_free",
    "q_cat_row",
    "q_cat_quadrature_row",
    "stationary_row",
    "p_cat_closed_row",
    "p_cat_closed_rows",
    "p_cat_quadrature_row",
    "ode_transient",
    "mean_cat",
    "m2_cat",
    "var_cat",
    "mean_cat_limit",
    "m2_cat_limit",
    "fpt_density_cat",
    "fpt_density_cat_curve",
    "fpt_moments_linear",
    "default_time_grid",
]
__getattr__ = _integrate_getattr(__name__, ("quad", "quad_vec", "solve_ivp"))

#: relative tolerance under which lam and mu are treated as equal by the
#: symmetric-only first-passage formulas
SYMMETRY_RTOL = 1e-12
#: absolute error (max norm) asked of the renewal-quadrature oracles
RENEWAL_QUAD_TOL = 1e-11


class QuadratureError(RuntimeError):
    """A quadrature failed to reach its tolerance (achieved: the error it reports)."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class ChainParams:
    """Parameters of the chain: half state count N and rates lam, mu, xi."""

    N: int
    lam: float
    mu: float
    xi: float = 0.0

    def __post_init__(self):
        _check_int("N", self.N, "positive")
        _check_real("lam", self.lam, "positive")
        _check_real("mu", self.mu, "positive")
        _check_real("xi", self.xi, "non-negative")

    @property
    def rho(self):
        return self.lam / self.mu

    @property
    def is_symmetric(self):
        return abs(self.lam - self.mu) <= SYMMETRY_RTOL * max(self.lam, self.mu)

    @property
    def states(self):
        return np.arange(-self.N, self.N + 1)

    def check_state(self, n, name="state"):
        if not abs(n) <= self.N or n != int(n):
            raise ValueError(f"{name}={n} outside the state space -{self.N}..{self.N}")
        return int(n)


#: the sign rules of _check_real and _check_int, by name: value <op> 0
_SIGNS = {"positive": operator.gt, "non-negative": operator.ge, "nonzero": operator.ne}


def _check_real(name, value, sign=None):
    """value if finite and meeting the _SIGNS rule sign (if any), else ValueError naming name and value.

    The contract of every real argument of ehrenfest, oujump and mc.  A float (numpy's float64
    too) takes math.isfinite and one comparison, the path of the routines called one point at
    a time; any other value is checked entry by entry as an array and returned as a float array."""
    if isinstance(value, float):
        if math.isfinite(value) and (sign is None or _SIGNS[sign](value, 0.0)):
            return value
    else:
        a = np.asarray(value)
        ok = np.isfinite(a) if sign is None else np.isfinite(a) & _SIGNS[sign](a, 0.0)
        if ok.all():
            return np.asarray(a, dtype=float)
        value = a[~ok][0]    # the first offending entry
    raise ValueError(f"{name} must be finite{'' if sign is None else ' and ' + sign}, got {value}")


def _check_int(name, value, sign="non-negative"):
    """value as an int, if it is an integer (numbers.Integral) meeting the _SIGNS rule sign, else ValueError."""
    if isinstance(value, numbers.Integral) and _SIGNS[sign](value, 0):
        return int(value)
    raise ValueError(f"{name} must be a {sign} integer, got {value!r}")


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution over the states -N..N (stored read-only)."""

    n_half: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (2 * self.n_half + 1,):
            raise ValueError(f"expected {2 * self.n_half + 1} entries, got shape {v.shape}")
        _check_laws(v[None])
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_rows(cls, n_half, rows, times):
        """One ProbVector per row of a (time, state) block, read-only views of one copy of it,
        checked once by a single ProbVector's conditions; a bad row's ValueError names its time."""
        rows = np.array(rows, dtype=float)
        if rows.shape != (len(times), 2 * n_half + 1):
            raise ValueError(f"expected {len(times)} rows of {2 * n_half + 1} entries, got shape {rows.shape}")
        _check_laws(rows, times)
        rows.flags.writeable = False
        laws = [object.__new__(cls) for _ in times]
        for law, v in zip(laws, rows):
            law.__dict__.update(n_half=n_half, values=v)
        return laws

    @property
    def states(self):
        return np.arange(-self.n_half, self.n_half + 1)

    def prob(self, n):
        return float(self.values[n + self.n_half])

    def mean(self):
        return float(self.states @ self.values)

    def second_moment(self):
        return float((self.states.astype(float) ** 2) @ self.values)

    def normalization_defect(self):
        return abs(float(self.values.sum()) - 1.0)


def _check_laws(rows, times=None):
    """ValueError unless each row of the (row, state) block is finite, in [0, 1] up to 1e-8 and sums to 1
    up to 1e-6, in one pass; the message names times[k] of the first bad row k."""
    sums = rows.sum(axis=1)
    if not (rows.min() >= -1e-8 and rows.max() <= 1.0 + 1e-8 and np.abs(sums - 1.0).max() <= 1e-6):  # nan fails too
        low, high = rows.min(axis=1), rows.max(axis=1)
        k = int(np.argmin((low >= -1e-8) & (high <= 1.0 + 1e-8) & (np.abs(sums - 1.0) <= 1e-6)))
        n_bad, outside = np.count_nonzero(~np.isfinite(rows[k])), low[k] < -1e-8 or high[k] > 1.0 + 1e-8
        raise ValueError(("" if times is None else f"at t={times[k]}: ") + (
            f"{n_bad} non-finite entries" if n_bad else "entries outside [0, 1] beyond numerical slack"
            if outside else f"entries sum to {sums[k]}, not 1"))


@dataclass(frozen=True)
class Curve:
    """A sampled function on a strictly increasing grid (figure data carrier)."""

    grid: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "samples", s)
        if g.ndim != 1 or s.shape != g.shape:
            raise ValueError("grid and samples must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(s))):
            raise ValueError("grid and samples must be finite")
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")


# ----------------------------------------------------------------------
# transition rates and generator


def rates(p: ChainParams, k) -> list[tuple[int, float]]:
    """Non-zero off-diagonal transition rates out of state k.

    Up moves at lam*(N-k), down at mu*(N+k), catastrophe to 0 at xi for
    k != 0.  The edges from +-1 into 0 merge the drift and catastrophe
    contributions, so e.g. the rate from -1 to 0 is lam*(N+1) + xi.
    """
    k = p.check_state(k, "k")
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    out: list[tuple[int, float]] = []
    if k < N:
        up = lam * (N - k)
        if k == -1:
            up += xi
        out.append((k + 1, up))
    if k > -N:
        down = mu * (N + k)
        if k == 1:
            down += xi
        out.append((k - 1, down))
    if xi > 0.0 and abs(k) >= 2:
        out.append((0, xi))
    return out


def generator_matrix(p: ChainParams) -> np.ndarray:
    """Dense generator Q with Q[k, n] = rate(k -> n), rows summing to zero."""
    size = 2 * p.N + 1
    Q = np.zeros((size, size))
    for k in range(-p.N, p.N + 1):
        for target, r in rates(p, k):
            Q[k + p.N, target + p.N] += r
            Q[k + p.N, k + p.N] -= r
    return Q


# ----------------------------------------------------------------------
# catastrophe-free process


def b1(p: ChainParams, t):
    """Success probability of the size N+j binomial component at time t."""
    _check_real("t", t, "non-negative")
    d = p.lam + p.mu
    return (p.lam + p.mu * math.exp(-d * t)) / d


def b2(p: ChainParams, t):
    """Success probability of the size N-j binomial component at time t."""
    _check_real("t", t, "non-negative")
    d = p.lam + p.mu
    return p.lam * (1.0 - math.exp(-d * t)) / d


@lru_cache(maxsize=512)
def _lchoose_row(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n."""
    k = np.arange(n + 1)
    return (
        math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) for v in k])
        - np.array([math.lgamma(n - v + 1) for v in k])
    )


def p_free_row(p: ChainParams, j, t) -> ProbVector:
    """Transition law of the catastrophe-free chain at time t, started at j.

    Convolution of Binomial(N+j, b1(t)) and Binomial(N-j, b2(t)), the
    counts of up particles among those that start up and down; each entry
    is a sum of positive products (see _free_rows).
    """
    j = p.check_state(j, "j")
    return ProbVector(p.N, _free_rows(p, j, _check_real("t", [t], "non-negative"))[0])


def _free_rows(p: ChainParams, j: int, times: np.ndarray) -> np.ndarray:
    """p_free_row(p, j, t) for every t of a checked grid, as a (time, state) array.

    With e = e^{-(lam+mu) t}, the binomial weights are
    b1 = (lam + mu e)/d, 1 - b1 = mu (1-e)/d, b2 = lam (1-e)/d and
    1 - b2 = (mu + lam e)/d.  Each binomial law is exponentiated from its
    log pmf (O(N) exp per time), and entry n is the sum over the shorter
    law's counts k of the positive products short[k] long[N+n-k], taken as
    one dot product per (time, state) over a sliding window of the longer
    law padded with zeros.  Rows at t = 0 are the exact initial vector.
    """
    N, lam, mu = p.N, p.lam, p.mu
    out = np.zeros((times.size, 2 * N + 1))
    out[times == 0.0, j + N] = 1.0
    live = np.flatnonzero(times > 0.0)
    if live.size == 0:
        return out
    ld = math.log(lam + mu)
    dt = (lam + mu) * times[live, None]
    e = np.exp(-dt)
    lgone = np.log(-np.expm1(-dt)) - ld               # log((1 - e)/d)
    up = _binomial_pmf(N + j, np.log(lam + mu * e) - ld, math.log(mu) + lgone)
    down = _binomial_pmf(N - j, math.log(lam) + lgone, np.log(mu + lam * e) - ld)
    short, long_ = (up, down) if N + j <= N - j else (down, up)
    pad = short.shape[1] - 1
    padded = np.zeros((live.size, long_.shape[1] + 2 * pad))
    padded[:, pad:pad + long_.shape[1]] = long_
    windows = np.lib.stride_tricks.sliding_window_view(padded, pad + 1, axis=1)
    out[live] = np.einsum("tnk,tk->tn", windows, np.ascontiguousarray(short[:, ::-1]))
    return out


def _binomial_pmf(size: int, log_b: np.ndarray, log_1mb: np.ndarray) -> np.ndarray:
    """Binomial(size, b) pmf at counts 0..size per time, from (time, 1) log b and log(1-b)."""
    k = np.arange(size + 1)
    return np.exp(_lchoose_row(size) + k * log_b + (size - k) * log_1mb)


def q_free_row(p: ChainParams) -> ProbVector:
    """Stationary law of the catastrophe-free chain (a shifted binomial)."""
    N = p.N
    n = np.arange(-N, N + 1)
    logs = _lchoose_row(2 * N)[N - n] + (n + N) * math.log(p.rho) \
        - 2 * N * math.log1p(p.rho)
    return ProbVector(N, np.exp(logs))


def q_free_mean(p: ChainParams) -> float:
    return p.N * (p.rho - 1.0) / (1.0 + p.rho)


def q_free_var(p: ChainParams) -> float:
    return 2.0 * p.N * p.rho / (1.0 + p.rho) ** 2


def mean_free(p: ChainParams, j, t):
    """Conditional mean of the catastrophe-free chain at t, a float or a 1-D array (then an array)."""
    j = p.check_state(j, "j")
    t = _check_real("t", t, "non-negative")
    d = p.lam + p.mu
    e = np.exp(-d * t)
    return j * e + (p.lam - p.mu) * p.N / d * (1.0 - e)


def var_free(p: ChainParams, j, t):
    """Conditional variance of the catastrophe-free chain at t, a float or a 1-D array (then an array)."""
    j = p.check_state(j, "j")
    t = _check_real("t", t, "non-negative")
    N, lam, mu = p.N, p.lam, p.mu
    d = lam + mu
    e = np.exp(-d * t)
    return (1.0 - e) / d**2 * (
        (N + j) * mu * (lam + mu * e) + (N - j) * lam * (mu + lam * e)
    )


# ----------------------------------------------------------------------
# stationary law with catastrophes


@lru_cache(maxsize=128)
def q_cat_row(p: ChainParams) -> ProbVector:
    """Stationary law of the chain with catastrophes, in closed form.

    q = xi int_0^inf e^{-xi tau} p_free(0, ., tau) dtau = xi e_0 (xi I - Q_free)^{-1},
    the renewal tail of p_cat_closed_rows at t = 0 (see _renewal_tail): two
    banded back-substitutions on the LU factors that _renewal_factors caches
    per parameter set, whose every step adds positive terms, so no entry is
    negative.  Against the null space of generator_matrix it agrees to 1e-12
    absolute over N <= 160, lam/mu from 0.01 to 100 and xi from 0.01 to 5,
    and against the paper's form, a sum of exact Appell F1 values, to 2e-14
    relative in every entry over N in {1, 2, 5, 10}, lam/mu in {0.01, 1/3,
    1, 3, 100} and xi in {0.01, 0.5, 5} (test_q_cat_row_vs_paper_appell_form).
    """
    if not p.xi > 0.0:
        raise ValueError("the stationary law with catastrophes requires xi > 0; use q_free_row for xi = 0")
    t0 = np.zeros(1)
    return ProbVector(p.N, _renewal_tail(p, t0, _free_rows(p, 0, t0))[0])


def q_cat_quadrature_row(p: ChainParams) -> ProbVector:
    """Stationary law via the renewal integral xi * int_0^inf e^{-xi tau} p_free(0,.,tau).

    The substitution u = e^{-xi tau} absorbs the weight exactly, leaving
    int_0^1 p_free(0, ., -ln(u)/xi) du (see _renewal_quadrature).
    """
    if not p.xi > 0.0:
        raise ValueError("the stationary law with catastrophes requires xi > 0; use q_free_row for xi = 0")
    return ProbVector(p.N, _renewal_quadrature(p, 0.0))


def _renewal_quadrature(p: ChainParams, lo) -> np.ndarray:
    """xi int_0^T e^{-xi tau} p_free(0, ., tau) dtau = int_lo^1 p_free(0, ., -ln(u)/xi) du, lo = e^{-xi T}.

    By adaptive quad_vec, to RENEWAL_QUAD_TOL in the max norm; u = 0 gives the free stationary law.
    """
    from scipy.integrate import quad_vec
    def integrand(u):
        tau = -math.log(u) / p.xi if u > 0.0 else math.inf
        return p_free_row(p, 0, tau).values if tau < math.inf else q_free_row(p).values

    res, err = quad_vec(integrand, lo, 1.0, epsabs=RENEWAL_QUAD_TOL * 0.5, epsrel=1e-13, norm="max")
    if err > RENEWAL_QUAD_TOL:
        raise QuadratureError(f"renewal quadrature reached only {err:.3e}", achieved=err)
    return res


def stationary_row(p: ChainParams) -> ProbVector:
    """Stationary law for any xi >= 0 (routes xi = 0 to the free law)."""
    return q_cat_row(p) if p.xi > 0.0 else q_free_row(p)


# ----------------------------------------------------------------------
# transient law with catastrophes


@lru_cache(maxsize=64)
def _outer_index_sum(N: int) -> np.ndarray:
    """Read-only h + k for h, k in 0..N.

    No longer used by the library; the benchmark reads its cache_info().
    """
    out = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=128)
def _renewal_factors(p: ChainParams):
    """(dgbtrs, read-only dgbtrf factors (lu, piv, kl, ku) of U^T and L^T), where LU = A = xi I - Q_free, xi > 0.

    A is a tridiagonal M-matrix with birth rates lam_k = lam (N-n) and death
    rates mu_k = mu (N+n) at state n = k - N.  LU takes the subtraction-free
    pivots of Grassmann, Taksar & Heyman (Oper. Res. 33, 1985): s_0 = xi,
    s_k = xi + mu_k s_{k-1}/d_{k-1} (the Schur complement's row sum) and
    d_k = s_k + lam_k > lam_k, so dgbtrf (solve_banded's gbsv factor step) swaps no row.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs   # once per parameter set, not per solve
    N, lam, mu, xi, n = p.N, p.lam, p.mu, p.xi, p.states
    s, d = xi, [xi + lam * 2 * N]
    for k in range(1, 2 * N + 1):
        s = xi + mu * k * s / d[-1]
        d.append(s + lam * (2 * N - k))
    d = np.array(d)
    ut = np.vstack([np.zeros_like(d), d, -lam * (N - n)])    # U^T: dgbtrf's spare row, d_k, -lam_k below
    lt = np.vstack([-mu * (N + n) / np.roll(d, 1), np.ones_like(d)])   # L^T: -mu_k/d_{k-1} above 1
    factors = []
    for band, kl, ku in ((ut, 1, 0), (lt, 0, 1)):
        lu, piv, info = dgbtrf(band, kl, ku)
        if info:
            raise np.linalg.LinAlgError("singular matrix")
        lu.flags.writeable = piv.flags.writeable = False
        factors.append((lu, piv, kl, ku))
    return dgbtrs, tuple(factors)


def _renewal_tail(p: ChainParams, times: np.ndarray, free0: np.ndarray) -> np.ndarray:
    """T(t) = xi int_t^inf e^{-xi tau} p_free(0, ., tau) dtau at every time, (time, n), xi > 0.

    By renewal at the last catastrophe, p_cat(j,.,t) = q + e^{-xi t}
    p_free(j,.,t) - T(t) with q = T(0).  free0 holds the rows p_free(0,.,t)
    of the times.  The free chain is Markov, so T(t) = xi e^{-xi t} x(t)
    with x^T A = free0(t)^T.  With the factors of _renewal_factors, cached
    per parameter set, a call is two banded back-substitutions (dgbtrs,
    U^T then L^T) for all times at once, and every step adds positive terms.
    """
    dgbtrs, factors = _renewal_factors(p)
    x = free0.T
    for lu, piv, kl, ku in factors:
        x, info = dgbtrs(lu, kl, ku, x, piv)
        if info:
            raise ValueError(f"illegal value in {-info}-th argument of internal gbtrs")
    return (p.xi * np.exp(-p.xi * times))[:, None] * x.T


def p_cat_closed_rows(p: ChainParams, j, grid) -> list[ProbVector]:
    """Transient law with catastrophes at every time of grid, started at j, in closed form.

    q + e^{-xi t} p_free(j,.,t) - T(t), with the free rows of _free_rows
    and the renewal tail T of _renewal_tail (q = T(0)), each computed for
    the whole grid at once and checked as one block (ProbVector.from_rows).
    The grid may be in any order and repeat times; rows at t = 0 are the
    exact initial vector, and at xi = 0 the rows are the free ones.
    Against scipy.linalg.expm of generator_matrix it agrees to 1e-12
    absolute, and no entry is below -1e-12, over N <= 160, lam/mu from
    0.01 to 100, xi from 0.01 to 5 and t in [1e-3, 10]; validate checks it
    against ode_transient on the 400-point default grid at N = 10 and 40,
    and against p_cat_quadrature_row at N = 40 and t in {1e-3, 0.01}.
    """
    j = p.check_state(j, "j")
    times = _check_real("grid", grid, "non-negative")
    if times.ndim != 1 or times.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    rows = _free_rows(p, j, times)
    live = times > 0.0
    if p.xi > 0.0 and live.any():
        t = times[live]
        free = rows[live]
        tail = _renewal_tail(p, t, free if j == 0 else _free_rows(p, 0, t))
        rows[live] = q_cat_row(p).values + np.exp(-p.xi * t)[:, None] * free - tail
    return ProbVector.from_rows(p.N, rows, times)


def p_cat_closed_row(p: ChainParams, j, t) -> ProbVector:
    """Transient law with catastrophes at time t, started at j: p_cat_closed_rows at one time."""
    return p_cat_closed_rows(p, j, [_check_real("t", t, "non-negative")])[0]


def p_cat_quadrature_row(p: ChainParams, j, t) -> ProbVector:
    """Transient law via the renewal relation, the oracle for the closed form.

    e^{-xi t} p_free(j,.,t) + xi int_0^t e^{-xi tau} p_free(0,.,tau) dtau,
    with the time integral mapped to u = e^{-xi tau} on [e^{-xi t}, 1]
    (see _renewal_quadrature).
    """
    j = p.check_state(j, "j")
    _check_real("t", t, "non-negative")
    ptilde = p_free_row(p, j, t).values
    if p.xi == 0.0 or t == 0.0:
        return ProbVector(p.N, ptilde)
    lo = math.exp(-p.xi * t)
    return ProbVector(p.N, lo * ptilde + _renewal_quadrature(p, lo))


def ode_transient(p: ChainParams, j, grid) -> list[ProbVector]:
    """Transient law by integrating the Kolmogorov forward system.

    Adaptive explicit Runge-Kutta (DOP853) at local tolerance 1e-10 on the
    full (2N+1)-dimensional linear system; the independent oracle for both
    closed-form routes.
    """
    j = p.check_state(j, "j")
    grid = _check_real("grid", grid, "non-negative")
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be a non-empty increasing 1-D array")
    size = 2 * p.N + 1
    y0 = np.zeros(size)
    y0[j + p.N] = 1.0
    if grid[-1] == 0.0:
        return ProbVector.from_rows(p.N, np.tile(y0, (grid.size, 1)), grid)
    from scipy.integrate import solve_ivp
    Q = generator_matrix(p)
    QT = np.ascontiguousarray(Q.T)
    sol = solve_ivp(
        lambda t, v: QT @ v,
        (0.0, grid[-1]),
        y0,
        method="DOP853",
        t_eval=grid,
        rtol=1e-10,
        atol=1e-13,
    )
    if not sol.success:
        raise NonConvergenceError(f"ODE integration failed: {sol.message}")
    return ProbVector.from_rows(p.N, np.clip(sol.y.T, 0.0, None), grid)


# ----------------------------------------------------------------------
# moments with catastrophes


def mean_cat(p: ChainParams, j, t):
    """Conditional mean of the chain with catastrophes at t, a float or a 1-D array (then an array)."""
    j = p.check_state(j, "j")
    t = _check_real("t", t, "non-negative")
    e = np.exp(-(p.lam + p.mu + p.xi) * t)
    return j * e + mean_cat_limit(p) * (1.0 - e)


def mean_cat_limit(p: ChainParams) -> float:
    return (p.lam - p.mu) * p.N / (p.lam + p.mu + p.xi)


def m2_cat(p: ChainParams, j, t):
    """Conditional second moment of the chain with catastrophes at t, a float or a 1-D array (then an array)."""
    j = p.check_state(j, "j")
    t = _check_real("t", t, "non-negative")
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    d = lam + mu
    r1 = d + xi
    r2 = 2.0 * d + xi
    t2 = (mu - lam) * (1.0 - 2.0 * N) * (N * (mu - lam) + j * r1) / (d * r1)
    t3 = (
        2.0 * N**2 * (mu - lam) ** 2
        - 2.0 * N * (lam**2 + mu**2)
        - j * xi * (mu - lam)
        - 2.0 * j * (mu**2 - lam**2)
        + 4.0 * j * N * (mu**2 - lam**2)
        + 2.0 * j * xi * N * (mu - lam)
        + 2.0 * j**2 * d**2
        + j**2 * xi * d
    ) / (d * r2)
    return m2_cat_limit(p) + t2 * np.exp(-r1 * t) + t3 * np.exp(-r2 * t)


def m2_cat_limit(p: ChainParams) -> float:
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    d = lam + mu
    return N * (4.0 * lam * mu + 2.0 * N * (mu - lam) ** 2 + xi * d) / ((d + xi) * (2.0 * d + xi))


def var_cat(p: ChainParams, j, t):
    """Conditional variance of the chain with catastrophes at t, a float or a 1-D array (then an array).

    The square is m * m: a float64 scalar ** 2 can round differently from the
    array square, and m * m keeps a scalar call equal to an array call bit for bit.
    At t = 0 the start is certain and the value is exactly 0 (m2 - m * m rounds to +-1e-14)."""
    m = mean_cat(p, j, t)
    return np.where(np.greater(t, 0.0), m2_cat(p, j, t) - m * m, 0.0)[()]


# ----------------------------------------------------------------------
# first-passage time through 0


def _free_passage_sym(p: ChainParams, j, times) -> tuple[np.ndarray, np.ndarray]:
    """Free first-passage density g and survival S through 0 at every time, lam == mu only.

    Both come from the free rows of _free_rows.  The chain is skip-free
    and, for lam == mu, symmetric under n -> -n, so reflecting a path at
    its first visit to 0 gives, with s = sgn(j),

        S(t) = sum_{n>=1} [p_free(j, s n, t) - p_free(j, -s n, t)],
        g(t) = mu (N+1) s [p_free(j, 1, t) - p_free(j, -1, t)].
    """
    if not p.is_symmetric:
        raise ValueError(
            f"the first-passage density requires lam == mu (got lam={p.lam}, mu={p.mu})")
    j = p.check_state(j, "j")
    if j == 0:
        raise ValueError("first-passage time from j = 0 is degenerate")
    v = _free_rows(p, j, times)
    N = p.N
    above, below = v[:, N + 1:], v[:, N - 1::-1]    # states n and -n, n = 1..N
    ahead, behind = (above, below) if j > 0 else (below, above)
    return p.mu * (N + 1) * (ahead[:, 0] - behind[:, 0]), (ahead - behind).sum(axis=1)


def fpt_density_cat(p: ChainParams, j, t) -> float:
    """First-passage density through 0 with catastrophes (lam == mu): fpt_density_cat_curve at one time."""
    return float(fpt_density_cat_curve(p, j, [_check_real("t", t, "non-negative")]).samples[0])


def fpt_density_cat_curve(p: ChainParams, j, grid) -> Curve:
    """First-passage density through 0 with catastrophes on a grid (lam == mu), in closed form.

    e^{-xi t} [g_free(t) + xi S_free(t)], with the free density and the
    free survival both read from the free rows of the whole grid (the
    survival by reflection at 0; see _free_passage_sym).  Catastrophes
    force passage, so the density starts at xi (for |j| >= 2) and remains
    normalized; at xi = 0 it is g_free.  Against expm of the sub-generator
    with 0 absorbing it agrees to 1e-9 relative over N in {10, 40};
    fpt_moments_linear is the independent oracle of its moments.
    """
    grid = _check_real("grid", grid, "non-negative")
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-D array")
    g, survival = _free_passage_sym(p, j, grid)
    return Curve(grid, np.exp(-p.xi * grid) * (g + p.xi * survival))


def fpt_moments_linear(p: ChainParams, j, xi=None):
    """Mean and second moment of the first-passage time to 0, by linear solves.

    The chain is skip-free, so from j it reaches the other side only
    through 0, and only the N states i = |n| = 1..N on j's side count.
    With 0 absorbing (catastrophes included), the moments solve A m = 1
    and A w = 2m, where A is a tridiagonal M-matrix with killing rate xi,
    rate toward_i to i-1 and away_i to i+1 (away_N = 0).  Elimination
    from the far end takes the subtraction-free pivots of _renewal_factors:
    s_N = xi, s_i = xi + away_i s_{i+1}/d_{i+1} and d_i = s_i + toward_i,
    and both substitutions add only positive terms.  Works for any lam,
    mu and xi >= 0, unlike the density route; within 1e-13 relative of an
    exact rational solve over N <= 160, lam/mu from 0.01 to 100, xi from 0
    to 5 and j in {+-1, +-N}.  Raises ValueError where a moment passes the
    double range (a drift away from 0 at xi = 0 and large N).
    xi, a float or a 1-D array, replaces p.xi: the sweeps use only + - * /,
    so an array runs them once, and each entry is the float call's bit for bit.
    """
    j = p.check_state(j, "j")
    if j == 0:
        raise ValueError("first-passage time from j = 0 is degenerate")
    N, lam, mu = p.N, p.lam, p.mu
    xi = p.xi if xi is None else _check_real("xi", xi, "non-negative")
    toward = [(mu if j > 0 else lam) * (N + i) for i in range(N + 1)]
    away = [(lam if j > 0 else mu) * (N - i) for i in range(N + 1)]
    d, sigma = [1.0] * (N + 2), 0.0        # index N + 1: a dummy with no flow
    for i in range(N, 0, -1):
        sigma = xi + away[i] * sigma / d[i + 1]
        d[i] = sigma + toward[i]

    def solve(b):
        c = [0.0] * (N + 2)
        for i in range(N, 0, -1):
            c[i] = b[i] + away[i] * c[i + 1] / d[i + 1]
        x = [0.0] * (N + 1)                # x[0] = 0: state 0 absorbs
        for i in range(1, N + 1):
            x[i] = (c[i] + toward[i] * x[i - 1]) / d[i]
        return x

    floats = isinstance(xi, float)     # numpy's two guards cost a float call 3.4 us, 40% at N = 10
    with contextlib.nullcontext() if floats else np.errstate(over="ignore", invalid="ignore"):
        m = solve([1.0] * (N + 1))     # past the double range: refused below
        w = solve([2.0 * v for v in m])
    mean, m2 = m[abs(j)], w[abs(j)]
    ok = mean + m2 < math.inf          # both are positive; nan fails too
    if not (ok if floats else ok.all()):
        raise ValueError(
            f"the passage moments from j={j} pass the double range at N={N}, "
            f"lam={lam}, mu={mu}, xi={xi if floats else np.broadcast_to(xi, ok.shape)[~ok][0]}")
    return mean, m2


def default_time_grid(p: ChainParams, n_points=400, horizon=None) -> np.ndarray:
    """Uniform grid resolving the transients, [0, 10/(lam+mu+xi)] by default."""
    T = 10.0 / (p.lam + p.mu + p.xi) if horizon is None else _check_real("horizon", horizon, "non-negative")
    return np.linspace(0.0, T, _check_int("n_points", n_points, "positive"))
