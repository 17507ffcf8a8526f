"""Exact analysis of the mean-reverting urn chain with catastrophes.

The chain M(t) lives on the integers -N..N, moves up at rate lam*(N-n),
down at rate mu*(N+n), and is reset to 0 by catastrophes arriving at
constant rate xi.  The module provides the catastrophe-free transition
law (a convolution of two binomials), the stationary and transient laws
with catastrophes in closed form, exact moments, first-passage-time
quantities, and three independent evaluation routes (closed form,
renewal quadrature, Kolmogorov ODE) that are cross-checked in the tests.

All products of binomials and rate powers are accumulated in log space;
the closed forms mix terms spanning many orders of magnitude already at
N = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad_vec, solve_ivp
from scipy.integrate import quad  # noqa: F401  unused; benchmark/trace_targets.py patches it

from .specfun import NonConvergenceError
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

#: relative tolerance under which lam and mu are treated as equal by the
#: symmetric-only first-passage formulas
SYMMETRY_RTOL = 1e-12


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

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
        if self.N < 1 or self.N != int(self.N):
            raise ValueError(f"N must be a positive integer, got {self.N}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.xi < 0.0:
            raise ValueError(f"xi must be non-negative, got {self.xi}")

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
        if n != int(n) or abs(n) > self.N:
            raise ValueError(f"{name}={n} outside the state space -{self.N}..{self.N}")
        return int(n)


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution over the states -N..N (stored read-only)."""

    n_half: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (2 * self.n_half + 1,):
            raise ValueError(f"expected {2 * self.n_half + 1} entries, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{np.count_nonzero(~np.isfinite(v))} non-finite entries")
        if v.min() < -1e-8 or v.max() > 1.0 + 1e-8:
            raise ValueError("entries outside [0, 1] beyond numerical slack")
        if abs(v.sum() - 1.0) > 1e-6:
            raise ValueError(f"entries sum to {v.sum()}, not 1")

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
    k = p.check_state(k)
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
    _check_time(t)
    d = p.lam + p.mu
    return (p.lam + p.mu * math.exp(-d * t)) / d


def b2(p: ChainParams, t):
    """Success probability of the size N-j binomial component at time t."""
    _check_time(t)
    d = p.lam + p.mu
    return p.lam * (1.0 - math.exp(-d * t)) / d


def _check_time(t):
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")


@lru_cache(maxsize=512)
def _lchoose_row(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n."""
    k = np.arange(n + 1)
    return (
        math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) for v in k])
        - np.array([math.lgamma(n - v + 1) for v in k])
    )


@lru_cache(maxsize=512)
def _free_tables(N: int, j: int):
    """Index grids and log binomials for the free transition row at start j."""
    n = np.arange(-N, N + 1)[:, None]          # target states
    i = np.arange(0, N + j + 1)[None, :]       # first binomial count
    valid = (i >= np.maximum(0, j + n)) & (i <= np.minimum(N + n, N + j))
    lc1 = _lchoose_row(N + j)[None, :]
    # C(N - j, N + n - i); clamp the index where invalid
    idx = np.clip(N + n - i, 0, N - j)
    lc2 = _lchoose_row(N - j)[idx]
    return n, i, valid, lc1 + lc2


def p_free_row(p: ChainParams, j, t) -> ProbVector:
    """Transition law of the catastrophe-free chain at time t, started at j.

    Convolution of two binomials with success probabilities b1(t), b2(t);
    each entry is a log-space sum of positive terms (see _free_rows).
    """
    j = p.check_state(j, "j")
    return ProbVector(p.N, _free_rows(p, j, _check_times([t]))[0])


def _check_times(grid) -> np.ndarray:
    """The grid as a float array of finite, non-negative times (any order)."""
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(times)) or times.min() < 0.0:
        raise ValueError(f"times must be finite and non-negative, got {times.min()}")
    return times


#: float64 elements allowed in the largest temporary of one time slice
#: (256 KB); the grid routines walk longer grids slice by slice, which
#: keeps the peak memory of a 400-point grid at N = 10 near that of one row
_SLICE_ELEMENTS = 1 << 15


def _time_slices(n_times, per_time):
    """Slices of a time axis whose temporaries hold per_time elements per time."""
    step = max(1, _SLICE_ELEMENTS // per_time)
    return [slice(k, k + step) for k in range(0, n_times, step)]


def _free_rows(p: ChainParams, j: int, times: np.ndarray) -> np.ndarray:
    """p_free_row(p, j, t) for every t of a checked grid, as a (time, state) array.

    With e = e^{-(lam+mu) t}, the binomial weights are
    b1 = (lam + mu e)/d, 1 - b1 = mu (1-e)/d, b2 = lam (1-e)/d and
    1 - b2 = (mu + lam e)/d, so each log term is a time-free part plus
    three time parts.  Rows at t = 0 are the exact initial vector.
    """
    N, lam, mu = p.N, p.lam, p.mu
    d = lam + mu
    n, i, valid, lcomb = _free_tables(N, j)
    fixed = np.where(valid, lcomb + (N + j - i) * math.log(mu) + (N + n - i) * math.log(lam)
                     - 2 * N * math.log(d), -np.inf)
    out = np.zeros((times.size, 2 * N + 1))
    out[times == 0.0, j + N] = 1.0
    live = np.flatnonzero(times > 0.0)
    for sl in _time_slices(live.size, fixed.size):
        dt = d * times[live[sl], None, None]
        e = np.exp(-dt)
        logs = (2 * N + j + n - 2 * i) * np.log(-np.expm1(-dt))
        logs += fixed
        logs += (i - j - n) * np.log(mu + lam * e)
        logs += i * np.log(lam + mu * e)
        m = logs.max(axis=-1, keepdims=True)
        out[live[sl]] = np.exp(m[..., 0]) * np.exp(logs - m, out=logs).sum(axis=-1)
    return out


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


def mean_free(p: ChainParams, j, t) -> float:
    """Conditional mean of the catastrophe-free chain."""
    j = p.check_state(j, "j")
    _check_time(t)
    d = p.lam + p.mu
    e = math.exp(-d * t)
    return j * e + (p.lam - p.mu) * p.N / d * (1.0 - e)


def var_free(p: ChainParams, j, t) -> float:
    """Conditional variance of the catastrophe-free chain."""
    j = p.check_state(j, "j")
    _check_time(t)
    N, lam, mu = p.N, p.lam, p.mu
    d = lam + mu
    e = math.exp(-d * t)
    return (1.0 - e) / d**2 * (
        (N + j) * mu * (lam + mu * e) + (N - j) * lam * (mu + lam * e)
    )


# ----------------------------------------------------------------------
# stationary law with catastrophes


@lru_cache(maxsize=128)
def q_cat_row(p: ChainParams) -> ProbVector:
    """Stationary law of the chain with catastrophes, in closed form.

    q_n = xi int_0^inf e^{-xi tau} p_free(0, n, tau) dtau = T_n(0), the
    renewal tail of p_cat_closed_row at t = 0 (see _renewal_tail): one
    log-space sum of positive terms for both laws.  Term by term it is the
    Appell-F1 form of the paper, by B(m+1, a) (a)_s / (a+m+1)_s =
    B(m+1, a+s) with a = xi/(lam+mu).  Against the null space of
    generator_matrix it agrees to 6e-15 absolute or better for N <= 160.
    """
    if not p.xi > 0.0:
        raise ValueError("the stationary law with catastrophes requires xi > 0; use q_free_row for xi = 0")
    return ProbVector(p.N, _renewal_tail(p, np.zeros(1))[0])


def q_cat_quadrature_row(p: ChainParams, tol=1e-11) -> ProbVector:
    """Stationary law via the renewal integral xi * int_0^inf e^{-xi tau} p_free(0,.,tau).

    The substitution y = e^{-(lam+mu) tau} maps the integral to (0, 1]
    with an algebraic weight y^{a-1}; the further substitution u = y^a
    absorbs the weight exactly, leaving int_0^1 p_free(0, ., -ln(u)/xi) du.
    """
    if not p.xi > 0.0:
        raise ValueError("the stationary law with catastrophes requires xi > 0; use q_free_row for xi = 0")

    def integrand(u):
        tau = -math.log(u) / p.xi if u > 0.0 else math.inf
        if math.isinf(tau):
            return q_free_row(p).values
        return p_free_row(p, 0, tau).values

    res, err = quad_vec(integrand, 0.0, 1.0, epsabs=tol * 0.5, epsrel=1e-13, norm="max")
    if err > tol:
        raise QuadratureError(f"stationary-law quadrature reached only {err:.3e}", achieved=err)
    return ProbVector(p.N, res)


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


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) along the last axis, for finite a (-inf entries allowed)."""
    mx = a.max(axis=-1)
    return mx + np.log(np.exp(a - mx[..., None]).sum(axis=-1))


def _f_over_c_log_table(p: ChainParams, times) -> np.ndarray:
    """log int_0^1 u^{c-1} (1 - z u^d)^m du at every time, as a (time, m, s) array, m, s in 0..2N.

    d = lam + mu, c = xi + s d, z = e^{-d t}.  Integrating by parts gives
    the recurrence of positive terms

        I_m(c) = [(1 - z)^m + m d z I_{m-1}(c + d)] / c,    I_0(c) = 1/c,

    whose expansion is the Pfaff form (DLMF 15.8.1) of F(c/d, -m; 1+c/d; z)/c,

        (1/c) sum_{l=0}^m C(m,l) l! / (1+c/d)_l z^l (1-z)^{m-l}.

    It runs in linear space over (time, s) arrays, with s up to 4N at
    m = 0 so that row m = 2N still holds s in 0..2N.  At t = 0 only l = m
    remains: B(c/d, m+1)/d.  Every entry is at least that Beta value, so
    the entries with m + s <= 2N, the ones _renewal_tail uses, are normal
    floats up to N of about 500.  validate checks the table against
    quad of the integrand (m <= 20, z up to 0.73) and the Beta value to
    1e-11 in the log.
    """
    N, xi, d = p.N, p.xi, p.lam + p.mu
    t = np.asarray(times, dtype=float)[:, None]
    inv_c = 1.0 / (xi + d * np.arange(4 * N + 1))
    z, one_minus_z = np.exp(-d * t), -np.expm1(-d * t)
    out = np.empty((t.shape[0], 2 * N + 1, 2 * N + 1))
    row = np.broadcast_to(inv_c, (t.shape[0], inv_c.size))
    out[:, 0] = row[:, : 2 * N + 1]
    for m in range(1, 2 * N + 1):
        row = (one_minus_z**m + m * d * z * row[:, 1:]) * inv_c[: inv_c.size - m]
        out[:, m] = row[:, : 2 * N + 1]
    with np.errstate(divide="ignore"):          # unused entries beyond m + s = 2N may underflow
        return np.log(out, out=out)


def _pair_coefficients(p: ChainParams):
    """Time-free coefficients of the renewal tail, grouped by a + b.

    For a, b in 0..N and r = mu/lam,

        P_{a,b}[s] = sum_{h+k=s} C(a,h) C(b,k) r^{h-k} = [x^s] (1 + r x)^a (1 + x/r)^b.

    Group g = a + b holds the pairs a = max(0, g-N)..min(N, g), b = g - a.
    It comes from group g - 1 by one positive shift-add per row: times
    (1 + x/r) for b >= 1, and times (1 + r x) for the new pair (g, 0).
    Each row is rescaled to max 1 and its log scale kept, so no entry
    overflows.  Returns a list over g of (a, rows (pairs, g+1), log scales).
    """
    N, r = p.N, p.mu / p.lam
    rows, scale = np.ones((1, 1)), np.zeros(1)
    groups = [(np.zeros(1, dtype=int), rows, scale)]
    for g in range(1, 2 * N + 1):
        keep = 1 if g > N else 0                    # pair (g-1-N, N) leaves the range
        grown = np.zeros((rows.shape[0] - keep + (g <= N), g + 1))
        grown[: rows.shape[0] - keep, :-1] = rows[keep:]
        grown[: rows.shape[0] - keep, 1:] += rows[keep:] / r
        new_scale = scale[keep:]
        if g <= N:                                  # the pair (g, 0)
            grown[-1, :-1] = rows[-1]
            grown[-1, 1:] += r * rows[-1]
            new_scale = np.append(new_scale, scale[-1])
        top = grown.max(axis=1)
        rows, scale = grown / top[:, None], new_scale + np.log(top)
        groups.append((np.arange(max(0, g - N), min(N, g) + 1), rows, scale))
    return groups


def _renewal_tail(p: ChainParams, times: np.ndarray) -> np.ndarray:
    """T_n(t) = xi int_t^inf e^{-xi tau} p_free(0, n, tau) dtau at every time, (time, n), xi > 0.

    By renewal at the last catastrophe, p_cat(j,n,t) = q_n + e^{-xi t}
    p_free(j,n,t) - T_n(t) with q_n = T_n(0).  Expanding the two binomials
    of p_free(0, n, tau) in powers of e^{-d tau}, d = lam + mu, and summing
    over the powers h + k = s first gives, with the pair coefficients P
    of _pair_coefficients and the table I of _f_over_c_log_table,

        T_n(t) = xi e^{-xi t} lam^{N+n} mu^{N-n} d^{-2N}
                 sum_{a-b=n} C(N,a) C(N,b) sum_{s<=a+b} P_{a,b}[s] e^{-d t s} I_{2N-a-b,s}(t),

    a sum of positive terms.  The coefficients are built once per call.
    For each group a + b the sum over s is a product of the rescaled
    coefficients with the table row divided by its s = 0 entry (the
    largest: I and e^{-d t s} both fall with s); the sum over the pairs
    of each n is in log space.  Long grids run slice by slice.
    """
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    d = lam + mu
    times = np.asarray(times, dtype=float)
    groups = _pair_coefficients(p)
    lcN = _lchoose_row(N)
    n = np.arange(-N, N + 1)
    out = np.empty((times.size, 2 * N + 1))
    for sl in _time_slices(times.size, (2 * N + 1) ** 2):
        t = times[sl, None]
        log_i = _f_over_c_log_table(p, times[sl])
        by_pair = np.full((t.shape[0], 2 * N + 1, N + 1), -np.inf)   # (time, n, a)
        for g, (a, rows, scale) in enumerate(groups):
            m = 2 * N - g
            ratio = np.exp(log_i[:, m, : g + 1] - log_i[:, m, :1] - d * t * np.arange(g + 1))
            summed = (ratio[:, None, :] * rows[None, :, :]).sum(axis=-1)      # (time, pair)
            by_pair[:, 2 * a - g + N, a] = (np.log(summed) + scale + lcN[a] + lcN[g - a]
                                            + log_i[:, m, :1])
        out[sl] = _logsumexp(by_pair) - xi * t
    return np.exp(out + math.log(xi) - 2 * N * math.log(d)
                  + (N + n) * math.log(lam) + (N - n) * math.log(mu))


def p_cat_closed_rows(p: ChainParams, j, grid) -> list[ProbVector]:
    """Transient law with catastrophes at every time of grid, started at j, in closed form.

    q_n + e^{-xi t} p_free(j,n,t) - T_n(t), with the free rows of
    _free_rows and the renewal tail T of _renewal_tail (q = T(0)), each
    computed for the whole grid at once.  The grid may be in any order and
    repeat times; rows at t = 0 are the exact initial vector, and at
    xi = 0 the rows are the free ones.  Every term is positive, so no row
    is NaN.  Against scipy.linalg.expm of generator_matrix it agrees to
    1e-12 absolute (2.4e-14 measured) over N <= 80, lam/mu from 0.1 to
    100, xi from 0.05 to 5 and t in [1e-3, 10]; validate checks it
    against ode_transient on the 400-point default grid at N = 10 and 40.
    """
    j = p.check_state(j, "j")
    times = _check_times(grid)
    rows = _free_rows(p, j, times)
    live = times > 0.0
    if p.xi > 0.0 and live.any():
        t = times[live]
        rows[live] = (q_cat_row(p).values + np.exp(-p.xi * t)[:, None] * rows[live]
                      - _renewal_tail(p, t))
    return [ProbVector(p.N, v) for v in rows]


def p_cat_closed_row(p: ChainParams, j, t) -> ProbVector:
    """Transient law with catastrophes at time t, started at j: p_cat_closed_rows at one time."""
    return p_cat_closed_rows(p, j, [t])[0]


def p_cat_quadrature_row(p: ChainParams, j, t, tol=1e-11) -> ProbVector:
    """Transient law via the renewal relation, the oracle for the closed form.

    e^{-xi t} p_free(j,.,t) + xi int_0^t e^{-xi tau} p_free(0,.,tau) dtau,
    with the time integral mapped to u = e^{-xi tau} on [e^{-xi t}, 1].
    """
    j = p.check_state(j, "j")
    _check_time(t)
    ptilde = p_free_row(p, j, t).values
    if p.xi == 0.0 or t == 0.0:
        return ProbVector(p.N, ptilde)
    lo = math.exp(-p.xi * t)

    def integrand(u):
        return p_free_row(p, 0, -math.log(u) / p.xi).values

    res, err = quad_vec(integrand, lo, 1.0, epsabs=tol * 0.5, epsrel=1e-13, norm="max")
    if err > tol:
        raise QuadratureError(f"transient-law quadrature reached only {err:.3e}", achieved=err)
    return ProbVector(p.N, lo * ptilde + res)


def ode_transient(p: ChainParams, j, grid) -> list[ProbVector]:
    """Transient law by integrating the Kolmogorov forward system.

    Adaptive explicit Runge-Kutta (DOP853) at local tolerance 1e-10 on the
    full (2N+1)-dimensional linear system; the independent oracle for both
    closed-form routes.
    """
    j = p.check_state(j, "j")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if grid[0] < 0.0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be increasing and start at t >= 0")
    size = 2 * p.N + 1
    y0 = np.zeros(size)
    y0[j + p.N] = 1.0
    if grid[-1] == 0.0:
        return [ProbVector(p.N, y0.copy()) for _ in grid]
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
    return [ProbVector(p.N, np.clip(sol.y[:, k], 0.0, None)) for k in range(grid.size)]


# ----------------------------------------------------------------------
# moments with catastrophes


def mean_cat(p: ChainParams, j, t) -> float:
    """Conditional mean of the chain with catastrophes."""
    j = p.check_state(j, "j")
    _check_time(t)
    r = p.lam + p.mu + p.xi
    e = math.exp(-r * t)
    return j * e + (p.lam - p.mu) * p.N / r * (1.0 - e)


def mean_cat_limit(p: ChainParams) -> float:
    return (p.lam - p.mu) * p.N / (p.lam + p.mu + p.xi)


def m2_cat(p: ChainParams, j, t) -> float:
    """Conditional second moment of the chain with catastrophes."""
    j = p.check_state(j, "j")
    _check_time(t)
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    d = lam + mu
    r1 = d + xi
    r2 = 2.0 * d + xi
    t1 = N * (4.0 * lam * mu + 2.0 * N * (mu - lam) ** 2 + xi * d) / (r1 * r2)
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
    return t1 + t2 * math.exp(-r1 * t) + t3 * math.exp(-r2 * t)


def m2_cat_limit(p: ChainParams) -> float:
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    d = lam + mu
    return N * (4.0 * lam * mu + 2.0 * N * (mu - lam) ** 2 + xi * d) / ((d + xi) * (2.0 * d + xi))


def var_cat(p: ChainParams, j, t) -> float:
    return m2_cat(p, j, t) - mean_cat(p, j, t) ** 2


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
    v = _free_rows(p, j, _check_times(times))
    N = p.N
    above, below = v[:, N + 1:], v[:, N - 1::-1]    # states n and -n, n = 1..N
    ahead, behind = (above, below) if j > 0 else (below, above)
    return p.mu * (N + 1) * (ahead[:, 0] - behind[:, 0]), (ahead - behind).sum(axis=1)


def fpt_density_cat(p: ChainParams, j, t) -> float:
    """First-passage density through 0 with catastrophes (lam == mu): fpt_density_cat_curve at one time."""
    return float(fpt_density_cat_curve(p, j, [t]).samples[0])


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
    grid = np.asarray(grid, dtype=float)
    g, survival = _free_passage_sym(p, j, grid)
    return Curve(grid, np.exp(-p.xi * grid) * (g + p.xi * survival))


def fpt_moments_linear(p: ChainParams, j) -> tuple[float, float]:
    """Mean and second moment of the first-passage time to 0, by linear solves.

    State 0 is made absorbing (catastrophe flow included in the
    absorption), the sub-generator Q0 on the remaining 2N states is
    assembled, and Q0 m = -1, Q0 w = -2m are solved by dense LU.  Works
    for any lam, mu, xi >= 0, unlike the density route.
    """
    j = p.check_state(j, "j")
    if j == 0:
        raise ValueError("first-passage time from j = 0 is degenerate")
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    others = [k for k in range(-N, N + 1) if k != 0]
    index = {k: r for r, k in enumerate(others)}
    Q0 = np.zeros((2 * N, 2 * N))
    for k in others:
        r = index[k]
        total = 0.0
        if k < N:
            total += lam * (N - k)
            if k + 1 != 0:
                Q0[r, index[k + 1]] += lam * (N - k)
        if k > -N:
            total += mu * (N + k)
            if k - 1 != 0:
                Q0[r, index[k - 1]] += mu * (N + k)
        total += xi
        Q0[r, r] -= total
    try:
        m = np.linalg.solve(Q0, -np.ones(2 * N))
        w = np.linalg.solve(Q0, -2.0 * m)
    except np.linalg.LinAlgError as exc:  # absorption is certain; defensive only
        raise RuntimeError(f"singular sub-generator in FPT solve: {exc}") from exc
    return float(m[index[j]]), float(w[index[j]])


def default_time_grid(p: ChainParams, n_points=400, horizon=None) -> np.ndarray:
    """Uniform grid resolving the transients, [0, 10/(lam+mu+xi)] by default."""
    T = horizon if horizon is not None else 10.0 / (p.lam + p.mu + p.xi)
    return np.linspace(0.0, T, n_points)
