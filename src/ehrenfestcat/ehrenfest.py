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
from scipy.special import gammaln

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
    "q_cat",
    "q_cat_row",
    "q_cat_quadrature_row",
    "stationary_row",
    "p_cat_closed_row",
    "p_cat_quadrature_row",
    "ode_transient",
    "mean_cat",
    "m2_cat",
    "var_cat",
    "mean_cat_limit",
    "m2_cat_limit",
    "fpt_density_free_sym",
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
    each entry is a log-space sum of positive terms.
    """
    j = p.check_state(j, "j")
    _check_time(t)
    N = p.N
    if t == 0.0:
        v = np.zeros(2 * N + 1)
        v[j + N] = 1.0
        return ProbVector(N, v)
    v1, v2 = b1(p, t), b2(p, t)
    n, i, valid, lcomb = _free_tables(N, j)
    logs = (
        lcomb
        + i * math.log(v1)
        + (N + j - i) * math.log1p(-v1)
        + (N + n - i) * math.log(v2)
        + (i - j - n) * math.log1p(-v2)
    )
    logs = np.where(valid, logs, -np.inf)
    m = logs.max(axis=1, keepdims=True)
    out = np.exp(m[:, 0]) * np.exp(logs - m).sum(axis=1)
    return ProbVector(N, out)


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
        raise ValueError("q_cat requires xi > 0; use q_free_row for the free process")
    return ProbVector(p.N, _renewal_tail(p, 0.0))


def q_cat(p: ChainParams, n) -> float:
    n = p.check_state(n, "n")
    return q_cat_row(p).prob(n)


def q_cat_quadrature_row(p: ChainParams, tol=1e-11) -> ProbVector:
    """Stationary law via the renewal integral xi * int_0^inf e^{-xi tau} p_free(0,.,tau).

    The substitution y = e^{-(lam+mu) tau} maps the integral to (0, 1]
    with an algebraic weight y^{a-1}; the further substitution u = y^a
    absorbs the weight exactly, leaving int_0^1 p_free(0, ., -ln(u)/xi) du.
    """
    if not p.xi > 0.0:
        raise ValueError("q_cat requires xi > 0; use q_free_row for the free process")

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
    """Read-only h + k for h, k in 0..N; the callers slice the block they need."""
    out = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    out.flags.writeable = False
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) along the last axis, for finite a."""
    mx = a.max(axis=-1)
    return mx + np.log(np.exp(a - mx[..., None]).sum(axis=-1))


def _f_over_c_log_table(p: ChainParams, t) -> np.ndarray:
    """log int_0^1 u^{c-1} (1 - z u^d)^m du for m (rows), s (columns) in 0..2N.

    d = lam + mu, c = xi + s d, z = e^{-d t}.  The integral is
    F(c/d, -m; 1+c/d; z)/c, which the Pfaff transformation (DLMF 15.8.1)
    writes as a sum of positive terms, summed here in log space:

        (1/c) sum_{l=0}^m C(m,l) l! / (1+c/d)_l z^l (1-z)^{m-l}.

    At t = 0 only l = m remains: B(c/d, m+1)/d.  validate checks the table
    against gauss_2f1_terminating (m <= 20) and that Beta value to 1e-11.
    """
    xi, d = p.xi, p.lam + p.mu
    m = np.arange(2 * p.N + 1)
    lg = gammaln(1.0 + xi / d + np.arange(4 * p.N + 1))   # lgamma(1 + c/d + l) at s + l
    lgm, log_c = gammaln(m + 1.0), np.log(xi + d * m)
    if t == 0.0:
        return lgm[:, None] + lg[m] - lg[m[:, None] + m] - log_c
    lz, l1z = -d * t, math.log(-math.expm1(-d * t))
    table = np.empty((m.size, m.size))
    for k in m:                                          # the degree
        l = m[: k + 1]
        table[k] = _logsumexp(lgm[k] - lgm[k - l] + l * lz + (k - l) * l1z
                              + lg[m, None] - lg[m[:, None] + l])
    return table - log_c


def _renewal_tail(p: ChainParams, t) -> np.ndarray:
    """T_n(t) = xi int_t^inf e^{-xi tau} p_free(0, n, tau) dtau for n = -N..N (xi > 0).

    By renewal at the last catastrophe, p_cat(j,n,t) = q_n + e^{-xi t}
    p_free(j,n,t) - T_n(t) with q_n = T_n(0).  Expanding the two binomials
    of p_free(0, n, tau) in powers of e^{-(lam+mu) tau} makes T_n a triple
    finite sum (over i and the powers h, k) of positive terms, each a
    product of binomials and a table entry at m = 2N+n-2i, s = h+k.
    """
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    d = lam + mu
    log_fc = _f_over_c_log_table(p, t)
    lcN = _lchoose_row(N)
    hk = _outer_index_sum(N)
    lmu_lam, llam_mu = math.log(mu / lam) - d * t, math.log(lam / mu) - d * t
    lse = np.empty(2 * N + 1)
    for n in range(-N, N + 1):
        pieces = []
        for i in range(max(0, n), min(N, N + n) + 1):
            block = (
                lcN[i] + lcN[N + n - i]
                + (_lchoose_row(i) + np.arange(i + 1) * lmu_lam)[:, None]
                + (_lchoose_row(i - n) + np.arange(i - n + 1) * llam_mu)[None, :]
                + log_fc[2 * N + n - 2 * i][hk[: i + 1, : i - n + 1]]
            )
            pieces.append(block.ravel())
        lse[n + N] = _logsumexp(np.concatenate(pieces))
    n = np.arange(-N, N + 1)
    return np.exp(lse + math.log(xi) - xi * t - 2 * N * math.log(d)
                  + (N + n) * math.log(lam) + (N - n) * math.log(mu))


def p_cat_closed_row(p: ChainParams, j, t) -> ProbVector:
    """Transient law with catastrophes at time t, started at j, in closed form.

    q_n + e^{-xi t} p_free(j,n,t) - T_n(t), with the renewal tail T of
    _renewal_tail (q = T(0)); the inner integrals are in Pfaff form, so
    every term is positive and no row is NaN.  Against scipy.linalg.expm
    of generator_matrix it agrees to 1e-12 absolute (4e-14 measured) over
    N <= 80, lam/mu in {1, 3, 1/3} and t in [1e-3, 10].
    """
    j = p.check_state(j, "j")
    _check_time(t)
    if p.xi == 0.0 or t == 0.0:                          # the free row, exact at t = 0
        return p_free_row(p, j, t)
    ptilde = p_free_row(p, j, t).values
    return ProbVector(p.N, q_cat_row(p).values + math.exp(-p.xi * t) * ptilde
                      - _renewal_tail(p, t))


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


def _free_passage_sym(p: ChainParams, j, t) -> tuple[float, float]:
    """Free first-passage density g and survival S through 0, lam == mu only.

    Both come from one p_free_row.  The chain is skip-free and, for
    lam == mu, symmetric under n -> -n, so reflecting a path at its first
    visit to 0 gives, with s = sgn(j),

        S(t) = sum_{n>=1} [p_free(j, s n, t) - p_free(j, -s n, t)],
        g(t) = mu (N+1) s [p_free(j, 1, t) - p_free(j, -1, t)].
    """
    if not p.is_symmetric:
        raise ValueError(
            f"the first-passage density requires lam == mu (got lam={p.lam}, mu={p.mu})")
    j = p.check_state(j, "j")
    if j == 0:
        raise ValueError("first-passage time from j = 0 is degenerate")
    v = p_free_row(p, j, t).values
    N = p.N
    above, below = v[N + 1:], v[N - 1::-1]          # states n and -n, n = 1..N
    ahead, behind = (above, below) if j > 0 else (below, above)
    return p.mu * (N + 1) * (ahead[0] - behind[0]), math.fsum(ahead - behind)


def fpt_density_free_sym(p: ChainParams, j, t) -> float:
    """First-passage density through 0 for the free chain, lam == mu only.

    mu (N+1) sgn(j) [p_free(j,1,t) - p_free(j,-1,t)].  For |j| = 1 the
    value at t = 0 is mu (N+1) rather than 0; see the module tests for
    the short-time behaviour.
    """
    return _free_passage_sym(p, j, t)[0]


def fpt_density_cat(p: ChainParams, j, t) -> float:
    """First-passage density through 0 with catastrophes (lam == mu), in closed form.

    e^{-xi t} [g_free(t) + xi S_free(t)], with the free density and the
    free survival both read from one p_free_row (the survival by
    reflection at 0; see _free_passage_sym).  Catastrophes force passage,
    so the density starts at xi (for |j| >= 2) and remains normalized;
    at xi = 0 it is g_free.  fpt_moments_linear is the independent oracle.
    """
    g, survival = _free_passage_sym(p, j, t)
    return math.exp(-p.xi * t) * (g + p.xi * survival)


def fpt_density_cat_curve(p: ChainParams, j, grid) -> Curve:
    """fpt_density_cat sampled on a grid (lam == mu only)."""
    grid = np.asarray(grid, dtype=float)
    return Curve(grid, [fpt_density_cat(p, j, float(t)) for t in grid])


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
