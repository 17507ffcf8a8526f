"""Reference values computed apart from the library.

Nothing here imports ``ehrenfestcat``.  The chain oracles start from the
transition rates of the model alone (up at lam*(N-n), down at mu*(N+n),
reset to 0 at xi) and use dense linear algebra: a null-space solve for
the stationary law, ``scipy.linalg.expm`` for transient laws and for
first passage with 0 made absorbing, and linear solves for passage
moments.  The diffusion oracles use the Gaussian transition density of
the Ornstein-Uhlenbeck process, the renewal relation for resets,
adaptive quadrature, the reflection-principle survival for beta = 0, a
finite-difference form of the backward equation for beta != 0 (solved
for the passage moments, and diagonalised for the passage density), and
the moment ODEs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh_tridiagonal, expm, null_space, solve_banded


# ----------------------------------------------------------------------
# chain


def generator(N, lam, mu, xi):
    """Generator on the states -N..N (index n + N), built from the rates."""
    size = 2 * N + 1
    Q = np.zeros((size, size))
    for n in range(-N, N + 1):
        r = n + N
        if n < N:
            Q[r, r + 1] += lam * (N - n)
        if n > -N:
            Q[r, r - 1] += mu * (N + n)
        if n != 0:
            Q[r, N] += xi
    Q[np.diag_indices(size)] = -Q.sum(axis=1)
    return Q


def stationary(Q):
    """Stationary law: the normalised null vector of Q^T."""
    v = null_space(Q.T)[:, 0]
    return v / v.sum()


def _propagate(M, start, times):
    """Rows start @ expm(M t) for each t; a uniform grid from 0 reuses one expm."""
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, M.shape[0]))
    steps = np.diff(times)
    if times.size > 2 and times[0] == 0.0 and np.allclose(steps, steps[0], rtol=1e-12):
        step = expm(M * steps[0])
        row = start.copy()
        for k in range(times.size):
            out[k] = row
            row = row @ step
        return out
    for k, t in enumerate(times):
        out[k] = start @ expm(M * t)
    return out


def transient_rows(Q, N, j, times):
    """Law at each time of the chain started at j, by the matrix exponential."""
    start = np.zeros(Q.shape[0])
    start[j + N] = 1.0
    return _propagate(Q, start, times)


def _absorbing(Q, N):
    keep = [r for r in range(Q.shape[0]) if r != N]
    return Q[np.ix_(keep, keep)], Q[keep, N], keep


def fpt_density(Q, N, j, times):
    """Density of the first passage to 0: survival row times the rates into 0."""
    Q0, into0, keep = _absorbing(Q, N)
    start = np.zeros(len(keep))
    start[keep.index(j + N)] = 1.0
    return _propagate(Q0, start, times) @ into0


def fpt_moments(Q, N, j):
    """Mean and second moment of the first passage to 0, by linear solves."""
    Q0, _, keep = _absorbing(Q, N)
    m = np.linalg.solve(-Q0, np.ones(len(keep)))
    w = np.linalg.solve(-Q0, 2.0 * m)
    r = keep.index(j + N)
    return float(m[r]), float(w[r])


# ----------------------------------------------------------------------
# diffusion


def ou_params(N, lam, mu, xi, eps):
    """(alpha, beta, nu, xi) of the diffusion limit of the chain at spacing eps."""
    alpha = lam + mu
    nu = N * eps * eps
    return alpha, (lam - mu) / eps * nu / alpha, nu, xi


def gauss_free(x, t, y, alpha, beta, nu):
    """Transition density of the OU process without resets."""
    m = beta + (y - beta) * math.exp(-alpha * t)
    v = 0.5 * nu * -math.expm1(-2.0 * alpha * t)
    return math.exp(-((x - m) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def stationary_free(x, beta, nu):
    return math.exp(-((x - beta) ** 2) / nu) / math.sqrt(math.pi * nu)


def _reset_integral(x, alpha, beta, nu, xi, t):
    """int_0^t xi e^{-xi tau} f_free(x, tau | 0) dtau, with tau = u^2 near 0."""
    split = min(t, 1.0 / alpha)

    def near(u):
        tau = u * u
        if tau == 0.0:
            return 0.0
        return 2.0 * u * math.exp(-xi * tau) * gauss_free(x, tau, 0.0, alpha, beta, nu)

    total, _ = quad(near, 0.0, math.sqrt(split), epsabs=1e-14, epsrel=1e-12, limit=500)
    if t > split:
        far, _ = quad(lambda tau: math.exp(-xi * tau) * gauss_free(x, tau, 0.0, alpha, beta, nu),
                      split, t, epsabs=1e-14, epsrel=1e-12, limit=500)
        total += far
    return xi * total


def renewal_density(x, t, y, alpha, beta, nu, xi):
    """Transition density with resets, by the renewal relation."""
    return math.exp(-xi * t) * gauss_free(x, t, y, alpha, beta, nu) \
        + _reset_integral(x, alpha, beta, nu, xi, t)


def renewal_stationary(x, alpha, beta, nu, xi):
    """Stationary density with resets: xi int_0^inf e^{-xi tau} f_free(x, tau | 0)."""
    return _reset_integral(x, alpha, beta, nu, xi, math.inf)


def survival_sym(t, y, alpha, nu):
    """beta = 0 survival without resets: erf(|y| e^{-at} / sqrt(nu (1 - e^{-2at})))."""
    if t == 0.0:
        return 1.0
    return math.erf(abs(y) * math.exp(-alpha * t) / math.sqrt(nu * -math.expm1(-2.0 * alpha * t)))


def fpt_density_sym(t, y, alpha, nu, xi):
    """-d/dt [e^{-xi t} S(t)] for the beta = 0 survival S above."""
    if t == 0.0:
        return xi
    s = -math.expm1(-2.0 * alpha * t)
    a = abs(y) * math.exp(-alpha * t) / math.sqrt(nu * s)
    g_free = 2.0 * alpha / math.sqrt(math.pi) * a * math.exp(-a * a) / s
    return math.exp(-xi * t) * (g_free + xi * math.erf(a))


def fpt_moments_sym(y, alpha, nu, xi):
    """Mean and variance of the passage time with resets, beta = 0, by quadrature."""
    def surv(t):
        return math.exp(-xi * t) * survival_sym(t, y, alpha, nu)

    t0 = y * y / (alpha * nu)  # where the free survival starts to drop
    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=500)
    m1 = quad(surv, 0.0, t0, **kw)[0] + quad(surv, t0, math.inf, **kw)[0]
    m2 = 2.0 * (quad(lambda t: t * surv(t), 0.0, t0, **kw)[0]
                + quad(lambda t: t * surv(t), t0, math.inf, **kw)[0])
    return m1, m2 - m1 * m1


def _backward_operator(alpha, beta, nu, xi, X, n):
    """(a nu/2) u'' - a (x - beta) u' - xi u on [0, X] with u(0) = 0, u'(X) = 0.

    Second-order central differences on n intervals.  Returns the grid and
    the three diagonals on the unknowns u_1..u_n: sub (its first entry,
    the coupling to u_0 = 0, is unused), main and super (last entry 0).
    """
    x = np.linspace(0.0, X, n + 1)
    h = X / n
    diff = 0.5 * alpha * nu / (h * h)
    drift = -alpha * (x[1:] - beta) / (2.0 * h)
    lower = diff - drift          # coefficient of u_{i-1}
    upper = diff + drift          # coefficient of u_{i+1}
    main = np.full(n, -2.0 * diff - xi)
    upper[-1] = 0.0
    lower[-1] = 2.0 * diff        # reflecting end: u_{n+1} = u_{n-1}
    return x, lower, main, upper


def _backward_solve(y, alpha, beta, nu, xi, rhs, n):
    """Solve the backward operator above for -rhs(x); returns the grid and u."""
    X = max(abs(y), abs(beta)) + 12.0 * math.sqrt(nu)
    x, lower, main, upper = _backward_operator(alpha, beta, nu, xi, X, n)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1] = main
    ab[2, :-1] = lower[1:]
    u = solve_banded((1, 1), ab, -rhs(x[1:]))
    return x, np.concatenate(([0.0], u))


def fpt_moments_fd(y, alpha, beta, nu, xi, n=8000):
    """Mean and variance of the passage time with resets from the backward
    equation, Richardson-extrapolated over n and 2n intervals."""
    if y < 0.0:
        y, beta = -y, -beta       # mirror to a start above 0
    vals = []
    for k in (n, 2 * n):
        x, m = _backward_solve(y, alpha, beta, nu, xi, lambda s: np.ones_like(s), k)
        _, w = _backward_solve(y, alpha, beta, nu, xi, lambda s: 2.0 * np.interp(s, x, m), k)
        vals.append((np.interp(y, x, m), np.interp(y, x, w)))
    (m_n, w_n), (m_2n, w_2n) = vals
    mean = (4.0 * m_2n - m_n) / 3.0
    second = (4.0 * w_2n - w_n) / 3.0
    return float(mean), float(second - mean * mean)


def _fpt_density_free_fd(times, y, alpha, beta, nu, m):
    """Survival S and passage density -dS/dt without resets, y > 0, on the
    backward operator with spacing y/m; exact in time.

    The operator is a tridiagonal generator with positive off-diagonals, so
    D A D^-1 is symmetric for a diagonal D; with its eigenpairs (lam_k, v_k),
    S(t) = sum_k v_k(y) e^{lam_k t} (v_k . d) / d(y).
    """
    h = y / m
    n = int(math.ceil((y + abs(beta) + 8.0 * math.sqrt(nu)) / h))
    _, lower, main, upper = _backward_operator(alpha, beta, nu, 0.0, n * h, n)
    sup, sub = upper[:-1], lower[1:]
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(sup) - np.log(sub)))))
    d = np.exp(log_d - log_d.max())
    lam, vecs = eigh_tridiagonal(main, np.sqrt(sup * sub))
    w = vecs[m - 1] * (vecs.T @ d) / d[m - 1]
    decay = np.exp(np.outer(times, lam))
    return decay @ w, -(decay * lam) @ w


def fpt_density_fd(times, y, alpha, beta, nu, xi, m=150):
    """-d/dt [e^{-xi t} S(t)] with S the survival without resets from the
    backward equation (any beta), Richardson-extrapolated over spacings
    y/m and y/2m.  At beta = 0 it agrees with fpt_density_sym to 2e-8
    relative on the diffusion-fpt grid."""
    if y < 0.0:
        y, beta = -y, -beta       # mirror to a start above 0
    times = np.asarray(times, dtype=float)
    (s_m, g_m), (s_2m, g_2m) = (_fpt_density_free_fd(times, y, alpha, beta, nu, k)
                                for k in (m, 2 * m))
    surv = (4.0 * s_2m - s_m) / 3.0
    dens = (4.0 * g_2m - g_m) / 3.0
    return np.exp(-xi * times) * (dens + xi * surv)


def ou_moments(y, alpha, beta, nu, xi, times):
    """Mean and second moment of X(t) with resets to 0, from their ODEs."""
    def rhs(_, v):
        m1, m2 = v
        return [-alpha * (m1 - beta) - xi * m1,
                -2.0 * alpha * (m2 - beta * m1) + alpha * nu - xi * m2]

    times = np.atleast_1d(np.asarray(times, dtype=float))
    sol = solve_ivp(rhs, (0.0, float(times[-1])), [y, y * y], method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"moment ODE failed: {sol.message}")
    return sol.y[0], sol.y[1]
