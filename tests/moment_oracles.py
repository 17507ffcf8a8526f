"""The paper's conditional moments of the chain and of the OU process with resets, in mpmath.

The mean is start e^{-r1 t} + L (1 - e^{-r1 t}), the second moment its limit
plus two exponentials, and the variance m2 - m^2.  That difference cancels to
a few digits at small t, so the tests evaluate these forms at 50 digits as the
reference of the library's one moment formula (ehrenfest._reset_moments).
"""

from __future__ import annotations

import math

import mpmath

mpf = mpmath.mpf


def chain_moments(p, j, t):
    """(mean, m2, var, L) of the chain with catastrophes at t, started at j, in mpmath."""
    N, lam, mu, xi, j, t = map(mpf, (p.N, p.lam, p.mu, p.xi, j, t))
    d = lam + mu
    r1, r2 = d + xi, 2 * d + xi
    L = (lam - mu) * N / r1
    m2_limit = N * (4 * lam * mu + 2 * N * (mu - lam) ** 2 + xi * d) / (r1 * r2)
    t2 = (mu - lam) * (1 - 2 * N) * (N * (mu - lam) + j * r1) / (d * r1)
    t3 = (
        2 * N**2 * (mu - lam) ** 2
        - 2 * N * (lam**2 + mu**2)
        - j * xi * (mu - lam)
        - 2 * j * (mu**2 - lam**2)
        + 4 * j * N * (mu**2 - lam**2)
        + 2 * j * xi * N * (mu - lam)
        + 2 * j**2 * d**2
        + j**2 * xi * d
    ) / (d * r2)
    e1, e2 = mpmath.exp(-r1 * t), mpmath.exp(-r2 * t)
    m = j * e1 + L * (1 - e1)
    m2 = m2_limit + t2 * e1 + t3 * e2
    return m, m2, m2 - m * m, L


def ou_moments(d, y, t):
    """(mean, m2, var, L) of the OU process with resets at t, started at y, in mpmath."""
    alpha, beta, nu, xi, y, t = map(mpf, (d.alpha, d.beta, d.nu, d.xi, y, t))
    r1, r2 = xi + alpha, xi + 2 * alpha
    L = alpha * beta / r1
    m2_limit = alpha * nu / r2 + 2 * alpha**2 * beta**2 / (r1 * r2)
    c1 = 2 * beta * (y - alpha * beta / r1)
    c2 = y**2 - 2 * beta * y + 2 * alpha * beta**2 / r2 - alpha * nu / r2
    e1, e2 = mpmath.exp(-r1 * t), mpmath.exp(-r2 * t)
    m = y * e1 + L * (1 - e1)
    m2 = m2_limit + c1 * e1 + c2 * e2
    return m, m2, m2 - m * m, L


def worst_errors(reference, model, start, times, got):
    """Largest errors of got = (mean, m2, var) arrays over times > 0, against reference(model, start, t).

    Each is relative to the bound of the moment formula's region: the mean's
    error over max(1e-13 |mean|, 1e-15 (|start| + |L|)) (the absolute term
    serves where the mean crosses 0), m2's and var's over 1e-13 of their value.
    So a value of at most 1 meets the region; a mean that is exactly 0 (start
    and L both 0) must be met exactly."""
    worst = [0.0, 0.0, 0.0]
    with mpmath.workdps(50):
        for k, t in enumerate(times):
            m, m2, var, L = reference(model, start, t)
            bounds = (max(1e-13 * abs(m), 1e-15 * (abs(start) + abs(L))), 1e-13 * m2, 1e-13 * var)
            for i, (want, bound) in enumerate(zip((m, m2, var), bounds)):
                err = abs(mpf(float(got[i][k])) - want)
                worst[i] = max(worst[i], float(err / bound) if bound else 0.0 if err == 0 else math.inf)
    return worst
