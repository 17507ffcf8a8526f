"""Chain-law checks: closed forms against quadrature, ODE and summation oracles."""

import dataclasses
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm, null_space, solve_banded

from ehrenfestcat import ehrenfest as eh
from ehrenfestcat import specfun as sf

P_SYM = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=0.5)
P_ASYM = eh.ChainParams(N=10, lam=0.2, mu=0.6, xi=0.5)
P_ASYM_M = eh.ChainParams(N=10, lam=0.6, mu=0.2, xi=0.5)

SWEEP = [
    eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
    for N in (1, 2, 5)
    for lam, mu in ((0.6, 0.6), (0.2, 0.6), (0.3, 0.2))
    for xi in (0.0, 0.5, 1.5)
]


def test_params_validation():
    with pytest.raises(ValueError):
        eh.ChainParams(N=0, lam=1.0, mu=1.0)
    with pytest.raises(ValueError):
        eh.ChainParams(N=3, lam=0.0, mu=1.0)
    with pytest.raises(ValueError):
        eh.ChainParams(N=3, lam=1.0, mu=1.0, xi=-0.1)
    assert eh.ChainParams(N=3, lam=0.6, mu=0.2).rho == pytest.approx(3.0)


@pytest.mark.parametrize("field, bad", [("N", math.inf), ("N", math.nan), ("N", 2.0), ("N", "2"),
                                        ("lam", math.inf), ("lam", math.nan), ("mu", math.inf),
                                        ("mu", math.nan), ("xi", math.inf), ("xi", math.nan)])
def test_params_reject_non_finite_and_non_integer(field, bad):
    # xi = nan once gave the catastrophe-free laws, N = inf an OverflowError
    # and N = 2.0 a TypeError in every law
    args = dict(N=2, lam=0.6, mu=0.6, xi=0.5) | {field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        eh.ChainParams(**args)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 1.5, 3, 10**400])
def test_check_state_rejects_non_states(n):
    with pytest.raises(ValueError, match="^j=.* outside the state space"):
        eh.ChainParams(N=2, lam=0.6, mu=0.6).check_state(n, "j")


def test_probvector_validation():
    with pytest.raises(ValueError):
        eh.ProbVector(1, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        eh.ProbVector(1, np.array([0.9, 0.4, -0.3]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            eh.ProbVector(1, np.array([0.5, bad, 0.5]))


def test_cached_rows_are_read_only():
    # parameters no other test uses: a failed write must not reach a shared cache entry
    row = eh.q_cat_row(eh.ChainParams(N=3, lam=0.6, mu=0.6, xi=0.7))
    with pytest.raises(ValueError):
        row.values[:] = 0.0


def test_curve_validation():
    with pytest.raises(ValueError):
        eh.Curve(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        eh.Curve(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        eh.Curve(np.array([0.0, 1.0]), np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        eh.Curve(np.array([0.0, np.inf]), np.zeros(2))


# ----------------------------------------------------------------------
# rates


def test_rates_merged_catastrophe_edge():
    p = eh.ChainParams(N=10, lam=0.6, mu=0.3, xi=0.5)
    assert dict(eh.rates(p, -1))[0] == pytest.approx(0.6 * 11 + 0.5)
    assert dict(eh.rates(p, 1))[0] == pytest.approx(0.3 * 11 + 0.5)


def test_rates_boundary_state():
    p = eh.ChainParams(N=10, lam=0.6, mu=0.3, xi=0.5)
    r = dict(eh.rates(p, 10))
    assert set(r) == {9, 0}
    assert r[9] == pytest.approx(0.3 * 20)
    assert r[0] == pytest.approx(0.5)


def test_rates_origin_has_no_catastrophe_edge():
    p = eh.ChainParams(N=10, lam=0.6, mu=0.3, xi=0.5)
    assert set(dict(eh.rates(p, 0))) == {1, -1}


def test_rates_zero_xi_has_no_zero_edges():
    p = eh.ChainParams(N=4, lam=0.6, mu=0.3, xi=0.0)
    for k in range(-4, 5):
        assert all(r > 0.0 for _, r in eh.rates(p, k))


def test_generator_rows_sum_to_zero():
    for p in SWEEP:
        Q = eh.generator_matrix(p)
        assert np.abs(Q.sum(axis=1)).max() < 1e-12


# ----------------------------------------------------------------------
# free process


def test_b1_b2_endpoints():
    p = P_ASYM
    assert eh.b1(p, 0.0) == pytest.approx(1.0)
    assert eh.b2(p, 0.0) == pytest.approx(0.0)
    lim = p.lam / (p.lam + p.mu)
    assert eh.b1(p, 1e3) == pytest.approx(lim, rel=1e-12)
    assert eh.b2(p, 1e3) == pytest.approx(lim, rel=1e-12)


def test_b2_small_t_vs_mpmath():
    # 1 - exp(-d t) lost 3.3e-5 relative at t = 1e-12, 5.6e-8 at 1e-9 and 6.8e-11 at 1e-6
    mpmath = pytest.importorskip("mpmath")
    p = eh.ChainParams(N=10, lam=0.6, mu=0.2)
    for t in (1e-12, 1e-9, 1e-6):
        with mpmath.workdps(50):
            lm, mm, tm = map(mpmath.mpf, (p.lam, p.mu, t))
            want = float(-lm * mpmath.expm1(-(lm + mm) * tm) / (lm + mm))
        assert eh.b2(p, t) == pytest.approx(want, rel=1e-15, abs=0), t


def test_b1_b2_symmetric_complement():
    p = eh.ChainParams(N=5, lam=0.7, mu=0.7)
    for t in (0.1, 0.9, 3.0):
        assert eh.b1(p, t) + eh.b2(p, t) == pytest.approx(1.0, rel=1e-14)
        assert eh.b1(p, t) == pytest.approx((1.0 + math.exp(-2 * 0.7 * t)) / 2.0)


def test_p_free_initial_condition():
    row = eh.p_free_row(P_SYM, 4, 0.0)
    assert row.prob(4) == 1.0 and row.values.sum() == 1.0


def test_p_free_row_normalization():
    for p in SWEEP:
        for t in (0.1, 1.0, 10.0):
            assert eh.p_free_row(p, min(p.N, 2), t).normalization_defect() < 1e-12


def test_p_free_rate_swap_symmetry():
    for t in (0.2, 0.7, 3.0):
        for j, n in ((3, -1), (6, 0), (-2, 5)):
            a = eh.p_free_row(P_ASYM, j, t).prob(n)
            b = eh.p_free_row(P_ASYM_M, -j, t).prob(-n)
            assert a == pytest.approx(b, rel=1e-12)


def test_chapman_kolmogorov():
    p = P_SYM
    for s, t in ((0.3, 0.7), (1.0, 1.0)):
        left = np.zeros(2 * p.N + 1)
        rows_t = {k: eh.p_free_row(p, k, t).values for k in range(-p.N, p.N + 1)}
        row_s = eh.p_free_row(p, 6, s).values
        for k in range(-p.N, p.N + 1):
            left += row_s[k + p.N] * rows_t[k]
        right = eh.p_free_row(p, 6, s + t).values
        assert np.abs(left - right).max() < 1e-9


def test_q_free_small_case():
    p = eh.ChainParams(N=1, lam=0.4, mu=0.4)
    assert np.allclose(eh.q_free_row(p).values, [0.25, 0.5, 0.25], atol=1e-14)
    assert eh.q_free_mean(p) == 0.0
    assert eh.q_free_var(p) == pytest.approx(0.5)


def test_q_free_mirror():
    a = eh.q_free_row(eh.ChainParams(N=10, lam=0.2, mu=0.6)).values
    b = eh.q_free_row(eh.ChainParams(N=10, lam=0.6, mu=0.2)).values
    assert np.abs(a - b[::-1]).max() < 1e-15


def test_free_moments_match_distribution():
    # the free chain's moments are the xi = 0 call
    p = dataclasses.replace(P_ASYM, xi=0.0)
    for t in (0.5, 1.0, 5.0):
        row = eh.p_free_row(p, 6, t)
        assert eh.mean_cat(p, 6, t) == pytest.approx(row.mean(), abs=1e-10)
        var = row.second_moment() - row.mean() ** 2
        assert eh.var_cat(p, 6, t) == pytest.approx(var, abs=1e-10)


def test_free_moments_endpoints():
    p = dataclasses.replace(P_ASYM, xi=0.0)
    assert eh.mean_cat(p, 6, 0.0) == 6.0
    assert eh.var_cat(p, 6, 0.0) == 0.0
    lim = p.N * (p.lam - p.mu) / (p.lam + p.mu)
    assert eh.mean_cat(p, 6, 1e3) == pytest.approx(lim)


@pytest.mark.parametrize("N", [1, 20, 160])
def test_p_free_row_vs_mpmath_convolution(N):
    # the corners of the free rows' region: both rate orders far apart and
    # equal, starts at both ends and between, short and long times; the
    # reference convolves the two binomial laws in 40 digits
    mpmath = pytest.importorskip("mpmath")
    for lam, mu in ((0.02, 2.0), (2.0, 0.02), (0.6, 0.6)):
        p = eh.ChainParams(N=N, lam=lam, mu=mu)
        for j in sorted({-N, 0, N // 2, N}):
            for t in (1e-3, 0.3, 10.0):
                with mpmath.workdps(40):
                    lm, mm, tm = map(mpmath.mpf, (lam, mu, t))
                    e = mpmath.exp(-(lm + mm) * tm)
                    b1, b2 = (lm + mm * e) / (lm + mm), lm * (1 - e) / (lm + mm)
                    up = [mpmath.binomial(N + j, i) * b1**i * (1 - b1) ** (N + j - i)
                          for i in range(N + j + 1)]
                    down = [mpmath.binomial(N - j, k) * b2**k * (1 - b2) ** (N - j - k)
                            for k in range(N - j + 1)]
                    want = [mpmath.mpf(0)] * (2 * N + 1)
                    for i, u in enumerate(up):
                        for k, v in enumerate(down):
                            want[i + k] += u * v
                    want = np.array([float(w) for w in want])
                got = eh.p_free_row(p, j, t).values
                keep = want > 1e-290
                assert got[keep] == pytest.approx(want[keep], rel=1e-12, abs=0), (lam, mu, j, t)


# ----------------------------------------------------------------------
# stationary law with catastrophes


def test_q_cat_closed_small_case():
    # N=1, lam=mu: the renewal integral has the elementary value
    # q_0 = (1 + xi/(xi+4 lam))/2 = 17/29 at lam=0.6, xi=0.5
    p = eh.ChainParams(N=1, lam=0.6, mu=0.6, xi=0.5)
    q = eh.q_cat_row(p)
    assert q.prob(0) == pytest.approx(17.0 / 29.0, rel=1e-12)
    assert q.prob(1) == pytest.approx(6.0 / 29.0, rel=1e-12)
    assert eh.q_cat_quadrature_row(p).prob(0) == pytest.approx(17.0 / 29.0, rel=1e-9)


def _q_cat_paper_form(p):
    """The paper's stationary law, each entry a positive sum of exact Appell F1 values.

    q_n = xi lam^{N+n} mu^{N-n} / (lam+mu)^{2N+1} sum_i C(N,i) C(N,N+n-i)
          B(2N+n-2i+1, a) F1(a; -i, n-i; a+2N+n-2i+1; -mu/lam, -lam/mu),

    a = xi/(lam+mu), summed in logs.
    """
    N, lam, mu, xi = p.N, p.lam, p.mu, p.xi
    a = xi / (lam + mu)
    out = np.empty(2 * N + 1)
    for n in range(-N, N + 1):
        logs = []
        for i in range(max(0, n), min(N, N + n) + 1):
            m = 2 * N + n - 2 * i
            f1 = sf.appell_f1_terminating(a, -i, n - i, a + m + 1, -mu / lam, -lam / mu)
            logs.append(math.log(math.comb(N, i) * math.comb(N, N + n - i)) + math.lgamma(m + 1)
                        + math.lgamma(a) - math.lgamma(m + 1 + a) + math.log(f1))
        top = max(logs)
        out[n + N] = math.exp(math.log(xi) + (N + n) * math.log(lam) + (N - n) * math.log(mu)
                              - (2 * N + 1) * math.log(lam + mu) + top
                              + math.log(math.fsum(math.exp(v - top) for v in logs)))
    return out


@pytest.mark.parametrize("N", [1, 2, 5, 10])
def test_q_cat_row_vs_paper_appell_form(N):
    # the renewal-tail solve against the paper's F1 form, entry by entry;
    # measured at most 2.0e-14 relative (1.0e-14 absolute)
    for rho in (1.0, 3.0, 1.0 / 3.0, 0.01, 100.0):
        for xi in (0.01, 0.5, 5.0):
            p = eh.ChainParams(N=N, lam=0.6 * rho, mu=0.6, xi=xi)
            assert eh.q_cat_row(p).values == pytest.approx(_q_cat_paper_form(p), rel=1e-13, abs=0), (rho, xi)


def test_q_cat_closed_vs_quadrature_sweep():
    for p in SWEEP + [P_SYM, P_ASYM]:
        if p.xi == 0.0:
            continue
        qc = eh.q_cat_row(p)
        qq = eh.q_cat_quadrature_row(p)
        assert np.abs(qc.values - qq.values).max() < 1e-9
        assert abs(qc.values.sum() - 1.0) < 1e-10


def test_q_cat_small_xi_limit():
    p = eh.ChainParams(N=10, lam=0.6, mu=0.6, xi=1e-6)
    dev = np.abs(eh.q_cat_row(p).values - eh.q_free_row(p).values).max()
    assert dev < 1e-4


def test_q_cat_mirror():
    a = eh.q_cat_row(P_ASYM).values
    b = eh.q_cat_row(P_ASYM_M).values
    assert np.abs(a - b[::-1]).max() < 1e-12


def test_q_cat_requires_xi():
    with pytest.raises(ValueError):
        eh.q_cat_row(eh.ChainParams(N=2, lam=0.5, mu=0.5, xi=0.0))


# ----------------------------------------------------------------------
# transient law with catastrophes


def test_p_cat_closed_initial_condition():
    row = eh.p_cat_closed_row(P_SYM, 6, 0.0)
    assert row.prob(6) == 1.0 and row.values.sum() == 1.0


def test_p_cat_closed_converges_to_stationary():
    for p in (P_SYM, P_ASYM):
        t = 50.0 / (p.lam + p.mu + p.xi)
        dev = np.abs(eh.p_cat_closed_row(p, 6, t).values - eh.q_cat_row(p).values).max()
        assert dev < 1e-8


def test_p_cat_mirror_symmetry():
    for t in (0.2, 1.0, 4.0):
        a = eh.p_cat_closed_row(P_ASYM, 6, t).values
        b = eh.p_cat_closed_row(P_ASYM_M, -6, t).values
        assert np.abs(a - b[::-1]).max() < 1e-12


def test_p_cat_quadrature_matches_closed():
    p = P_SYM  # transient-figure parameter set
    for t in (0.1, 1.0, 5.0):
        rc = eh.p_cat_closed_row(p, 6, t).values
        rq = eh.p_cat_quadrature_row(p, 6, t).values
        assert np.abs(rc - rq).max() < 1e-8


def test_p_cat_quadrature_zero_xi_is_free():
    p = eh.ChainParams(N=5, lam=0.4, mu=0.7, xi=0.0)
    a = eh.p_cat_quadrature_row(p, 2, 0.8).values
    b = eh.p_free_row(p, 2, 0.8).values
    assert np.abs(a - b).max() == 0.0


def test_p_cat_quadrature_normalization():
    for p in SWEEP:
        row = eh.p_cat_quadrature_row(p, 0, 0.7)
        assert row.normalization_defect() < 1e-9


def test_prob_in_range_is_the_entry():
    q = eh.q_cat_row(eh.ChainParams(N=10, lam=0.6, mu=0.2, xi=0.5))
    for n in range(-10, 11):
        assert q.prob(n) == float(q.values[n + 10])


@pytest.mark.parametrize("n", [-21, -11, 11, 2.5, math.nan])
def test_prob_names_a_state_outside_the_space(n):
    # prob(-11) read P(10) and prob(-21) P(0) through negative indexing; prob(11) raised IndexError
    q = eh.q_cat_row(eh.ChainParams(N=10, lam=0.6, mu=0.2, xi=0.5))
    with pytest.raises(ValueError, match=rf"^n={re.escape(str(n))} outside the state space -10\.\.10$"):
        q.prob(n)


def test_ode_transient_initial_vector():
    out = eh.ode_transient(P_SYM, 6, np.array([0.0, 0.5]))
    assert out[0, 6 + P_SYM.N] == 1.0 and out[0].sum() == 1.0
    assert not out.flags.writeable


def test_ode_matches_closed_form():
    p = P_ASYM  # asymmetric transient-figure parameters
    grid = np.array([0.1, 0.5, 1.0, 5.0])
    odes = eh.ode_transient(p, 6, grid)
    for t, o in zip(grid, odes):
        rc = eh.p_cat_closed_row(p, 6, t).values
        assert np.abs(rc - o).max() < 1e-7


def test_ode_matches_free_at_zero_xi():
    p = eh.ChainParams(N=10, lam=0.2, mu=0.6, xi=0.0)
    grid = np.array([0.4, 2.0])
    odes = eh.ode_transient(p, 6, grid)
    for t, o in zip(grid, odes):
        assert np.abs(eh.p_free_row(p, 6, t).values - o).max() < 1e-7


def test_transient_normalization_sweep():
    for p in SWEEP:
        j = min(p.N, 2)
        for t in (0.1, 1.0):
            for row in (eh.p_cat_closed_row(p, j, t), eh.p_cat_quadrature_row(p, j, t)):
                assert row.normalization_defect() < 1e-9
                assert row.values.min() > -1e-12


@pytest.mark.parametrize("N", [10, 20, 40, 80])
def test_chain_laws_vs_expm_and_null_space(N):
    # both closed forms against linear algebra on generator_matrix, over the
    # region their docstrings state (lam/mu from 0.1 to 100, xi from 0.05
    # to 5); j = 3 at N = 20, t = 0.1 is where the earlier alternating-sum
    # table returned NaN.  The grid form runs once over all times, t = 0
    # included; the one-time form runs at each time.
    times = (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0)
    for lam, mu, xi in ((0.6, 0.6, 0.5), (0.9, 0.3, 0.5), (0.3, 0.9, 0.5), (2.0, 0.02, 0.5),
                        (0.1, 1.0, 0.5), (0.6, 0.6, 0.05), (0.6, 0.6, 5.0)):
        p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
        Q = eh.generator_matrix(p)
        stat = null_space(Q.T)[:, 0]
        assert eh.q_cat_row(p).values == pytest.approx(stat / stat.sum(), rel=0, abs=1e-12)
        laws = [expm(Q.T * t) for t in times]          # column j + N: the law started at j
        for j in (N // 2, 3):
            for t, law, row in zip(times, laws, eh.p_cat_closed_rows(p, j, times)):
                assert row == pytest.approx(law[:, j + N], rel=0, abs=1e-12)
                got = eh.p_cat_closed_row(p, j, t).values
                assert got == pytest.approx(law[:, j + N], rel=0, abs=1e-12)


@pytest.mark.parametrize("xi", [0.01, 5.0])
@pytest.mark.parametrize("lam, mu", [(0.02, 2.0), (2.0, 0.02)])
@pytest.mark.parametrize("N", [1, 160])
def test_chain_laws_at_the_corners_of_their_region(N, lam, mu, xi):
    # the region both docstrings state: N <= 160, lam/mu from 0.01 to 100,
    # xi from 0.01 to 5, t in [1e-3, 10]; j = 0 takes the tail from the
    # free rows it already has
    p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
    Q = eh.generator_matrix(p)
    stat = null_space(Q.T)[:, 0]
    q = eh.q_cat_row(p).values
    assert q == pytest.approx(stat / stat.sum(), rel=0, abs=1e-12)
    assert q.min() >= 0.0
    times = (1e-3, 10.0)
    laws = [expm(Q.T * t) for t in times]
    for j in (-N, 0, N):
        for law, row in zip(laws, eh.p_cat_closed_rows(p, j, times)):
            assert row == pytest.approx(law[:, j + N], rel=0, abs=1e-12)
            assert row.min() >= -1e-12


def test_p_cat_closed_rows_equal_single_rows():
    # unsorted, with a repeated time and t = 0: row k of the read-only (time, state)
    # block is the one-time row, bit for bit
    grid = [2.0, 0.0, 0.3, 1e-3, 0.3, 7.5]
    for p, j in ((P_SYM, 6), (P_ASYM, -3), (eh.ChainParams(N=10, lam=0.6, mu=0.6), 6)):
        rows = eh.p_cat_closed_rows(p, j, grid)
        assert type(rows) is np.ndarray and rows.shape == (len(grid), 2 * p.N + 1)
        for t, row in zip(grid, rows):
            one = eh.p_cat_closed_row(p, j, t)
            assert type(one) is eh.ProbVector and np.array_equal(row, one.values)
        assert np.array_equal(rows[1], np.eye(2 * p.N + 1)[j + p.N])
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            rows[2] += 1.0
    with pytest.raises(ValueError):
        eh.p_cat_closed_rows(P_SYM, 6, [1.0, -0.5])
    with pytest.raises(ValueError):
        eh.p_cat_closed_rows(P_SYM, 6, [])


def test_p_cat_closed_rows_check_one_block_and_name_the_bad_time(monkeypatch):
    # the block is checked once; a bad entry in one row raises ValueError naming that row's time
    tail = eh._renewal_tail
    for k, (bad, message) in enumerate(((math.nan, "1 non-finite entries"), (-0.01, "entries sum to"),
                                        (0.5, "entries outside \\[0, 1\\]"))):
        def spoiled(p, times, free0, k=k, bad=bad):
            out = tail(p, times, free0)
            out[k, 3] += bad          # the tail is subtracted from the row
            return out
        monkeypatch.setattr(eh, "_renewal_tail", spoiled)
        with pytest.raises(ValueError, match=f"^at t={[0.5, 1.0, 1.5][k]}: {message}"):
            eh.p_cat_closed_rows(P_SYM, 6, [0.0, 0.5, 1.0, 1.5])


def test_var_cat_is_exactly_zero_at_t0():
    # the start is certain at t = 0: the variance is +0.0, and mean and m2 are j and j^2,
    # all exactly, scalar and array
    # (m2 - m * m once rounded to -2.8e-14 there at j = -8)
    for lam, mu, xi in ((0.9, 0.3, 0.5), (0.6, 0.2, 0.25), (0.6, 0.6, 1.5), (0.3, 0.2, 0.0)):
        p = eh.ChainParams(N=10, lam=lam, mu=mu, xi=xi)
        for j in range(-10, 11):
            for t, k in ((0.0, ()), (np.array([0.0, 1.0]), 0)):
                assert eh.mean_cat(p, j, t)[k] == j and eh.m2_cat(p, j, t)[k] == j * j, (lam, mu, xi, j)
                v = eh.var_cat(p, j, t)[k]
                assert v == 0.0 and math.copysign(1.0, v) == 1.0, (lam, mu, xi, j)


def test_p_cat_closed_rows_long_grid_at_n80():
    # 400 times at N = 80 in one call; spot rows against the
    # one-time route and against expm
    p = eh.ChainParams(N=80, lam=0.9, mu=0.3, xi=0.5)
    grid = np.linspace(0.0, 10.0, 400)
    rows = eh.p_cat_closed_rows(p, 40, grid)
    Q = eh.generator_matrix(p)
    for k in (0, 1, 57, 200, 399):
        assert np.array_equal(rows[k], eh.p_cat_closed_row(p, 40, grid[k]).values)
        law = expm(Q.T * grid[k])[:, 40 + 80]
        assert rows[k] == pytest.approx(law, rel=0, abs=1e-12)


def _renewal_tail_by_solve_banded(p, times, free0):
    # the GTH pivots and the U^T (1, 0) and L^T (0, 1) bands, solved by
    # scipy.linalg.solve_banded (LAPACK gbsv) on every call
    N, lam, mu, xi, n = p.N, p.lam, p.mu, p.xi, p.states
    s, d = xi, [xi + lam * 2 * N]
    for k in range(1, 2 * N + 1):
        s = xi + mu * k * s / d[-1]
        d.append(s + lam * (2 * N - k))
    d = np.array(d)
    ut = np.vstack([d, -lam * (N - n)])
    lt = np.vstack([-mu * (N + n) / np.roll(d, 1), np.ones(2 * N + 1)])
    x = solve_banded((0, 1), lt, solve_banded((1, 0), ut, free0.T))
    return (xi * np.exp(-xi * times))[:, None] * x.T


@pytest.mark.parametrize("N", [1, 2, 10, 80, 160])
def test_renewal_tail_equals_solve_banded_bit_for_bit(N):
    # the cached factors give the rows solve_banded gave, bit for bit:
    # gbsv is gbtrf then gbtrs, and d_k > lam_k swaps no row
    grid = np.array([2.0, 0.0, 0.3, 1e-3, 0.3, 10.0, 0.0])
    live = grid > 0.0
    t = grid[live]
    for lam, mu in ((0.01, 1.0), (1.0, 1.0), (100.0, 1.0)):
        for xi in (0.01, 5.0):
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
            free0 = eh._free_rows(p, 0, t)
            tail = _renewal_tail_by_solve_banded(p, t, free0)
            assert np.array_equal(eh._renewal_tail(p, t, free0), tail)
            q = _renewal_tail_by_solve_banded(p, np.zeros(1), eh._free_rows(p, 0, np.zeros(1)))[0]
            assert np.array_equal(eh.q_cat_row(p).values, q)
            for j in sorted({-N, -1, 0, 1, N}):
                want = eh._free_rows(p, j, grid)
                want[live] = q + np.exp(-xi * t)[:, None] * want[live] - tail
                assert np.array_equal(eh.p_cat_closed_rows(p, j, grid), want), (lam, mu, xi, j)


def test_renewal_factors_read_only_and_cached_without_thrashing():
    # the nine parameter sets of the chain_large_n benchmark, twice round
    params = [eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.5)
              for N in (20, 40, 80) for lam, mu in ((0.6, 0.6), (0.9, 0.3), (0.3, 0.9))]
    eh._renewal_factors.cache_clear()
    for _ in range(2):
        for p in params:
            eh.p_cat_closed_row(p, p.N // 2, 0.3)
    info = eh._renewal_factors.cache_info()
    assert (info.misses, info.currsize) == (9, 9)   # every miss still held: no eviction
    for lu, piv, _, _ in eh._renewal_factors(params[0])[1]:
        for a in (lu, piv):
            with pytest.raises(ValueError):
                a[0] = 0


def test_p_cat_closed_rows_memory_at_n160():
    # 400 times at N = 160 in one call: no temporary of (time, state,
    # count) size, which would be about 250 MB here
    p = eh.ChainParams(N=160, lam=0.9, mu=0.3, xi=0.5)
    grid = np.linspace(0.0, 10.0, 400)
    eh.p_cat_closed_rows(p, 80, grid[:2])  # fill the caches outside the trace
    tracemalloc.start()
    try:
        rows = eh.p_cat_closed_rows(p, 80, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (grid.size, 2 * p.N + 1)
    assert peak < 16 * 2**20, peak


# ----------------------------------------------------------------------
# moments with catastrophes


def test_mean_cat_initial_and_limit():
    assert eh.mean_cat(P_SYM, 6, 0.0) == pytest.approx(6.0)
    p = eh.ChainParams(N=10, lam=0.6, mu=0.2, xi=0.5)
    assert eh.mean_cat_limit(p) == pytest.approx(4.0 / 1.3, rel=1e-12)
    assert eh.mean_cat(p, 6, 1e3) == pytest.approx(4.0 / 1.3, rel=1e-9)


def test_m2_cat_initial_value():
    for p in (P_SYM, P_ASYM):
        for j in (-6, 0, 6):
            assert eh.m2_cat(p, j, 0.0) == pytest.approx(float(j * j), abs=1e-10)


def test_moments_match_distribution():
    for p in (P_SYM, P_ASYM, eh.ChainParams(N=5, lam=0.3, mu=0.2, xi=1.5)):
        j = min(p.N, 6)
        for t in np.linspace(0.1, 4.0, 9):
            row = eh.p_cat_closed_row(p, j, t)
            assert eh.mean_cat(p, j, t) == pytest.approx(row.mean(), abs=1e-8)
            assert eh.m2_cat(p, j, t) == pytest.approx(row.second_moment(), abs=1e-8)


def test_moment_renewal_relation():
    # E_j[M^k(t)] = e^{-xi t} E_j[free^k](t) + xi int_0^t e^{-xi tau} E_0[free^k](tau) dtau
    p = P_ASYM
    j, t = 6, 1.3
    # the free moments from the free rows, a route apart from the moment formula
    for k, closed in ((1, eh.mean_cat), (2, eh.m2_cat)):
        def free_moment(start, tau):
            row = eh.p_free_row(p, start, tau)
            return row.mean() if k == 1 else row.second_moment()

        integral, _ = quad(lambda tau: math.exp(-p.xi * tau) * free_moment(0, tau), 0.0, t,
                           epsabs=1e-12, limit=200)
        renewal = math.exp(-p.xi * t) * free_moment(j, t) + p.xi * integral
        assert closed(p, j, t) == pytest.approx(renewal, abs=1e-8)


@pytest.mark.parametrize("N", [1, 10, 40, 160])
def test_moments_vs_mpmath_paper_form(N):
    # the one moment formula against the paper's forms in 50 digits, whose m2 - m^2
    # cancels at small t (evaluated in floats it was 1.4e-1 off at t = 1e-12);
    # measured at most 3.3e-14 relative, 1.8e-15 for N <= 40 and lam/mu in [1/3, 3]
    pytest.importorskip("mpmath")
    from moment_oracles import chain_moments, worst_errors

    times = np.logspace(-12, 2, 29)
    for lam, mu in ((0.006, 0.6), (0.2, 0.6), (0.6, 0.6), (0.6, 0.2), (0.6, 0.006), (0.3, 0.2)):
        for xi in (0.0, 0.01, 0.25, 0.5, 1.5, 5.0):
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
            for j in sorted({-N, -1, 0, 1, N // 2, N}):
                got = [f(p, j, np.r_[0.0, times]) for f in (eh.mean_cat, eh.m2_cat, eh.var_cat)]
                assert [g[0] for g in got] == [j, j * j, 0.0]
                worst = worst_errors(chain_moments, p, j, times, [g[1:] for g in got])
                assert max(worst) <= 1.0, (lam, mu, xi, j, worst)


def test_m2_limit_matches_long_time():
    for p in (P_SYM, P_ASYM):
        t = 50.0 / (p.lam + p.mu + p.xi)
        assert eh.m2_cat(p, 6, t) == pytest.approx(eh.m2_cat_limit(p), abs=1e-6)


# ----------------------------------------------------------------------
# first passage


# the free passage density is the xi = 0 case of fpt_density_cat_curve
P_FREE = eh.ChainParams(N=10, lam=0.6, mu=0.6)


def test_fpt_free_density_at_zero_time():
    g = eh.fpt_density_cat_curve(P_FREE, 3, [0.0]).samples[0]
    assert g == 0.0
    # |j| = 1 short-time value is the boundary rate, not 0
    g = eh.fpt_density_cat_curve(P_FREE, 1, [0.0]).samples[0]
    assert g == pytest.approx(0.6 * 11)


def test_fpt_free_density_symmetric_in_j():
    grid = [0.3, 1.0, 2.5]
    a = eh.fpt_density_cat_curve(P_FREE, 4, grid).samples
    b = eh.fpt_density_cat_curve(P_FREE, -4, grid).samples
    for ga, gb in zip(a, b):
        assert ga == pytest.approx(gb, rel=1e-12)


def test_fpt_free_density_normalized():
    val, _ = quad(lambda t: eh.fpt_density_cat(P_FREE, 3, t), 0.0, 40.0, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_fpt_free_density_requires_symmetry():
    with pytest.raises(ValueError):
        eh.fpt_density_cat_curve(P_ASYM, 3, [1.0])
    with pytest.raises(ValueError):
        eh.fpt_density_cat_curve(P_FREE, 0, [1.0])


def test_fpt_cat_density_starts_at_xi():
    assert eh.fpt_density_cat(P_SYM, 3, 0.0) == pytest.approx(P_SYM.xi)
    assert eh.fpt_density_cat(P_SYM, 6, 0.0) == pytest.approx(P_SYM.xi)


def test_fpt_cat_density_normalized_and_nonnegative():
    val, _ = quad(lambda t: eh.fpt_density_cat(P_SYM, 3, t), 0.0, 60.0, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)
    grid = np.linspace(0.0, 8.0, 60)
    assert all(eh.fpt_density_cat(P_SYM, 3, float(t)) >= 0.0 for t in grid)


def test_fpt_cat_density_zero_xi_reduction():
    # at xi = 0 the density is mu (N+1) [p_free(5, 1, t) - p_free(5, -1, t)]
    for t in (0.4, 1.7):
        row = eh.p_free_row(P_FREE, 5, t)
        g = P_FREE.mu * (P_FREE.N + 1) * (row.prob(1) - row.prob(-1))
        assert eh.fpt_density_cat(P_FREE, 5, t) == g


def test_fpt_cat_curve_matches_pointwise():
    grid = np.linspace(0.0, 4.0, 41)
    for j in (3, -1):
        curve = eh.fpt_density_cat_curve(P_SYM, j, grid)
        assert list(curve.samples) == [eh.fpt_density_cat(P_SYM, j, float(t)) for t in grid]


@pytest.mark.parametrize("N", [10, 40])
def test_fpt_cat_curve_vs_absorbing_expm(N):
    # density of the first entrance into 0: expm of the sub-generator with
    # state 0 removed, times the rates into 0 (drift and catastrophe merged)
    grid = np.array([1e-3, 1e-2, 0.1, 1.0, 10.0])
    for xi in (0.0, 0.5):
        p = eh.ChainParams(N=N, lam=0.6, mu=0.6, xi=xi)
        Q = eh.generator_matrix(p)
        keep = np.arange(2 * N + 1) != N
        Q0, into0 = Q[np.ix_(keep, keep)], Q[keep, N]
        dens = np.array([expm(Q0 * t) @ into0 for t in grid])   # (time, start)
        for j in (1, -3, N // 2):
            want = dens[:, j + N - (j > 0)]
            got = eh.fpt_density_cat_curve(p, j, grid).samples
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_fpt_moments_linear_decreasing_in_xi():
    means = []
    for xi in (0.0, 0.25, 0.5, 1.0, 1.5):
        p = eh.ChainParams(N=10, lam=0.3, mu=0.3, xi=xi)
        means.append(eh.fpt_moments_linear(p, 3)[0])
    assert all(a > b for a, b in zip(means, means[1:]))


def test_fpt_moments_linear_vs_density_quadrature():
    m, w = eh.fpt_moments_linear(P_SYM, 3)
    mq, _ = quad(lambda t: t * eh.fpt_density_cat(P_SYM, 3, t), 0.0, 60.0, limit=300)
    wq, _ = quad(lambda t: t * t * eh.fpt_density_cat(P_SYM, 3, t), 0.0, 60.0, limit=300)
    assert m == pytest.approx(mq, abs=1e-6)
    assert w == pytest.approx(wq, abs=1e-6)


def test_fpt_moments_linear_asymmetric_rates_work():
    m, w = eh.fpt_moments_linear(P_ASYM, 3)
    assert m > 0.0 and w > m * m  # positive mean, positive variance


@pytest.mark.parametrize("N", [1, 10, 40])
def test_fpt_moments_linear_xi_array_matches_float_calls(N):
    # the sweeps use only + - * /, so a xi array runs the same code: bit for bit
    xis = np.round(np.arange(0.0, 5.0 + 1e-9, 0.05), 10)
    for lam, mu in ((0.6, 0.6), (0.01, 1.0), (3.0, 1.0)):
        p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=0.7)
        for j in {1, -1, N, -N, min(3, N)}:
            mean, m2 = eh.fpt_moments_linear(p, j, xis)
            one = [eh.fpt_moments_linear(eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi), j) for xi in xis.tolist()]
            assert np.array_equal(mean, [m for m, _ in one]) and np.array_equal(m2, [w for _, w in one])
            assert eh.fpt_moments_linear(p, j, 0.25) == one[5]
    with pytest.raises(ValueError, match="double range.*xi=0.0"):
        eh.fpt_moments_linear(eh.ChainParams(N=160, lam=100.0, mu=1.0), 160, np.array([0.5, 0.0]))


def _passage_moments_exact(N, lam, mu, xi, side):
    """Mean and second moment of the passage to 0 from every state on one side, exactly.

    The rates as the decimals they are written in; state i = |n| = 1..N
    leaves toward 0 at tw_i, away at aw_i and to 0 at xi.  Thomas
    elimination from state 1 in rational arithmetic.
    """
    lam, mu, xi = Fraction(str(lam)), Fraction(str(mu)), Fraction(str(xi))
    tw = [(mu if side > 0 else lam) * (N + i) for i in range(N + 1)]
    aw = [(lam if side > 0 else mu) * (N - i) for i in range(N + 1)]

    def solve(b):
        up, rhs = [Fraction(0)] * (N + 1), [Fraction(0)] * (N + 1)
        for i in range(1, N + 1):
            diag = tw[i] + aw[i] + xi - tw[i] * up[i - 1]
            up[i] = aw[i] / diag
            rhs[i] = (b[i] + tw[i] * rhs[i - 1]) / diag
        x = [Fraction(0)] * (N + 2)
        for i in range(N, 0, -1):
            x[i] = rhs[i] + up[i] * x[i + 1]
        return x

    m = solve([Fraction(1)] * (N + 1))
    return m, solve([2 * v for v in m])


@pytest.mark.parametrize("N", [1, 10, 80, 160])
def test_fpt_moments_linear_vs_exact_rational_solve(N):
    # lam/mu from 0.01 to 100 and xi down to 0: a drift away from 0 makes
    # the moments grow like (lam/mu)^N, and past the double range the
    # route raises (the second moment at N = 160, lam/mu = 100, xi = 0)
    top = Fraction(sys.float_info.max)
    raised = 0
    for lam, mu in ((0.01, 1.0), (1.0, 1.0), (3.0, 1.0), (100.0, 1.0)):
        for xi in (0.0, 0.01, 0.5, 5.0):
            p = eh.ChainParams(N=N, lam=lam, mu=mu, xi=xi)
            for side in (1, -1):
                m, w = _passage_moments_exact(N, lam, mu, xi, side)
                for j in (side, side * N):
                    if max(m[abs(j)], w[abs(j)]) > top:
                        with pytest.raises(ValueError, match="double range"):
                            eh.fpt_moments_linear(p, j)
                        raised += 1
                        continue
                    got = eh.fpt_moments_linear(p, j)
                    assert got == pytest.approx((float(m[abs(j)]), float(w[abs(j)])),
                                                rel=1e-13, abs=0), (lam, mu, xi, j)
    assert raised == (4 if N == 160 else 0)
