"""Special-function checks against independent oracles.

Oracles: exact rational arithmetic (fractions) for the terminating sums,
mpmath at high precision, classical identities (erf, erfc), and frozen
values computed from those oracles.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfi

from ehrenfestcat import oujump as ou
from ehrenfestcat import specfun as sf
from ehrenfestcat.validate import _f1_bruteforce

mpmath = pytest.importorskip("mpmath")


def test_appell_f1_trivial():
    assert sf.appell_f1_terminating(1.3, 0, 0, 2.0, 5.0, -7.0) == 1.0
    a, d, x = 0.7, 2.2, 0.45
    assert sf.appell_f1_terminating(a, -1, 0, d, x, 9.9) == pytest.approx(
        1.0 - a / d * x, rel=1e-14
    )


@settings(deadline=None, max_examples=40)
@given(
    a=st.floats(0.05, 3.0),
    b=st.integers(-8, 0),
    c=st.integers(-8, 0),
    d=st.floats(1.0, 30.0),
    x=st.floats(-4.0, 4.0),
    y=st.floats(-4.0, 4.0),
)
# the exact value is 0; the float sum alone cancels to 1.6e-13
@example(a=1.0, b=-5, c=-8, d=1.0, x=1.0, y=1.5)
def test_appell_f1_matches_exact_rational(a, b, c, d, x, y):
    got = sf.appell_f1_terminating(a, b, c, d, x, y)
    ref = _f1_bruteforce(a, b, c, d, x, y)
    assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_appell_f1_stationary_law_arguments():
    # frozen quadrature oracle of
    # int_0^1 y^{a-1}(1-y)^{2N+n-2i}(1+(mu/lam)y)^i (1+(lam/mu)y)^{i-n} dy / B(2N+n-2i+1, a)
    # at N=10, lam=0.6, mu=0.2, xi=0.5
    lam, mu, xi, N = 0.6, 0.2, 0.5, 10
    a = xi / (lam + mu)
    frozen = {(0, 3): 1.5796604077008263, (2, 5): 1.796364472582672, (-3, 1): 1.7373500168312228}
    for (n, i), ref in frozen.items():
        m = 2 * N + n - 2 * i
        got = sf.appell_f1_terminating(a, -i, n - i, a + m + 1.0, -mu / lam, -lam / mu)
        assert got == pytest.approx(ref, rel=1e-8)


def test_appell_f1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sf.appell_f1_terminating(1.0, -1.5, 0, 2.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        sf.appell_f1_terminating(1.0, 0, 1, 2.0, 0.1, 0.1)


def _phi(a, c, x, ctl=sf.DEFAULT_SERIES):
    """Phi(a, c; x) from the complex-order Kummer rows."""
    return complex(sf._phi_rows(np.array(complex(a)), np.array(float(c)), np.array([x]), ctl)[0])


def test_kummer_phi_trivial_and_exponential():
    assert _phi(0.7, 1.9, 0.0) == 1.0
    for x in (0.3, 1.0, 5.0, 20.0):
        assert _phi(1.0, 1.0, x).real == pytest.approx(math.exp(x), rel=1e-12)


def test_kummer_phi_erf_identity():
    # Phi(1/2, 3/2; z^2) = sqrt(pi)/(2z) erfi(z), and at a complex order
    for z in (0.25, 0.8, 1.7):
        rhs = math.sqrt(math.pi) / (2.0 * z) * erfi(z)
        assert _phi(0.5, 1.5, z * z) == pytest.approx(rhs, rel=1e-11)
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp1f1(0.5 + 3j, 1.5, 2.0))
    assert _phi(0.5 + 3j, 1.5, 2.0) == pytest.approx(ref, rel=1e-11)


def test_kummer_phi_rows_keep_their_own_column_count():
    # Phi(1, 1; x) = e^x: x = 6.5 converges at 32 columns, x = 20 needs 64,
    # and the sum at x = 6.5 keeps its 32-column value in a call with both
    a, c = np.array([1.0 + 0j, 0.5 + 3j]), np.array([1.0, 1.5])
    both = sf._phi_rows(a, c, np.array([6.5, 20.0]), sf.DEFAULT_SERIES)
    for row, x in zip(both, (6.5, 20.0)):
        assert np.array_equal(row, sf._phi_rows(a, c, np.array([x]), sf.DEFAULT_SERIES)[0]), x
        assert row[0].real == pytest.approx(math.exp(x), rel=1e-12)


def test_kummer_phi_nonconvergence():
    with pytest.raises(sf.NonConvergenceError):
        _phi(1.0, 1.0, 50.0, sf.SeriesControl(rel_tol=1e-12, max_terms=5))


def _psi_a1(k, x):
    """Psi(1, 1/2 - k; x), the k-th value of psi_a1_stream(x)."""
    return next(itertools.islice(sf.psi_a1_stream(x), k, None))


def test_kummer_psi_asymptotic():
    # Psi(1,b;x) ~ x^{-1}(1 - (2-b)/x + ...); the first correction at
    # x = 100 is 1.5e-2, so the ratio test allows exactly that much.
    # Psi(1, 1/2; x) at large x is the continued fraction
    assert _psi_a1(0, 100.0) * 100.0 == pytest.approx(1.0, abs=1.6e-2)
    assert _psi_a1(0, 200.0) * 200.0 == pytest.approx(1.0, abs=8e-3)


def test_kummer_psi_integral_representation():
    # frozen oracle: Psi(1, -1/2; 2) = int_0^inf e^{-2t}(1+t)^{-2.5} dt = 0.24730255620295838
    assert _psi_a1(1, 2.0) == pytest.approx(0.24730255620295838, rel=1e-8)


def test_kummer_psi_regression_pin():
    assert _psi_a1(0, 1.0) == pytest.approx(0.4842556877173758, rel=1e-10)


def test_kummer_psi_domain():
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            next(sf.psi_a1_stream(x))


@pytest.mark.parametrize("k", [0, 1, 2, 7, 30, 170, 900])
@pytest.mark.parametrize("w", [0.05, 0.4, 2.5, 14.0])
def test_kummer_psi_a1_continued_fraction(k, w):
    got = _psi_a1(k, w)
    # incomplete-gamma recursion: U_{k+1} = (1 - w U_k)/(k + 3/2), which the
    # continued fraction (w > PSI_A1_CF_SWITCH, so at w = 14) does not use
    nxt = _psi_a1(k + 1, w)
    assert nxt == pytest.approx((1.0 - w * got) / (k + 1.5), rel=1e-9)


@pytest.mark.parametrize("x", [1e-4, 0.3, 3.0, 7.9])
def test_psi_a1_stream_vs_mpmath(x):
    # up to x = PSI_A1_CF_SWITCH the recurrence from the closed-form seed
    # at k = 0 serves; it amplifies the seed's error by about 120 at k = 5
    stream = sf.psi_a1_stream(x)
    values = [next(stream) for _ in range(1001)]
    with mpmath.workdps(30):
        for k in (0, 1, 5, 20, 100, 1000):
            ref = float(mpmath.hyperu(1, 0.5 - k, x))
            assert values[k] == pytest.approx(ref, rel=1e-12, abs=0), k


def test_parabolic_cylinder_order_zero():
    for z in (-6.0, -1.0, 0.0, 0.5, 3.0, 9.0):
        assert sf.parabolic_cylinder_D(0.0, z) == pytest.approx(
            math.exp(-z * z / 4.0), rel=1e-12
        )


def test_parabolic_cylinder_at_zero_argument():
    for p in (-0.3, -1.0, -2.5):
        ref = math.sqrt(math.pi) * 2.0 ** (p / 2.0) / math.gamma((1.0 - p) / 2.0)
        assert sf.parabolic_cylinder_D(p, 0.0) == pytest.approx(ref, rel=1e-13)


def test_parabolic_cylinder_order_minus_one():
    # D_{-1}(z) = e^{z^2/4} sqrt(pi/2) erfc(z/sqrt(2))
    for z in (-3.0, -0.7, 0.0, 1.2, 4.0, 8.0):
        ref = math.exp(z * z / 4.0) * math.sqrt(math.pi / 2.0) * math.erfc(z / math.sqrt(2.0))
        assert sf.parabolic_cylinder_D(-1.0, z) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("p", [-2.9, -2.2, -1.6, -1.05])
def test_parabolic_cylinder_recurrence(p):
    for z in np.linspace(-5.0, 5.0, 21):
        d0 = sf.parabolic_cylinder_D(p, z)
        lhs = (
            sf.parabolic_cylinder_D(p + 1.0, z)
            - z * d0
            + p * sf.parabolic_cylinder_D(p - 1.0, z)
        )
        assert abs(lhs) < 1e-9 * max(abs(d0), 1.0)


def test_parabolic_cylinder_domain():
    with pytest.raises(ValueError):
        sf.parabolic_cylinder_D(0.5, 1.0)


def test_parabolic_cylinder_complex_matches_real():
    for p in (-0.4, -2.0):
        for z in (-0.9, 0.0, 0.8):
            c = np.exp(sf.parabolic_cylinder_D_complex_log(complex(p, 0.0), z))
            assert abs(c.imag) < 1e-12
            assert c.real == pytest.approx(sf.parabolic_cylinder_D(p, z), rel=1e-11)


#: the (q, z) box of the fixed-node rule's tests, q = -p
RULE_Q = np.geomspace(1e-3, 100.0, 11)
RULE_Z = (math.nextafter(0.0, math.inf), 1.34, 2.2, 3.7, 6.0, 9.5, 14.0, 20.0,
          27.0, 33.3, 37.0)


def test_parabolic_cylinder_rule_vs_mpmath():
    # the box reaches D = 1.1e-307
    with mpmath.workdps(30):
        for q in RULE_Q:
            for z in RULE_Z:
                ref = float(mpmath.pcfd(-q, z))
                assert sf.parabolic_cylinder_D(-q, z) == pytest.approx(ref, rel=1e-13, abs=0), (q, z)


def test_parabolic_cylinder_negative_z_vs_mpmath():
    # the fixed-node rule at z <= 0, out to the overflow edge z > -37.4,
    # where the Kummer series it replaced raised (q = 100, z <= -32.8) or
    # lost digits (3.3e-12 at q = 4.17, z = -37)
    with mpmath.workdps(30):
        for q in RULE_Q:
            for z in np.linspace(-37.0, 0.0, 38):
                ref = float(mpmath.pcfd(-q, z))
                assert sf.parabolic_cylinder_D(-q, z) == pytest.approx(ref, rel=1e-13, abs=0), (q, z)


def test_parabolic_cylinder_log_vs_mpmath():
    # log D_p also where D_p underflows (z^2/4 > 700) and, down to the log
    # form's own edge z = -80, where D_p overflows (z < -37.4)
    with mpmath.workdps(30):
        for q in RULE_Q:
            for z in (-80.0, -60.0, -50.0, -40.2, -38.0, -37.0, -5.0, 0.0, 2.2, 37.0, 60.0, 100.0):
                ref = float(mpmath.log(mpmath.pcfd(-q, z)))
                assert sf.parabolic_cylinder_D_log(-q, z) == pytest.approx(ref, rel=1e-14, abs=1e-13), (q, z)
    with pytest.raises(ValueError, match="z >= -80"):
        sf.parabolic_cylinder_D_log(-1.0, -80.5)
    with pytest.raises(ValueError, match="overflows"):
        sf.parabolic_cylinder_D(-1.0, -38.0)


@pytest.mark.parametrize("q", [0.42, 4.17, 20.0, 100.0])
def test_parabolic_cylinder_small_positive_z_vs_mpmath(q):
    # the Kummer series cancels for z > 0 (7.9e-6 relative off at q = 100,
    # z = 1); the fixed-node rule does not
    with mpmath.workdps(30):
        for z in (0.447, 0.8, 1.0):
            ref = float(mpmath.pcfd(-q, z))
            assert sf.parabolic_cylinder_D(-q, z) == pytest.approx(ref, rel=1e-14, abs=0), z


def _contour_orders(t):
    """The orders of the passage transform (alpha = 1.2, xi = 0.5) on the Talbot contours of time t."""
    s = np.concatenate([ou._talbot_rule(16)[0], ou._talbot_rule(14)[0]]) / t
    return -(s + 0.5) / 1.2


def _log_pcfd(p, z):
    with mpmath.workdps(30):
        return np.array([complex(mpmath.log(mpmath.pcfd(complex(pk), z))) for pk in p])


@pytest.mark.parametrize("t", [0.0295, 0.5, 2.0])
def test_parabolic_cylinder_complex_array_vs_mpmath(t):
    # the orders of the passage transform on the Talbot contour of time t,
    # at the cylinder arguments of y = 0.03, nu = 0.001 and five beta, both
    # in one call: z_num in [0.89, 1.79], z_den in [-0.45, 0.45];
    # t = 0.0295 has |p| from 159 to 2729, where D_p overflows doubles
    p = _contour_orders(t)
    sq = math.sqrt(2.0 / 0.001)
    for beta in (0.0, 0.004, -0.004, 0.01, -0.01):
        pair = ((0.03 - beta) * sq, -beta * sq)
        got = sf.parabolic_cylinder_D_complex_log(p, pair)
        assert got.shape == (2,) + p.shape
        for row, z in zip(got, pair):
            # relative error of D_p, in logs because D_p overflows at small t
            # (the logs may differ by 2 pi i k); measured at most 3.3e-10
            assert np.max(np.abs(np.expm1(row - _log_pcfd(p, z)))) < 1e-9, (beta, z)


@pytest.mark.parametrize("t", [0.0295, 0.5, 2.0])
def test_parabolic_cylinder_complex_edge_vs_mpmath(t):
    # |z| = 1.8 is the edge of the tested region; just past it the call raises
    p = _contour_orders(t)
    got = sf.parabolic_cylinder_D_complex_log(p, (-1.8, 1.8))
    for row, z in zip(got, (-1.8, 1.8)):
        assert np.max(np.abs(np.expm1(row - _log_pcfd(p, z)))) < 1e-9, z
    for z in (1.81, -1.81, (0.0, 1.81)):
        with pytest.raises(ValueError, match="1.8"):
            sf.parabolic_cylinder_D_complex_log(p, z)


@pytest.mark.parametrize("t", [0.0295, 0.5, 0.9, 2.0])
def test_parabolic_cylinder_complex_rows_equal_one_z_calls(t):
    # the series (t = 2), WKB (t = 0.0295) and both (t = 0.5, 0.9); one
    # coefficient matrix serves every z, yet no row depends on the others
    p = _contour_orders(t)
    zs = (1.79, -0.45, 0.0, 1.163, -1.8)
    many = sf.parabolic_cylinder_D_complex_log(p, zs)
    assert many.shape == (len(zs),) + p.shape
    for row, z in zip(many, zs):
        assert np.array_equal(row, sf.parabolic_cylinder_D_complex_log(p, z)), z
        assert np.array_equal(row[:3], sf.parabolic_cylinder_D_complex_log(p[:3], z)), z
    one = sf.parabolic_cylinder_D_complex_log(p[7], zs)
    assert one.shape == (len(zs),) and np.array_equal(one, many[:, 7])


#: cylinder arguments below the linear D_p's edge, z > -37.4
FAR_Z = (-38.9, -40.2, -50.0, -80.0)


def test_parabolic_cylinder_ratio_and_order_derivative_vs_mpmath():
    # R = e^{(z1^2 - z2^2)/4} D_p(z1)/D_p(z2) and d/dp log R, all from the
    # fixed-node rule; d/dp log D_p(0) crosses 0 near p = -0.86, hence
    # the absolute floor.  Below -37.4 every pair of FAR_Z is checked
    # whose R is a double: R where it is normal, d/dp log R also where R
    # underflows; where R is past the double range the call must raise
    near = RULE_Z[::2] + (-5.0, -1.0, 0.0)
    pairs = [(z1, z2) for z1 in near for z2 in (0.0, -1.0)] + list(itertools.product(FAR_Z, FAR_Z))
    with mpmath.workdps(30):
        for q in RULE_Q:
            dlog = {}
            for z in near + FAR_Z:
                dlog[z] = mpmath.diff(lambda p: mpmath.log(mpmath.pcfd(p, z)), -q)
            for z1, z2 in pairs:
                ref = mpmath.exp((z1 * z1 - z2 * z2) / 4) * mpmath.pcfd(-q, z1) / mpmath.pcfd(-q, z2)
                if ref > 1e300:                 # near or past the double range
                    if float(ref) == math.inf:
                        with pytest.raises(ValueError, match="double range"):
                            sf.parabolic_cylinder_D_ratio(-q, z1, z2)
                    continue
                ratio, dlog_ratio = sf.parabolic_cylinder_D_ratio(-q, z1, z2)
                if ref > 1e-300:
                    assert ratio == pytest.approx(float(ref), rel=1e-13, abs=0), (q, z1, z2)
                else:
                    assert ratio < 1e-300, (q, z1, z2)
                assert dlog_ratio == pytest.approx(float(dlog[z1] - dlog[z2]), rel=1e-12,
                                                   abs=1e-12), (q, z1, z2)


def test_parabolic_cylinder_ratio_domain():
    with pytest.raises(ValueError):
        sf.parabolic_cylinder_D_ratio(0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="z >= -80"):
        sf.parabolic_cylinder_D_ratio(-1.0, 1.0, -80.5)
    with pytest.raises(ValueError, match="z >= -80"):
        sf.parabolic_cylinder_D_ratio(-1.0, -80.5, -80.0)
    # R itself past the double range (log R = 868, 757 and 1950)
    for args in ((-100.0, -37.0, 0.0), (-1.0, -38.9, 0.0), (-1.0, -80.0, -50.0)):
        with pytest.raises(ValueError, match="passes the double range"):
            sf.parabolic_cylinder_D_ratio(*args)


@pytest.mark.parametrize("y, s", [(37.0, 10.0), (37.0, 50.0), (5.0, 100.0)])
def test_fpt_laplace_free_far_start_vs_mpmath(y, s):
    # alpha = 1, beta = 0, nu = 2, so the cylinder arguments are y and 0
    # and the orders reach -100, where t^{q-1} alone overflows at t = 1e4
    d = ou.DiffusionParams(alpha=1.0, beta=0.0, nu=2.0)
    with mpmath.workdps(30):
        ref = float(mpmath.exp(y * y / 4) * mpmath.pcfd(-s, y) / mpmath.pcfd(-s, 0))
    assert ou.fpt_laplace_free(d, y, s) == pytest.approx(ref, rel=1e-13, abs=0)


def test_series_control_validation():
    with pytest.raises(ValueError):
        sf.SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        sf.SeriesControl(max_terms=0)
