"""Special-function checks against independent oracles.

Oracles: exact rational arithmetic (fractions) for the terminating sums,
quadrature of integral representations, classical identities (erf,
erfc), and frozen values computed from those oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ehrenfestcat import specfun as sf
from ehrenfestcat.validate import _f1_bruteforce


def test_ln_gamma_trivial_points():
    assert sf.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert sf.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
    # frozen high-precision reference: ln Gamma(1/2) = ln sqrt(pi)
    assert sf.ln_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        sf.ln_gamma(0.0)
    with pytest.raises(ValueError):
        sf.ln_gamma(-1.5)


def test_ln_gamma_recurrence():
    for x in np.linspace(0.1, 100.0, 211):
        assert abs(sf.ln_gamma(x + 1.0) - sf.ln_gamma(x) - math.log(x)) < 1e-12


def test_beta_trivial():
    assert sf.beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert sf.beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_beta_against_quadrature():
    # frozen oracle: int_0^1 t^20 (1-t)^(0.4167-1) dt by weighted quadrature
    assert sf.beta_fn(21.0, 0.4167) == pytest.approx(0.6017186573800453, rel=1e-9)


def test_beta_domain():
    with pytest.raises(ValueError):
        sf.beta_fn(-1.0, 2.0)
    with pytest.raises(ValueError):
        sf.beta_fn(1.0, 0.0)


def test_rising_factorial_values():
    assert sf.rising_factorial(3.7, 0) == 1.0
    assert sf.rising_factorial(3.0, 2) == 12.0
    # the vanishing factor is what terminates the hypergeometric sums
    assert sf.rising_factorial(-2.0, 3) == 0.0


@settings(deadline=None, max_examples=50)
@given(
    a=st.floats(-5.0, 5.0, allow_nan=False),
    n=st.integers(0, 12),
)
def test_rising_factorial_recurrence(a, n):
    assert sf.rising_factorial(a, n + 1) == pytest.approx(
        sf.rising_factorial(a, n) * (a + n), rel=1e-12, abs=1e-12
    )


def test_gauss_2f1_trivial():
    assert sf.gauss_2f1_terminating(2.3, 0, 1.7, 0.9) == 1.0
    for z in (-1.5, 0.0, 0.4, 2.0):
        assert sf.gauss_2f1_terminating(1.0, -1, 1.0, z) == pytest.approx(1.0 - z, rel=1e-14)


def test_gauss_2f1_alternating_sum_instance():
    # frozen oracle: 0.41337698392772... from the finite alternating sum
    # c' sum_l (-1)^l C(20,l) e^{-1.2 l} / (c' + 1.2 l) with c' = 0.4167*1.2
    got = sf.gauss_2f1_terminating(0.4167, -20, 1.4167, math.exp(-1.2))
    assert got == pytest.approx(0.413376983927728, rel=1e-11)
    cp = 0.4167 * 1.2
    alt = cp * math.fsum(
        (-1) ** l * math.comb(20, l) * math.exp(-1.2 * l) / (cp + 1.2 * l)
        for l in range(21)
    )
    assert got == pytest.approx(alt, rel=1e-11)


def test_gauss_2f1_rejects_bad_b():
    with pytest.raises(ValueError):
        sf.gauss_2f1_terminating(1.0, -1.5, 1.0, 0.3)
    with pytest.raises(ValueError):
        sf.gauss_2f1_terminating(1.0, 2, 1.0, 0.3)


def test_gauss_2f1_rejects_pole_in_c():
    with pytest.raises(ValueError):
        sf.gauss_2f1_terminating(1.0, -5, -2, 0.3)


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


def test_kummer_phi_trivial_and_exponential():
    assert sf.kummer_phi(0.7, 1.9, 0.0) == 1.0
    for x in (0.3, 1.0, 5.0, 20.0):
        assert sf.kummer_phi(1.0, 1.0, x) == pytest.approx(math.exp(x), rel=1e-12)


def test_kummer_phi_erf_identity():
    for z in (0.25, 0.8, 1.7):
        lhs = sf.kummer_phi(0.5, 1.5, -z * z)
        rhs = math.sqrt(math.pi) / (2.0 * z) * sf.erf(z)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_kummer_phi_nonconvergence():
    with pytest.raises(sf.NonConvergenceError):
        sf.kummer_phi(1.0, 1.0, 50.0, sf.SeriesControl(rel_tol=1e-12, max_terms=5))


def test_kummer_phi_rejects_nonpositive_integer_c():
    with pytest.raises(ValueError):
        sf.kummer_phi(1.0, -2.0, 0.5)


def test_kummer_psi_asymptotic():
    # Psi(1,b;x) ~ x^{-1}(1 - (2-b)/x + ...); the first correction at
    # x = 100 is 1.5e-2, so the ratio test allows exactly that much
    assert sf.kummer_psi(1.0, 0.5, 100.0) * 100.0 == pytest.approx(1.0, abs=1.6e-2)
    assert sf.kummer_psi(1.0, 0.5, 200.0) * 200.0 == pytest.approx(1.0, abs=8e-3)


def test_kummer_psi_integral_representation():
    # frozen oracle: int_0^inf e^{-2t}(1+t)^{-2.5} dt = 0.24730255620295838
    assert sf.kummer_psi(1.0, -0.5, 2.0) == pytest.approx(0.24730255620295838, rel=1e-8)


def test_kummer_psi_regression_pin():
    assert sf.kummer_psi(1.0, 0.5, 1.0) == pytest.approx(0.4842556877173758, rel=1e-10)


def test_kummer_psi_domain():
    with pytest.raises(ValueError):
        sf.kummer_psi(1.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        sf.kummer_psi(1.0, -1.0, 2.0)  # integer b (logarithmic case) unsupported


@pytest.mark.parametrize("k", [0, 1, 2, 7, 30, 170, 900])
@pytest.mark.parametrize("w", [0.05, 0.4, 2.5, 14.0])
def test_kummer_psi_a1_continued_fraction(k, w):
    got = sf.kummer_psi_a1(k, w)
    # two-Phi route only usable while the gammas stay finite and its
    # cancellation stays mild (small w)
    if k <= 30 and w <= sf.PSI_X_SWITCH:
        ref = sf.kummer_psi(1.0, 0.5 - k, w)
        assert got == pytest.approx(ref, rel=1e-9)
    # incomplete-gamma recursion: U_{k+1} = (1 - w U_k)/(k + 3/2)
    nxt = sf.kummer_psi_a1(k + 1, w)
    assert nxt == pytest.approx((1.0 - w * got) / (k + 1.5), rel=1e-9)


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


@pytest.mark.parametrize("p", [-0.1, -0.5, -1.5, -3.0])
def test_parabolic_cylinder_branch_agreement(p):
    for z in (sf.DP_Z_SWITCH, -sf.DP_Z_SWITCH):
        a = sf._dp_series(p, z)
        b = sf._dp_integral(p, z)
        assert abs(a - b) / abs(b) < 1e-9


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
            c = sf.parabolic_cylinder_D_complex(complex(p, 0.0), z)
            assert abs(c.imag) < 1e-12
            assert c.real == pytest.approx(sf.parabolic_cylinder_D(p, z), rel=1e-11)


def test_erf_values():
    assert sf.erf(0.0) == 0.0
    # frozen quadrature oracle for (2/sqrt(pi)) int_0^1 e^{-t^2} dt
    assert sf.erf(1.0) == pytest.approx(0.8427007929497149, rel=1e-12)


@settings(deadline=None, max_examples=50)
@given(x=st.floats(-6.0, 6.0, allow_nan=False))
def test_erf_odd(x):
    assert sf.erf(-x) == -sf.erf(x)


def test_series_control_validation():
    with pytest.raises(ValueError):
        sf.SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        sf.SeriesControl(max_terms=0)
