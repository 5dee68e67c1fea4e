import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsqg.errors import DegenerateConstantError, DomainError, ParameterError
from gsqg.profiles import PowerProfile, compute_struct_constants
from oracles import Jprime, f, f_inverse


class TestPowerProfile:
    def test_pointwise_values(self):
        prof = PowerProfile(p=1.5, s=0.5)
        assert f(prof, -1.0) == 0.0
        assert f(prof, 0.0) == 0.0
        assert f(prof, 1.0) == 1.0

    def test_canonical_coefficient(self):
        prof = PowerProfile(p=2.0, s=0.6)
        assert prof.L == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert prof.J(1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert prof.L_gamma == pytest.approx(1.0, rel=1e-14)

    def test_canonical_L_gamma_is_one(self):
        for p in (1.2, 1.5, 1.9):
            assert PowerProfile(p=p, s=0.5).L_gamma == pytest.approx(
                1.0, rel=1e-13)

    def test_canonical_jprime_inverse_is_tau_to_the_p(self):
        prof = PowerProfile(p=1.5, s=0.5)
        tau = np.linspace(0, 3, 13)
        np.testing.assert_allclose(prof.Jprime_inverse(tau), tau ** 1.5,
                                   rtol=1e-13)
        assert prof.Jprime_inverse(-2.0) == 0.0

    def test_inverse_composition(self):
        prof = PowerProfile(p=1.7, s=0.45)
        t = np.logspace(-6, 3, 40)
        np.testing.assert_allclose(f(prof, f_inverse(prof, t)), t, rtol=1e-12)

    def test_primitive_dual_relation(self):
        # J'(f(t)) = t for t > 0 since J is the primitive of f^{-1}
        prof = PowerProfile(p=1.4, s=0.5)
        t = np.logspace(-4, 2, 25)
        np.testing.assert_allclose(Jprime(prof, f(prof, t)), t, rtol=1e-10)

    def test_negative_domain_errors(self):
        prof = PowerProfile(p=1.5, s=0.5)
        with pytest.raises(DomainError):
            prof.J(-0.1)
        with pytest.raises(DomainError):
            f_inverse(prof, -0.1)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            PowerProfile(p=0.0, s=0.5)
        with pytest.raises(ParameterError):
            PowerProfile(p=1.5, s=1.2)
        with pytest.raises(ParameterError):
            PowerProfile(p=1.5, s=0.5, L=-1.0)

    @pytest.mark.parametrize("key,value", [
        (k, v) for k in ("p", "s", "L")
        for v in (None, "0.5", True, math.nan, math.inf, -math.inf)
        if (k, v) != ("L", None)])  # an L of None is the canonical L
    def test_model_values_are_finite_numbers(self, key, value):
        # the values a pair file may carry: None, strings and bools are no
        # numbers, and nan or inf is out of every range
        model = {"p": 1.5, "s": 0.5, "L": 0.1, key: value}
        with pytest.raises(ParameterError, match=rf"\b{key} must"):
            PowerProfile(**model)

    def test_regime_flags(self):
        # p <= 1 is inside the setting (no uniqueness, but a profile)
        assert PowerProfile(p=0.8, s=0.5).p == 0.8
        with pytest.raises(ParameterError, match=r"p < 1/\(1-s\)"):
            PowerProfile(p=2.5, s=0.5)

    @pytest.mark.parametrize("s,p,expect", [
        (0.5, 1.5, True),
        (0.5, 2.5, False),
        (0.75, 3.9, True),
        (0.75, 4.1, False),
    ])
    def test_hypotheses_ok_is_the_exponent_test(self, s, p, expect):
        # the hypotheses hold, and a profile is built, iff p < 1/(1-s):
        # 2 at s = 0.5, 4 at s = 0.75
        if expect:
            assert PowerProfile(p=p, s=s).p == p
        else:
            with pytest.raises(ParameterError, match=r"p < 1/\(1-s\)"):
                PowerProfile(p=p, s=s)

    @given(st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=80, deadline=None)
    def test_jprime_inverse_inverts_jprime(self, p, t):
        # s = 0.85 admits every p below 1/(1-s) = 6.67
        prof = PowerProfile(p=p, s=0.85, L=0.37)
        assert float(prof.Jprime_inverse(Jprime(prof, t))) == pytest.approx(
            t, rel=1e-9)


class TestStructConstants:
    def test_reference_point_exact_rationals(self):
        # s = 1/2, p = 3/2, gamma = 5/3: A = 3, B = 0, C = -3/2 by exact
        # rational evaluation of the defining formulas
        s, gamma = Fraction(1, 2), 1 + Fraction(2, 3)
        num = 2 - gamma - s * gamma
        den = 2 - s - gamma
        A = num / den
        B = (2 - s) / (s - 1) - num / (2 * (s - 1) * den)
        C = -num / (2 * den)
        assert (A, B, C) == (Fraction(3), Fraction(0), Fraction(-3, 2))
        c = compute_struct_constants(PowerProfile(p=1.5, s=0.5))
        assert c.A_gamma == pytest.approx(3.0, abs=1e-13)
        assert c.B_gamma == pytest.approx(0.0, abs=1e-13)
        assert c.C_gamma == pytest.approx(-1.5, abs=1e-13)

    def test_d0_reference_value(self):
        c = compute_struct_constants(PowerProfile(p=1.5, s=0.5), kappa=1.0,
                                     W=1.0)
        assert c.d0 == pytest.approx(math.sqrt(1.0 / (8.0 * math.pi)),
                                     rel=1e-13)
        assert c.d0 == pytest.approx(0.199471, rel=1e-5)

    def test_degenerate_combination_rejected(self):
        # 2 - s - gamma = 0 at s = 1/2 iff gamma = 3/2 iff p = 2, the growth
        # bound itself; one ulp below it the profile is admissible and the
        # denominator is at roundoff
        with pytest.raises(DegenerateConstantError):
            compute_struct_constants(
                PowerProfile(p=np.nextafter(2.0, 0.0), s=0.5))

    def test_d0_is_energy_minimizer(self):
        # d0 minimizes h(t) = c_s kappa / (2^(3-2s) t^(2-2s)) + W t
        for (s, kappa, W) in ((0.5, 1.0, 1.0), (0.7, 2.0, 0.5),
                              (0.35, 0.7, 2.0)):
            prof = PowerProfile(p=min(1.2, 0.9 / (1 - s)), s=s)
            c = compute_struct_constants(prof, kappa=kappa, W=W)

            def h(t):
                return c.c_s * kappa / (2 ** (3 - 2 * s) * t ** (2 - 2 * s)) \
                    + W * t

            assert h(c.d0) < h(c.d0 * 1.01)
            assert h(c.d0) < h(c.d0 * 0.99)
