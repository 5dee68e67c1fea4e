"""Vorticity profile f, its primitive-dual J, and structural constants.

The profile is the power law f(t) = t_+^p with dual
J(t) = L t^gamma, gamma = 1 + 1/p.  Constructing J from f as the primitive
of f^{-1} gives the canonical coefficient L = p/(p+1), for which
(J')^{-1}(tau) = tau_+^p exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstantError, DomainError, ParameterError
from .kernels import riesz_constant


@dataclass(frozen=True)
class PowerProfile:
    """f(t) = t_+^p together with J(t) = L t^(1+1/p)."""

    p: float
    s: float
    L: float = None  # canonical p/(p+1) unless overridden

    def __post_init__(self):
        if self.p <= 0:
            raise ParameterError("profile exponent p must be positive")
        if not 0 < self.s < 1:
            raise ParameterError("order s must lie in (0, 1)")
        if self.L is None:
            object.__setattr__(self, "L", self.p / (self.p + 1.0))
        if self.L <= 0:
            raise ParameterError("J coefficient L must be positive")

    @property
    def gamma(self):
        return 1.0 + 1.0 / self.p

    @property
    def L_gamma(self):
        """(1/(L*gamma))^(1/(gamma-1)); equals 1 for the canonical L."""
        return (1.0 / (self.L * self.gamma)) ** (1.0 / (self.gamma - 1.0))

    @property
    def hypotheses_ok(self):
        """Exact sublinear-growth test p < 1/(1-s)."""
        return self.p < 1.0 / (1.0 - self.s)

    # -- pointwise maps (all accept scalars or arrays) --

    def f(self, t):
        return np.clip(t, 0.0, None) ** self.p

    def f_inverse(self, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < 0):
            raise DomainError("f^{-1} is only defined on [0, inf)")
        return tau ** (1.0 / self.p)

    def J(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("J is only defined on [0, inf) for this profile")
        return self.L * t ** self.gamma

    def Jprime(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("J' is only defined on [0, inf)")
        return self.L * self.gamma * t ** (self.gamma - 1.0)

    def Jprime_inverse(self, tau):
        """(J')^{-1}(tau) = (tau / (L*gamma))_+^p = L_gamma * tau_+^p."""
        return self.L_gamma * np.clip(tau, 0.0, None) ** self.p


@dataclass(frozen=True)
class StructConstants:
    """Closed-form constants of the power-law variational identities."""

    A_gamma: float
    B_gamma: float
    C_gamma: float
    d0: float
    c_s: float


def compute_struct_constants(s, p, L=None, kappa=1.0, W=1.0) -> StructConstants:
    """With gamma = 1 + 1/p, evaluate the identity coefficients

        A = (2 - gamma - s*gamma) / (2 - s - gamma)
        B = (2 - s)/(s - 1) - (2 - gamma - gamma*s) / (2 (s-1)(2 - s - gamma))
        C = -(2 - gamma - gamma*s) / (2 (2 - s - gamma))

    together with the limiting half-separation
    d0 = ((1-s) c_s kappa / (2^(2-2s) W))^(1/(3-2s)).
    """
    gamma = PowerProfile(p=p, s=s, L=L).gamma
    denom = 2.0 - s - gamma
    if abs(denom) < 1e-14:
        raise DegenerateConstantError(
            f"2 - s - gamma vanishes at s={s}, p={p}; identity constants blow up")
    if kappa <= 0 or W <= 0:
        raise ParameterError("kappa and W must be positive")
    num = 2.0 - gamma - s * gamma
    A = num / denom
    C = -num / (2.0 * denom)
    B = (2.0 - s) / (s - 1.0) - num / (2.0 * (s - 1.0) * denom)
    c_s = riesz_constant(s)
    d0 = ((1.0 - s) * c_s * kappa / (2.0 ** (2.0 - 2.0 * s) * W)) ** (
        1.0 / (3.0 - 2.0 * s))
    return StructConstants(A_gamma=A, B_gamma=B, C_gamma=C, d0=d0, c_s=c_s)
