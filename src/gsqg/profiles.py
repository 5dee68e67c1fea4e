"""The model: vorticity profile f, its primitive-dual J, the kernel order s,
and the structural constants.

The profile is the power law f(t) = t_+^p with dual
J(t) = L t^gamma, gamma = 1 + 1/p.  Constructing J from f as the primitive
of f^{-1} gives the canonical coefficient L = p/(p+1), for which
(J')^{-1}(tau) = tau_+^p exactly.  A PowerProfile holds (s, p, L), the
model every solver object carries; the mass kappa stays with the problem.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstantError, DomainError, ParameterError
from .kernels import riesz_constant


def check_positive(name, value, below=math.inf):
    """ParameterError unless value is a real number in (0, below), which
    leaves out nan and inf; a bool, None or a string is no number here."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < below):
        bound = "positive" if below == math.inf else f"in (0, {below:g})"
        raise ParameterError(f"{name} must be {bound} and finite, "
                             f"got {value!r}")


def _halfline(t, name):
    """t as a float array; DomainError unless it lies in [0, inf)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError(f"{name} is only defined on [0, inf)")
    return t


@dataclass(frozen=True)
class PowerProfile:
    """f(t) = t_+^p together with J(t) = L t^(1+1/p) and the kernel
    order s of the model."""

    p: float
    s: float
    L: float = None  # canonical p/(p+1) unless overridden

    def __post_init__(self):
        check_positive("profile exponent p", self.p)
        check_positive("order s", self.s, below=1.0)
        if self.L is None:
            object.__setattr__(self, "L", self.p / (self.p + 1.0))
        check_positive("J coefficient L", self.L)
        if not self.p < 1.0 / (1.0 - self.s):
            raise ParameterError(f"profile p={self.p} violates p < 1/(1-s) "
                                 f"= {1.0 / (1.0 - self.s):.6g}")

    @property
    def gamma(self):
        return 1.0 + 1.0 / self.p

    @property
    def L_gamma(self):
        """(1/(L*gamma))^(1/(gamma-1)); equals 1 for the canonical L."""
        return (1.0 / (self.L * self.gamma)) ** (1.0 / (self.gamma - 1.0))

    # -- pointwise maps (both accept scalars or arrays) --

    def J(self, t):
        return self.L * _halfline(t, "J") ** self.gamma

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


def compute_struct_constants(profile: PowerProfile, kappa=1.0,
                             W=1.0) -> StructConstants:
    """With s and gamma = 1 + 1/p of the profile, evaluate the identity
    coefficients

        A = (2 - gamma - s*gamma) / (2 - s - gamma)
        B = (2 - s)/(s - 1) - (2 - gamma - gamma*s) / (2 (s-1)(2 - s - gamma))
        C = -(2 - gamma - gamma*s) / (2 (2 - s - gamma))

    together with the limiting half-separation
    d0 = ((1-s) c_s kappa / (2^(2-2s) W))^(1/(3-2s)).
    """
    s, gamma = profile.s, profile.gamma
    denom = 2.0 - s - gamma
    if abs(denom) < 1e-14:
        raise DegenerateConstantError(
            f"2 - s - gamma vanishes at s={s}, p={profile.p}; identity "
            "constants blow up")
    num = 2.0 - gamma - s * gamma
    A = num / denom
    C = -num / (2.0 * denom)
    B = (2.0 - s) / (s - 1.0) - num / (2.0 * (s - 1.0) * denom)
    c_s = riesz_constant(s)
    d0 = ((1.0 - s) * c_s * kappa / (2.0 ** (2.0 - 2.0 * s) * W)) ** (
        1.0 / (3.0 - 2.0 * s))
    return StructConstants(A_gamma=A, B_gamma=B, C_gamma=C, d0=d0, c_s=c_s)
