"""Session-scoped solver states shared across test modules.

Two parameter sets appear throughout:

* canonical: s=0.5, p=1.5, kappa=1, W=1 with the f-derived J coefficient
  L = p/(p+1).  Its ground state has support radius ~26, so at eps in
  {0.2, 0.1} the pair constraint disk (radius d0/2eps ~ 1) is far smaller
  than the natural vortex and the constrained maximizer presses the disk
  (the solver diagnoses this).
* regime: same (s, p, kappa, W) with J coefficient L = 0.1, which shrinks
  the ground state to radius ~0.12 so that eps in {0.2, 0.1} sits inside
  the slow-speed asymptotic window (disk radius > 4x support radius) where
  the identity and rate statements are meaningful.
"""

import pytest

REGIME_L = 0.1
EPS_SET = (0.2, 0.1)


@pytest.fixture(scope="session")
def limiting_canonical():
    from gsqg.limiting import solve_limiting
    return solve_limiting(0.5, 1.5, kappa=1.0, nr=256, n_angles=128)


@pytest.fixture(scope="session")
def limiting_regime():
    from gsqg.limiting import solve_limiting
    return solve_limiting(0.5, 1.5, kappa=1.0, L=REGIME_L, nr=256,
                          n_angles=128)


@pytest.fixture(scope="session")
def pair_regime(limiting_regime):
    """Converged pairs at eps in {0.2, 0.1}, shared window resolution.

    n = 256 keeps the lattice bias of the measured center of mass below the
    O(eps^2) location signal the rate tests read off."""
    from gsqg.pair import PairProblem, solve_pair
    from gsqg.profiles import PowerProfile
    out = {}
    for eps in EPS_SET:
        problem = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L),
                              kappa=1.0, W=1.0, eps=eps)
        out[eps] = solve_pair(problem, n=256, limiting=limiting_regime,
                              tol=1e-6, max_iter=3000)
    return out


@pytest.fixture(scope="session")
def pair_canonical_diagnosed(limiting_canonical):
    """The canonical-parameter solve at eps=0.1: constraint-active by
    necessity; returned with the diagnosis for tests that probe it."""
    from gsqg.pair import PairProblem, solve_pair
    from gsqg.profiles import PowerProfile
    problem = PairProblem(PowerProfile(p=1.5, s=0.5), kappa=1.0, W=1.0,
                          eps=0.1)
    return solve_pair(problem, n=128, limiting=limiting_canonical,
                      tol=1e-6, max_iter=1500, allow_active=True)


@pytest.fixture(scope="session")
def limiting_state_2d_96(limiting_canonical):
    from gsqg.limiting import to_state_2d
    return to_state_2d(limiting_canonical, 96)
