"""Shared fixtures and the Hypothesis profile of the suite."""

import pytest
from hypothesis import settings

from nnlstep import StepProfile, soliton_spectral, spectral, step_spectral

# Reproducible property tests: fixed draws, no example database, no timing
# limit (some draws run a quadrature).
settings.register_profile("nnlstep", derandomize=True, database=None, deadline=None)
settings.load_profile("nnlstep")


@pytest.fixture(scope="session")
def step_sd():
    """Closed-form scattering data of the centered unit step."""
    return step_spectral(StepProfile(A=1.0, R=0.0))


@pytest.fixture(scope="session")
def soliton_sd():
    """Reflectionless one-soliton scattering data, phi0 = 0."""
    return soliton_spectral(1.0, 0.0)


@pytest.fixture
def ode_solves(monkeypatch):
    """The solve_ivp calls made through nnlstep.spectral during the test."""
    calls = []

    def counted(*args, _solve=spectral.solve_ivp, **kwargs):
        calls.append(args[1])
        return _solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "solve_ivp", counted)
    return calls
