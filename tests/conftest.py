import warnings

import numpy as np
import pytest

from ttsa import NoiseModel, ProblemSpec, StepSchedule, library_problem

# Hypothesis imports this module, and with it libcst where installed, to write
# a patch for the first failing property. libcst warns at import, which under
# -W error would end the session there, so it is imported once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass


@pytest.fixture(scope="session")
def scalar_problem():
    return library_problem("scalar-coupled")


@pytest.fixture(scope="session")
def linear_problem():
    return library_problem("linear-2x2")


@pytest.fixture(scope="session")
def quadratic_problem():
    return library_problem("quadratic-2x2")


@pytest.fixture()
def schedule():
    return StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)


def scalar_spec(q11, q12, q21, q22, gamma=None, **kwargs):
    """Convenience builder for 1+1-dimensional problems with zero root."""
    cov = np.eye(2) if gamma is None else np.asarray(gamma, dtype=float)
    return ProblemSpec(
        q11=[[q11]],
        q12=[[q12]],
        q21=[[q21]],
        q22=[[q22]],
        theta_star=[0.0],
        mu_star=[0.0],
        noise=NoiseModel(cov=cov),
        **kwargs,
    )
