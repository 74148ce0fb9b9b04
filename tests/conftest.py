import numpy as np
import pytest
from hypothesis import settings

from polyzero.poly import Polynomial

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def match_multisets(a, b, tol):
    """Greedy nearest pairing of two complex multisets; max pair distance."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        j = min(range(len(b)), key=lambda i: abs(b[i] - x))
        worst = max(worst, abs(b[j] - x))
        b.pop(j)
    assert worst <= tol, f"multiset mismatch: worst pair distance {worst:.3e} > {tol:.3e}"
    return worst


def rotated(p, phi_turns):
    """The polynomial ``z -> P(e(phi) z)``: coefficients ``c_j e(j phi)``."""
    return Polynomial(tuple(c * np.exp(2j * np.pi * phi_turns * j) for j, c in enumerate(p.coeffs)))
