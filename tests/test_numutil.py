import math

import numpy as np

from tpaopt.numutil import phi1


def _phi1_taylor(z):
    """(exp(z) - 1)/z as sum_k z^k/(k+1)!, 40 terms, each part by fsum."""
    re, im = [], []
    term = 1.0 + 0.0j
    for k in range(40):
        re.append(term.real)
        im.append(term.imag)
        term = term * z / (k + 2)
    return complex(math.fsum(re), math.fsum(im))


def test_phi1_complex_to_a_few_eps():
    # exp(z) - 1 cancels for small |z|: above the Taylor branch's 1e-5 the
    # direct quotient lost up to eps/|z| relative
    rng = np.random.default_rng(11)
    z = 10 ** rng.uniform(-5, 0, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    got = phi1(z)
    ref = np.array([_phi1_taylor(complex(v)) for v in z])
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4 * np.finfo(float).eps
