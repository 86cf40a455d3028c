import math

import numpy as np
import pytest

from tpaopt.numutil import phi1, refine_max


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


def _sampled(curve, times):
    """`refine_max`'s inputs from a closed-form curve t -> (slope, value)."""
    slopes, values = zip(*(curve(t) for t in times))
    return np.asarray(times, dtype=float), np.array(values), np.array(slopes)


def test_refine_max_halves_a_bracket_whose_end_has_not_started():
    # P = t e^{-t} from t = 0 on, zero before: the left end's slope is 0,
    # so the bracket is halved until the sign change shows
    def curve(t):
        return ((1.0 - t) * math.exp(-t), t * math.exp(-t)) if t > 0 else (0.0, 0.0)

    seen = []

    def at(t):
        seen.append(t)
        return curve(t)

    xtol = 1e-9
    t, p = refine_max(*_sampled(curve, [-0.5, 1.5, 3.0]), at, xtol)
    assert seen[0] == 0.5  # the bracket [-0.5, 1.5] halved
    assert abs(t - 1.0) <= 2 * xtol
    assert p == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_refine_max_returns_a_slope_jump_within_xtol():
    # P = min(t, 3 - 2t) peaks at the kink t = 1, where the slope jumps
    # from +1 to -2 without passing through zero
    def curve(t):
        return (1.0, t) if t < 1.0 else (-2.0, 3.0 - 2.0 * t)

    for xtol in (1e-6, 1e-9):
        t, p = refine_max(*_sampled(curve, [0.0, 0.7, 1.6]), curve, xtol)
        assert abs(t - 1.0) <= xtol
        assert p == curve(t)[1]


def test_refine_max_is_never_below_the_largest_sample():
    # two-bump curves whose slope root in the bracket can be a minimum or
    # the lower bump: the best point seen, the samples included, is returned
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, f, ph = rng.uniform(0.2, 1.0, 2), rng.uniform(1.0, 8.0, 2), rng.uniform(0, 6, 2)

        def curve(t):
            return (float(np.sum(a * f * np.cos(f * t + ph))),
                    float(np.sum(a * np.sin(f * t + ph))))

        times, values, slopes = _sampled(curve, np.sort(rng.uniform(0.0, 3.0, 3)))
        t, p = refine_max(times, values, slopes, curve, 1e-8)
        assert p >= values.max()
        assert p == curve(t)[1] or t in times
