import heapq

import numpy as np
import pytest

from tpaopt import quadrature as q
from tpaopt.quadrature import (QuadratureError, gl_panels, integrate, integrate_batch,
                               subdivide)


def test_polynomial_exact():
    val = integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert val.real == pytest.approx(8.0, rel=1e-14)


def test_complex_oscillatory():
    # int_0^10 e^{i 5 x} dx = (e^{50i} - 1) / (5i)
    val = integrate(lambda x: np.exp(5j * x), 0.0, 10.0, rel_tol=1e-12)
    exact = (np.exp(50j) - 1.0) / 5j
    assert abs(val - exact) < 1e-12


def test_breakpoint_handles_kink():
    f = lambda x: np.where(x < 0.3, 0.0, np.exp(-(x - 0.3)))
    exact = 1.0 - np.exp(-0.7)
    val = integrate(f, 0.0, 1.0, rel_tol=1e-12, breakpoints=(0.3,))
    assert val.real == pytest.approx(exact, rel=1e-12)


def test_reversed_limits_change_sign():
    a = integrate(lambda x: x, 0.0, 1.0)
    b = integrate(lambda x: x, 1.0, 0.0)
    assert a == pytest.approx(-b, rel=1e-14)


def test_budget_exhaustion_raises():
    # genuinely nasty integrand with a tiny budget
    f = lambda x: np.sin(1.0 / (np.abs(x) + 1e-12))
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, 1.0, rel_tol=1e-14, max_intervals=8)


# per integral: a shift of the integrand, limits and mandatory points
_BATCH = [
    (0.3, 0.0, 2.0, ()),
    (-1.2, -1.0, 3.5, (0.0, 1.7)),
    (2.5, 1.0, 1.0, (1.0,)),          # empty range
    (0.9, 4.0, -0.5, (2.2,)),         # reversed limits
    (0.0, 0.0, 1.0, (0.3, 0.6, 5.0)),  # a point outside the range
]


def _batch_term(s, x):
    # smooth, oscillatory and kinked at s, so the integrals bisect unevenly
    return np.exp(1j * 3.0 * (x - s)) * np.abs(x - s) ** 1.5 + 1.0 / (1.0 + (x - s) ** 2)


def _one_integral_loop(f, a, b, rel_tol, breakpoints):
    """The adaptive loop for one integral, one integrand call per interval,
    as the package ran it before the lockstep batch: the reference that
    `integrate` must reproduce bit for bit."""
    if a == b:
        return 0.0 + 0.0j
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        y = np.asarray(f(0.5 * (lo + hi) + half * q._NODES))
        ik = half * np.sum(q._WK_FULL * y)
        return ik, abs(ik - half * np.sum(q._WG_FULL * y))

    edges = [a] + sorted({float(x) for x in breakpoints if a < x < b}) + [b]
    heap, total, total_err = [], 0.0 + 0.0j, 0.0
    for n, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        val, err = panel(lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, n, lo, hi, val))
    n = len(heap)
    while total_err > max(rel_tol * abs(total), 1e-14):
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = panel(lo, mid), panel(mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, n, lo, mid, v1))
        heapq.heappush(heap, (-e2, n + 1, mid, hi, v2))
        n += 2
    return sign * total


def test_batch_equals_separate_integrals():
    shift = np.array([c[0] for c in _BATCH])
    for rel_tol in (1e-9, 1e-12):
        alone = [integrate(lambda x, s=s: _batch_term(s, x), a, b, rel_tol=rel_tol,
                           breakpoints=bks) for s, a, b, bks in _BATCH]
        assert alone == [_one_integral_loop(lambda x, s=s: _batch_term(s, x), a, b,
                                            rel_tol, bks) for s, a, b, bks in _BATCH]
        batch = integrate_batch(lambda x, k: _batch_term(shift[k], x),
                                [c[1] for c in _BATCH], [c[2] for c in _BATCH],
                                rel_tol, [c[3] for c in _BATCH])
        assert batch.tolist() == alone
    assert batch[2] == 0.0
    forward = integrate(lambda x: _batch_term(0.9, x), -0.5, 4.0, rel_tol=1e-12,
                        breakpoints=(2.2,))
    assert batch[3] == -forward


def test_batch_budget_exhaustion_raises():
    # the mates converge alone within the budget; the nasty integrand does not
    nasty = lambda x: np.sin(1.0 / (np.abs(x) + 1e-12))
    smooth = [lambda x: np.exp(-x), lambda x: x ** 2]
    for f in smooth:
        integrate(f, 0.0, 1.0, rel_tol=1e-14, max_intervals=8)
    fs = smooth[:1] + [nasty] + smooth[1:]
    with pytest.raises(QuadratureError):
        integrate_batch(lambda x, k: np.choose(k, [f(x) for f in fs]),
                        [0.0] * 3, [1.0] * 3, 1e-14, None, max_intervals=8)


def test_gl_panels_matches_adaptive():
    f = lambda x: np.exp(-x) * np.cos(3 * x)
    edges = subdivide(0.0, 5.0, 0.5)
    a = gl_panels(f, edges, order=24)
    b = integrate(f, 0.0, 5.0, rel_tol=1e-13)
    assert abs(a - b) < 1e-12


def test_subdivide_spacing_and_mandatory_points():
    edges = subdivide(0.0, 10.0, 0.9, extra=(2.5, 7.1))
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert 2.5 in edges and 7.1 in edges
    assert np.max(np.diff(edges)) <= 0.9 + 1e-12
