"""Adaptive Gauss-Kronrod quadrature for complex integrands.

A 7-15 nested pair is applied per interval; intervals are bisected worst-first
until the accumulated error estimate meets the tolerance. Integrands are
evaluated vectorized over the 15 Kronrod nodes of each interval. Mandatory
breakpoints (support edges, kinks) seed the initial subdivision so piecewise
smooth integrands converge at full order.
"""

import heapq
from functools import lru_cache

import numpy as np

# 15-point Kronrod abscissae (positive half) and weights; embedded 7-point
# Gauss weights belong to the odd-index abscissae. QUADPACK values.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def _panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.asarray(f(x))
    ik = half * np.sum(_WK_FULL * y)
    ig = half * np.sum(_WG_FULL * y)
    err = abs(ik - ig)
    return ik, err


def integrate(f, a, b, rel_tol=1e-9, breakpoints=(), max_intervals=10_000):
    """Integrate f over [a, b]; f maps a float array to a complex array.

    Returns the integral estimate. Raises QuadratureError when the
    subdivision budget is exhausted before the error estimate drops below
    max(rel_tol * |integral|, 1e-14).
    """
    if a == b:
        return 0.0 + 0.0j
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    edges = [a] + sorted({float(x) for x in breakpoints if a < x < b}) + [b]

    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    n = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, n, lo, hi, val))
        n += 1

    while total_err > max(rel_tol * abs(total), 1e-14):
        if n >= max_intervals:
            raise QuadratureError(
                f"quadrature did not converge within {max_intervals} "
                f"intervals (err={total_err:.3e}, |I|={abs(total):.3e})"
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, n, lo, mid, v1))
        n += 1
        heapq.heappush(heap, (-e2, n, mid, hi, v2))
        n += 1
    return sign * total


@lru_cache(maxsize=32)
def gl_nodes(order):
    """Gauss-Legendre nodes and weights on [-1, 1]; the cached arrays are
    shared by every caller, so none may modify them."""
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(edges, order=24):
    """Gauss-Legendre nodes on the panels [edges[i], edges[i+1]], one row
    per panel, with the panels' half widths and the weights on [-1, 1]: a
    panel's integral of f is half * (f(nodes) @ w)."""
    x, w = gl_nodes(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x[None, :], half, w


def gl_panels(f, edges, order=24):
    """Fixed-order Gauss-Legendre over consecutive [edges[i], edges[i+1]].

    All nodes are evaluated in one vectorized call to f; returns the sum of
    the panel integrals. Intended for smooth integrands on panels already
    sized to the integrand's scales.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        return 0.0 + 0.0j
    nodes, half, w = panel_nodes(edges, order)
    vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    return np.sum(half * (vals @ w))


def subdivide(lo, hi, h_max, extra=()):
    """Edges over [lo, hi] with spacing <= h_max, through mandatory points."""
    pts = [lo] + sorted({float(x) for x in extra if lo < x < hi}) + [hi]
    edges = []
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, int(np.ceil((b - a) / h_max)))
        edges.append(np.linspace(a, b, k + 1)[:-1])
    edges.append(np.array([hi]))
    return np.concatenate(edges)
