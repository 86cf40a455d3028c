"""Adaptive Gauss-Kronrod quadrature for complex integrands.

A 7-15 nested pair is applied per interval; intervals are bisected worst-first
until the accumulated error estimate meets the tolerance. Mandatory
breakpoints (support edges, kinks) seed the initial subdivision so piecewise
smooth integrands converge at full order. One adaptive loop,
`integrate_batch`, runs many integrals in lockstep: each keeps its own heap
and stopping test, and every round evaluates the 15 Kronrod nodes of all the
intervals it bisects in one vectorized integrand call. `integrate` is the
batch of one.
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


def _panels(f, lo, hi, owner):
    """Kronrod estimates and their distances to the embedded Gauss rule on
    the intervals [lo[j], hi[j]] of the integrals owner[j], from one call
    of f."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel(), np.repeat(owner, _NODES.size)))
    y = np.broadcast_to(y, (x.size,)).reshape(x.shape)
    ik = half * np.sum(_WK_FULL * y, axis=1)
    ig = half * np.sum(_WG_FULL * y, axis=1)
    return ik, np.abs(ik - ig)


def integrate_batch(f, a, b, rel_tol=1e-9, breakpoints=None, max_intervals=10_000):
    """Integrate n integrands in lockstep, the i-th over [a[i], b[i]].

    f(x, k) maps a float array of nodes x and the same-shaped integer array
    k, the index of the integral each node belongs to, to the integrand
    values. ``breakpoints`` is None or one sequence of mandatory points per
    integral. Each integral keeps its own worst-first heap and stopping
    test. A round bisects the worst interval of every unconverged integral
    and evaluates all the halves in one call of f, so each integral takes
    the bisections it would take alone and returns the same value bit for
    bit.

    Returns the n complex estimates: 0 where a == b, the negated integral
    over [b, a] where b < a. Raises QuadratureError when an integral
    exhausts ``max_intervals`` before its error estimate drops below
    max(rel_tol * |integral|, 1e-14).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    heaps = [[] for _ in range(a.size)]
    count = [0] * a.size
    owner, plo, phi = [], [], []
    for i, (lo, hi) in enumerate(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())):
        if lo == hi:
            continue
        bks = () if breakpoints is None else breakpoints[i]
        edges = [lo] + sorted({float(x) for x in bks if lo < x < hi}) + [hi]
        owner += [i] * (len(edges) - 1)
        plo += edges[:-1]
        phi += edges[1:]

    total = np.zeros(a.size, dtype=complex)
    total_err = np.zeros(a.size)
    if not owner:
        return total
    owner, lo, hi = np.array(owner), np.array(plo), np.array(phi)
    vals, errs = _panels(f, lo, hi, owner)
    # add.at adds in index order, as one integral's loop would
    np.add.at(total, owner, vals)
    np.add.at(total_err, owner, errs)
    while True:
        for i, e, lo_j, hi_j, v in zip(owner.tolist(), errs.tolist(), lo.tolist(),
                                       hi.tolist(), vals.tolist()):
            heapq.heappush(heaps[i], (-e, count[i], lo_j, hi_j, v))
            count[i] += 1
        todo = np.flatnonzero(total_err > np.maximum(rel_tol * np.abs(total), 1e-14))
        if not todo.size:
            return np.where(b < a, -1.0, 1.0) * total
        for i in todo.tolist():
            if count[i] >= max_intervals:
                raise QuadratureError(
                    f"quadrature did not converge within {max_intervals} "
                    f"intervals (err={total_err[i]:.3e}, |I|={abs(total[i]):.3e})")
        neg_err, _, lo, hi, val = (
            np.array(c) for c in zip(*(heapq.heappop(heaps[i]) for i in todo.tolist())))
        mid = 0.5 * (lo + hi)
        # the two halves of each interval, in the order one integral pushes them
        owner = np.repeat(todo, 2)
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        vals, errs = _panels(f, lo, hi, owner)
        total[todo] += vals[0::2] + vals[1::2] - val
        total_err[todo] += errs[0::2] + errs[1::2] - (-neg_err)


def integrate(f, a, b, rel_tol=1e-9, breakpoints=(), max_intervals=10_000):
    """Integrate f over [a, b]; f maps a float array to a complex array.

    A batch of one (`integrate_batch`). Returns the integral estimate.
    Raises QuadratureError when the subdivision budget is exhausted before
    the error estimate drops below max(rel_tol * |integral|, 1e-14).
    """
    return integrate_batch(lambda x, k: f(x), [a], [b], rel_tol,
                           [breakpoints], max_intervals)[0]


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


@lru_cache(maxsize=32)
def gl_antiderivative(order):
    """Matrix A of shape (order + 1, order): with f the values at the
    ``order`` Gauss-Legendre nodes, A @ f are the Legendre coefficients of
    F(u) = int_{-1}^u p, p the nodes' interpolant of f (spectral
    integration; Greengard, SIAM J. Numer. Anal. 28 (1991) 1071). So
    F(u) = legvander(u, order) @ (A @ f), F(-1) = 0 and F(1) = w @ f.
    Shared like `gl_nodes`: read only.

    p = sum_n c_n P_n with c_n = (n + 1/2) sum_k w_k P_n(x_k) f_k, exact by
    the rule's discrete orthogonality; then int_{-1}^u P_0 = P_0 + P_1 and
    int_{-1}^u P_n = (P_{n+1} - P_{n-1}) / (2n + 1).
    """
    x, w = gl_nodes(order)
    n = np.arange(order)
    c = (n[:, None] + 0.5) * w * np.polynomial.legendre.legvander(x, order - 1).T
    d = np.zeros((order + 1, order))
    d[0, 0] = d[1, 0] = 1.0
    d[n[1:] + 1, n[1:]] = 1.0 / (2 * n[1:] + 1)
    d[n[1:] - 1, n[1:]] = -1.0 / (2 * n[1:] + 1)
    a = d @ c
    a.flags.writeable = False
    return a


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
