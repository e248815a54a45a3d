"""Numerical integration rules on triangles.

Rules are expressed in barycentric coordinates with weights normalized to
sum to one, so integrating f over a physical triangle T is
``area(T) * sum(w_k * f(x_k))``.
"""
from __future__ import annotations

import numpy as np

# Symmetric 12-point rule, exact for total degree <= 6.
# Orbits: two three-fold points (a, a, 1-2a) and one six-fold point.
_D6_A1 = 0.063089014491502
_D6_W1 = 0.050844906370207
_D6_A2 = 0.249286745170910
_D6_W2 = 0.116786275726379
_D6_A3 = 0.053145049844816
_D6_B3 = 0.310352451033785
_D6_W3 = 0.082851075618374


def _orbit3(a):
    return [(1.0 - 2.0 * a, a, a), (a, 1.0 - 2.0 * a, a), (a, a, 1.0 - 2.0 * a)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (a, b, c), (b, c, a), (b, a, c)]


def _symmetric_degree6():
    pts = _orbit3(_D6_A1) + _orbit3(_D6_A2) + _orbit6(_D6_A3, _D6_B3)
    wts = [_D6_W1] * 3 + [_D6_W2] * 3 + [_D6_W3] * 6
    return np.array(pts), np.array(wts)


_RULE = _symmetric_degree6()


def triangle_rule():
    """Barycentric points and normalized weights of the degree-6 rule."""
    return _RULE


def subdivide_triangle(a, b, c, level: int):
    """Split a triangle into level**2 congruent children; returns (k, 3, 2).

    a, b and c may each be a (K, 2) stack of corners: then the children
    of triangle 0 come first, then those of triangle 1, and so on, each
    made with the float operations that one triangle's children are.
    """
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    if level <= 1:
        return np.concatenate((a, b, c), axis=-1).reshape(-1, 3, 2)
    a = a.reshape(-1, 1, 2)
    e1 = (b.reshape(-1, 1, 2) - a) / level
    e2 = (c.reshape(-1, 1, 2) - a) / level
    anchors = [(i, j) for i in range(level) for j in range(level - i)]
    # the children among the upright then the inverted ones: each
    # anchor's upright child, then its inverted one where there is one
    order = [k for m, (i, j) in enumerate(anchors)
             for k in ((m, len(anchors) + m) if j < level - i - 1 else (m,))]
    i, j = np.array(anchors, dtype=float).T[:, :, None]
    p = a + i * e1 + j * e2
    p1, p2 = p + e1, p + e2
    up = np.stack((p, p1, p2), axis=2)
    down = np.stack((p1, p1 + e2, p2), axis=2)
    return np.concatenate((up, down), axis=1)[:, order].reshape(-1, 3, 2)
