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
    """Split a triangle into level**2 congruent children; returns (k, 3, 2)."""
    if level <= 1:
        return np.array([[a, b, c]], dtype=float)
    a = np.asarray(a, dtype=float)
    e1 = (np.asarray(b, dtype=float) - a) / level
    e2 = (np.asarray(c, dtype=float) - a) / level
    tris = []
    for i in range(level):
        for j in range(level - i):
            p = a + i * e1 + j * e2
            tris.append([p, p + e1, p + e2])
            if j < level - i - 1:
                tris.append([p + e1, p + e1 + e2, p + e2])
    return np.array(tris)
