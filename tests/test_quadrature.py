import numpy as np
import pytest

from gossipcover import quadrature as quad

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def analytic_monomial(p, q):
    # integral of x^p y^q over the reference triangle
    from math import factorial
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def test_rule_weights_sum_to_one():
    _, w = quad.triangle_rule()
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-13)


def test_rule_exact_for_monomials():
    pts_b, w = quad.triangle_rule()
    pts = pts_b @ TRI
    for p in range(7):
        for q in range(7 - p):
            got = 0.5 * float(np.dot(w, pts[:, 0] ** p * pts[:, 1] ** q))
            assert got == pytest.approx(analytic_monomial(p, q),
                                        rel=1e-12, abs=1e-14), (p, q)


def test_subdivision_refines():
    tris = quad.subdivide_triangle(TRI[0], TRI[1], TRI[2], 2)
    assert len(tris) == 4
    areas = []
    for t in tris:
        e1 = t[1] - t[0]
        e2 = t[2] - t[0]
        areas.append(0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0]))
    assert sum(areas) == pytest.approx(0.5, abs=1e-14)
