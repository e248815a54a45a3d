import numpy as np
import pytest

import oracles
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


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_stacked_subdivision_matches_one_triangle_at_a_time(level):
    # a (K, 2) stack of each corner gives each triangle's children in
    # turn, with the bits of one-triangle calls and of the child loop
    rng = np.random.default_rng(level)
    tris = rng.normal(size=(7, 3, 2)) * 10.0 ** rng.integers(-4, 5, (7, 1, 1))
    tris[2, 1] = -0.0
    got = quad.subdivide_triangle(tris[:, 0], tris[:, 1], tris[:, 2], level)
    one = np.concatenate([quad.subdivide_triangle(*t, level) for t in tris])
    ref = np.concatenate([oracles.subdivide_ref(*t, level) for t in tris])
    assert got.shape == (7 * level**2, 3, 2)
    assert got.tobytes() == one.tobytes() == ref.tobytes()
