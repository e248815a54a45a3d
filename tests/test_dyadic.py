from fractions import Fraction

import pytest

import oracles
from gossipcover import dyadic as dy

F = Fraction


# ---------------------------------------------------------------------------
# interval primitives

def test_measure_merges_overlaps():
    assert dy.measure([(F(0), F(1)), (F(1, 2), F(2))]) == F(2)
    assert dy.measure([(F(0), F(1)), (F(3), F(4))]) == F(2)
    assert dy.measure([]) == F(0)
    # degenerate and reversed intervals contribute nothing
    assert dy.measure([(F(1), F(1)), (F(2), F(1))]) == F(0)


def test_complement_within():
    assert dy.complement_within([(F(0), F(1))], -1, 2) == \
        [(F(-1), F(0)), (F(1), F(2))]
    assert dy.complement_within([], 0, 1) == [(F(0), F(1))]
    assert dy.complement_within([(F(-5), F(5))], 0, 1) == []


def test_symdiff_measure_axioms():
    a = [(F(0), F(1)), (F(2), F(3))]
    b = [(F(1, 2), F(5, 2))]
    assert dy.symdiff_measure(a, a) == F(0)
    assert dy.symdiff_measure(a, b) == dy.symdiff_measure(b, a)
    # |a| + |b| - 2|a∩b| = 2 + 2 - 2*(1/2 + 1/2) = 2
    assert dy.symdiff_measure(a, b) == F(2)
    c = [(F(10), F(11))]
    assert dy.symdiff_measure(a, c) == F(3)


def test_hausdorff_1d_known_pairs():
    assert dy.hausdorff_1d([(F(0), F(1))], [(F(0), F(1))]) == F(0)
    assert dy.hausdorff_1d([(F(0), F(1))], [(F(2), F(3))]) == F(2)
    assert dy.hausdorff_1d([(F(0), F(1))], [(F(0), F(3))]) == F(2)
    # max over the gap midpoint of the sparser union, not an endpoint
    gappy = [(F(-1), F(0)), (F(4), F(5))]
    assert dy.hausdorff_1d([(F(-1), F(5))], gappy) == F(2)
    with pytest.raises(ValueError):
        dy.hausdorff_1d([], [(F(0), F(1))])


def test_abs_moment_cases():
    assert dy.abs_moment([(F(-1), F(1))]) == F(1)
    assert dy.abs_moment([(F(1), F(2))]) == F(3, 2)
    assert dy.abs_moment([(F(-2), F(-1))]) == F(3, 2)
    assert dy.abs_moment([(F(-1), F(2))]) == F(5, 2)


# ---------------------------------------------------------------------------
# comb family

def test_comb_teeth_level_gate():
    with pytest.raises(ValueError):
        dy.comb_teeth(-1)
    with pytest.raises(ValueError):
        dy.comb_teeth(dy.MAX_LEVEL + 1)


def test_comb_teeth_counts():
    assert len(dy.comb_teeth(0)) == 2
    for t in range(1, 10):
        assert len(dy.comb_teeth(t)) == 2 ** t + 1


def test_comb_family_exact_values():
    for t in range(13):
        rec = dy.comb_family(t)
        assert isinstance(rec.left_measure, Fraction)
        # total tooth measure stays pinned at half the interval
        assert rec.left_measure == F(1)
        assert rec.symdiff_to_full == F(1)
        assert rec.hausdorff_to_full == F(1, 2 ** (t + 1))
        assert rec.left_cost_at_zero == (F(3, 4) if t == 0 else F(1, 2))
        # splitting never beats serving the whole interval from zero
        assert rec.pair_cost == F(1) == oracles.full_interval_cost()


def test_comb_hausdorff_halves_monotonically():
    prev = None
    for t in range(13):
        h = dy.comb_family(t).hausdorff_to_full
        if prev is not None:
            assert h == prev / 2
        prev = h
