"""Exact interval arithmetic for a two-region comb split of [-1, 1].

The left region of the split at refinement t is a union of dyadic
"teeth": end caps of width 1/2**(t+1) at both ends plus teeth of width
1/2**t centered at multiples of 1/2**(t-1). The right region is the
closure of the complement. Total tooth measure is exactly 1 for every t,
yet the teeth interleave ever more finely, so the split converges to the
full interval in Hausdorff distance while staying at constant
symmetric-difference distance. Everything here runs on Fractions.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Interval = tuple[Fraction, Fraction]

# each level costs about twice the last: the table for t = 0..16 takes
# tens of seconds, and t = 0..20 did not finish in minutes
MAX_LEVEL = 16


def _normalize(intervals: Sequence[Interval]) -> list[Interval]:
    ivs = sorted((Fraction(a), Fraction(b)) for a, b in intervals if b > a)
    out: list[Interval] = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def measure(intervals: Sequence[Interval]) -> Fraction:
    return sum((b - a for a, b in _normalize(intervals)), Fraction(0))


def complement_within(intervals: Sequence[Interval], lo, hi) -> list[Interval]:
    lo, hi = Fraction(lo), Fraction(hi)
    out = []
    cursor = lo
    for a, b in _normalize(intervals):
        if a > cursor:
            out.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
        if cursor >= hi:
            break
    if cursor < hi:
        out.append((cursor, hi))
    return [iv for iv in out if iv[1] > iv[0]]


def symdiff_measure(a: Sequence[Interval], b: Sequence[Interval]) -> Fraction:
    """Measure of the symmetric difference of two interval unions."""
    an, bn = _normalize(a), _normalize(b)
    inter = Fraction(0)
    for x0, x1 in an:
        for y0, y1 in bn:
            lo, hi = max(x0, y0), min(x1, y1)
            if hi > lo:
                inter += hi - lo
    return measure(an) + measure(bn) - 2 * inter


def _point_distance(x: Fraction, intervals: list[Interval]) -> Fraction:
    # intervals normalized: sorted and disjoint, so only the neighbors of
    # the insertion point matter
    k = bisect.bisect_right(intervals, (x, x))
    cands = []
    if k > 0:
        a, b = intervals[k - 1]
        if x <= b:
            return Fraction(0)
        cands.append(x - b)
    if k < len(intervals):
        cands.append(intervals[k][0] - x)
    return min(cands)


def hausdorff_1d(a: Sequence[Interval], b: Sequence[Interval]) -> Fraction:
    """Exact Hausdorff distance between two nonempty interval unions."""
    an, bn = _normalize(a), _normalize(b)
    if not an or not bn:
        raise ValueError("hausdorff distance needs nonempty unions")

    def directed(src: list[Interval], dst: list[Interval]) -> Fraction:
        # distance-to-dst is piecewise linear; its maximum over src occurs
        # at a src endpoint or at a dst gap midpoint inside src
        cands = [e for iv in src for e in iv]
        for k in range(len(dst) - 1):
            mid = (dst[k][1] + dst[k + 1][0]) / 2
            for a_, b_ in src:
                if a_ <= mid <= b_:
                    cands.append(mid)
                    break
        return max(_point_distance(x, dst) for x in cands)

    return max(directed(an, bn), directed(bn, an))


def abs_moment(intervals: Sequence[Interval]) -> Fraction:
    """Integral of |x| over the union (unit density)."""
    total = Fraction(0)
    for a, b in _normalize(intervals):
        if a >= 0:
            total += (b * b - a * a) / 2
        elif b <= 0:
            total += (a * a - b * b) / 2
        else:
            total += (a * a + b * b) / 2
    return total


def comb_teeth(t: int) -> list[Interval]:
    """Left region of the split at refinement t (see module docstring)."""
    if not (0 <= t <= MAX_LEVEL):
        raise ValueError(f"refinement level must lie in [0, {MAX_LEVEL}]")
    cap = Fraction(1, 2 ** (t + 1))
    teeth: list[Interval] = [(Fraction(-1), Fraction(-1) + cap),
                             (Fraction(1) - cap, Fraction(1))]
    if t >= 1:
        spacing = Fraction(1, 2 ** (t - 1))
        half = Fraction(1, 2 ** (t + 1))
        m = 2 ** (t - 1) - 1
        for h in range(-m, m + 1):
            c = h * spacing
            teeth.append((c - half, c + half))
    return _normalize(teeth)


@dataclass(frozen=True)
class CombRecord:
    t: int
    left_measure: Fraction
    left_cost_at_zero: Fraction
    pair_cost: Fraction
    hausdorff_to_full: Fraction
    symdiff_to_full: Fraction


def comb_family(t: int) -> CombRecord:
    """Exact summary of the split at refinement t.

    Costs use unit density and cost-of-distance f(s) = s, evaluated at
    zero; both regions are symmetric about zero, so zero is a
    generalized centroid (a median) for each.
    """
    left = comb_teeth(t)
    right = complement_within(left, -1, 1)
    full = [(Fraction(-1), Fraction(1))]
    left_cost = abs_moment(left)
    return CombRecord(
        t=t,
        left_measure=measure(left),
        left_cost_at_zero=left_cost,
        pair_cost=left_cost + abs_moment(right),
        hausdorff_to_full=hausdorff_1d(left, full),
        symdiff_to_full=symdiff_measure(left, full),
    )
