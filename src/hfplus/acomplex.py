"""Concrete realizations of filtration regions and their structure maps.

A knot complex stores one generator per U-orbit; to compute anything
we unfold finitely many translates.  The translate (x, k) sits at
filtration (i_x + k, j_x + k) and grading m_x + 2k, and U acts by
k -> k - 1.  Realizing a region keeps the translates whose filtration
lies in the region, with upward-closed regions additionally cut off at
a depth N: translates more than N levels inside are discarded.  Since
the differential never increases the region depth, the kept part is an
honest subcomplex of the (quotient) region complex, and its homology
is faithful strictly below the degree floor of what was discarded --
realizations record that trust ceiling.

The two maps out of A_s = C{max(i, j-s) >= 0} both land in
B = C{i >= 0}: the vertical map is the evident projection, and the
horizontal one projects to C{j >= s}, slides down by U^s, and applies
the flip.  When the flip only commutes with the differential up to a
global sign, the horizontal map absorbs (-1)^m per generator, which
restores the chain-map identity without disturbing the involution.
v_columns and h_columns define both maps once, for map_v/map_h and
the surgery cone alike; truncation_depth is the one depth rule for
truncated computations, sized in closed form from the generators'
gradings and the blocks' offsets, with no retry.

Realizations and homology groups are built anew on every call and
never cached; results (genus, kernel_rank_v) go through cfk's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .cfk import Region, flip_chain_sign, memoized
from .errors import (FlipMissingError, GradingError, InvalidComplexError,
                     NotStabilizedError)
from .homology import TOWER_LEVELS, ChainMap, GradedComplex, graded_homology


def _k_range(g, region, depth):
    """Inclusive range of translates of generator g inside the region."""
    if region.kind == "min_i":
        (bound,) = region.params
        lo = bound - g.i
        return lo, lo + depth
    if region.kind == "max_ij":
        s, bound = region.params
        lo = bound - max(g.i, g.j - s)
        return lo, lo + depth
    ci, cj = region.params
    k = ci - g.i
    if g.j + k == cj:
        return k, k
    return 0, -1


def truncation_depth(complex_, blocks):
    """Least depth at which the blocks are exact on a shared band.

    blocks are (region, grading offset) pairs of upward-closed regions
    realized together, as the blocks of a surgery cone are.  With
    lo_x = _k_range(x, region, 0)[0], a block at depth D holds every
    translate of CFK^oo in the degrees from offset + max_x(m_x + 2 lo_x)
    to offset + min_x(m_x + 2 lo_x) + 2D.  The shared band runs from
    l = max over blocks of (offset + max_x(m_x + 2 lo_x)) + 1 up to
    C = min over blocks of (offset + min_x(m_x + 2 lo_x)) + 2D, the
    trust ceiling the realizations and the cone already report.
    Assuming H(CFK^oo) = Z[U, U^-1], as for any knot in S^3 (validate
    does not check it), each block has the homology of CFK^oo there
    and v and h are isomorphisms, so a surgery cone is a zigzag of
    copies of Z[U, U^-1] joined by isomorphisms: its homology in the
    band is exactly the tower, and HF_red and the tower bottom lie
    below l.  D is the least depth >= 1 with C - l >= 2 TOWER_LEVELS - 1,
    so the band holds, whatever their parity, the TOWER_LEVELS levels
    that tower_decompose reads.
    """
    firsts = [[offset + g.m + 2 * _k_range(g, region, 0)[0]
               for g in complex_.generators] for region, offset in blocks]
    band_floor = max(map(max, firsts)) + 1
    lowest = min(map(min, firsts))
    return max(1, ceil((band_floor + 2 * TOWER_LEVELS - 1 - lowest) / 2))


class RealizedRegion:
    """A region of a knot complex, unfolded into a finite GradedComplex.

    ids[n] is the (generator name, translate) pair of basis element n;
    id_of inverts it.  dropped_floor is the least grading among the
    discarded deeper translates (None when nothing was discarded), and
    ceiling = dropped_floor - 2 bounds the degrees in which homology
    of the realization agrees with the untruncated region.
    """

    def __init__(self, source, region, depth):
        if not source.graded:
            raise GradingError("realization requires solved gradings")
        self.source = source
        self.region = region
        self.depth = depth
        ids = []
        id_of = {}
        degrees = []
        floor = None
        for g in source.generators:
            lo, hi = _k_range(g, region, depth)
            for k in range(lo, hi + 1):
                id_of[(g.name, k)] = len(ids)
                ids.append((g.name, k))
                degrees.append(g.m + 2 * k)
            if region.classification == "quotient":
                dropped = g.m + 2 * (hi + 1)
                floor = dropped if floor is None else min(floor, dropped)
        self.ids = ids
        self.id_of = id_of
        self.dropped_floor = floor
        self.ceiling = None if floor is None else floor - 2
        boundary = []
        u_action = []
        for name, k in ids:
            col = {}
            for t in source.differential.get(name, ()):
                tid = id_of.get((t.target, k - t.u_exponent))
                if tid is not None:
                    col[tid] = t.coefficient
            boundary.append(col)
            uid = id_of.get((name, k - 1))
            u_action.append({uid: 1} if uid is not None else {})
        self.realization = GradedComplex(degrees, boundary, u_action,
                                         labels=ids)

    def __repr__(self):
        return (f"RealizedRegion({self.source.name or '?'}, "
                f"{self.region.describe()}, depth={self.depth}, "
                f"{len(self.ids)} elements)")


def realize(complex_, region, depth):
    """A new RealizedRegion of the region at this depth (not cached)."""
    return RealizedRegion(complex_, region, depth)


def _homology(realized):
    return graded_homology(realized.realization, ceiling=realized.ceiling)


def region_homology(complex_, region, depth):
    """(RealizedRegion, GradedGroup) for a region, both built anew."""
    realized = realize(complex_, region, depth)
    return realized, _homology(realized)


def v_columns(src, tgt):
    """Columns of v: A_s -> B, the projection, between realizations."""
    cols = []
    for key in src.ids:
        tid = tgt.id_of.get(key)
        cols.append({} if tid is None else {tid: 1})
    return cols


def signed_flip(complex_):
    """The flip with the sign h applies: name -> (sign, image name)."""
    if complex_.flip is None:
        raise FlipMissingError(
            "horizontal maps need flip data on the complex")
    eps = flip_chain_sign(complex_)
    if eps is None:
        raise InvalidComplexError(["flip is not a chain map up to "
                                   "global sign"])
    signed = {}
    for g in complex_.generators:
        sgn, flipped = complex_.flip[g.name]
        signed[g.name] = (-sgn if eps < 0 and g.m % 2 else sgn, flipped)
    return signed


def h_columns(complex_, flip, s, src, tgt):
    """Columns of h: A_s -> B between realizations; flip from signed_flip."""
    cols = []
    for name, k in src.ids:
        if complex_.by_name[name].j + k - s < 0:
            cols.append({})
            continue
        sgn, flipped = flip[name]
        tid = tgt.id_of.get((flipped, k - s))
        cols.append({} if tid is None else {tid: sgn})
    return cols


def _a_and_b(complex_, s, depth):
    """Realizations of A_s and B at one depth: the ends of v and h."""
    return (realize(complex_, Region.max_ij(s), depth),
            realize(complex_, Region.min_i(), depth))


def _v_map(src, tgt):
    return ChainMap(src.realization, tgt.realization, v_columns(src, tgt),
                    shift=0)


def _h_map(complex_, s, src, tgt):
    cols = h_columns(complex_, signed_flip(complex_), s, src, tgt)
    return ChainMap(src.realization, tgt.realization, cols, shift=-2 * s)


def map_v(complex_, s, depth):
    """The projection A_s -> B as a checked ChainMap (degree shift 0)."""
    return _v_map(*_a_and_b(complex_, s, depth))


def map_h(complex_, s, depth):
    """Project to {j >= s}, slide by U^s, flip: A_s -> B, shift -2s."""
    return _h_map(complex_, s, *_a_and_b(complex_, s, depth))


def induced_v(complex_, s, depth):
    """(InducedMap of v, trusted source-degree ceiling)."""
    src, tgt = _a_and_b(complex_, s, depth)
    ceiling = min(src.ceiling, tgt.ceiling)
    return _v_map(src, tgt).induced(_homology(src), _homology(tgt)), ceiling


def induced_h(complex_, s, depth):
    """(InducedMap of h, trusted source-degree ceiling)."""
    src, tgt = _a_and_b(complex_, s, depth)
    # the map shifts degree by -2s, so target trust pulls back by +2s
    ceiling = min(src.ceiling, tgt.ceiling + 2 * s)
    hmap = _h_map(complex_, s, src, tgt)
    return hmap.induced(_homology(src), _homology(tgt)), ceiling


# ---------------------------------------------------------------------------
# knot-level invariants


def hfk_hat(complex_, s):
    """Homology of the single filtration level (0, s)."""
    if complex_.graded:
        realized = realize(complex_, Region.single(0, s), 0)
        return graded_homology(realized.realization)
    # rank-only queries work without gradings
    inside = [(g, -g.i) for g in complex_.generators if g.j - g.i == s]
    idx = {(g.name, k): n for n, (g, k) in enumerate(inside)}
    boundary = []
    for g, k in inside:
        col = {}
        for t in complex_.differential.get(g.name, ()):
            tid = idx.get((t.target, k - t.u_exponent))
            if tid is not None:
                col[tid] = t.coefficient
        boundary.append(col)
    return graded_homology(
        GradedComplex([0] * len(inside), boundary, check=False))


def _alexander_support(complex_):
    return sorted({g.j - g.i for g in complex_.generators})


@memoized
def genus(complex_):
    """Top filtration level with nonzero hat homology (0 for the unknot)."""
    best = None
    for s in reversed(_alexander_support(complex_)):
        if hfk_hat(complex_, s).support():
            best = s
            break
    return max(best, 0) if best is not None else 0


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial, stored as sorted (exponent, coeff)."""

    coefficients: tuple

    @staticmethod
    def from_dict(d):
        return LaurentPolynomial(
            tuple(sorted((s, c) for s, c in d.items() if c)))

    def coefficient(self, s):
        for exp, c in self.coefficients:
            if exp == s:
                return c
        return 0

    def at_one(self):
        return sum(c for _, c in self.coefficients)

    def second_derivative_at_one(self):
        return sum(c * s * (s - 1) for s, c in self.coefficients)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for s, c in sorted(self.coefficients, reverse=True):
            mag = abs(c)
            if s == 0:
                body = str(mag)
            else:
                t = "t" if s == 1 else f"t^{s}"
                body = t if mag == 1 else f"{mag}*{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)


def alexander_polynomial(complex_):
    """Euler characteristic of hat homology across filtration levels.

    Output is symmetric under s -> -s for any honest knot complex;
    asymmetry is reported as a validation failure.
    """
    if not complex_.graded:
        raise GradingError("alexander polynomial requires solved gradings")
    coeffs = {}
    for s in _alexander_support(complex_):
        h = hfk_hat(complex_, s)
        chi = 0
        for d in h.support():
            chi += h.free_rank(d) if d % 2 == 0 else -h.free_rank(d)
        if chi:
            coeffs[s] = chi
    for s, c in coeffs.items():
        if coeffs.get(-s, 0) != c:
            raise InvalidComplexError(
                [f"alexander polynomial asymmetric at t^{s}"])
    return LaurentPolynomial.from_dict(coeffs)


@memoized
def kernel_rank_v(complex_, s, depth=None):
    """Free rank of ker(v on homology), checked at two depths."""
    if depth is None:
        depth = truncation_depth(
            complex_, [(Region.max_ij(s), 0), (Region.min_i(), 0)])

    def at_depth(n):
        ind, ceiling = induced_v(complex_, s, n)
        return ind.kernel_rank(max_degree=ceiling)

    first = at_depth(depth)
    again = at_depth(2 * depth)
    if first != again:
        raise NotStabilizedError(
            f"kernel rank of v_{s} changed between depth {depth} "
            f"and {2 * depth}")
    return first
