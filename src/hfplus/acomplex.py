"""Concrete realizations of filtration regions and their structure maps.

A knot complex stores one generator per U-orbit; to compute anything
we unfold finitely many translates.  The translate (x, k) sits at
filtration (i_x + k, j_x + k) and grading m_x + 2k, and U acts by
k -> k - 1.  Every region is upward closed (a quotient complex), and
realizing one keeps the translates whose filtration lies in the region
and whose degree is at most a cut `top`.  Since the differential and U
both lower the degree, the kept part is the subcomplex of the region
complex spanned by its elements of degree <= top, so its homology is
exact in every degree below top -- realizations record that trust
ceiling, top - 1.  Their elements come in degree order, so a lower cut
is a prefix: an hf_plus call realizes only the bottom A block of each
cone, once per region, and cuts it as a prefix of its unit-cancelled
residue (surgery.reduce_regions).  The cone's other blocks are enumerated
key by key (surgery.MappingCone), so hf_plus never realizes B.

The two maps out of A_s = C{max(i, j-s) >= 0} both land in
B = C{i >= 0}: the vertical map is the evident projection, and the
horizontal one projects to C{j >= s}, slides down by U^s, and applies
the flip.  When the flip only commutes with the differential up to a
global sign, the horizontal map absorbs (-1)^m per generator, which
restores the chain-map identity without disturbing the involution.
So A_s is B plus the finite strip C{i < 0 <= j - s}, a subcomplex,
and v is the quotient map by it.  v_column and h_key define both maps
once, a key at a time (h_column puts h_key in a target's elements),
for map_v/map_h and the surgery cone alike.  band_floor is the one
rule for where truncated computations cut, worked out in closed form
from the generators' gradings and the blocks' offsets, with no retry.
hfk_hat needs no realization: a level of HFK-hat is a level of the
finite {i = 0} column, built by cfk.column.

Realizations and homology groups are built anew on every call and
never cached; results (genus, kernel_rank_v) go through cfk's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cfk import Region, column, flip_chain_sign, memoized
from .errors import (FlipMissingError, GradingError, InvalidComplexError,
                     NotStabilizedError)
from .homology import TOWER_LEVELS, ChainMap, GradedComplex, graded_homology


def _k_range(g, region, top):
    """The range of translates of g in the region, degree <= top."""
    return range(-region.level(g.i, g.j), (top - g.m) // 2 + 1)


def band_floor(complex_, blocks):
    """Least degree l from which truncated blocks have the tower alone.

    blocks are (region, grading offset) pairs of upward-closed regions
    realized together, as the blocks of a surgery cone are.  With lo_x
    the first translate of x in the region, a block holds every
    translate of CFK^oo in each degree from offset + max_x(m_x + 2 lo_x)
    up, so from l = max over blocks of (offset + max_x(m_x + 2 lo_x)) + 1
    up each block has the homology of CFK^oo.  Assuming H(CFK^oo) =
    Z[U, U^-1], as for any knot in S^3 (validate does not check it), v
    and h are isomorphisms there, so a surgery cone is a zigzag of
    copies of Z[U, U^-1] joined by isomorphisms: its homology from l up
    is exactly the tower, and HF_red and the tower bottom lie below l.

    Cutting every block at degree l + 2 levels of the shared grading (a
    block with offset o at top l + 2 levels - o) keeps a subcomplex
    exact up to C = l + 2 levels - 1, and the band l..C holds exactly
    `levels` tower levels, whatever their parity.
    """
    return max(offset + max(g.m + 2 * _k_range(g, region, 0).start
                            for g in complex_.generators)
               for region, offset in blocks) + 1


class RealizedRegion:
    """A region of a knot complex, unfolded into a finite complex.

    Element n is ids[n] = (generator name, translate), of degree
    degrees[n]; id_of inverts ids.  Elements come in degree order (ties
    by name, then translate), and boundary and u_action, column-sparse
    as in GradedComplex, lower it, so each degree cut is a prefix.  The
    region is upward closed, so keeping its translates of degree <= top
    keeps a subcomplex, and ceiling = top - 1 bounds the degrees in
    which homology of the realization agrees with the untruncated
    region.  The checked GradedComplex realization is built on first
    use.
    """

    def __init__(self, source, region, top):
        if not source.graded:
            raise GradingError("realization requires solved gradings")
        self.source = source
        self.region = region
        elements = sorted((g.m + 2 * k, g.name, k)
                          for g in source.generators
                          for k in _k_range(g, region, top))
        self.degrees = [deg for deg, _, _ in elements]
        self.ids = ids = [(name, k) for _, name, k in elements]
        self.id_of = id_of = {key: n for n, key in enumerate(ids)}
        self.ceiling = top - 1
        self.boundary = boundary = []
        self.u_action = u_action = []
        for name, k in ids:
            col = {}
            for t in source.differential.get(name, ()):
                tid = id_of.get((t.target, k - t.u_exponent))
                if tid is not None:
                    col[tid] = t.coefficient
            boundary.append(col)
            uid = id_of.get((name, k - 1))
            u_action.append({uid: 1} if uid is not None else {})

    @cached_property
    def realization(self):
        return GradedComplex(self.degrees, self.boundary, self.u_action,
                             labels=self.ids)

    def __repr__(self):
        return (f"RealizedRegion({self.source.name or '?'}, "
                f"{self.region.describe()}, ceiling={self.ceiling}, "
                f"{len(self.ids)} elements)")


def realize(complex_, region, top):
    """A new RealizedRegion of the region cut at degree top (not cached)."""
    return RealizedRegion(complex_, region, top)


def _homology(realized):
    return graded_homology(realized.realization, ceiling=realized.ceiling)


def region_homology(complex_, region, top):
    """(RealizedRegion, GradedGroup) for a region, both built anew."""
    realized = realize(complex_, region, top)
    return realized, _homology(realized)


def v_column(key, tgt):
    """Column of v: A_s -> B, the projection, at one key of A_s."""
    tid = tgt.id_of.get(key)
    return {} if tid is None else {tid: 1}


def v_columns(keys, tgt):
    """Columns of v on keys of A_s."""
    return [v_column(key, tgt) for key in keys]


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


def h_key(complex_, flip, s, key):
    """(sign, key of B) that h: A_s -> B sends a key of A_s to, or None.

    flip is from signed_flip.  h sends a key to at most one key.
    """
    name, k = key
    if complex_.by_name[name].j + k - s < 0:
        return None
    sgn, flipped = flip[name]
    return sgn, (flipped, k - s)


def h_column(complex_, flip, s, key, tgt):
    """Column of h: A_s -> B at one key of A_s, in tgt's elements."""
    image = h_key(complex_, flip, s, key)
    tid = None if image is None else tgt.id_of.get(image[1])
    return {} if tid is None else {tid: image[0]}


def h_columns(complex_, flip, s, keys, tgt):
    """Columns of h on keys of A_s."""
    return [h_column(complex_, flip, s, key, tgt) for key in keys]


def _a_and_b(complex_, s, top, b_top):
    """Realizations of A_s cut at top and B cut at b_top."""
    return (realize(complex_, Region.max_ij(s), top),
            realize(complex_, Region.min_i(), b_top))


def _v_map(src, tgt):
    return ChainMap(src.realization, tgt.realization,
                    v_columns(src.ids, tgt), shift=0)


def _h_map(complex_, s, src, tgt):
    cols = h_columns(complex_, signed_flip(complex_), s, src.ids, tgt)
    return ChainMap(src.realization, tgt.realization, cols, shift=-2 * s)


def map_v(complex_, s, top):
    """The projection A_s -> B, both cut at top, as a checked ChainMap."""
    return _v_map(*_a_and_b(complex_, s, top, top))


def map_h(complex_, s, top):
    """Project to {j >= s}, slide by U^s, flip: A_s -> B, shift -2s.

    A_s is cut at degree top and B at top - 2s, where h lands, so h is
    a chain map between the two truncations.
    """
    return _h_map(complex_, s, *_a_and_b(complex_, s, top, top - 2 * s))


def induced_v(complex_, s, top):
    """(InducedMap of v, trusted source-degree ceiling top - 1)."""
    src, tgt = _a_and_b(complex_, s, top, top)
    return (_v_map(src, tgt).induced(_homology(src), _homology(tgt)),
            src.ceiling)


def induced_h(complex_, s, top):
    """(InducedMap of h, trusted source-degree ceiling top - 1)."""
    src, tgt = _a_and_b(complex_, s, top, top - 2 * s)
    hmap = _h_map(complex_, s, src, tgt)
    return hmap.induced(_homology(src), _homology(tgt)), src.ceiling


# ---------------------------------------------------------------------------
# knot-level invariants


def hfk_hat(complex_, s):
    """Hat knot Floer homology at Alexander grading s.

    The {i = 0} column (cfk.column) on the generators with j - i = s,
    which is the level (0, s), in degrees m - 2i.  An ungraded complex
    puts every element in degree 0, which is enough for ranks when the
    level carries no arrow.
    """
    graded = complex_.graded
    return graded_homology(column(complex_, {
        g.name: g.m - 2 * g.i if graded else 0
        for g in complex_.generators if g.j - g.i == s}, check=graded))


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
def kernel_rank_v(complex_, s):
    """Free rank of ker(v_s on homology), checked at two cuts.

    A_s and B are cut at band_floor + 2 levels for TOWER_LEVELS and
    2 TOWER_LEVELS levels; the kernel lies below the band, so both
    cuts must agree.
    """
    floor = band_floor(complex_, [(Region.max_ij(s), 0),
                                  (Region.min_i(), 0)])

    def at_levels(levels):
        ind, ceiling = induced_v(complex_, s, floor + 2 * levels)
        return ind.kernel_rank(max_degree=ceiling)

    first = at_levels(TOWER_LEVELS)
    again = at_levels(2 * TOWER_LEVELS)
    if first != again:
        raise NotStabilizedError(
            f"kernel rank of v_{s} changed between {TOWER_LEVELS} and "
            f"{2 * TOWER_LEVELS} tower levels")
    return first
