"""Concrete realizations of the pieces A_t and their structure maps.

A knot complex stores one generator per U-orbit.  The translate (x, k)
sits at filtration (i_x + k, j_x + k) and grading m_x + 2k, U acts by
k -> k - 1, and cfk._unfold numbers the translates by integer keys.
Each finite piece of CFK^oo is a set of keys, with one translate rule
per generator: _k_range for A_t cut at top, _strip_range for the strip
S_t (_strip), k = -i for the {i = 0} column (cfk.column), and
cfk._restrict restricts d and U to any of them.

A piece is named by its t: A_t = C{max(i, j - t) >= 0} is upward
closed (a quotient complex), and realizing it keeps the translates in
A_t whose degree is at most a cut `top`.  Since the differential and
U both lower the degree, the kept part is the subcomplex of A_t
spanned by its elements of degree <= top, so its homology is exact in
every degree below top -- realizations record that trust ceiling,
top - 1.  B = C{i >= 0} is A_t for every t >= t_B = max_x (j_x - i_x):
there the first translate min(-i_x, t - j_x) of each x is -i_x, and
S_t is empty.  hf_plus realizes only the bottom A block of each cone;
every other A block is the residue of a strip, and B is never realized
(surgery.reduce_regions).  Neither hfk_hat nor kernel_rank_v realizes
a piece: a level of HFK-hat is a level of the column, and the kernel
of v on homology is the homology of the strip.

The two maps out of A_t both land in B.  A_t is B plus the finite
strip S_t = C{i < 0 <= j - t}, a subcomplex, and the vertical map v
is the quotient map by it, the identity on B's keys.  The horizontal
map h projects to C{j >= t}, slides down by U^t, and applies the flip;
when the flip only commutes with the differential up to a global sign,
h absorbs (-1)^m per generator, which restores the chain-map identity
without disturbing the involution.  surgery._key_table writes h on
integer keys, for the surgery cone.  band_floor is the one rule for
where truncated computations cut, worked out in closed form from the
generators' gradings and the blocks' offsets, with no retry.

Realizations and homology groups are built anew on every call and
never cached; genus, kernel_rank_v and surgery._reduce_strip keep
their results in cfk's memo.  Each knot-level invariant calls
require_valid, whose checks run once per knot (cfk.validate); beyond
that only what graded_homology reads is checked (GradedComplex): a
realization is a subquotient of a complex that require_valid checks.
"""

from __future__ import annotations

from collections import namedtuple

from .cfk import (_restrict, _unfold, column, flip_chain_sign, memoized,
                  require_valid)
from .errors import GradingError, InvalidComplexError
from .homology import GradedComplex, graded_homology


def _k_range(g, t, top):
    """The translates of g in A_t = C{max(i, j - t) >= 0}, degree <= top."""
    return range(min(-g.i, t - g.j), (top - g.m) // 2 + 1)


def _strip_range(g, t):
    """The translates t - j_g <= k < -i_g of g in S_t = C{i < 0 <= j - t}."""
    return range(t - g.j, -g.i)


def _strip(complex_, t):
    """(keys, degrees) of S_t (_strip_range); keys maps key to position."""
    index, G = _unfold(complex_)[0], len(complex_.generators)
    keys, degrees = {}, []
    for g in complex_.generators:
        for k in _strip_range(g, t):
            keys[index[g.name] + G * k] = len(degrees)
            degrees.append(g.m + 2 * k)
    return keys, degrees


def band_floor(complex_, blocks):
    """Least degree l from which truncated blocks have the tower alone.

    blocks are (t, grading offset) pairs of pieces A_t realized
    together, as the blocks of a surgery cone are (B is A_t at any
    t >= t_B).  With lo_x the first translate of x in A_t, a block
    holds every translate of CFK^oo in each degree from
    offset + max_x(m_x + 2 lo_x) up, so from l = max over blocks of
    (offset + max_x(m_x + 2 lo_x)) + 1 up each block has the homology
    of CFK^oo.  Assuming H(CFK^oo) =
    Z[U, U^-1], as for any knot in S^3 (validate does not check it), v
    and h are isomorphisms there, so a surgery cone is a zigzag of
    copies of Z[U, U^-1] joined by isomorphisms: its homology from l up
    is exactly the tower, and HF_red and the tower bottom lie below l.

    Cutting every block at degree l + 2 levels of the shared grading (a
    block with offset o at top l + 2 levels - o) keeps a subcomplex
    exact up to C = l + 2 levels - 1, and the band l..C holds exactly
    `levels` tower levels, whatever their parity.  A higher cut is
    exact the same way, and its band holds at least `levels`.
    """
    return max(offset + max(g.m + 2 * _k_range(g, t, 0).start
                            for g in complex_.generators)
               for t, offset in blocks) + 1


class RealizedRegion:
    """A_t of a knot complex, unfolded into a finite complex.

    Element n is ids[n] = (generator name, translate), with key keys[n]
    and degree degrees[n].  Elements come in degree order (ties by name,
    then translate), and boundary and u_action (cfk._restrict) lower
    it, so each degree cut is a prefix.  A_t is upward closed, so
    keeping its translates of degree <= top keeps a subcomplex, and
    ceiling = top - 1 bounds the degrees in which homology of the
    realization agrees with the untruncated A_t.  The lists are not
    checked (see the module docstring).
    """

    def __init__(self, source, t, top):
        if not source.graded:
            raise GradingError("realization requires solved gradings")
        self.source = source
        self.t = t
        unfolding = _unfold(source)
        index, G = unfolding[0], len(source.generators)
        elements = sorted((g.m + 2 * k, g.name, k)
                          for g in source.generators
                          for k in _k_range(g, t, top))
        self.degrees = [deg for deg, _, _ in elements]
        self.ids = [(name, k) for _, name, k in elements]
        self.keys = [index[name] + G * k for _, name, k in elements]
        self.boundary, self.u_action = _restrict(
            unfolding, {key: n for n, key in enumerate(self.keys)})
        self.ceiling = top - 1

    def __repr__(self):
        return (f"RealizedRegion({self.source.name or '?'}, "
                f"A_{self.t}, ceiling={self.ceiling}, "
                f"{len(self.ids)} elements)")


def realize(complex_, t, top):
    """A new RealizedRegion of A_t cut at degree top (not cached)."""
    return RealizedRegion(complex_, t, top)


def signed_flip(complex_):
    """The flip with the sign h applies: name -> (sign, image name).

    complex_ must carry a flip and pass require_valid, so that
    flip_chain_sign is +1 or -1, as in surgery.hf_plus, which checks
    both before it builds h.
    """
    eps = flip_chain_sign(complex_)
    signed = {}
    for g in complex_.generators:
        sgn, flipped = complex_.flip[g.name]
        signed[g.name] = (-sgn if eps < 0 and g.m % 2 else sgn, flipped)
    return signed


# ---------------------------------------------------------------------------
# knot-level invariants


def _valid_graded(complex_, what):
    """complex_, if it is graded (else GradingError) and require_valid."""
    if not complex_.graded:
        raise GradingError(f"{what} requires solved gradings")
    return require_valid(complex_)


def _hat(complex_, s):
    return graded_homology(column(complex_, {
        g.name: g.m - 2 * g.i
        for g in complex_.generators if g.j - g.i == s}))


def hfk_hat(complex_, s):
    """Hat knot Floer homology at Alexander grading s.

    The {i = 0} column (cfk.column) on the generators with j - i = s,
    which is the level (0, s), in degrees m - 2i.  An ungraded complex
    raises GradingError, an invalid one InvalidComplexError.
    """
    return _hat(_valid_graded(complex_, "hfk_hat"), s)


@memoized
def genus(complex_):
    """Top filtration level with nonzero hat homology (0 for the unknot)."""
    _valid_graded(complex_, "genus")
    best = None
    for s in sorted({g.j - g.i for g in complex_.generators}, reverse=True):
        if _hat(complex_, s).support():
            best = s
            break
    return max(best, 0) if best is not None else 0


class LaurentPolynomial(namedtuple("LaurentPolynomial", "coefficients")):
    """Integer Laurent polynomial, stored as sorted (exponent, coeff)."""

    __slots__ = ()

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

    The coefficient of t^s is the sum of (-1)^m over the generators
    with j - i = s: the Euler characteristic of that level's finite free
    complex (hfk_hat), which equals that of its homology.  Output is
    symmetric under s -> -s for any honest knot complex; asymmetry is
    reported as a validation failure.
    """
    _valid_graded(complex_, "alexander polynomial")
    coeffs = {}
    for g in complex_.generators:
        s = g.j - g.i
        coeffs[s] = coeffs.get(s, 0) + (1 if g.m % 2 == 0 else -1)
    coeffs = {s: c for s, c in sorted(coeffs.items()) if c}
    for s, c in coeffs.items():
        if coeffs.get(-s, 0) != c:
            raise InvalidComplexError(
                [f"alexander polynomial asymmetric at t^{s}"])
    return LaurentPolynomial.from_dict(coeffs)


@memoized
def kernel_rank_v(complex_, s):
    """Free rank of the kernel of v_s: H(A_s) -> H(B), read off a strip.

    S_s = C{i < 0 <= j - s} is the finite subcomplex of A_s that v
    quotients by, so 0 -> S_s -> A_s -> B -> 0 is exact.  When the
    {i = 0} column (cfk.column, in degrees m - 2i) has homology a
    single Z, as for any knot in S^3, H(B) is the tower and v_* is onto
    it, so the connecting map vanishes and ker v_* is H(S_s).  Any
    other column homology raises InvalidComplexError.  A term of d that
    leaves S_s (_strip) leaves A_s, so cfk._restrict may drop it.
    """
    _valid_graded(complex_, "kernel_rank_v")
    hat = graded_homology(column(complex_, {
        g.name: g.m - 2 * g.i for g in complex_.generators}))
    if list(hat.summary().values()) != [(1, ())]:
        raise InvalidComplexError([
            "v is onto only when the {i = 0} column has homology Z; it "
            f"has (free rank, torsion) {hat.summary()} by degree"])
    keys, degrees = _strip(complex_, s)
    boundary, _ = _restrict(_unfold(complex_), keys)
    return graded_homology(GradedComplex(degrees, boundary)).total_free_rank()
