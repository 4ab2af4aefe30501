"""HF+ of rational surgery from a truncated mapping cone.

For a slope p/q > 0 and a residue i mod p, the cone X+ of
Ozsvath-Szabo (arXiv:math/0504404) has one A-summand (the realization
of A_{t(s)} with t(s) = floor((i+ps)/q)) for each s in [-sigma, sigma]
and one B-summand for s in (-sigma, sigma]; the connecting
differential sends a_s to v(a_s) in B_s plus h(a_s) in B_{s+1}.
Outside the window the omitted maps are isomorphisms on homology,
which is what truncation_sigma guarantees, so the finite cone computes
the surgery.

The window's end blocks cancel as well, and are never built
(_cone_blocks).  With g the genus, v: A_t -> B is a quasi-isomorphism
once t >= g, and h is one once t <= -g.  When every generator has
|j - i| <= g both are chain isomorphisms: A_t is B itself for t >= g,
and for t <= -g it is C{j >= t}, which h maps onto B by U^t and the
flip.  While more than one A block is left, the top A_s with
t(s) >= g joins only B_s inside the window, so A_s + B_s is an acyclic
subcomplex, and the quotient by it is the cone without that pair; the
same holds for the bottom A_s with t(s) <= -g and B_{s+1}.  Dropping
such pairs from both ends is exact over Z and commutes with U, and the
cone that is left is then cut in degree as below; the offsets stay
pinned at -sigma.  For a large slope one A block is left and the cone
is H(A_t) (compare Ni-Wu, arXiv:1009.4720).

Every kept block is cut at one absolute cone degree top, at least
acomplex.band_floor over the kept blocks plus two per tower level
read, so the kept elements span a subcomplex whose homology is exact
below the cut.  Of these only residues are built, each in one format
(_residue), and MappingCone lays them all out in one loop:

* the bottom block A_lo, the whole residue of A_t, t = t(lo).  An
  hf_plus call cuts every cone whose bottom block has the same t at
  one degree of A_t, the largest any of them needs, and realizes and
  reduces A_t once by unit cancellation (reduce_regions), carrying,
  when a cone joins it to a B block, its h columns and the U terms
  into B_{lo+1} along as integer keys of B;
* for every other A_s, t = t(s), the residue of the strip
  S_t = C{i < 0 <= j - t}: v: A_s -> B is the quotient map, the
  identity on the copy of B inside A_s, and its kernel is this finite
  subcomplex.  It lies below the cut: top is at least 2 depth above
  off_B(s) + m - 2i, the cone degree of each generator's first
  translate in the kept B_s, and the strip's translates, at i <= -1
  in A_s, lie below that.  A strip depends on the knot and t alone, so
  each S_t is reduced once, into the memo, for every call (_reduce_strip).

Every element b of B_s is v(p), with coefficient 1, for the same key p
in A_s's copy of B, and all these pairs are cancelled at once
(algebraic Morse theory, Skoldberg; Joellenbeck-Welker).  B_s sits one
degree lower than A_s in the cone, so when b has cone degree top, p
has degree top + 1.  Taking these p into the kept set as well leaves a
subcomplex that still holds every element of degree <= top, so its
homology is still exact below the cut, and every element of B_s is
matched.  No element of degree <= top reaches one of the new pairs (d,
v, h and U lower the degree), so no other column changes, and the
cone holds no element of B at all.  Each strip's own unit pairs are
cancelled first; these are elementary reductions of the whole cone,
since only S_t and the copy of B in A_s map into S_t, and d leaves S_t
only through h.  After them an arrow out of a matched p goes to the
strip's residue, to the copy of B in A_s (matched sources, which add
nothing) or into B_{s+1}, so every zigzag k -> b <- p -> b' <- p' ...
climbs one block per step, and the matching is acyclic.  The cone is
the residues joined by the perturbed maps (the homological
perturbation lemma; Crainic, arXiv:math/0403266), which
MappingCone._join sums by sweeping frontiers of keys of B upward; a
frontier drops a key from which h can no longer reach a key that
meets a strip, as the steps it skips add nothing.  B is never
realized.  Each cone is the one complex checked (its pieces A_t and
strips are subquotients of a source require_valid checks), then shrunk
in place by cancelling any +-1 pairs left between its blocks
(GradedComplex.cancel_units); the Smith normal form and the tower
split run on that residue only.

Grading bookkeeping happens in two separate steps, both exact:

* relative offsets, one integer per summand, chosen so every
  component of the cone differential drops the total grading by 1.
  These are pinned by off_A(-sigma) = 0, whether or not A_{-sigma} is
  built, and depend only on (p, q, i, sigma), never on the knot.

* an absolute shift per (p, q, i, sigma), in closed form: the
  unknot's cone at that shape would have its tower bottom at
  min_s off_A(s) + 2 min(0, t(s)) over the whole window, which is
  off_A(0) (_calibration_shift), and must sit at the lens-space
  d-invariant.  Because the B-offsets do not depend on the knot, the
  same shift is valid for every input at that shape.

Degrees stay integers throughout the computation; the (possibly
fractional) calibration shift is applied only when results are
assembled.  Negative slopes are computed on the dual complex and
reported with orientation "reversed": d and the HF_red degrees are
transported by orientation-reversal duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .acomplex import _strip, band_floor, genus, realize, signed_flip
from .cfk import _restrict, _unfold, memoized, mirror, require_valid
from .errors import (FlipMissingError, GradingError, NotStabilizedError,
                     TorsionInTowerError)
from .homology import (TOWER_LEVELS, GradedComplex, _add,
                       cancel_unit_pairs, graded_homology, tower_decompose)


@dataclass(frozen=True)
class SurgeryDescriptor:
    """Shape of one truncated cone: slope, residue, window, depth.

    The cone holds at least depth tower levels above the band floor.
    """

    p: int
    q: int
    spin_c: int
    sigma: int
    depth: int

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("descriptor requires p, q > 0")
        if gcd(self.p, self.q) != 1:
            raise ValueError("slope must be in lowest terms")
        if not 0 <= self.spin_c < self.p:
            raise ValueError("spin_c index out of range")
        if self.sigma < 1 or self.depth < 1:
            raise ValueError("sigma and depth must be positive")

    def t(self, s):
        """Index of the A-summand at position s: floor((i + ps) / q)."""
        return (self.spin_c + self.p * s) // self.q


def truncation_sigma(complex_, p, q, i):
    """Smallest window half-width that only discards isomorphisms.

    Beyond the window every omitted vertical map has index >= genus
    and every omitted horizontal map has index <= -genus; both floor
    expressions are monotone in s, so checking s = sigma + 1 suffices.
    The cone built is often narrower (_cone_blocks cancels its end
    pairs); sigma still pins the offsets, at -sigma, and is reported
    as provenance.
    """
    if p <= 0 or q <= 0:
        raise ValueError("truncation_sigma requires p, q > 0")
    g = genus(complex_)
    sigma = 1
    while not ((i + p * (sigma + 1)) // q >= g
               and (i - p * (sigma + 1)) // q <= -g):
        sigma += 1
    return sigma


def _cone_offsets(descriptor):
    """{s: grading offset of A_s} over the window; B_s sits one below A_s."""
    off_a = {-descriptor.sigma: 0}
    for s in range(-descriptor.sigma, descriptor.sigma):
        off_a[s + 1] = off_a[s] + 2 * descriptor.t(s)
    return off_a


def _cone_blocks(descriptor, g):
    """(s, t(s), grading offset) of each A block built.

    The window's end pairs cancel for a knot of genus g: while more
    than one A block is left, (A_s, B_s) goes while the top A_s has
    t(s) >= g, then (A_s, B_{s+1}) while the bottom one has t(s) <= -g.
    Of the B blocks, each B_s with s above the bottom is kept, at the
    offset of A_s less one; none is listed.
    """
    d = descriptor
    lo, hi = -d.sigma, d.sigma
    while lo < hi and d.t(hi) >= g:
        hi -= 1
    while lo < hi and d.t(lo) <= -g:
        lo += 1
    off_a = _cone_offsets(d)
    return [(s, d.t(s), off_a[s]) for s in range(lo, hi + 1)]


def _cone_shape(source, descriptor, g, t_b, floors):
    """The kept A blocks and the least cone degree l + 2 depth to cut at.

    band_floor over the kept blocks is the largest of offset plus
    band_floor of the block's piece alone: A_t for each A block, and
    B = A_{t_b}, one below, for each B_s it implies.  floors holds the
    latter once per t.
    """
    blocks = _cone_blocks(descriptor, g)
    pieces = [(t, offset) for _, t, offset in blocks]
    pieces += [(t_b, offset - 1) for _, _, offset in blocks[1:]]
    for t, _ in pieces:
        if t not in floors:
            floors[t] = band_floor(source, [(t, 0)])
    top = (max(floors[t] + offset for t, offset in pieces)
           + 2 * descriptor.depth)
    return blocks, top


@memoized
def _key_table(source):
    """(hop, in_b): h on cfk._unfold's keys, one entry per generator.

    h_t: A_t -> B sends a key of generator n to key + hop[n][1] - G t,
    with sign hop[n][0], when key >= hop[n][2] + G t, i.e. j + k >= t,
    and to 0 otherwise; the sign and image are signed_flip's.  A key of
    generator n lies in B when key >= in_b[n], and there
    h_t^-1 key = key + hop[n][1] + G t: validate requires the flip to
    be an involution, so hop's offset of flip(n) undoes that of n.
    """
    index, G = _unfold(source)[0], len(source.generators)
    flip = signed_flip(source)
    hop, in_b = [None] * G, [0] * G
    for g in source.generators:
        n, (sgn, flipped) = index[g.name], flip[g.name]
        hop[n] = (sgn, index[flipped] - n, n - G * g.j)
        in_b[n] = n - G * g.i
    return hop, in_b


def _h_columns(source, columns, t):
    """h_t of each key in columns: {image key: sign}, or {} if j + k < t."""
    hop = _key_table(source)[0]
    G, shift = len(hop), len(hop) * t
    out = []
    for key in columns:
        sgn, off, floor = hop[key % G]
        out.append({key + off - shift: sgn} if key >= floor + shift else {})
    return out


def _residue(ids, degrees, boundary, u_action, carried, incoming=()):
    """(ids, degrees, boundary, u_action, f, g, incoming) of a piece reduced.

    The piece is one block of a cone, with elements ids of the given
    degrees; boundary and u_action hold its columns, then one for each
    key of incoming, and carried = (f, g) its d and U terms in B as
    keys of _key_table, or None when no cone joins it.
    cancel_unit_pairs reduces it in place: the residue keeps d, U, f
    and g (pi U iota outside the piece) of each element left, f and g
    None without carried, and incoming maps each key to its own four.
    """
    keep = cancel_unit_pairs(degrees, boundary, u_action, carried)
    f, g = carried or (None, None)
    r = len(keep)
    table = {}
    if incoming:
        table = dict(zip(incoming, zip(boundary[r:], u_action[r:], f[r:],
                                       g[r:])))
    return ([ids[j] for j in keep], degrees, boundary[:r], u_action[:r],
            f and f[:r], g and g[:r], table)


@memoized
def _reduce_strip(source, t):
    """The residue (_residue) of S_t.

    The strip is acomplex._strip's, unchecked (require_valid checks the
    source).  Its columns, and an incoming one (cancel_unit_pairs) for
    each key p of B whose d or U meets it, hold d and U on the strip
    (cfk._restrict) and f = h_t as keys of B, as a joined bottom
    block's do.  Memoized: every cone that holds S_t reads it, and none
    changes it.
    """
    unfolding = _unfold(source)
    index, arrows, into = unfolding
    G, names = len(arrows), list(index)
    strip, degrees = _strip(source, t)
    hit = {key + off for key in strip for off in into[key % G]}
    hit.update(key + G for key in strip)
    incoming = [key for key in hit if key not in strip]
    columns = [*strip, *incoming]
    boundary, u_action = _restrict(unfolding, strip, columns)
    return _residue([(names[key % G], key // G) for key in strip], degrees,
                    boundary, u_action,
                    (_h_columns(source, columns, t), [{} for _ in columns]),
                    incoming)


def reduce_regions(source, descriptors):
    """(shapes, residues) of the cones of descriptors.

    shapes maps each descriptor to its kept A blocks (_cone_blocks) and
    the cone degree top they are cut at.  Every cone whose bottom block
    A_lo has the same t is cut at one degree of A_t, the largest any of
    them needs (_cone_shape), so each cone's top is at least l + 2 depth
    and it holds at least depth tower levels (acomplex.band_floor, with
    B = A_t at t_B = max(j - i), computed once per call).  residues
    maps that t to the residue (_residue) of A_t, realized once at its
    cut, unchecked, which is then the whole bottom block of each of
    those cones; no other block is realized.  When A_t is the
    bottom of a cone with more than one A block, its f is its h columns
    into B; nothing maps into A_lo, so this is a strong deformation
    retract of the whole cone.  Every other kept A block is a strip,
    which the cone reads from the memo (_reduce_strip).  source must
    pass require_valid.
    """
    if not source.graded:
        raise GradingError("surgery requires solved gradings")
    knot_genus = genus(source)
    t_b = max(g.j - g.i for g in source.generators)
    floors = {}
    shapes = {d: _cone_shape(source, d, knot_genus, t_b, floors)
              for d in descriptors}
    cuts, joined = {}, set()
    for blocks, top in shapes.values():
        _, t, offset = blocks[0]
        cuts[t] = max(cuts.get(t, top - offset), top - offset)
        if len(blocks) > 1:
            joined.add(t)
    shapes = {d: (blocks, cuts[blocks[0][1]] + blocks[0][2])
              for d, (blocks, _) in shapes.items()}
    residues = {}
    for t, cut in cuts.items():
        real = realize(source, t, cut)
        carried = None
        if t in joined:
            carried = (_h_columns(source, real.keys, t),
                       [{} for _ in real.ids])
        residues[t] = _residue(real.ids, real.degrees, real.boundary,
                               real.u_action, carried)
    return shapes, residues


def _shifted(columns, base):
    """Copies of columns with each row index moved up by base."""
    if not base:
        return [dict(col) for col in columns]
    return [{base + i: c for i, c in col.items()} for col in columns]


class MappingCone:
    """The assembled truncated cone, reduced, as one graded U-complex.

    The kept A blocks (s, t, grading offset) are A_s for lo <= s <= hi
    (_cone_blocks), and each B_s with lo < s <= hi is implied at the
    offset of A_s less one; all are cut at cone degree ceiling + 1 =
    top, at least l + 2 depth with l from acomplex.band_floor over them,
    so the cone holds at least depth tower levels; n_a_summands and
    n_b_summands count them.  Each A block is laid out from one residue
    (_residue): the bottom block A_lo from that of A_t(lo), and every
    other A_s from that of its strip S_t, t = t(s), reduced whole
    (_reduce_strip).  No element of any B_s is left: each is v of the
    same key of the copy of B inside A_s, and is cancelled against it,
    also at degree top (see the module docstring).  Labels are ("A", s,
    generator name, translate).  The source must pass require_valid,
    as hf_plus ensures.  The cone is the one GradedComplex built: its
    check that the total differential squares to zero, commutes with
    U, and drops the (offset) grading by exactly one on every component
    is the library's one check on the maps that join the residues.
    regions is what reduce_regions returned for a list of descriptors
    that holds this one; without it, this one cone's bottom block is
    reduced first, at this cone's own least cut.  chain_steps counts
    the keys the Morse chains visited (_join).
    """

    def __init__(self, source, descriptor, regions=None):
        shapes, residues = (regions if regions is not None
                            else reduce_regions(source, [descriptor]))
        self.source = source
        self.descriptor = descriptor
        blocks, top = shapes[descriptor]
        G = len(source.generators)
        ids, degrees, boundary, u_cols = [], [], [], []
        levels, sweeps = {}, []
        for n, (s, t, offset) in enumerate(blocks):
            res_ids, res_degrees, res_d, res_u, f, g, table = (
                _reduce_strip(source, t) if n else residues[t])
            base, label = len(ids), ("A", s)
            levels[s] = G * t, base, table
            sweeps.append((s + 1, f, g))
            ids += [label + key for key in res_ids]
            degrees += [deg + offset for deg in res_degrees]
            boundary += _shifted(res_d, base)
            u_cols += _shifted(res_u, base)
        self.chain_steps = 0
        if len(blocks) > 1:
            self.chain_steps = self._join(levels, sweeps, boundary, u_cols)
        self.ceiling = top - 1
        self.complex = GradedComplex(degrees, boundary, u_cols, labels=ids)
        self.ids = ids
        self.n_a_summands = len(blocks)
        self.n_b_summands = len(blocks) - 1

    def _join(self, levels, sweeps, boundary, u_cols):
        """Add to the laid-out columns what cancelling all of B gives.

        levels maps each s to (G t(s), the index of A_s's first column,
        its residue's incoming table), and sweeps lists, in column order,
        each block's f (its d) and g (its U) in B_{s+1}, as keys of
        _key_table; residues read from the memo are never changed
        (_reduce_strip).  Cancelling b = v(p) against the same key p of
        A_{s+1} (v has coefficient 1) turns a term b of d or U into -b
        times the rest of d p, so f and g start two frontiers of terms
        in B, the d frontier and the U frontier, swept upward block by
        block.  A key with term b in S_t(s)'s incoming table enters with
        c = -b: on the d frontier it adds c times its reduced d to the
        column and c times its reduced U to the U column, and passes c f
        and c g on as terms in B_{s+1}; on the U frontier it adds c times
        its reduced d to the U column and passes c f on.  Any other key
        meets no strip, so the rest of its d is h_s of it alone, which
        it passes on.  Returns the number of keys the frontiers visited.

        A frontier drops a key that is not live.  live[s] holds the keys
        in S_t(s)'s incoming table, and every key that h_s sends into
        live[s + 1].  h_s lands in B, and on B h_s^-1 (y, k) =
        (flip^-1 y, k + t(s)): validate requires the flip to be an
        involution that swaps i and j.  A key outside live[s] adds
        nothing at s and h_s moves it outside live[s + 1], so no later
        step adds anything for it either, and the cone is the same as
        with every frontier swept to the top.
        """
        G = len(self.source.generators)
        hop, in_b = _key_table(self.source)
        lo, hi = min(levels), max(levels)
        live, after = {}, set()
        for s in range(hi, lo, -1):
            shift, _, table = levels[s]
            alive = set(table)
            alive.update(key + hop[key % G][1] + shift for key in after
                         if key >= in_b[key % G])
            live[s] = after = alive

        def sweep(s, d_terms, u_terms, col, ucol):
            steps = 0
            while s <= hi and (d_terms or u_terms):
                shift, base, table = levels[s]
                alive = live[s]
                d_up, u_up = {}, {}
                for terms, out, up in ((d_terms, col, d_up),
                                       (u_terms, ucol, u_up)):
                    for key, b in terms.items():
                        if key not in alive:
                            continue
                        steps += 1
                        entry = table.get(key)
                        if entry is None:
                            sgn, off, floor = hop[key % G]
                            if key >= floor + shift:
                                _add(up, key + off - shift, -b * sgn)
                            continue
                        d_in, u_in, f_in, g_in = entry
                        for i, v in d_in.items():
                            _add(out, base + i, -b * v)
                        for image, v in f_in.items():
                            _add(up, image, -b * v)
                        if up is d_up:
                            for i, v in u_in.items():
                                _add(ucol, base + i, -b * v)
                            for image, v in g_in.items():
                                _add(u_up, image, -b * v)
                d_terms, u_terms = d_up, u_up
                s += 1
            return steps

        steps, j = 0, 0
        for s, fs, gs in sweeps:
            alive = live.get(s, frozenset())
            for f, g in zip(fs, gs):
                if not (alive.isdisjoint(f) and alive.isdisjoint(g)):
                    steps += sweep(s, f, g, boundary[j], u_cols[j])
                j += 1
        return steps


def build_mapping_cone(complex_, descriptor, regions=None):
    """MappingCone; complex_ must pass require_valid, as in hf_plus."""
    return MappingCone(complex_, descriptor, regions)


# ---------------------------------------------------------------------------
# absolute gradings


def lens_d_oracle(p, q, i):
    """Correction term of p/q surgery on the unknot at residue i.

    The classical recursion: d(1, 0, 0) = 0 and
    d(p, q, i) = ((2i+1-p-q)^2 - pq) / 4pq - d(q, p mod q, i mod q).
    Exact rationals; arguments must be coprime with 0 <= i < p.  The
    surgery pipeline pins every cone's absolute grading to it; the
    tests check it against the unknot's own cones.
    """
    if p < 1 or q < 0 or (q == 0 and p != 1):
        raise ValueError("lens_d_oracle needs p >= 1, q >= 1")
    if not 0 <= i < p:
        raise ValueError("residue out of range")
    if p == 1:
        return Fraction(0)
    if gcd(p, q) != 1:
        raise ValueError("lens_d_oracle needs gcd(p, q) = 1")
    num = (2 * i + 1 - p - q) ** 2 - p * q
    return Fraction(num, 4 * p * q) - lens_d_oracle(q, p % q, i % q)


def _cone_data(complex_, descriptor, regions=None):
    """(relative tower bottom, relative reduced summary) for one cone."""
    cone = build_mapping_cone(complex_, descriptor, regions)
    cone.complex.cancel_units()
    h = graded_homology(cone.complex, ceiling=cone.ceiling)
    tower = tower_decompose(h)
    return tower.d_bottom, tower.reduced


def _calibration_shift(descriptor):
    """Absolute-grading shift for every cone of this shape.

    The unknot's cone has no reduced part and its tower bottom belongs
    at lens_d_oracle(p, q, i).  Its translates (a, k) sit at (k, k) in
    grading 2k; A_t = C{max(i, j - t) >= 0} keeps k >= min(0, t), so
    H(A_t) is one tower with bottom b(t) = 2 min(0, t), and the cone's
    is min_s off_A(s) + b(t(s)), never depending on the depth: Ni-Wu
    (arXiv:1009.4720, Prop. 1.6) in cone coordinates with V = 0.  That
    minimum is off_A(0): since 0 <= i < p, t(s) < 0 exactly when s < 0,
    so off_A(s + 1) = off_A(s) + 2 t(s) falls up to s = 0 and never
    after, and the term at s is off_A(s + 1) for s < 0, off_A(s) after.
    """
    return (lens_d_oracle(descriptor.p, descriptor.q, descriptor.spin_c)
            - _cone_offsets(descriptor)[0])


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class SpincResult:
    """Invariants of one Spin^c structure of the surgered manifold.

    hf_red lists (degree, free rank, torsion factors) with exact
    rational degrees; parity is the (even, odd) rank split relative
    to the tower bottom d.
    """

    index: int
    d: Fraction
    hf_red: tuple
    parity: tuple
    sigma: int

    @property
    def total_reduced_rank(self):
        return sum(rank for _, rank, _ in self.hf_red)

    def profile(self):
        """Grading data with the provenance (sigma) left out."""
        return (self.d, self.hf_red)


@dataclass(frozen=True)
class HFResult:
    """HF+ of a surgery, split by Spin^c structure."""

    p: int
    q: int
    orientation: str
    spin_c: tuple

    @property
    def slope(self):
        return Fraction(self.p, self.q)

    @property
    def total_reduced_rank(self):
        return sum(r.total_reduced_rank for r in self.spin_c)

    def d_values(self):
        return [r.d for r in self.spin_c]

    def comparable(self):
        """Everything except provenance (sigma) and timing."""
        return (self.p, self.q, self.orientation,
                tuple((r.index, r.d, r.hf_red, r.parity)
                      for r in self.spin_c))


def conjugation_constant(result):
    """A constant c with profile(i) = profile(c - i mod p), if any.

    Spin^c conjugation acts on the residue labels by an affine
    reflection; which one depends on conventions, so we search.
    Returns None when no reflection matches (which would falsify the
    conjugation symmetry of the computation).
    """
    p = abs(result.p)
    profiles = {r.index: r.profile() for r in result.spin_c}
    for c in range(p):
        if all(profiles[i] == profiles[(c - i) % p] for i in range(p)):
            return c
    return None


def _spin_c_result(complex_, descriptor, regions=None):
    p, q, i, sigma = (descriptor.p, descriptor.q, descriptor.spin_c,
                      descriptor.sigma)
    try:
        bottom, reduced = _cone_data(complex_, descriptor, regions)
    except (NotStabilizedError, TorsionInTowerError) as exc:
        raise type(exc)(f"{p}/{q} surgery, Spin^c {i}, sigma {sigma}, "
                        f"depth {descriptor.depth}: {exc}") from exc
    shift = _calibration_shift(descriptor)
    d = bottom + shift
    red = tuple((deg + shift, rank, torsion)
                for deg, (rank, torsion) in reduced)
    even = sum(rank for deg, (rank, _) in reduced if (deg - bottom) % 2 == 0)
    odd = sum(rank for deg, (rank, _) in reduced if (deg - bottom) % 2 == 1)
    return SpincResult(index=i, d=d, hf_red=red, parity=(even, odd),
                       sigma=sigma)


def _reverse_orientation(r):
    """The SpincResult of -Y, given that of Y.

    d(-Y) = -d(Y).  For HF_red, HF+_k(-Y) = HF_-^{-k-2}(Y), the
    cohomology of CF-(Y) (arXiv:math/0110170, Prop. 2.5), and the
    connecting map delta gives HF+_red,m(Y) = HF-_red,m-1(Y).  By
    universal coefficients H^j has the free part of H_j and the
    torsion of H_{j-1}.  So the free part of a record in degree m lands
    in H^{m-1}, hence in degree -m - 1 of -Y, and its torsion lands in
    H^m, hence in degree -m - 2.  Records meeting in one degree merge.
    Every free degree moves by an odd amount relative to d, so parity
    swaps.
    """
    merged = {}
    for m, rank, torsion in r.hf_red:
        for deg, rk, tor in ((-m - 1, rank, ()), (-m - 2, 0, torsion)):
            if rk or tor:
                old_rk, old_tor = merged.get(deg, (0, ()))
                merged[deg] = (old_rk + rk, tuple(sorted(old_tor + tor)))
    red = tuple((deg, rk, tor) for deg, (rk, tor) in sorted(merged.items()))
    return SpincResult(index=r.index, d=-r.d, hf_red=red,
                       parity=r.parity[::-1], sigma=r.sigma)


@memoized
def hf_plus(complex_, p, q):
    """HF+ of p/q surgery, one SpincResult per residue class.

    Each Spin^c structure's window is truncation_sigma wide; the
    bottom blocks of the cones' kept blocks (_cone_blocks cancels the
    end pairs) are reduced together for every Spin^c structure, each at
    one cut (reduce_regions), then each Spin^c structure builds one cone
    from them and the knot's strips in the memo (_reduce_strip),
    holding at least TOWER_LEVELS tower levels above its band floor
    (see MappingCone), which is what tower_decompose reads.
    Each result records sigma as provenance: the window the offsets
    are pinned in, not the number of blocks built.  A failed tower
    check raises its error type again, naming the slope, Spin^c index,
    sigma and depth.

    Negative p is computed on the mirror complex, since
    S^3_{-p/q}(K) = -S^3_{p/q}(mirror K).  The result carries
    orientation="reversed", with d negated, each reduced record
    (m, rank, torsion) of the mirror computation moved to rank in
    degree -m - 1 and torsion in degree -m - 2, and parity swapped
    (derivation in _reverse_orientation); a failed tower check names
    the slope asked for and says the cone was built on the mirror.
    """
    if q <= 0:
        raise ValueError("q must be a positive integer")
    if p == 0:
        raise ValueError("slope must be nonzero")
    if gcd(abs(p), q) != 1:
        raise ValueError("slope must be in lowest terms")
    if p < 0:
        try:
            inner = hf_plus(mirror(complex_), -p, q)
        except (NotStabilizedError, TorsionInTowerError) as exc:
            raise type(exc)(f"{p}/{q} surgery, cone built on the mirror: "
                            f"{exc}") from exc
        return HFResult(p=p, q=q, orientation="reversed",
                        spin_c=tuple(map(_reverse_orientation,
                                         inner.spin_c)))
    if not complex_.graded:
        raise GradingError("surgery requires solved gradings")
    if complex_.flip is None:
        raise FlipMissingError("surgery requires flip data")
    require_valid(complex_)
    descriptors = [
        SurgeryDescriptor(p, q, i, truncation_sigma(complex_, p, q, i),
                          TOWER_LEVELS)
        for i in range(p)]
    regions = reduce_regions(complex_, descriptors)
    per_index = [_spin_c_result(complex_, d, regions)
                 for d in descriptors]
    return HFResult(p=p, q=q, orientation="standard",
                    spin_c=tuple(per_index))
