"""Finite models of doubly-filtered knot chain complexes.

A knot complex here is a finite list of generators, each carrying a
plane filtration (i, j) and (eventually) a Maslov grading, together
with a differential recorded over Z[U].  An arrow x -> c*U^n*y is
subject to the filtration axiom (i_y - n, j_y - n) <= (i_x, j_x) and,
once gradings are assigned, to m_y - 2n = m_x - 1.  The whole complex
represents the usual Z ⊕ Z filtered object over Z[U, U^{-1}]; we only
ever store one generator per U-orbit, and _unfold numbers the
translates by integer keys, to which _restrict restricts d and U.

Complexes may also carry a "flip": the distinguished involution that
exchanges the two filtration directions.  It is data, not something we
try to compute, because the horizontal maps of the surgery formula are
only canonical once a specific equivalence is chosen.  Validation
checks that a supplied flip is an involution, swaps (i,j), preserves
the grading, and is a chain map up to one global sign.

Gradings of the bundled examples are not hard-coded; grading_solve
derives them from the arrow constraints and pins the free constant
with the {i = 0} column (built by column()): its homology is
HF-hat(S^3) = Z, and that Z sits at the bottom of the tower of
C{i >= 0}, which goes in grading 0.  A component whose column homology
is torsion only needs a seed.
"""

from __future__ import annotations

import hashlib
import inspect
import re
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, wraps

from .errors import GradingError, InvalidComplexError, ParseError
from .homology import GradedComplex, graded_homology

BUILTIN_NAMES = ("unknot", "trefoil_right", "trefoil_left", "figure_eight",
                 "torus_2_5")


@dataclass(frozen=True)
class Generator:
    name: str
    i: int
    j: int
    m: "int | None" = None  # Maslov grading; None until solved


@dataclass(frozen=True)
class UTerm:
    coefficient: int
    u_exponent: int
    target: str


def _normalize_terms(terms):
    acc = {}
    for t in terms:
        key = (t.target, t.u_exponent)
        acc[key] = acc.get(key, 0) + t.coefficient
    out = []
    for (target, n), c in sorted(acc.items()):
        if c:
            out.append(UTerm(c, n, target))
    return tuple(out)


class KnotComplex:
    """Immutable container for a doubly-filtered complex.

    differential maps a generator name to a tuple of UTerms (combined,
    sorted, zero terms dropped); flip maps a name to (sign, name) or is
    None when no flip data was supplied.
    """

    def __init__(self, generators, differential=None, flip=None, name=None):
        self.generators = tuple(
            g if isinstance(g, Generator) else Generator(*g)
            for g in generators)
        diff = {}
        for key, terms in (differential or {}).items():
            diff[key] = _normalize_terms(
                t if isinstance(t, UTerm) else UTerm(*t) for t in terms)
        for g in self.generators:
            diff.setdefault(g.name, ())
        self.differential = diff
        self.flip = None if flip is None else {
            k: (int(s), t) for k, (s, t) in flip.items()}
        self.name = name
        self.by_name = {}
        for g in self.generators:
            # duplicates are reported by validate(); keep the first
            self.by_name.setdefault(g.name, g)

    # -- identity ---------------------------------------------------------

    @cached_property
    def _content(self):
        gens = tuple(sorted((g.name, g.i, g.j, g.m) for g in self.generators))
        # an empty entry is content only where validate reports it: for
        # a name that is no generator
        diff = tuple(sorted(
            (k, tuple((t.target, t.u_exponent, t.coefficient) for t in v))
            for k, v in self.differential.items()
            if v or k not in self.by_name))
        flip = (None if self.flip is None
                else tuple(sorted((k, s, t) for k, (s, t) in self.flip.items())))
        return gens, diff, flip

    @cached_property
    def _digest(self):
        return hashlib.sha256(repr(self._content).encode()).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, KnotComplex):
            return NotImplemented
        return self._content == other._content

    def __hash__(self):
        return hash(self._digest)

    def content_key(self):
        """Stable hex digest of the mathematical content (name ignored)."""
        return self._digest

    def __repr__(self):
        label = self.name or "?"
        return (f"KnotComplex({label!r}, {len(self.generators)} generators, "
                f"{sum(len(v) for v in self.differential.values())} arrows)")

    # -- basic views ------------------------------------------------------

    @property
    def graded(self):
        return all(g.m is not None for g in self.generators)

    def with_gradings(self, m_by_name):
        gens = [Generator(g.name, g.i, g.j, m_by_name[g.name])
                for g in self.generators]
        return KnotComplex(gens, self.differential, self.flip, self.name)

    def arrows(self):
        for g in self.generators:
            for t in self.differential.get(g.name, ()):
                yield g, t


_MEMO_SIZE = 2 ** 14
_memo = OrderedDict()


def memoized(fn):
    """Keep fn's results in the one bounded memo, keyed by content.

    Keyword arguments are bound to fn's parameters, so positional and
    keyword spellings of a call share an entry; no memoized function
    has a default, so every entry names every argument.  A KnotComplex
    is keyed by content_key().  A call that raises stores nothing.
    """
    signature = inspect.signature(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs:
            args = tuple(signature.bind(*args, **kwargs).arguments.values())
        key = (fn,) + tuple(a.content_key() if isinstance(a, KnotComplex)
                            else a for a in args)
        if key not in _memo:
            _memo[key] = fn(*args)
            if len(_memo) > _MEMO_SIZE:
                _memo.popitem(last=False)
        _memo.move_to_end(key)
        return _memo[key]

    return wrapper


# ---------------------------------------------------------------------------
# validation


def _symbolic_square(complex_):
    """d∘d per generator as {(target, u_power): coefficient}."""
    out = {}
    for g in complex_.generators:
        acc = {}
        for t1 in complex_.differential.get(g.name, ()):
            for t2 in complex_.differential.get(t1.target, ()):
                key = (t2.target, t1.u_exponent + t2.u_exponent)
                acc[key] = acc.get(key, 0) + t1.coefficient * t2.coefficient
        out[g.name] = {k: v for k, v in acc.items() if v}
    return out


def flip_chain_sign(complex_):
    """The global sign with which flip commutes with the differential.

    +1 or -1 for a valid flip; None when there is no flip, or when no
    single sign works (which validate() reports as a violation).
    """
    flip = complex_.flip
    if flip is None:
        return None

    def flip_terms(terms):
        acc = {}
        for t in terms:
            s, y = flip[t.target]
            key = (y, t.u_exponent)
            acc[key] = acc.get(key, 0) + s * t.coefficient
        return {k: v for k, v in acc.items() if v}

    candidates = {1, -1}
    for g in complex_.generators:
        s_g, tgt = flip[g.name]
        left = flip_terms(complex_.differential.get(g.name, ()))
        right = {}
        for t in complex_.differential.get(tgt, ()):
            key = (t.target, t.u_exponent)
            right[key] = right.get(key, 0) + s_g * t.coefficient
        right = {k: v for k, v in right.items() if v}
        still = set()
        for eps in candidates:
            if left == {k: eps * v for k, v in right.items()}:
                still.add(eps)
        candidates = still
        if not candidates:
            return None
    # prefer +1 when the differential doesn't pin the sign
    return 1 if 1 in candidates else -1


def validate(complex_):
    """Check every structural axiom; returns a new list of violations.

    An empty list means the complex is valid.  Grading constraints are
    only enforced where both endpoints carry a grading, so partially
    graded complexes can be validated before grading_solve runs.  The
    checks run once per complex content (_violations).
    """
    return list(_violations(complex_))


@memoized
def _violations(complex_):
    """validate's violations as a tuple, in the one memo.

    Complexes equal in content share the entry: they have the same
    violations, up to order and, where a name is duplicated, up to
    which generator of that name the others are checked against.
    """
    violations = []
    seen = set()
    for g in complex_.generators:
        if g.name in seen:
            violations.append(f"duplicate generator name {g.name}")
        seen.add(g.name)
    for key in complex_.differential:
        if key not in seen:
            violations.append(f"differential source {key} is not a generator")
    for g, t in complex_.arrows():
        if t.u_exponent < 0:
            violations.append(
                f"negative U-exponent at {g.name} -> {t.target}")
            continue
        tgt = complex_.by_name.get(t.target)
        if tgt is None:
            violations.append(
                f"differential target {t.target} at {g.name} "
                "is not a generator")
            continue
        if tgt.i - t.u_exponent > g.i or tgt.j - t.u_exponent > g.j:
            violations.append(
                f"filtration violated at {g.name} -> "
                f"U^{t.u_exponent}*{t.target}")
        if g.m is not None and tgt.m is not None:
            if tgt.m - 2 * t.u_exponent != g.m - 1:
                violations.append(
                    f"grading violated at {g.name} -> "
                    f"U^{t.u_exponent}*{t.target}")
    for name, square in _symbolic_square(complex_).items():
        if square:
            violations.append(f"d-squared nonzero at {name}")
    if complex_.flip is not None:
        flip_ok = True
        for g in complex_.generators:
            entry = complex_.flip.get(g.name)
            if entry is None:
                violations.append(f"flip missing for {g.name}")
                flip_ok = False
                continue
            s, tname = entry
            if s not in (1, -1):
                violations.append(f"flip sign at {g.name} must be +-1")
                flip_ok = False
            tgt = complex_.by_name.get(tname)
            if tgt is None:
                violations.append(
                    f"flip target {tname} at {g.name} is not a generator")
                flip_ok = False
                continue
            if (tgt.i, tgt.j) != (g.j, g.i):
                violations.append(f"flip does not swap filtration at {g.name}")
            if g.m is not None and tgt.m is not None and g.m != tgt.m:
                violations.append(f"flip changes grading at {g.name}")
            back = complex_.flip.get(tname)
            if back is None or back[1] != g.name or back[0] * s != 1:
                violations.append(f"flip is not an involution at {g.name}")
                flip_ok = False
        for key in complex_.flip:
            if key not in seen:
                violations.append(f"flip source {key} is not a generator")
                flip_ok = False
        if flip_ok and flip_chain_sign(complex_) is None:
            violations.append("flip is not a chain map up to global sign")
    return tuple(violations)


def require_valid(complex_, ignore_grading=False):
    violations = validate(complex_)
    if ignore_grading:
        violations = [v for v in violations if not v.startswith("grading")]
    if violations:
        raise InvalidComplexError(violations)
    return complex_


# ---------------------------------------------------------------------------
# bundled examples


_BUILTIN_DATA = {
    "unknot": {
        "gens": [("a", 0, 0)],
        "d": {},
        "flip": {"a": (1, "a")},
    },
    "trefoil_right": {
        "gens": [("a", -1, 0), ("b", 0, 0), ("c", 0, -1)],
        "d": {"b": [(1, 0, "a"), (1, 0, "c")]},
        "flip": {"a": (1, "c"), "b": (1, "b"), "c": (1, "a")},
    },
    "trefoil_left": {
        "gens": [("a", 0, 1), ("b", 0, 0), ("c", 1, 0)],
        "d": {"a": [(1, 0, "b")], "c": [(1, 0, "b")]},
        "flip": {"a": (1, "c"), "b": (1, "b"), "c": (1, "a")},
    },
    # The square complex: one box plus an isolated generator.  The sign
    # on Dc makes d^2 = 0; the flip below is the unique generator-level
    # choice that swaps b and c and passes the chain-map check (a sign
    # is needed on d, since flipping Db = d against Dc = -d forces it).
    "figure_eight": {
        "gens": [("a", 1, 1), ("b", 0, 1), ("c", 1, 0), ("d", 0, 0),
                 ("e", 0, 0)],
        "d": {"a": [(1, 0, "b"), (1, 0, "c")],
              "b": [(1, 0, "d")],
              "c": [(-1, 0, "d")]},
        "flip": {"a": (1, "a"), "b": (1, "c"), "c": (1, "b"),
                 "d": (-1, "d"), "e": (1, "e")},
        # the box and the isolated generator are disconnected; only the
        # latter is pinned by the tower normalization, so the box needs
        # one explicit grading seed
        "seeds": {"d": 0},
    },
    "torus_2_5": {
        "gens": [("a", -2, 0), ("b", -1, 0), ("c", -1, -1), ("d", 0, -1),
                 ("e", 0, -2)],
        "d": {"b": [(1, 0, "a"), (1, 0, "c")],
              "d": [(1, 0, "c"), (1, 0, "e")]},
        "flip": {"a": (1, "e"), "b": (1, "d"), "c": (1, "c"),
                 "d": (1, "b"), "e": (1, "a")},
    },
}

@memoized
def builtin(name):
    """One of the bundled knot complexes, validated and graded."""
    if name not in _BUILTIN_DATA:
        raise KeyError(
            f"unknown builtin {name!r}; choices: {', '.join(BUILTIN_NAMES)}")
    data = _BUILTIN_DATA[name]
    raw = KnotComplex(data["gens"], data["d"], data["flip"], name=name)
    solved = grading_solve(raw, seeds=data.get("seeds"))
    require_valid(solved)
    return solved


def mirror(complex_):
    """The dual complex: filtrations and gradings negated, arrows reversed."""
    if not complex_.graded:
        raise GradingError("mirror requires solved gradings")
    gens = [Generator(g.name, -g.i, -g.j, -g.m) for g in complex_.generators]
    diff = {}
    for g, t in complex_.arrows():
        diff.setdefault(t.target, []).append(
            UTerm(t.coefficient, t.u_exponent, g.name))
    name = None
    if complex_.name:
        name = (complex_.name[7:] if complex_.name.startswith("mirror_")
                else "mirror_" + complex_.name)
    return KnotComplex(gens, diff, complex_.flip, name=name)


# ---------------------------------------------------------------------------
# grading solver


def _relative_gradings(complex_):
    """(sorted names, relative m) of each connected component.

    Components are connected by arrows and flip edges.  An arrow
    x -> U^n y forces m_y = m_x - 1 + 2n and a flip edge equal
    gradings, so one walk finds each component and solves m on it up to
    one constant, with the component's first generator at 0.
    """
    edges = {g.name: [] for g in complex_.generators}
    for g, t in complex_.arrows():
        if t.target in edges:
            delta = -1 + 2 * t.u_exponent
            edges[g.name].append((t.target, delta))
            edges[t.target].append((g.name, -delta))
    for src, (_, tgt) in (complex_.flip or {}).items():
        if src in edges and tgt in edges:
            edges[src].append((tgt, 0))
            edges[tgt].append((src, 0))
    rel, components = {}, []
    for g in complex_.generators:
        if g.name in rel:
            continue
        rel[g.name] = 0
        names, stack = [g.name], [g.name]
        while stack:
            cur = stack.pop()
            for nxt, delta in edges[cur]:
                want = rel[cur] + delta
                if nxt not in rel:
                    rel[nxt] = want
                    names.append(nxt)
                    stack.append(nxt)
                elif rel[nxt] != want:
                    raise GradingError(
                        f"inconsistent grading constraints near {nxt}")
        components.append((sorted(names), {n: rel[n] for n in names}))
    return components


@memoized
def _unfold(complex_):
    """(index, arrows, into): d of CFK^oo on integer keys, one per knot.

    The translate (x, k) has key index[x] + G k, G the number of
    generators, and U sends it to key - G; d(x) has a term c at
    key + off for each (off, c) in arrows[index[x]], and into[n] holds
    the offset from each generator whose d meets generator n.  Equal
    complexes share it, whatever their generator order: use index.
    """
    gens = complex_.generators
    G = len(gens)
    index = {g.name: n for n, g in enumerate(gens)}
    arrows = [[] for _ in gens]
    into = [[] for _ in gens]
    for x, term in complex_.arrows():
        n, y = index[x.name], index[term.target]
        arrows[n].append((y - n - G * term.u_exponent, term.coefficient))
        into[y].append(n - y + G * term.u_exponent)
    return index, arrows, into


def _restrict(unfolding, rows, columns=None):
    """(boundary, u_action) of d and U on columns, restricted to rows.

    The one restriction rule.  unfolding starts with _unfold's table;
    rows maps each key kept to its position, and columns are the keys
    of rows unless given.  Both are column-sparse as in GradedComplex.
    """
    _, arrows, *_ = unfolding
    G = len(arrows)
    boundary, u_action = [], []
    for key in rows if columns is None else columns:
        col = {}
        for off, c in arrows[key % G]:
            row = rows.get(key + off)
            if row is not None:
                col[row] = c
        boundary.append(col)
        row = rows.get(key - G)
        u_action.append({} if row is None else {row: 1})
    return boundary, u_action


def column(complex_, degrees):
    """The {i = 0} column on the generators named in degrees.

    Each generator x contributes its one translate at i = 0, k = -i_x,
    in degree degrees[x].  Over all generators, in degrees m - 2i, this
    is the finite complex whose homology is HF-hat(S^3) and whose
    associated graded is HFK-hat.  The column is checked (GradedComplex),
    so every arrow inside it must drop degrees by one.
    """
    unfolding = _unfold(complex_)
    index, G = unfolding[0], len(complex_.generators)
    boundary, _ = _restrict(unfolding, {
        index[name] - G * complex_.by_name[name].i: n
        for n, name in enumerate(degrees)})
    return GradedComplex(list(degrees.values()), boundary)


def grading_solve(complex_, seeds=None):
    """Assign absolute Maslov gradings to an ungraded complex.

    Relative gradings on each connected component (arrows plus flip
    edges) are forced by the constraints.  The column homology of a
    knot complex is HF-hat(S^3) = Z, and by the exact triangle
    HF-hat -> HF+ -> HF+ (the last map U) that Z sits at the bottom of
    the tower of C{i >= 0}.  So the tower component is the one whose
    {i = 0} column homology has a free part; that part must be a single
    Z, and the component is shifted to put it in grading 0.  Every
    other component must be pinned by a seed: an explicit entry in
    `seeds` or a grading already present on one of its generators.  A
    component whose column homology is torsion only (an acyclic piece
    over Z[U, U^-1]) has no grading fixed by the complex, so it needs
    a seed too.  A seed that names no generator raises GradingError.
    """
    require_valid(complex_, ignore_grading=True)
    seeds = dict(seeds or {})
    for name in seeds:
        if name not in complex_.by_name:
            raise GradingError(f"grading seed {name!r} names no generator")
    for g in complex_.generators:
        if g.m is not None and g.name not in seeds:
            seeds[g.name] = g.m
    solved = {}
    towers = []
    for comp, rel in _relative_gradings(complex_):
        h = graded_homology(column(complex_, {
            name: rel[name] - 2 * complex_.by_name[name].i
            for name in comp}))
        if h.total_free_rank():
            towers.append((comp, rel, h))
            continue
        pins = {name: seeds[name] - rel[name] for name in comp
                if name in seeds}
        if not pins:
            reason = ("its {i = 0} column homology is torsion only, so it "
                      "needs a seed" if h.support() else
                      "no tower normalization")
            raise GradingError(
                "ambiguous relative grading: component containing "
                f"{comp[0]} has no seed and {reason}")
        offsets = set(pins.values())
        if len(offsets) > 1:
            raise GradingError(
                f"conflicting grading seeds on component containing {comp[0]}")
        off = offsets.pop()
        for name in comp:
            solved[name] = rel[name] + off
    if len(towers) != 1:
        if not towers:
            raise GradingError(
                "no tower component: the {i = 0} column homology has no "
                "free part")
        raise GradingError(
            "ambiguous relative grading: multiple components carry "
            "free column homology")
    comp, rel, h = towers[0]
    free = {d: h.free_rank(d) for d in h.support() if h.free_rank(d)}
    if list(free.values()) != [1]:
        raise GradingError(
            "could not normalize the tower grading: the {i = 0} column "
            f"of the component containing {comp[0]} has free ranks "
            f"{free} by degree, not one Z")
    (bottom,) = free
    for name in comp:
        solved[name] = rel[name] - bottom
        if name in seeds and solved[name] != seeds[name]:
            raise GradingError(
                f"grading seed for {name} conflicts with the tower "
                "normalization")
    return complex_.with_gradings(solved)


# ---------------------------------------------------------------------------
# text format


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_U_RE = re.compile(r"U\^(\d+)\Z")


def _parse_terms(rhs, lineno):
    """The UTerms of a d line's right-hand side, read in one pass.

    A sign ends the term before it (a + appended ends the last one);
    - flips the sign of the next term and + resets it.  The words of a
    term, split at *, are its factors, the generator name last.
    """
    terms, sign, factors = [], 1, []
    for tok in re.findall(r"[+\-]|[^+\-\s]+", rhs.replace("−", "-")) + ["+"]:
        if tok not in ("+", "-"):
            factors += [p for p in tok.split("*") if p]
            continue
        if factors:
            *pieces, name = factors
            if not _NAME_RE.match(name):
                raise ParseError(f"bad generator name {name!r} in term",
                                 lineno)
            coeff, power = None, None
            for piece in pieces:
                mu = _U_RE.match(piece)
                if mu:
                    if power is not None:
                        raise ParseError("repeated U factor in term "
                                         f"{'*'.join(factors)!r}", lineno)
                    power = int(mu.group(1))
                elif re.fullmatch(r"\d+", piece):
                    if coeff is not None:
                        raise ParseError("repeated coefficient in term "
                                         f"{'*'.join(factors)!r}", lineno)
                    coeff = int(piece)
                else:
                    raise ParseError(f"cannot read factor {piece!r} in term",
                                     lineno)
            terms.append(UTerm(sign * (1 if coeff is None else coeff),
                               power or 0, name))
            sign, factors = 1, []
        sign = 1 if tok == "+" else -sign
    if not terms:
        raise ParseError("empty right-hand side", lineno)
    return terms


def parse_text(source):
    """Read the line-oriented format; returns a validated KnotComplex.

    gen <name> <i> <j> [<maslov>]
    d <name> = <term> + <term> + ...      term: [-]<int>*U^<nat>*<name>
    flip <name> = [-]<name>

    '#' starts a comment.  The parser is forgiving about coefficient
    spelling (`2*a`, `U^2*a`, `-a`, unicode minus) but the structure
    must match; errors carry the offending line number.
    """
    gens = []
    diff = {}
    flip = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        head = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if head == "gen":
            parts = rest.split()
            if len(parts) not in (3, 4):
                raise ParseError(
                    "gen needs <name> <i> <j> [<maslov>]", lineno)
            name = parts[0]
            if not _NAME_RE.match(name):
                raise ParseError(f"bad generator name {name!r}", lineno)
            try:
                nums = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError("gen fields must be integers", lineno)
            m = nums[2] if len(nums) == 3 else None
            gens.append(Generator(name, nums[0], nums[1], m))
        elif head in ("d", "flip"):
            if "=" not in rest:
                raise ParseError(f"{head} line needs '='", lineno)
            lhs, rhs = rest.split("=", 1)
            lhs = lhs.strip()
            if lhs in (diff if head == "d" else flip):
                raise ParseError(f"second {head} line for {lhs}", lineno)
            if head == "d":
                if not _NAME_RE.match(lhs):
                    raise ParseError(f"bad generator name {lhs!r}", lineno)
                diff[lhs] = _parse_terms(rhs, lineno)
                continue
            rhs = rhs.replace("−", "-").strip()
            sign = 1
            while rhs.startswith("-"):
                sign = -sign
                rhs = rhs[1:].strip()
            if not _NAME_RE.match(lhs) or not _NAME_RE.match(rhs):
                raise ParseError("flip needs <name> = [-]<name>", lineno)
            flip[lhs] = (sign, rhs)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    complex_ = KnotComplex(gens, diff, flip or None)
    require_valid(complex_, ignore_grading=False)
    return complex_


def _format_term(t):
    pieces = []
    c = abs(t.coefficient)
    if c != 1:
        pieces.append(str(c))
    if t.u_exponent:
        pieces.append(f"U^{t.u_exponent}")
    pieces.append(t.target)
    body = "*".join(pieces)
    return ("-" + body) if t.coefficient < 0 else body


def serialize_text(complex_):
    """Canonical text form; parse_text round-trips it exactly."""
    lines = []
    if complex_.name:
        lines.append(f"# {complex_.name}")
    for g in complex_.generators:
        base = f"gen {g.name} {g.i} {g.j}"
        lines.append(base + (f" {g.m}" if g.m is not None else ""))
    for g in complex_.generators:
        terms = complex_.differential.get(g.name, ())
        if not terms:
            continue
        rhs = " + ".join(_format_term(t) for t in terms).replace("+ -", "- ")
        lines.append(f"d {g.name} = {rhs}")
    if complex_.flip is not None:
        for g in complex_.generators:
            s, tgt = complex_.flip[g.name]
            lines.append(f"flip {g.name} = {'-' if s < 0 else ''}{tgt}")
    return "\n".join(lines) + "\n"
