import ast
import random
from collections import OrderedDict
from pathlib import Path

import pytest

from helpers import (l_space_staircase, random_complex, staircase,
                     strip_gradings, t_b, torsion_square, tower_bottom,
                     twisty)
from hfplus import acomplex, cfk
from hfplus.acomplex import band_floor, realize
from hfplus.cfk import (BUILTIN_NAMES, Generator, KnotComplex, UTerm,
                        builtin, flip_chain_sign, grading_solve, memoized,
                        mirror, parse_text, require_valid, serialize_text,
                        validate)
from hfplus.errors import (GradingError, InvalidComplexError,
                           NotStabilizedError, ParseError)
from hfplus.homology import TOWER_LEVELS
from hfplus.surgery import hf_plus
from towers import torus_alexander


def test_builtin_names_and_validity():
    assert BUILTIN_NAMES == ("unknot", "trefoil_right", "trefoil_left",
                             "figure_eight", "torus_2_5")
    for name in BUILTIN_NAMES:
        k = builtin(name)
        assert k.name == name
        assert k.graded
        assert k.flip is not None
        assert validate(k) == []
        assert flip_chain_sign(k) in (1, -1)
    with pytest.raises(KeyError) as exc:
        builtin("trefoil")
    assert exc.value.args == (
        "unknown builtin 'trefoil'; choices: unknot, trefoil_right, "
        "trefoil_left, figure_eight, torus_2_5",)


def _grading_table(k):
    return {g.name: (g.i, g.j, g.m) for g in k.generators}


def test_knot_complex_identity_is_its_content():
    k = builtin("trefoil_right")
    renamed = KnotComplex(k.generators, k.differential, k.flip, name="r")
    assert renamed == k and hash(renamed) == hash(k)
    assert len({k, renamed, builtin("trefoil_left")}) == 2
    assert k.__eq__("trefoil_right") is NotImplemented
    assert k != "trefoil_right"
    assert repr(k) == "KnotComplex('trefoil_right', 3 generators, 2 arrows)"
    assert (repr(KnotComplex([("a", 0, 0)]))
            == "KnotComplex('?', 1 generators, 0 arrows)")


def test_builtin_gradings_frozen():
    assert _grading_table(builtin("unknot")) == {"a": (0, 0, 0)}
    assert _grading_table(builtin("trefoil_right")) == {
        "a": (-1, 0, -2), "b": (0, 0, -1), "c": (0, -1, -2)}
    assert _grading_table(builtin("trefoil_left")) == {
        "a": (0, 1, 2), "b": (0, 0, 1), "c": (1, 0, 2)}
    assert _grading_table(builtin("figure_eight")) == {
        "a": (1, 1, 2), "b": (0, 1, 1), "c": (1, 0, 1),
        "d": (0, 0, 0), "e": (0, 0, 0)}
    assert _grading_table(builtin("torus_2_5")) == {
        "a": (-2, 0, -4), "b": (-1, 0, -3), "c": (-1, -1, -4),
        "d": (0, -1, -3), "e": (0, -2, -4)}


def test_validate_reports_each_axiom():
    k = KnotComplex([("x", 0, 0, 0), ("x", 1, 1, None)])
    assert any("duplicate" in v for v in validate(k))

    k = KnotComplex([("x", 0, 0)], {"x": ((1, 0, "ghost"),)})
    assert any("not a generator" in v for v in validate(k))

    # the target sits above the source even after the U-shift
    k = KnotComplex([("x", 0, 0), ("y", 2, 0)], {"x": ((1, 1, "y"),)})
    assert any(v == "filtration violated at x -> U^1*y"
               for v in validate(k))

    k = KnotComplex([("x", 0, 0, 0), ("y", 0, 0, 5)], {"x": ((1, 0, "y"),)})
    assert any("grading violated" in v for v in validate(k))

    # x -> y -> z composes to a single nonzero term
    k = KnotComplex([("x", 0, 2), ("y", 0, 1), ("z", 0, 0)],
                    {"x": ((1, 0, "y"),), "y": ((1, 0, "z"),)})
    assert any(v == "d-squared nonzero at x" for v in validate(k))

    k = KnotComplex([("x", 0, 1), ("y", 1, 0)],
                    flip={"x": (1, "y"), "y": (-1, "x")})
    assert any("involution" in v for v in validate(k))

    k = KnotComplex([("x", 0, 0), ("y", 0, 0)], {"x": ((1, -1, "y"),)})
    assert validate(k) == ["negative U-exponent at x -> y"]

    k = KnotComplex([("x", 0, 0)], {"zz": ((1, 0, "x"),)})
    assert validate(k) == ["differential source zz is not a generator"]

    k = KnotComplex([("x", 0, 0), ("y", 0, 0)], flip={"x": (1, "x")})
    assert validate(k) == ["flip missing for y"]

    k = KnotComplex([("x", 0, 0)], flip={"x": (2, "x")})
    assert "flip sign at x must be +-1" in validate(k)

    k = KnotComplex([("x", 0, 0)], flip={"x": (1, "ghost")})
    assert validate(k) == ["flip target ghost at x is not a generator"]

    k = KnotComplex([("x", 0, 1), ("y", 0, 1)],
                    flip={"x": (1, "y"), "y": (1, "x")})
    assert "flip does not swap filtration at x" in validate(k)

    k = KnotComplex([("x", 0, 1, 0), ("y", 1, 0, 2)],
                    flip={"x": (1, "y"), "y": (1, "x")})
    assert "flip changes grading at x" in validate(k)

    k = KnotComplex([("x", 0, 0)], flip={"x": (1, "x"), "zz": (1, "x")})
    assert validate(k) == ["flip source zz is not a generator"]

    # an empty entry for a name that is no generator is content too, so
    # the memo never answers for it from the complex without it
    k = KnotComplex([("x", 0, 0)])
    assert validate(k) == []
    k = KnotComplex([("x", 0, 0)], {"zz": ()})
    assert validate(k) == ["differential source zz is not a generator"]


def test_validation_runs_once_per_complex_content(monkeypatch):
    # a cold loop over the builtins at a few slopes runs validate's
    # checks once for each builtin's raw and solved forms, and for
    # nothing else; the memo keeps violations, not an exception, so an
    # invalid complex raises on every call
    runs = []

    class Counting(OrderedDict):
        def __setitem__(self, key, value):
            if key[0] is cfk._violations.__wrapped__:
                runs.append(key[1])
            super().__setitem__(key, value)

    monkeypatch.setattr(cfk, "_memo", Counting())
    for name in BUILTIN_NAMES:
        for p, q in ((1, 1), (2, 1), (3, 2), (1, 5)):
            hf_plus(builtin(name), p, q)
    assert sorted(runs) == sorted(
        k.content_key() for name in BUILTIN_NAMES
        for k in (builtin(name), strip_gradings(builtin(name))))
    bad = KnotComplex([("x", 0, 0, 0)], {"x": ((1, 0, "ghost"),)})
    runs.clear()
    for _ in range(3):
        with pytest.raises(InvalidComplexError):
            require_valid(bad)
        assert validate(bad) == [
            "differential target ghost at x is not a generator"]
    assert runs == [bad.content_key()]


def test_validate_flip_chain_compatibility():
    # two segments whose flips cross but with incompatible signs on the
    # arrows: x -> y and x' -> y' with d(flip x) != +-flip(d x)
    k = KnotComplex(
        [("x", 0, 1), ("y", 0, 0), ("xx", 1, 0), ("yy", 0, 0)],
        {"x": ((1, 0, "y"),), "xx": ((2, 0, "yy"),)},
        flip={"x": (1, "xx"), "xx": (1, "x"), "y": (1, "yy"),
              "yy": (1, "y")})
    assert "flip is not a chain map up to global sign" in validate(k)
    # no flip: no sign to find
    assert flip_chain_sign(KnotComplex([("a", 0, 0, 0)])) is None


def test_d_squared_cancellation_over_the_integers():
    # the square with signs arranged to cancel is valid
    k = KnotComplex(
        [("a", 1, 1), ("b", 0, 1), ("c", 1, 0), ("d", 0, 0)],
        {"a": ((1, 0, "b"), (1, 0, "c")),
         "b": ((1, 0, "d"),),
         "c": ((-1, 0, "d"),)})
    assert validate(k) == []
    # flipping one sign breaks it
    k2 = KnotComplex(
        [("a", 1, 1), ("b", 0, 1), ("c", 1, 0), ("d", 0, 0)],
        {"a": ((1, 0, "b"), (1, 0, "c")),
         "b": ((1, 0, "d"),),
         "c": ((1, 0, "d"),)})
    assert any("d-squared" in v for v in validate(k2))


def _renamed(k, names):
    """k with each generator x renamed names.get(x, x)."""
    def n(x):
        return names.get(x, x)

    gens = [Generator(n(g.name), g.i, g.j, g.m) for g in k.generators]
    diff = {n(x): [UTerm(t.coefficient, t.u_exponent, n(t.target))
                   for t in terms] for x, terms in k.differential.items()}
    flip = {n(x): (sign, n(y)) for x, (sign, y) in k.flip.items()}
    return KnotComplex(gens, diff, flip, name=k.name)


def test_mirror_is_an_involution_and_swaps_trefoils():
    for name in BUILTIN_NAMES:
        k = builtin(name)
        assert mirror(mirror(k)) == k
        assert validate(mirror(k)) == []
    # the mirror of one trefoil is the other, once a and c swap names
    swap = {"a": "c", "c": "a"}
    right, left = builtin("trefoil_right"), builtin("trefoil_left")
    assert _renamed(mirror(right), swap) == left
    assert _renamed(mirror(left), swap) == right
    # and no renaming makes the two trefoils equal: their (i, j, m) differ
    assert (sorted((g.i, g.j, g.m) for g in right.generators)
            != sorted((g.i, g.j, g.m) for g in left.generators))


def test_round_trip_builtins():
    for name in BUILTIN_NAMES:
        k = builtin(name)
        assert parse_text(serialize_text(k)) == k


def test_round_trip_random_complexes():
    rng = random.Random(99)
    for _ in range(100):
        k = random_complex(rng, max_pieces=4)
        assert parse_text(serialize_text(k)) == k


def test_grading_solver_recovers_builtin_gradings():
    for name in BUILTIN_NAMES:
        k = builtin(name)
        seeds = {"d": 0} if name == "figure_eight" else None
        solved = grading_solve(strip_gradings(k), seeds=seeds)
        assert _grading_table(solved) == _grading_table(k)


def test_grading_solver_rejects_ambiguous_input():
    # a lone dot (the tower) next to an acyclic vertical segment whose
    # relative grading nothing pins down
    k = KnotComplex([("a", 0, 0), ("x", 0, 1), ("y", 0, 0)],
                    {"x": ((1, 0, "y"),)})
    with pytest.raises(GradingError, match="ambiguous"):
        grading_solve(k)
    # a seed on the segment resolves it
    solved = grading_solve(k, seeds={"x": 5})
    assert {g.name: g.m for g in solved.generators} == {
        "a": 0, "x": 5, "y": 4}


def test_grading_solver_rejects_competing_towers():
    # two isolated dots both feed the i = 0 column; that shape is not a
    # knot complex and no seed assignment can make the convention apply
    k = KnotComplex([("x", 0, 0), ("y", 1, 1)])
    with pytest.raises(GradingError):
        grading_solve(k, seeds={"y": 3})


def test_grading_solver_needs_a_seed_for_a_torsion_only_component():
    # the two squares and the flip between them form one component whose
    # {i = 0} column homology is Z/2 + Z/2: nothing pins its grading
    k = torsion_square()
    with pytest.raises(GradingError, match="ambiguous") as exc:
        grading_solve(strip_gradings(k))
    assert "containing a " in str(exc.value)
    assert "column homology is torsion only" in str(exc.value)
    solved = grading_solve(strip_gradings(k), seeds={"e": 0})
    assert _grading_table(solved) == _grading_table(k)
    assert hf_plus(solved, 2, 1).comparable() == hf_plus(k, 2, 1).comparable()


def test_grading_solver_rejects_a_tower_column_that_is_not_one_z():
    # two flip-swapped dots: one component whose column has Z in two
    # degrees, so no shift puts a single Z at the tower bottom
    k = KnotComplex([("x", 0, 1), ("y", 1, 0)], {},
                    flip={"x": (1, "y"), "y": (1, "x")})
    with pytest.raises(GradingError, match="could not normalize the tower"):
        grading_solve(k)


def _solved_and_reference():
    """(solved, reference): each complex solved from its stripped form
    with the seeds it was built with, and the complex itself."""
    seeded = [(builtin(name), {"d": 0} if name == "figure_eight" else None)
              for name in BUILTIN_NAMES]
    seeded += [(staircase(g), None) for g in range(2, 21)]
    seeded += [(l_space_staircase(torus_alexander(a, b),
                                  name=f"T({a},{b})"), None)
               for a, b in [(3, 4), (3, 5), (4, 5)]]
    seeded += [(twisty(n), {f"d{k}": 0 for k in range(n)}) for n in (2, 3)]
    seeded.append((torsion_square(), {"e": 0}))
    return [(grading_solve(strip_gradings(k), seeds=seeds), k)
            for k, seeds in seeded]


def test_grading_solver_puts_the_tower_bottom_at_zero():
    # the column's free Z sits where the realized C{i >= 0} has its tower
    # bottom, so the normalization through a realization moves nothing
    for solved, reference in _solved_and_reference():
        assert tower_bottom(solved) == 0, reference.name
        assert _grading_table(solved) == _grading_table(reference)


def test_grading_solver_realizes_no_region(monkeypatch):
    knots = [(builtin(name), {"d": 0} if name == "figure_eight" else None)
             for name in BUILTIN_NAMES] + [(staircase(8), None)]
    built = []
    init = acomplex.RealizedRegion.__init__

    def counting(self, source, t, top):
        built.append((t, top))
        init(self, source, t, top)

    monkeypatch.setattr(acomplex.RealizedRegion, "__init__", counting)
    for k, seeds in knots:
        grading_solve(strip_gradings(k), seeds=seeds)
    assert built == []


def test_cfk_imports_at_module_level_and_nothing_downstream():
    # the module order errors -> homology -> cfk -> acomplex -> surgery
    # has no back edge, and cfk imports nothing inside a function
    tree = ast.parse(Path(cfk.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [node.lineno for node in imports if node not in tree.body] == []
    names = set()
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
        else:
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
    assert not names & {"acomplex", "surgery"}, names


def test_grading_solver_seed_conflict():
    with pytest.raises(GradingError):
        grading_solve(strip_gradings(builtin("trefoil_right")),
                      seeds={"b": 17})


# figure-eight's box alone: the square a -> b, c -> d, acyclic over Z
_BOX = ([("a", 1, 1), ("b", 0, 1), ("c", 1, 0), ("d", 0, 0)],
        {"a": [(1, 0, "b"), (1, 0, "c")], "b": [(1, 0, "d")],
         "c": [(-1, 0, "d")]})


@pytest.mark.parametrize("k, seeds, message", [
    # b and c one apart along a -> b, a -> U c, level along e -> b, c
    (KnotComplex([("a", 1, 1), ("b", 0, 0), ("c", 0, 0), ("e", 1, 1)],
                 {"a": [(1, 0, "b"), (1, 1, "c")],
                  "e": [(1, 0, "b"), (1, 0, "c")]}),
     None, "inconsistent grading constraints near b"),
    (KnotComplex(*_BOX), {"d": 0, "b": 5},
     "conflicting grading seeds on component containing a"),
    (KnotComplex(*_BOX), {"d": 0},
     "no tower component: the {i = 0} column homology has no free part"),
])
def test_grading_solver_names_what_pins_no_grading(k, seeds, message):
    with pytest.raises(GradingError) as exc:
        grading_solve(k, seeds=seeds)
    assert str(exc.value) == message


def test_grading_solver_keeps_a_given_grading_as_a_seed():
    # figure-eight with d's grading written in, in place of its seed
    k = builtin("figure_eight")
    partial = KnotComplex(
        [(g.name, g.i, g.j, g.m if g.name == "d" else None)
         for g in k.generators], k.differential, k.flip)
    assert not partial.graded
    assert _grading_table(grading_solve(partial)) == _grading_table(k)


def test_grading_solver_rejects_a_seed_that_names_no_generator():
    for k in (builtin("trefoil_right"), strip_gradings(builtin("unknot"))):
        with pytest.raises(GradingError, match="'zz' names no generator"):
            grading_solve(k, seeds={"zz": 5})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_text("gen a 0\n")
    assert exc.value.line == 1
    assert "gen needs" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_text("gen a 0 0\nd a = U^-1 a\n")
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        parse_text("gen a 0 0\nd a = a\nd a = 2 a\n")
    assert "second d line" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_text("gen a 0 0\ngen b 0 0\ngen c 0 0\n"
                   "flip a = b\nflip a = c\n")
    assert exc.value.line == 5
    assert "second flip line for a" in str(exc.value)

    for head in ("d", "flip"):
        with pytest.raises(ParseError) as exc:
            parse_text(f"gen a 0 0\n{head} a a\n")
        assert exc.value.line == 2
        assert f"{head} line needs '='" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_text("wibble a\n")
    assert "unknown directive" in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("gen 1a 0 0\n", "line 1: bad generator name '1a'"),
    ("gen a x 0\n", "line 1: gen fields must be integers"),
    ("gen a 0 0\nd 1a = a\n", "line 2: bad generator name '1a'"),
    ("gen a 0 0\nd a = \n", "line 2: empty right-hand side"),
    ("gen a 0 0\nd a = U^1 U^2 a\n",
     "line 2: repeated U factor in term 'U^1*U^2*a'"),
    ("gen a 0 0\nd a = 2*3*a\n",
     "line 2: repeated coefficient in term '2*3*a'"),
    ("gen a 0 0\nd a = x*a\n", "line 2: cannot read factor 'x' in term"),
    ("gen a 0 0\nflip a = 1b\n", "line 2: flip needs <name> = [-]<name>"),
])
def test_parse_errors_name_the_line_and_the_fault(text, message):
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("rhs, terms", [
    ("- - a", [(1, 0, "a")]),
    ("+ - a", [(-1, 0, "a")]),
    ("- + a", [(1, 0, "a")]),
    ("a - - b", [(1, 0, "a"), (1, 0, "b")]),
    ("a + - b", [(1, 0, "a"), (-1, 0, "b")]),
    ("a -", [(1, 0, "a")]),
    ("-2 U^3 a", [(-2, 3, "a")]),
    ("−a − −b", [(-1, 0, "a"), (1, 0, "b")]),
    ("U^1 2 a", [(2, 1, "a")]),
    ("2*U^1*a", [(2, 1, "a")]),
    ("*2**U^1* a*", [(2, 1, "a")]),
    ("a * - * b", [(1, 0, "a"), (-1, 0, "b")]),
])
def test_parse_reads_signs_and_factors(rhs, terms):
    # a sign ends the term before it; - flips the next term's sign and +
    # resets it; the words of a term, split at *, are its factors, the
    # generator name last
    k = parse_text(f"gen x 0 0\ngen a 0 0\ngen b 0 0\nd x = {rhs}\n")
    assert k.differential["x"] == tuple(UTerm(*t) for t in terms)


def test_parse_validates_content():
    with pytest.raises(InvalidComplexError):
        parse_text("gen x 0 0\ngen y 2 0\nd x = U^1 y\n")


def test_parse_accepts_comments_and_signs():
    text = """# a two-step staircase
gen a -1 0 -2
gen b 0 0 -1
gen c 0 -1 -2
d b = a + c
flip a = c
flip b = b
flip c = a
"""
    k = parse_text(text)
    assert k == builtin("trefoil_right")


def test_parse_handles_u_powers_and_coefficients():
    text = "gen x 0 0 3\ngen y 1 1 6\nd x = -2 U^2 y\n"
    k = parse_text(text)
    assert k.differential["x"] == (UTerm(-2, 2, "y"),)
    assert parse_text(serialize_text(k)) == k


def test_serialize_is_idempotent_after_one_pass():
    text = "gen b 0 0 -1\ngen c 0 -1 -2\ngen a -1 0 -2\nd b = c + a\n"
    once = serialize_text(parse_text(text))
    assert serialize_text(parse_text(once)) == once


def test_region_values():
    # the first translate of g in A_t is minus its level max(i, j - t),
    # the depth of (i, j) inside A_t, negative outside it; the last is
    # the highest of degree <= top
    points = [(0, 5), (3, -2), (-1, 4)]
    quarter = max(j - i for i, j in points)  # A_t is {i >= 0} on them
    for (i, j), level in zip(points, (0, 3, -1)):
        g = Generator("x", i, j, 1)
        assert acomplex._k_range(g, quarter, 7) == range(-level, 4)
    for (i, j), level in zip([(0, 1), (2, 5), (-1, 0)], (0, 4, -1)):
        g = Generator("x", i, j, 1)  # max(i, j - 1)
        assert acomplex._k_range(g, 1, 7) == range(-level, 4)

    # B = C{i >= 0} is A_t at every t >= t_B = max(j - i), where S_t is
    # empty: realize holds exactly the translates with i >= 0 and
    # degree <= top
    knots = ([builtin(name) for name in BUILTIN_NAMES]
             + [staircase(g) for g in range(2, 5)]
             + [twisty(n) for n in range(1, 4)])
    for k in knots:
        assert acomplex._strip(k, t_b(k)) == ({}, []), k.name
        floor = band_floor(k, [(t_b(k), 0)])
        for t in (t_b(k), t_b(k) + 1, t_b(k) + 3):
            for top in (floor - 3, floor, floor + 2 * TOWER_LEVELS):
                real = realize(k, t, top)
                assert dict(zip(real.ids, real.degrees)) == {
                    (g.name, n): g.m + 2 * n for g in k.generators
                    for n in range(-g.i, (top - g.m) // 2 + 1)}, (
                        k.name, t, top)


def test_unknot_content_key_is_stable_under_renaming():
    a = KnotComplex([("a", 0, 0, 0)], name="first")
    b = KnotComplex([("a", 0, 0, 0)], name="second")
    assert a.content_key() == b.content_key()
    assert a == b


def test_memo_shares_one_entry_across_argument_spellings():
    k = builtin("trefoil_right")
    first = hf_plus(k, 3, 2)
    assert hf_plus(k, 3, q=2) is first
    assert hf_plus(k, q=2, p=3) is first
    assert hf_plus(complex_=k, p=3, q=2) is first


def test_memo_keys_complexes_by_content():
    k = builtin("figure_eight")
    twin = KnotComplex(k.generators, k.differential, k.flip, name="twin")
    assert twin is not k and twin == k
    calls = []

    @memoized
    def size(complex_):
        calls.append(complex_.name)
        return len(complex_.generators)

    assert size(k) == size(twin) == 5
    assert calls == ["figure_eight"]
    assert hf_plus(twin, 2, 1) is hf_plus(k, 2, 1)


def test_memo_stores_no_exception():
    attempts = []

    @memoized
    def flaky(n):
        attempts.append(n)
        if len(attempts) == 1:
            raise NotStabilizedError("not yet")
        return 2 * n

    with pytest.raises(NotStabilizedError):
        flaky(3)
    assert flaky(3) == 6
    assert flaky(3) == 6
    assert attempts == [3, 3]


def test_memo_evicts_the_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    bound = cfk._MEMO_SIZE
    calls = []

    @memoized
    def square(n):
        calls.append(n)
        return n * n

    for n in range(bound):
        square(n)
    square(0)  # 0 is now the most recently used, 1 the least
    square(bound)  # the (bound + 1)-th distinct key
    assert len(cfk._memo) == bound
    assert square(0) == 0 and calls.count(0) == 1
    assert square(1) == 1 and calls.count(1) == 2
    assert len(cfk._memo) == bound


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else node.id


def _builds_dict(node):
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "OrderedDict", "defaultdict"))


def test_the_package_has_one_cache():
    """cfk._memo is the only cache: no module keeps another at its top
    level, and no object keeps one of its own."""
    found = []
    for path in sorted(Path(cfk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                if _decorator_name(dec) in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{dec.lineno} decorator")
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                # a name, or an attribute such as self._cache
                name = getattr(target, "id", getattr(target, "attr", ""))
                if ((path.name, name) != ("cfk.py", "_memo")
                        and ("cache" in name.lower() or "memo" in name.lower())
                        and _builds_dict(value)):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_cfk_reads_the_differential():
    """No module of the package but cfk reads KnotComplex.differential
    or calls .arrows(): every other one reads d through cfk._unfold and
    cfk._restrict, the one unfolding of CFK^oo."""
    found = []
    for path in sorted(Path(cfk.__file__).parent.glob("*.py")):
        if path.name == "cfk.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("differential", "arrows")):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []


def test_no_module_has_a_switch():
    """No module of the package assigns a bool constant at module level:
    the library runs in one mode, and tests install their own checks."""
    found = []
    for path in sorted(Path(cfk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, bool)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
