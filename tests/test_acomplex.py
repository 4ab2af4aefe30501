import random
from collections import OrderedDict

import pytest

from helpers import (id_of, induced_h, induced_v, map_h, map_v,
                     oracle_kernel_rank_v, random_knot, realization,
                     region_homology, staircase, t_b, torsion_square,
                     twisty)
from hfplus import acomplex, cfk
from hfplus.acomplex import (alexander_polynomial, genus, hfk_hat,
                             kernel_rank_v, realize, band_floor,
                             LaurentPolynomial)
from hfplus.cfk import BUILTIN_NAMES, KnotComplex, builtin
from hfplus.errors import GradingError, InvalidComplexError
from hfplus.homology import TOWER_LEVELS, graded_homology

GENUS_ONE = ("trefoil_right", "trefoil_left", "figure_eight")


def _top(k, s, shift=0):
    """The cut of A_s and B for TOWER_LEVELS levels, B moved by shift."""
    return band_floor(k, [(s, 0), (t_b(k), shift)]) + 2 * TOWER_LEVELS


def test_realize_unknot_quarter_plane():
    realized = realize(builtin("unknot"), t_b(builtin("unknot")), 13)
    gc = realization(realized)
    assert gc.n == 7
    assert sorted(gc.degrees) == [0, 2, 4, 6, 8, 10, 12]
    assert all(col == {} for col in gc.boundary)
    # U moves every tower element one step down and kills the bottom
    nonzero_u = [c for c in gc.u_action if c]
    assert len(nonzero_u) == 6
    # everything of degree <= 13 is kept, so degrees up to 12 are exact
    assert realized.ceiling == 12
    assert repr(realized) == (
        "RealizedRegion(unknot, A_0, ceiling=12, 7 elements)")


def test_hfk_hat_of_figure_eight_reads_three_elements_at_level_zero():
    assert hfk_hat(builtin("figure_eight"), 0).complex.n == 3


def test_realize_respects_depth_bound():
    k = builtin("trefoil_right")
    shallow = realize(k, t_b(k), 3)
    deep = realize(k, t_b(k), 10)
    low_gc, high_gc = realization(shallow), realization(deep)
    assert high_gc.n > low_gc.n
    assert (shallow.ceiling, deep.ceiling) == (2, 9)
    # the kept set is every translate of the region up to the cut
    index = id_of(deep)
    assert set(shallow.ids) == {key for key in deep.ids
                                if high_gc.degrees[index[key]] <= 3}
    low = graded_homology(low_gc).summary(shallow.ceiling)
    high = graded_homology(high_gc).summary(shallow.ceiling)
    assert low == high


def _hat_table(name):
    k = builtin(name)
    out = {}
    for s in sorted({g.j - g.i for g in k.generators}):
        h = hfk_hat(k, s)
        if h.support():
            out[s] = {d: h.free_rank(d) for d in h.support()}
    return out


def test_hat_homology_tables():
    assert _hat_table("unknot") == {0: {0: 1}}
    assert _hat_table("trefoil_right") == {1: {0: 1}, 0: {-1: 1},
                                           -1: {-2: 1}}
    assert _hat_table("trefoil_left") == {1: {2: 1}, 0: {1: 1}, -1: {0: 1}}
    assert _hat_table("figure_eight") == {1: {1: 1}, 0: {0: 3},
                                          -1: {-1: 1}}
    assert _hat_table("torus_2_5") == {2: {0: 1}, 1: {-1: 1}, 0: {-2: 1},
                                       -1: {-3: 1}, -2: {-4: 1}}


def test_genus_values():
    expected = {"unknot": 0, "trefoil_right": 1, "trefoil_left": 1,
                "figure_eight": 1, "torus_2_5": 2}
    for name, g in expected.items():
        assert genus(builtin(name)) == g


def test_alexander_polynomials():
    table = {
        "unknot": "1",
        "trefoil_right": "t - 1 + t^-1",
        "trefoil_left": "t - 1 + t^-1",
        "figure_eight": "-t + 3 - t^-1",
        "torus_2_5": "t^2 - t + 1 - t^-1 + t^-2",
    }
    for name, text in table.items():
        poly = alexander_polynomial(builtin(name))
        assert str(poly) == text
        assert poly.at_one() == 1


def test_alexander_second_derivative():
    assert alexander_polynomial(
        builtin("trefoil_right")).second_derivative_at_one() == 2
    assert alexander_polynomial(
        builtin("figure_eight")).second_derivative_at_one() == -2
    assert alexander_polynomial(
        builtin("torus_2_5")).second_derivative_at_one() == 6


def test_alexander_coefficients_are_hat_euler_characteristics():
    # alexander_polynomial reads each coefficient off the generators;
    # the homology of each level must give the same Euler characteristic
    knots = ([builtin(name) for name in BUILTIN_NAMES]
             + [staircase(g) for g in range(2, 5)]
             + [twisty(n) for n in range(1, 4)])
    for k in knots:
        poly = alexander_polynomial(k)
        levels = {g.j - g.i for g in k.generators}
        for s in range(min(levels) - 1, max(levels) + 2):
            h = hfk_hat(k, s)
            chi = sum(h.free_rank(d) if d % 2 == 0 else -h.free_rank(d)
                      for d in h.support())
            assert poly.coefficient(s) == chi, (k.name, s)


def test_alexander_symmetry_enforced():
    k = KnotComplex([("a", 0, 0, 0), ("x", 0, 1, 5), ("y", 0, 0, 4)],
                    {"x": ((1, 0, "y"),)})
    with pytest.raises(InvalidComplexError, match="asymmetric"):
        alexander_polynomial(k)


def test_laurent_polynomial_helpers():
    p = LaurentPolynomial.from_dict({2: 1, 0: -3, -2: 1})
    assert p.coefficient(2) == 1
    assert p.coefficient(1) == 0
    assert p.at_one() == -1
    assert str(p) == "t^2 - 3 + t^-2"
    assert str(LaurentPolynomial.from_dict({1: 0})) == "0"


def test_kernel_rank_of_v0():
    assert kernel_rank_v(builtin("unknot"), 0) == 0
    for name in GENUS_ONE + ("torus_2_5",):
        assert kernel_rank_v(builtin(name), 0) == 1


def test_v_is_isomorphism_at_and_above_genus():
    for name in BUILTIN_NAMES:
        k = builtin(name)
        g = genus(k)
        for s in (g, g + 1, g + 2):
            ind, ceiling = induced_v(k, s, _top(k, s))
            assert ind.is_isomorphism(max_degree=ceiling), (name, s)


def test_h_is_isomorphism_at_and_below_minus_genus():
    for name in BUILTIN_NAMES:
        k = builtin(name)
        g = genus(k)
        for s in (-g, -g - 1):
            # h lowers degree by 2s, so B sits 2s up in A_s's degrees
            ind, ceiling = induced_h(k, s, _top(k, s, 2 * s))
            assert ind.is_isomorphism(max_degree=ceiling), (name, s)


def test_v_just_below_genus_is_surjective_with_kernel_one():
    for name in BUILTIN_NAMES:
        k = builtin(name)
        g = genus(k)
        if g == 0:
            continue
        ind, ceiling = induced_v(k, g - 1, _top(k, g - 1))
        assert ind.is_surjective(max_degree=ceiling), name
        top = hfk_hat(k, g)
        top_rank = sum(top.free_rank(d) for d in top.support())
        assert ind.kernel_rank(max_degree=ceiling) == top_rank == 1, name


def test_maps_are_chain_maps_with_expected_shifts():
    k = builtin("figure_eight")
    top = _top(k, 1)
    assert map_v(k, 1, top).shift == 0
    assert map_h(k, 1, top).shift == -2
    assert map_h(k, -2, top).shift == 4


def test_conjugation_symmetry_of_hook_regions():
    # the flip identifies the s and -s regions after a 2s degree shift
    for name in BUILTIN_NAMES:
        k = builtin(name)
        for s in range(1, genus(k) + 2):
            floor = band_floor(k, [(s, 0), (-s, 2 * s)])
            top = floor + 2 * TOWER_LEVELS
            _, hs = region_homology(k, s, top)
            _, hn = region_homology(k, -s, top - 2 * s)
            ceiling = min(hs.ceiling, hn.ceiling + 2 * s)
            left = {d: v for d, v in hs.summary(ceiling).items()}
            right = {d + 2 * s: v
                     for d, v in hn.summary(ceiling - 2 * s).items()}
            assert left == right, (name, s)


def test_hfk_hat_of_an_ungraded_level_with_an_arrow_needs_gradings():
    # so does every other level of an ungraded complex
    for k in (KnotComplex([("x", 0, 0), ("y", 0, 0)], {"x": [(1, 0, "y")]}),
              KnotComplex([("x", 0, 1), ("y", 0, 0)], {"x": [(1, 0, "y")]})):
        for s in (0, 1):
            with pytest.raises(GradingError, match="requires solved gradings"):
                hfk_hat(k, s)


def test_realize_needs_solved_gradings():
    k = builtin("trefoil_right")
    ungraded = KnotComplex([(g.name, g.i, g.j) for g in k.generators],
                           k.differential, k.flip)
    with pytest.raises(GradingError) as exc:
        realize(ungraded, 0, 4)
    assert str(exc.value) == "realization requires solved gradings"


def test_knot_invariants_reject_an_invalid_complex(monkeypatch):
    # an arrow to no generator is a violation of the complex, not a
    # KeyError of its unfolding; each invariant validates once per call
    k = KnotComplex([("a", 0, 0, 0), ("b", 0, 0, 1)], {"b": [(1, 0, "zz")]})
    validated, validate = [], cfk.validate

    def validating(complex_):
        validated.append(complex_)
        return validate(complex_)

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(cfk, "validate", validating)
    for invariant in (lambda: hfk_hat(k, 0), lambda: genus(k),
                      lambda: alexander_polynomial(k),
                      lambda: kernel_rank_v(k, 0)):
        validated.clear()
        with pytest.raises(InvalidComplexError) as info:
            invariant()
        assert info.value.violations == [
            "differential target zz at b is not a generator"]
        assert validated == [k]
    trefoil = builtin("trefoil_right")
    for invariant in (lambda: genus(trefoil),
                      lambda: alexander_polynomial(trefoil)):
        validated.clear()
        invariant()
        assert validated == [trefoil]


def test_kernel_rank_v_realizes_no_region(monkeypatch):
    k = builtin("trefoil_right")
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    built = []
    init = acomplex.RealizedRegion.__init__

    def counting(self, source, t, top):
        built.append((t, top))
        init(self, source, t, top)

    monkeypatch.setattr(acomplex.RealizedRegion, "__init__", counting)
    assert kernel_rank_v(k, 0) == 1
    assert built == []


# The seeds below 400 at which random_knot (odd seeds up to two pieces,
# even seeds up to four) has {i = 0} column homology Z.
Z_COLUMN_SEEDS = (15, 31, 89, 108, 149, 165, 178, 183, 197, 206, 207, 225,
                  281, 293, 309, 325, 327, 385, 399)


def _random_knot(seed):
    return random_knot(random.Random(seed), 2 if seed % 2 else 4)


def _strip_knots():
    return ([builtin(name) for name in BUILTIN_NAMES]
            + [staircase(g) for g in range(2, 6)] + [twisty(2), twisty(3)]
            + [_random_knot(seed) for seed in Z_COLUMN_SEEDS])


def test_kernel_rank_v_is_the_kernel_of_the_induced_map():
    # the strip's homology against the kernel of v_* on H(A_s) -> H(B)
    cases = 0
    for k in _strip_knots():
        g = genus(k)
        for s in range(-g - 1, g + 2):
            assert kernel_rank_v(k, s) == oracle_kernel_rank_v(k, s), (
                k.name, s)
            cases += 1
    assert cases == 75 + 65


def test_kernel_rank_v_below_the_genus_is_the_top_hat_rank():
    for k in _strip_knots():
        g = genus(k)
        assert (kernel_rank_v(k, g - 1)
                == hfk_hat(k, g).total_free_rank()), k.name


def test_kernel_rank_v_needs_a_z_column():
    for k in (torsion_square(), _random_knot(0)):
        with pytest.raises(InvalidComplexError, match="column"):
            kernel_rank_v(k, 0)
    for seed in range(400):
        if seed not in Z_COLUMN_SEEDS:
            with pytest.raises(InvalidComplexError):
                kernel_rank_v(_random_knot(seed), 0)
