"""End-to-end acceptance sweep.

Every criterion runs over the full slope grid (coprime p/q with
1 <= p <= 10, 1 <= q <= 5) against the five bundled complexes.  Each
test accumulates failures and registers a PASS/FAIL line that the
conftest hook prints after the run; an empty failure list is also
asserted so pytest reports the same verdict.

The internal algebra self-checks stay off here -- this module is the
external check, built on frozen oracles and cross-validation, and the
grid has a time budget.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (homology_free_ranks, induced_v, random_complex,
                     realization, record, reference_spin_c, t_b, twisty)
from hfplus.acomplex import band_floor, genus, hfk_hat, realize
from hfplus.cfk import BUILTIN_NAMES, builtin
from hfplus.detect import (casson_surgery, classify_surgery, compare,
                           diagnostic_sum)
from hfplus.homology import TOWER_LEVELS, graded_homology
from hfplus.surgery import (SurgeryDescriptor, _spin_c_result,
                            conjugation_constant, hf_plus, lens_d_oracle)

pytestmark = pytest.mark.no_self_check

GRID = [(p, q) for p in range(1, 11) for q in range(1, 6)
        if gcd(p, q) == 1]

SMALL = ("unknot", "trefoil_right", "trefoil_left", "figure_eight")


@pytest.fixture(scope="module")
def grid():
    out = {}
    for name in BUILTIN_NAMES:
        k = builtin(name)
        for p, q in GRID:
            out[(name, p, q)] = hf_plus(k, p, q)
    return out


def test_criterion_1_reduced_ranks(grid):
    failures = []
    for p, q in GRID:
        if grid[("trefoil_left", p, q)].total_reduced_rank != q:
            failures.append(f"trefoil_left {p}/{q}")
        if grid[("figure_eight", p, q)].total_reduced_rank != q:
            failures.append(f"figure_eight {p}/{q}")
        if not grid[("trefoil_right", p, q)].total_reduced_rank < q:
            failures.append(f"trefoil_right {p}/{q}")
    record(1, failures)


def test_criterion_2_parity(grid):
    failures = []
    for p, q in GRID:
        for r in grid[("trefoil_left", p, q)].spin_c:
            if r.parity[1] != 0:
                failures.append(f"trefoil_left {p}/{q} spin {r.index}")
        for r in grid[("figure_eight", p, q)].spin_c:
            if r.parity[0] != 0:
                failures.append(f"figure_eight {p}/{q} spin {r.index}")
    record(2, failures)


def test_criterion_3_scores(grid):
    failures = []
    for p, q in GRID:
        for name in ("trefoil_right", "trefoil_left", "figure_eight"):
            score = diagnostic_sum(builtin(name), p, q).score
            if score != q:
                failures.append(f"{name} {p}/{q}: score {score} != {q}")
        score = diagnostic_sum(builtin("unknot"), p, q).score
        if score != 0:
            failures.append(f"unknot {p}/{q}: score {score} != 0")
    record(3, failures)


def test_criterion_4_plus_one_d_invariants(grid):
    failures = []
    expected = {"trefoil_right": Fraction(-2), "trefoil_left": Fraction(0),
                "figure_eight": Fraction(0)}
    for name, d in expected.items():
        got = grid[(name, 1, 1)].d_values()
        if got != [d]:
            failures.append(f"{name}: d {got} != [{d}]")
    record(4, failures)


def test_criterion_5_orientation_cross_checks(grid):
    failures = []
    five = grid[("trefoil_right", 5, 1)]
    if five.total_reduced_rank != 0:
        failures.append("5-surgery on trefoil_right has reduced homology")
    lens = sorted(-lens_d_oracle(5, 1, i) for i in range(5))
    if sorted(five.d_values()) != lens:
        failures.append("5-surgery d-multiset is not the negated lens one")
    left = grid[("trefoil_left", 1, 1)]
    eight = grid[("figure_eight", 1, 1)]
    if left.d_values()[0] != -eight.d_values()[0]:
        failures.append("+1 d-invariants of the mirror pair do not negate")
    if left.total_reduced_rank != eight.total_reduced_rank:
        failures.append("+1 reduced ranks of the mirror pair differ")
    record(5, failures)


def test_criterion_6_genus_two_scores(grid):
    failures = []
    for p, q in GRID:
        score = diagnostic_sum(builtin("torus_2_5"), p, q).score
        if score < 2 * q:
            failures.append(f"torus_2_5 {p}/{q}: score {score} < {2 * q}")
    record(6, failures)


def test_criterion_7_classification(grid):
    failures = []
    for p, q in GRID:
        for name in SMALL:
            verdict = classify_surgery(builtin(name), p, q)
            if verdict != name:
                failures.append(f"{name} {p}/{q} -> {verdict}")
        for i, a in enumerate(SMALL):
            for b in SMALL[i + 1:]:
                if compare(grid[(a, p, q)],
                           grid[(b, p, q)]).graded_isomorphic:
                    failures.append(f"{a} and {b} agree at {p}/{q}")
    record(7, failures)


def test_criterion_8_v_below_genus():
    failures = []
    for name in BUILTIN_NAMES:
        k = builtin(name)
        g = genus(k)
        if g == 0:
            continue
        floor = band_floor(k, [(g - 1, 0), (t_b(k), 0)])
        ind, ceiling = induced_v(k, g - 1, floor + 2 * TOWER_LEVELS)
        if not ind.is_surjective(max_degree=ceiling):
            failures.append(f"{name}: v below genus not surjective")
        top = hfk_hat(k, g)
        top_rank = sum(top.free_rank(d) for d in top.support())
        kernel = ind.kernel_rank(max_degree=ceiling)
        if kernel != top_rank:
            failures.append(f"{name}: kernel {kernel} != top rank "
                            f"{top_rank}")
        if g == 1 and top_rank != 1:
            failures.append(f"{name}: top hat rank {top_rank} != 1")
    record(8, failures)


def test_criterion_9_conjugation_and_lens_oracle(grid):
    failures = []
    for (name, p, q), result in grid.items():
        if conjugation_constant(result) is None:
            failures.append(f"{name} {p}/{q}: no conjugation involution")
    for p, q in GRID:
        for r in grid[("unknot", p, q)].spin_c:
            if r.d != lens_d_oracle(p, q, r.index):
                failures.append(f"unknot {p}/{q} spin {r.index}")
            if r.hf_red != ():
                failures.append(f"unknot {p}/{q} spin {r.index}: reduced")
    record(9, failures)


def test_criterion_10_casson():
    failures = []
    if abs(casson_surgery(builtin("trefoil_right"), 1)) != 1:
        failures.append("right trefoil +1")
    if abs(casson_surgery(builtin("trefoil_right"), -1)) != 1:
        failures.append("right trefoil -1")
    if abs(casson_surgery(builtin("figure_eight"), 1)) != 1:
        failures.append("figure-eight +1")
    if abs(casson_surgery(builtin("figure_eight"), -1)) != 1:
        failures.append("figure-eight -1")
    for n in (1, 2, 5):
        if casson_surgery(builtin("unknot"), n) != 0:
            failures.append(f"unknot 1/{n}")
    for n in (2, 3, 4):
        k = twisty(n)
        for sign in (1, -1):
            if abs(casson_surgery(k, sign)) == 1:
                failures.append(f"twist-like n={n} hits the obstruction")
    record(10, failures)


def test_criterion_11_robustness(grid):
    failures = []
    for (name, p, q), base in grid.items():
        k = builtin(name)
        deeper = base._replace(spin_c=tuple(
            _spin_c_result(k, SurgeryDescriptor(p, q, r.index, r.sigma,
                                                2 * TOWER_LEVELS))
            for r in base.spin_c))
        if base.comparable() != deeper.comparable():
            failures.append(f"{name} {p}/{q}: depth doubling changed it")
        # the unreduced cone of the whole window, and of a wider one
        for r in base.spin_c:
            for sigma in (r.sigma, r.sigma + 1):
                if reference_spin_c(k, p, q, r.index, sigma) != (r.d,
                                                                 r.hf_red):
                    failures.append(f"{name} {p}/{q} Spin^c {r.index}: "
                                    f"full cone at sigma {sigma} differs")
    rng = random.Random(11)
    for _ in range(50):
        k = random_complex(rng)
        t = rng.choice([t_b(k), 0])
        top = band_floor(k, [(t, 0)]) + 2 * rng.randrange(2, 5)
        gc = realization(realize(k, t, top))
        h = graded_homology(gc)
        oracle = homology_free_ranks(gc)
        for d in set(gc.degrees):
            if h.free_rank(d) != oracle.get(d, 0):
                failures.append(f"rank oracle mismatch on {k.name} at {d}")
    record(11, failures)
