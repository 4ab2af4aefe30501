"""hf_plus against the cone of towers on L-space knots.

tests/towers.py computes HF+ of every surgery on an L-space knot from
its Alexander polynomial alone and shares no code with the pipeline.
This checks d and the (degree, rank) data of HF_red in every Spin^c
structure, and that no torsion appears, on the torus knots
T(2, 2g+1) for g <= 6 and on T(3, 4), T(3, 5) and T(4, 5), whose
staircases have steps longer than 1.
"""

from math import gcd

import pytest

from helpers import l_space_staircase, staircase
from hfplus.surgery import hf_plus
from towers import surgery, torus_alexander

SLOPES = [(p, q) for p in range(1, 6) for q in range(1, 4) if gcd(p, q) == 1]


def _knots():
    knots = [(torus_alexander(2, 2 * g + 1), staircase(g))
             for g in range(1, 7)]
    knots += [(torus_alexander(a, b),
               l_space_staircase(torus_alexander(a, b), name=f"T({a},{b})"))
              for a, b in [(3, 4), (3, 5), (4, 5)]]
    return knots


def test_torus_alexander_polynomials():
    assert torus_alexander(2, 3) == {-1: 1, 0: -1, 1: 1}
    assert torus_alexander(3, 4) == {-3: 1, -2: -1, 0: 1, 2: -1, 3: 1}
    assert torus_alexander(4, 5) == {-6: 1, -5: -1, -2: 1, 0: -1, 2: 1,
                                     5: -1, 6: 1}


@pytest.mark.no_self_check
def test_hf_plus_matches_the_cone_of_towers():
    cases = 0
    for alexander, k in _knots():
        for p, q in SLOPES:
            result = hf_plus(k, p, q)
            assert all(torsion == () for r in result.spin_c
                       for _, _, torsion in r.hf_red), (k.name, p, q)
            got = [(r.d, tuple((deg, rank) for deg, rank, _ in r.hf_red))
                   for r in result.spin_c]
            assert got == surgery(alexander, p, q), (k.name, p, q)
            cases += 1
    assert cases == 9 * len(SLOPES)
