from fractions import Fraction

import pytest

from helpers import twisty
from hfplus import detect
from hfplus.cfk import builtin
from hfplus.detect import (CompareResult, casson_surgery, classify_surgery,
                           compare, diagnostic_sum)
from hfplus.errors import CFKError
from hfplus.surgery import HFResult, SpincResult, hf_plus


def test_diagnostic_scores_at_three_halves():
    assert diagnostic_sum(builtin("unknot"), 3, 2).score == 0

    right = diagnostic_sum(builtin("trefoil_right"), 3, 2)
    assert right.score == 2
    assert right.total_reduced_rank == 0
    assert right.d_deficit == Fraction(-2)

    left = diagnostic_sum(builtin("trefoil_left"), 3, 2)
    assert left.score == 2
    assert left.total_reduced_rank == 2
    assert left.d_deficit == 0

    eight = diagnostic_sum(builtin("figure_eight"), 3, 2)
    assert eight.score == 2
    assert eight.total_reduced_rank == 2

    big = diagnostic_sum(builtin("torus_2_5"), 3, 2)
    assert big.score == 6
    assert big.score >= 2 * 2


def test_diagnostic_str_is_informative():
    text = str(diagnostic_sum(builtin("trefoil_left"), 3, 2))
    assert "3/2" in text and "score 2" in text


def test_classification_round_trip():
    for name in ("unknot", "trefoil_right", "trefoil_left",
                 "figure_eight"):
        assert classify_surgery(builtin(name), 3, 2) == name
        assert classify_surgery(builtin(name), 1, 1) == name
    assert classify_surgery(builtin("torus_2_5"), 3, 2) == "unknown"
    assert classify_surgery(builtin("torus_2_5"), 1, 1) == "unknown"


def test_diagnostic_sum_needs_a_positive_slope():
    for p, q in ((0, 1), (-1, 1), (1, 0)):
        with pytest.raises(ValueError) as exc:
            diagnostic_sum(builtin("unknot"), p, q)
        assert str(exc.value) == "diagnostic_sum requires p, q > 0"


def test_diagnostic_sum_raises_a_fractional_score(monkeypatch):
    # an oracle off by one moves the unknot's deficit at +1 to -1/2
    monkeypatch.setattr(detect, "lens_d_oracle", lambda p, q, i: 1)
    with pytest.raises(CFKError) as exc:
        diagnostic_sum(builtin("unknot"), 1, 1)
    assert str(exc.value) == ("diagnostic score 1/2 is not an integer; "
                              "grading calibration is inconsistent")


def test_classify_calls_a_score_no_genus_one_knot_has_inconsistent(
        monkeypatch):
    # the left trefoil scores 1 < 2q at +1, so rank ker v_0 must be 1
    monkeypatch.setattr(detect, "kernel_rank_v", lambda k, s: 0)
    assert classify_surgery(builtin("trefoil_left"), 1, 1) == "inconsistent"


def test_classify_calls_a_profile_two_knots_share_inconsistent(monkeypatch):
    # T(2,5) scores >= 2q, and every bundled knot now matches it
    monkeypatch.setattr(detect, "compare", lambda a, b: CompareResult(True))
    assert classify_surgery(builtin("torus_2_5"), 1, 1) == "inconsistent"


def test_compare_self_is_isomorphic():
    a = hf_plus(builtin("figure_eight"), 3, 2)
    assert compare(a, a).graded_isomorphic
    assert str(compare(a, a)) == "graded_isomorphic"


def test_compare_witness_cascade():
    # the trefoils differ already in their d-invariants
    r = compare(hf_plus(builtin("trefoil_right"), 1, 1),
                hf_plus(builtin("trefoil_left"), 1, 1))
    assert not r.graded_isomorphic
    assert "d-invariants differ" in r.witness

    # left trefoil vs figure-eight at +1: same d, same rank, but the
    # reduced class sits in even vs odd parity
    r = compare(hf_plus(builtin("trefoil_left"), 1, 1),
                hf_plus(builtin("figure_eight"), 1, 1))
    assert not r.graded_isomorphic
    assert "parity" in r.witness

    # unknot vs left trefoil at +1: same d multiset, ranks differ
    r = compare(hf_plus(builtin("unknot"), 1, 1),
                hf_plus(builtin("trefoil_left"), 1, 1))
    assert not r.graded_isomorphic
    assert "reduced ranks differ" in r.witness

    # one reduced Z at -2, or at -4, or at -2 with Z/2 beside it: the
    # same d, ranks and parities, so only the finer structure differs
    def at_one(hf_red):
        return HFResult(p=1, q=1, orientation="standard", spin_c=(
            SpincResult(index=0, d=Fraction(0), hf_red=hf_red,
                        parity=(1, 0), sigma=1),))

    for other in (((Fraction(-4), 1, ()),), ((Fraction(-2), 1, (2,)),)):
        r = compare(at_one(((Fraction(-2), 1, ()),)), at_one(other))
        assert r == CompareResult(
            False, "graded structure of reduced groups differs")


def test_compare_requires_matching_slopes():
    with pytest.raises(ValueError):
        compare(hf_plus(builtin("unknot"), 1, 1),
                hf_plus(builtin("unknot"), 3, 2))


def test_compare_accepts_mirrored_slopes():
    r = compare(hf_plus(builtin("trefoil_right"), -1, 1),
                hf_plus(builtin("trefoil_right"), 1, 1))
    assert not r.graded_isomorphic  # -1 and +1 surgeries differ here


def test_casson_values():
    assert casson_surgery(builtin("unknot"), 1) == 0
    assert casson_surgery(builtin("unknot"), 7) == 0
    assert casson_surgery(builtin("trefoil_right"), 1) == 1
    assert casson_surgery(builtin("trefoil_right"), -1) == -1
    assert casson_surgery(builtin("figure_eight"), 1) == -1
    assert casson_surgery(builtin("figure_eight"), -1) == 1
    assert casson_surgery(builtin("torus_2_5"), 1) == 3
    with pytest.raises(ValueError):
        casson_surgery(builtin("unknot"), 0)


def test_casson_obstruction_for_twistier_complexes():
    # with second derivative away from +-2 the +-1 surgery value
    # cannot have absolute value 1
    for n in (2, 3, 5):
        k = twisty(n)
        for sign in (1, -1):
            assert abs(casson_surgery(k, sign)) == n
            assert abs(casson_surgery(k, sign)) != 1
