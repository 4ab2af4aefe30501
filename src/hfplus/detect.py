"""Surgery-based detection diagnostics.

The organizing quantity is a single integer score attached to a
surgered manifold: total reduced rank minus half the total drift of
the d-invariants away from the unknot baseline at the same slope.
The score is blind to how Spin^c structures are labeled (both pieces
are sums over all of them), equals q on the knots whose positive
vertical maps are isomorphisms, and is at least 2q as soon as some
v_s with s > 0 fails to be one -- which is what makes the genus-one
knots recognizable from a single rational surgery.

classify_surgery chains the steps: score the input, cross-check the
score against q * rank(ker v_0) when it is small enough to promise
genus <= 1, then match the full graded profile against the bundled
knots.  compare() is the profile matcher, reporting the first
invariant that distinguishes two results.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .acomplex import alexander_polynomial, kernel_rank_v
from .cfk import builtin
from .errors import CFKError
from .surgery import hf_plus, lens_d_oracle


class Diagnostic(namedtuple("Diagnostic",
                            "p q total_reduced_rank d_deficit score")):
    """The rank/d-drift summary of one surgery."""

    __slots__ = ()

    def __str__(self):
        return (f"slope {self.p}/{self.q}: reduced rank "
                f"{self.total_reduced_rank}, d-deficit {self.d_deficit}, "
                f"score {self.score}")


def diagnostic_sum(complex_, p, q):
    """Score = total reduced rank - sum_i (d_K(i) - d_O(i)) / 2.

    Both sums run over all Spin^c structures, so no identification of
    labels between the two manifolds is needed.  The result is an
    integer for every honest input; a fractional value means the
    computation itself went wrong and is raised, not returned.
    """
    if p <= 0 or q <= 0:
        raise ValueError("diagnostic_sum requires p, q > 0")
    mine = hf_plus(complex_, p, q)
    # calibration pins the unknot's d-invariants to the lens-space oracle
    base = sum(lens_d_oracle(p, q, i) for i in range(p))
    deficit = (sum(mine.d_values()) - base) / 2
    score = mine.total_reduced_rank - deficit
    if score.denominator != 1:
        raise CFKError(
            f"diagnostic score {score} is not an integer; grading "
            "calibration is inconsistent")
    return Diagnostic(p=p, q=q,
                      total_reduced_rank=mine.total_reduced_rank,
                      d_deficit=Fraction(deficit),
                      score=int(score))


class CompareResult(namedtuple("CompareResult", "graded_isomorphic witness",
                               defaults=("",))):
    __slots__ = ()

    def __str__(self):
        if self.graded_isomorphic:
            return "graded_isomorphic"
        return f"distinct ({self.witness})"


def compare(result_a, result_b):
    """Graded comparison of two HFResults at the same |slope|.

    graded_isomorphic means some bijection of Spin^c labels matches
    (d, graded reduced group) exactly; since profiles are compared as
    sorted multisets, any bijection that works is found.  Otherwise
    the witness names the first invariant that differs: the
    d-invariant multiset, a reduced rank, a parity, or the finer
    graded structure.
    """
    if (abs(result_a.p), result_a.q) != (abs(result_b.p), result_b.q):
        raise ValueError("results are at different slopes")
    pa = sorted(r.profile() for r in result_a.spin_c)
    pb = sorted(r.profile() for r in result_b.spin_c)
    if pa == pb:
        return CompareResult(True)
    da = sorted(d for d, _ in pa)
    db = sorted(d for d, _ in pb)
    if da != db:
        return CompareResult(
            False, "d-invariants differ: "
            f"{[str(x) for x in da]} vs {[str(x) for x in db]}")
    ranks_a = sorted(sum(rk for _, rk, _ in red) for _, red in pa)
    ranks_b = sorted(sum(rk for _, rk, _ in red) for _, red in pb)
    if ranks_a != ranks_b:
        return CompareResult(
            False, f"reduced ranks differ: {ranks_a} vs {ranks_b}")

    def parities(profiles):
        out = []
        for d, red in profiles:
            out.append(tuple(sorted(
                (int(deg - d) % 2, rk) for deg, rk, _ in red)))
        return sorted(out)

    if parities(pa) != parities(pb):
        return CompareResult(
            False, "parity (degrees mod 2 relative to d) differs")
    return CompareResult(False, "graded structure of reduced groups differs")


_CLASSIFY_TARGETS = ("unknot", "trefoil_right", "trefoil_left",
                     "figure_eight")


def classify_surgery(complex_, p, q):
    """Identify a knot from one positive rational surgery.

    Follows the detection pipeline: a score below 2q promises that
    the positive vertical maps are isomorphisms, in which case the
    identity score = q * rank(ker v_0) must hold -- a failure there
    means the invariants are not those of any genus <= 1 knot and is
    reported as 'inconsistent'.  The final step matches the complete
    graded profile against the bundled knots; 'unknown' means no
    match (e.g. higher-genus inputs).
    """
    diag = diagnostic_sum(complex_, p, q)
    if diag.score < 2 * q:
        if q * kernel_rank_v(complex_, 0) != diag.score:
            return "inconsistent"
    mine = hf_plus(complex_, p, q)
    matches = [name for name in _CLASSIFY_TARGETS
               if compare(mine,
                          hf_plus(builtin(name), p, q)).graded_isomorphic]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        return "inconsistent"
    return "unknown"


def casson_surgery(complex_, n):
    """Casson invariant of 1/n surgery: (n/2) * second derivative of
    the Alexander polynomial at 1.  Exact rational."""
    if n == 0:
        raise ValueError("n must be a nonzero integer")
    delta = alexander_polynomial(complex_)
    return Fraction(n * delta.second_derivative_at_one(), 2)
