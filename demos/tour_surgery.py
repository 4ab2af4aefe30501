#!/usr/bin/env python3
"""How a surgery computation is assembled, end to end.

Run as: python3 demos/tour_surgery.py
"""

import sys
from pathlib import Path
from unittest import mock

from hfplus import (SurgeryDescriptor, build_mapping_cone, builtin,
                    conjugation_constant, graded_homology, hf_plus,
                    lens_d_oracle, surgery, tower_decompose,
                    truncation_sigma)
from hfplus.homology import TOWER_LEVELS

# the unreduced full-window cone lives with the tests, as their reference
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import reference_spin_c  # noqa: E402


def show_result(result, title):
    print(f"\n{title}")
    for r in result.spin_c:
        red = ", ".join(
            f"Z^{rank} at {deg}" + (f" plus torsion {list(t)}" if t else "")
            for deg, rank, t in r.hf_red) or "0"
        print(f"    spin {r.index}: d = {str(r.d):>7s}   reduced: {red}")
    print(f"    total reduced rank {result.total_reduced_rank}")


def cone_answer(complex_, descriptor):
    """(basis size, tower decomposition) of one cone, in cone degrees."""
    cone = build_mapping_cone(complex_, descriptor)
    h = graded_homology(cone.complex, ceiling=cone.ceiling)
    return cone.complex.n, tower_decompose(h)


def main():
    eight = builtin("figure_eight")

    print("Anatomy of one mapping cone: 7/3 surgery on the figure-eight")
    print("=" * 64)
    sigma = truncation_sigma(eight, 7, 3, 2)
    desc = SurgeryDescriptor(p=7, q=3, spin_c=2, sigma=sigma,
                             depth=TOWER_LEVELS)
    cone = build_mapping_cone(eight, desc)
    print(f"truncation width sigma = {sigma}")
    print(f"A-summands kept: {cone.n_a_summands} of {2 * sigma + 1}, "
          f"B-summands kept: {cone.n_b_summands} of {2 * sigma} "
          f"(the end pairs cancel), basis size {cone.complex.n}")
    print(f"every block cut at cone degree {cone.ceiling + 1}, so homology "
          f"is exact up to degree {cone.ceiling}")

    print("\nThe lens-space oracle pins absolute gradings")
    print("=" * 64)
    for p, q in [(2, 1), (3, 2), (5, 1)]:
        ds = [str(lens_d_oracle(p, q, i)) for i in range(p)]
        print(f"    d of {p}/{q} surgery on the unknot: {ds}")

    show_result(hf_plus(builtin("trefoil_right"), 1, 1),
                "+1 surgery on the right trefoil (d = -2, nothing reduced)")
    show_result(hf_plus(builtin("trefoil_left"), 1, 1),
                "+1 surgery on the left trefoil (a reduced Z in degree 0)")
    show_result(hf_plus(eight, 1, 1),
                "+1 surgery on the figure-eight (reduced Z in degree -1)")

    res = hf_plus(eight, 7, 3)
    show_result(res, "7/3 surgery on the figure-eight: one reduced Z in "
                     "each of three structures")
    print(f"    conjugation constant: {conjugation_constant(res)} "
          "(spin i pairs with spin (c - i) mod p)")

    print("\nRobustness: the output is a topological invariant")
    print("=" * 64)
    base = hf_plus(eight, 7, 3)
    n_base, tower = cone_answer(eight, desc)
    n_deep, deeper = cone_answer(eight, SurgeryDescriptor(
        p=7, q=3, spin_c=2, sigma=sigma, depth=2 * TOWER_LEVELS))
    full = all(reference_spin_c(eight, 7, 3, r.index, width)
               == (r.d, r.hf_red)
               for r in base.spin_c for width in (r.sigma, r.sigma + 1))
    print(f"    doubled truncation depth ({n_base} -> {n_deep} elements): "
          f"identical = {tower == deeper}")
    print(f"    unreduced cone of the whole window, sigma and sigma + 1: "
          f"identical = {full}")
    # the relative offsets are pinned at off_A(-sigma) = 0; pinning them
    # at 2 moves every cone degree, and the calibration, which reads the
    # same offsets, moves back by as much (the memo is bypassed)
    pinned = surgery._cone_offsets

    def moved(descriptor):
        return {s: off + 2 for s, off in pinned(descriptor).items()}

    with mock.patch.object(surgery, "_cone_offsets", moved):
        repinned = hf_plus.__wrapped__(eight, 7, 3)
    print(f"    offsets pinned at 2 instead of 0: "
          f"identical = {repinned.comparable() == base.comparable()}")

    show_result(hf_plus(builtin("trefoil_right"), -1, 1),
                "-1 surgery on the right trefoil (computed on the mirror, "
                "orientation reversed)")


if __name__ == "__main__":
    main()
