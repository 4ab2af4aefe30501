"""Digest of hf_plus over a fixed sweep of knots and slopes.

Run from the repository root:

    PYTHONPATH=src python tests/sweep.py

The sweep is the builtins, staircase(2..8), twisty(1..3),
torsion_square() and 40 random_knot(Random(7), 2), in that order, each
at every coprime p/q with p in -10..10 (p != 0, ascending) and q in
1..5.  It prints the number of results, the number that raised, and
the sha256 of repr(hf_plus(k, p, q).comparable()) over the sweep, each
result's text fed in order; a result that raised feeds its exception's
type and message instead.  A change that leaves every answer alone
leaves these three lines as they were.  A fourth line gives the total
number of elements of every cone as built (surgery.build_mapping_cone)
over the sweep, before cancel_units; it measures the work, is no part
of the answer digest, and may change when the answers do not.  pytest
does not collect this file; test_surgery.py pins all four lines
(test_sweep_digest_is_pinned), and a change that alters answers or
cone sizes on purpose updates them there.
"""

import hashlib
import random
from collections import OrderedDict
from math import gcd

import pytest

from helpers import random_knot, staircase, torsion_square, twisty
from hfplus import BUILTIN_NAMES, builtin, cfk, hf_plus, surgery


def sweep_knots():
    rng = random.Random(7)
    return ([builtin(name) for name in BUILTIN_NAMES]
            + [staircase(g) for g in range(2, 9)]
            + [twisty(n) for n in range(1, 4)]
            + [torsion_square()]
            + [random_knot(rng, 2) for _ in range(40)])


def sweep(monkeypatch):
    """(results, errors, answer digest, cone elements) over the sweep.

    Runs from an empty memo, and counts each cone's elements as built
    (surgery.build_mapping_cone); both go through monkeypatch, so that
    its owner undoes them.
    """
    digest = hashlib.sha256()
    results = errors = 0
    built = []
    build = surgery.build_mapping_cone

    def counting(*args):
        cone = build(*args)
        built.append(cone.complex.n)
        return cone

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "build_mapping_cone", counting)
    for k in sweep_knots():
        for p in range(-10, 11):
            for q in range(1, 6):
                if p == 0 or gcd(abs(p), q) != 1:
                    continue
                results += 1
                try:
                    text = repr(hf_plus(k, p, q).comparable())
                except Exception as exc:
                    errors += 1
                    text = f"{type(exc).__name__}: {exc}"
                digest.update(text.encode())
    return results, errors, digest.hexdigest(), sum(built)


def main():
    with pytest.MonkeyPatch.context() as m:
        for line in sweep(m):
            print(line)


if __name__ == "__main__":
    main()
