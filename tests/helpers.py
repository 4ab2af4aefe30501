"""Shared test utilities.

Two independent oracles live here (a rational row-reduction rank and a
homology free-rank computed from those ranks alone), plus a generator
of random valid bifiltered complexes assembled from pieces whose
differential squares to zero by construction, the staircase complexes
of the torus knots T(2, 2g+1), a complex whose surgeries have torsion,
and the environment for child interpreters.  The acceptance registry
at the bottom is filled by test_acceptance.py and printed by the
conftest terminal-summary hook.
"""

import os
from fractions import Fraction

import hfplus
from hfplus.cfk import Generator, KnotComplex, grading_solve


def child_env():
    """Environment for a child interpreter that imports this same hfplus."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(hfplus.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (package_root + os.pathsep + inherited
                         if inherited else package_root)
    return env


def rational_rank(columns, nrows):
    """Rank over Q of a column-sparse integer matrix via row reduction."""
    dense = []
    for col in columns:
        row = [Fraction(0)] * nrows
        for r, v in col.items():
            row[r] = Fraction(v)
        dense.append(row)
    # eliminate on the transposed matrix; rank is unchanged
    rank = 0
    ncols = nrows
    pivot_col = 0
    for pivot_col in range(ncols):
        pivot = None
        for r in range(rank, len(dense)):
            if dense[r][pivot_col]:
                pivot = r
                break
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        inv = 1 / dense[rank][pivot_col]
        dense[rank] = [v * inv for v in dense[rank]]
        for r in range(len(dense)):
            if r != rank and dense[r][pivot_col]:
                f = dense[r][pivot_col]
                dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
        rank += 1
        if rank == len(dense):
            break
    return rank


def homology_free_ranks(gc):
    """Free rank of H_d for every degree, using only rational ranks.

    rank H_d = n_d - rank(boundary restricted to degree d)
             - rank(boundary restricted to degree d + 1).
    """
    by_degree = {}
    for idx, d in enumerate(gc.degrees):
        by_degree.setdefault(d, []).append(idx)
    n = len(gc.degrees)
    ranks = {
        d: rational_rank([gc.boundary[i] for i in idxs], n)
        for d, idxs in by_degree.items()
    }
    out = {}
    for d, idxs in by_degree.items():
        free = len(idxs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if free:
            out[d] = free
    return out


# ---------------------------------------------------------------------------
# random complexes


def _segment(rng, tag, gens, diff):
    n = rng.randrange(0, 3)
    c = rng.choice([1, -1, 2, -2, 3])
    iy = rng.randrange(-2, 3)
    jy = rng.randrange(-2, 3)
    ix = iy - n + rng.randrange(0, 3)
    jx = jy - n + rng.randrange(0, 3)
    my = rng.randrange(-3, 4)
    x, y = f"{tag}x", f"{tag}y"
    gens.append(Generator(x, ix, jx, my - 2 * n + 1))
    gens.append(Generator(y, iy, jy, my))
    diff[x] = ((c, n, y),)


def _square(rng, tag, gens, diff):
    # d(a) = c1 U^n1 b + c2 U^n2 c,  d(b) = c3 U^n3 e,  d(c) = c4 U^n4 e
    # with n1 + n3 = n2 + n4 and c1 c3 + c2 c4 = 0, so d(d(a)) = 0.
    n1 = rng.randrange(0, 3)
    n3 = rng.randrange(0, 3)
    n2 = rng.randrange(0, n1 + n3 + 1)
    n4 = n1 + n3 - n2
    c1 = rng.choice([1, -1, 2, -2])
    c3 = rng.choice([1, -1, 2])
    c2 = rng.choice([1, -1])
    c4 = -c1 * c3 * c2
    ie = rng.randrange(-2, 3)
    je = rng.randrange(-2, 3)
    me = rng.randrange(-3, 4)
    ib = ie - n3 + rng.randrange(0, 2)
    jb = je - n3 + rng.randrange(0, 2)
    ic = ie - n4 + rng.randrange(0, 2)
    jc = je - n4 + rng.randrange(0, 2)
    ia = max(ib - n1, ic - n2) + rng.randrange(0, 2)
    ja = max(jb - n1, jc - n2) + rng.randrange(0, 2)
    a, b, c, e = (f"{tag}{x}" for x in "abce")
    gens.append(Generator(a, ia, ja, me - 2 * n3 + 2 - 2 * n1))
    gens.append(Generator(b, ib, jb, me - 2 * n3 + 1))
    gens.append(Generator(c, ic, jc, me - 2 * n4 + 1))
    gens.append(Generator(e, ie, je, me))
    diff[a] = ((c1, n1, b), (c2, n2, c))
    diff[b] = ((c3, n3, e),)
    diff[c] = ((c4, n4, e),)


def _dot(rng, tag, gens, diff):
    gens.append(Generator(f"{tag}z", rng.randrange(-2, 3),
                          rng.randrange(-2, 3), rng.randrange(-3, 4)))


def random_complex(rng, max_pieces=3):
    """A random valid graded complex built from squares/segments/dots."""
    gens, diff = [], {}
    for p in range(rng.randrange(1, max_pieces + 1)):
        rng.choice([_segment, _square, _dot])(rng, f"p{p}_", gens, diff)
    return KnotComplex(gens, diff, name=f"random_{rng.randrange(10 ** 6)}")


def twisty(n):
    """n stacked squares plus a lone dot; a twist-knot-like complex."""
    gens = [Generator("e", 0, 0)]
    diff = {}
    flip = {"e": (1, "e")}
    seeds = {}
    for k in range(n):
        a, b, c, d = (f"{x}{k}" for x in "abcd")
        gens += [Generator(a, 1, 1), Generator(b, 0, 1),
                 Generator(c, 1, 0), Generator(d, 0, 0)]
        diff[a] = ((1, 0, b), (1, 0, c))
        diff[b] = ((1, 0, d),)
        diff[c] = ((-1, 0, d),)
        flip.update({a: (1, a), b: (1, c), c: (1, b), d: (-1, d)})
        seeds[d] = 0
    return grading_solve(KnotComplex(gens, diff, flip), seeds=seeds)


def staircase(g):
    """The staircase complex of the torus knot T(2, 2g+1), gradings solved.

    Generator x_n sits at i = ceil(n/2) - g, j = -floor(n/2); the odd
    ones are the corners, d x_{2k+1} = x_{2k} + x_{2k+2}, and the flip
    exchanges x_n with x_{2g-n}.  g = 1 and g = 2 give the bundled
    trefoil_right and torus_2_5.
    """
    top = 2 * g
    gens = [Generator(f"x{n}", (n + 1) // 2 - g, -(n // 2))
            for n in range(top + 1)]
    diff = {f"x{n}": ((1, 0, f"x{n - 1}"), (1, 0, f"x{n + 1}"))
            for n in range(1, top, 2)}
    flip = {f"x{n}": (1, f"x{top - n}") for n in range(top + 1)}
    return grading_solve(KnotComplex(gens, diff, flip,
                                     name=f"T(2,{top + 1})"))


def torsion_square():
    """A complex whose surgeries carry Z/2 in HF_red.

    A lone z at (0, 0), a square a(1,1), b(0,1), c(1,0), e(0,0) with
    d a = 2b + c, d b = e, d c = -2e, its image with i and j swapped,
    and the flip (all signs +) exchanging the two squares.
    """
    gens = [Generator("z", 0, 0, 0)]
    diff = {}
    flip = {"z": (1, "z")}
    for tag, swap in (("", False), ("'", True)):
        a, b, c, e = (x + tag for x in "abce")
        for name, i, j, m in ((a, 1, 1, 2), (b, 0, 1, 1), (c, 1, 0, 1),
                              (e, 0, 0, 0)):
            gens.append(Generator(name, j, i, m) if swap
                        else Generator(name, i, j, m))
        diff[a] = ((2, 0, b), (1, 0, c))
        diff[b] = ((1, 0, e),)
        diff[c] = ((-2, 0, e),)
    for x in "abce":
        flip[x] = (1, x + "'")
        flip[x + "'"] = (1, x)
    return KnotComplex(gens, diff, flip, name="torsion_square")


# ---------------------------------------------------------------------------
# acceptance registry

ACCEPTANCE_LABELS = {
    1: "reduced ranks across the slope grid (= q twice, < q once)",
    2: "reduced parity across the grid (all even / all odd)",
    3: "diagnostic score = q for the three knots, 0 for the unknot",
    4: "d-invariants of +1 surgery (-2, 0, 0)",
    5: "orientation cross-checks (5-surgery negation, +1 mirror pair)",
    6: "genus-two knot scores >= 2q on the grid",
    7: "classification round-trip and pairwise-distinct profiles",
    8: "v just below the genus: surjective, kernel = top hat rank",
    9: "conjugation involution; unknot matches the lens oracle",
    10: "casson surgery values and the non-(+-1) obstruction",
    11: "bit-identical at doubled depth / widened cone; rank oracle",
}

ACCEPTANCE_RESULTS = {}


def record(number, failures):
    ACCEPTANCE_RESULTS[number] = (not failures, failures)
    assert not failures, (
        f"criterion {number}: " + "; ".join(str(f) for f in failures[:5]))
