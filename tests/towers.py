"""HF+ of p/q surgery on an L-space knot from its Alexander polynomial.

An oracle that imports nothing from hfplus.  For an L-space knot,
H(A_t) is one tower T+ with bottom -2 V_t, where V_t is the torsion
coefficient sum_{j >= 1} j a_{t+j} of the Alexander polynomial and
V_{-t} = V_t + t; v acts on the towers as U^{V_t} and h as U^{H_t} with
H_t = V_{-t} (Ozsvath-Szabo, arXiv:math/0504404; Ni-Wu,
arXiv:1009.4720).  So the surgery cone is, up to homotopy, a cone of
towers.  In cone degree m it holds one generator of A_s when m reaches
A_s's tower bottom and one of B_s when m reaches B_s's, and both maps
are nonzero exactly when their target is present: each degree is a
zigzag A_s -> B_s <- A_{s-1}, with unit entries whose signs rescale away,
and the tower of the cone is the U-orbit of the top kernel vector.

Absolute degrees come from the same construction on the unknot, whose
surgery is the lens space with d given by the classical recursion.
"""

from fractions import Fraction
from math import gcd


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binomial(n):
    """Coefficients of t^n - 1, lowest degree first."""
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(a, b):
    """Symmetrized Alexander polynomial of T(a, b), {exponent: coeff}.

    (t^{ab} - 1)(t - 1) / ((t^a - 1)(t^b - 1)), divided out exactly and
    shifted by t^{-(a-1)(b-1)/2}.
    """
    num = _poly_mul(_binomial(a * b), _binomial(1))
    den = _poly_mul(_binomial(a), _binomial(b))
    quot = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):
        c = num[k + len(den) - 1] // den[-1]
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ValueError("division left a remainder")
    shift = (a - 1) * (b - 1) // 2
    return {e - shift: c for e, c in enumerate(quot) if c}


def torsion_coefficients(alexander):
    """V_s for every integer s, from the Alexander polynomial."""
    top = max(alexander)

    def v(s):
        if s < 0:
            return v(-s) - s
        return sum(j * alexander.get(s + j, 0)
                   for j in range(1, top - s + 1))
    return v


def lens_d(p, q, i):
    """d of p/q surgery on the unknot at label i (the lens space)."""
    if p == 1:
        return Fraction(0)
    return (Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q)
            - lens_d(q, p % q, i % q))


def _relative_cone(v, p, q, i, width):
    """(tower bottom, {degree: reduced rank}) in cone degrees.

    The cone's generators in each degree lie along the chain A_{-w},
    B_{-w+1}, A_{-w+1}, ..., B_w, A_w, a map joining neighbours that are
    both present, so the degree splits into paths.  A path of L
    generators has a rank floor(L/2) boundary (its maximum matching).
    Above every tower bottom the chain is whole and its kernel, one
    vector, is nonzero on every A_s, so the tower reaches down to the
    lowest A_s bottom.
    """
    def t(s):
        return (i + p * s) // q

    off = {-width: 0}
    for s in range(-width, width):
        off[s + 1] = off[s] + 2 * t(s)
    chain = []
    for s in range(-width, width + 1):
        if s > -width:
            chain.append((False, off[s] - 1))
        chain.append((True, off[s] - 2 * v(t(s))))
    bottom = min(b for is_a, b in chain if is_a)

    def zigzag(m):
        """(A generators, B generators, rank) of the map leaving degree m."""
        n_a = n_b = rank = run = 0
        for is_a, b in chain + [(False, None)]:
            if b is not None and b <= m - (not is_a):
                n_a += is_a
                n_b += not is_a
                run += 1
            else:
                rank += run // 2
                run = 0
        return n_a, n_b, rank

    ranks = {}
    top = max(b for _, b in chain) + 2
    for m in range(min(b for _, b in chain), top + 1):
        if m % 2:  # B parity: the cokernel of the map from m + 1
            _, n_b, rank = zigzag(m + 1)
            red = n_b - rank
        else:
            n_a, _, rank = zigzag(m)
            red = n_a - rank - (m >= bottom)
        if red:
            ranks[m] = red
    return bottom, ranks


def surgery(alexander, p, q):
    """[(d, ((degree, rank), ...)) for each label i] of S^3_{p/q}(K).

    p, q > 0 and coprime.  The window holds two positions more than the
    end maps need to be isomorphisms, and the unknot's cone of the same
    shape pins the absolute degrees.
    """
    if p <= 0 or q <= 0 or gcd(p, q) != 1:
        raise ValueError("need coprime p, q > 0")
    g = max(alexander)
    v = torsion_coefficients(alexander)
    unknot = torsion_coefficients({0: 1})
    out = []
    for i in range(p):
        width = 1
        while not ((i + p * (width + 1)) // q >= g
                   and (i - p * (width + 1)) // q <= -g):
            width += 1
        width += 2
        bottom, ranks = _relative_cone(v, p, q, i, width)
        lens_bottom, lens_ranks = _relative_cone(unknot, p, q, i, width)
        if lens_ranks:
            raise AssertionError("the unknot's cone has a reduced part")
        shift = lens_d(p, q, i) - lens_bottom
        out.append((bottom + shift,
                    tuple((m + shift, r) for m, r in sorted(ranks.items()))))
    return out
