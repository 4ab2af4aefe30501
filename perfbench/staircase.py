"""Staircase complexes and the oracles that check answers on them.

Nothing here imports hfplus: the generator writes the program's text
input format, and the oracles are closed formulas, so a check built on
them shares no code with the pipeline it checks.

* lens_d: the lens-space recursion for d of p/q surgery on the unknot.
* ni_wu_d: d(S^3_{p/q}(K), i) = d(L(p, q), i)
  - 2 max(V_{floor(i/q)}, V_{-floor((i-p)/q)}) for p, q > 0 (Ni-Wu,
  arXiv:1009.4720, Prop. 1.6), with V_s the torsion coefficient
  sum_{j>=1} j a_{s+j} of an L-space knot and V_{-s} = V_s + s.
* is_l_space_slope: for an L-space knot of genus g, p/q surgery has
  HF_red = 0 exactly when p/q >= 2g - 1 (Ozsvath-Szabo,
  arXiv:math/0504404).
"""

from fractions import Fraction
from math import gcd


def torus_2_alexander(g):
    """Alexander polynomial of T(2, 2g+1) as {exponent: coefficient}."""
    return {k: (-1) ** (g - k) for k in range(-g, g + 1)}


def staircase_text(alexander):
    """Text form of the staircase complex of an L-space knot, ungraded.

    The exponents n_0 > n_1 > ... > n_{2g} of the Alexander polynomial
    give the step lengths n_k - n_{k+1}.  Generator x_n sits at
    Alexander grading n_n; the odd ones are the corners with
    d x_{2k+1} = U^0 (x_{2k} + x_{2k+2}), and the flip exchanges x_n
    with x_{2g-n}.  For T(2, 2g+1) every step has length 1, and g = 1
    and g = 2 give the bundled trefoil_right and torus_2_5.
    """
    exps = sorted((e for e, c in alexander.items() if c), reverse=True)
    top = len(exps) - 1
    if top % 2:
        raise ValueError("an L-space knot has an odd number of terms")
    # walk the staircase: even-to-odd steps move i, odd-to-even move j
    pos = [(0, 0)]
    for n in range(top):
        i, j = pos[-1]
        step = exps[n] - exps[n + 1]
        pos.append((i + step, j) if n % 2 == 0 else (i, j - step))
    # recentre so that j - i is the Alexander grading of each generator
    i0 = -exps[0]
    lines = []
    for n, (i, j) in enumerate(pos):
        lines.append(f"gen x{n} {i + i0} {j}")
    for n in range(1, top, 2):
        lines.append(f"d x{n} = x{n - 1} + x{n + 1}")
    for n in range(top + 1):
        lines.append(f"flip x{n} = x{top - n}")
    return "\n".join(lines) + "\n"


def lens_d(p, q, i):
    """d of p/q surgery on the unknot at residue 0 <= i < p."""
    if p == 1:
        return Fraction(0)
    if gcd(p, q) != 1 or not 0 <= i < p:
        raise ValueError("lens_d needs coprime p, q and 0 <= i < p")
    return (Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q)
            - lens_d(q, p % q, i % q))


def v_invariants(alexander):
    """V_s for s >= 0 from the torsion coefficients, as a function."""
    def v(s):
        if s < 0:
            return v(-s) - s
        top = max(alexander)
        return sum(j * alexander.get(s + j, 0)
                   for j in range(1, top - s + 1))
    return v


def ni_wu_d(alexander, p, q, i):
    v = v_invariants(alexander)
    return lens_d(p, q, i) - 2 * max(v(i // q), v(-((i - p) // q)))


def is_l_space_slope(alexander, p, q):
    g = max(alexander)
    return Fraction(p, q) >= 2 * g - 1
