import random
from collections import OrderedDict

import pytest

from helpers import (ChainMap, _compose, homology_free_ranks,
                     homology_profile, library_checks, random_complex,
                     rational_rank, realization, staircase, t_b,
                     torsion_square)
from hfplus import cfk, homology
from hfplus.acomplex import band_floor, realize
from hfplus.errors import NotStabilizedError, TorsionInTowerError
from hfplus.homology import (TOWER_LEVELS, GradedComplex, graded_homology,
                             smith_normal_form, tower_decompose)
from hfplus.surgery import (SurgeryDescriptor, build_mapping_cone, hf_plus,
                            truncation_sigma)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _check_snf(matrix, expected_diagonal):
    l, d, r = smith_normal_form(matrix)
    assert _matmul(_matmul(l, matrix), r) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert diag == expected_diagonal
    for i, row in enumerate(d):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0


def test_snf_small_oracles():
    _check_snf([[2, 4], [6, 8]], [2, 4])
    _check_snf([[1, 0], [0, 1]], [1, 1])
    _check_snf([[0, 0], [0, 0]], [0, 0])
    _check_snf([[1, 2], [3, 4]], [1, 2])
    _check_snf([[6]], [6])
    _check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156])


def test_snf_rectangular_and_empty():
    _check_snf([[3, 6, 9]], [3])
    _check_snf([[2], [4], [5]], [1])
    l, d, r = smith_normal_form([])
    assert l == [] and d == [] and r == []


def test_snf_matches_rational_rank_on_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(ncols)]
             for _ in range(nrows)]
        _, d, _ = smith_normal_form(m)
        snf_rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i])
        cols = [{r: m[r][c] for r in range(nrows) if m[r][c]}
                for c in range(ncols)]
        assert snf_rank == rational_rank(cols, nrows)


def test_torsion_from_a_doubling_arrow():
    # x in degree 1 with dx = 2y gives H_0 = Z/2 and kills nothing else
    gc = GradedComplex([1, 0], [{1: 2}, {}])
    h = graded_homology(gc)
    assert h.free_rank(0) == 0
    assert h.torsion(0) == (2,)
    assert h.free_rank(1) == 0
    assert h.support() == [0]


def test_homology_of_a_split_pair_is_zero():
    gc = GradedComplex([1, 0], [{1: 1}, {}])
    h = graded_homology(gc)
    assert h.support() == []


def test_graded_complex_validation():
    with pytest.raises(ValueError, match="does not drop degree by 1"):
        GradedComplex([0, 0], [{1: 1}, {}])
    with pytest.raises(ValueError, match="does not square to zero"):
        # d(a) = b, d(b) = c: the composite is nonzero
        GradedComplex([2, 1, 0], [{1: 1}, {2: 1}, {}])
    with pytest.raises(ValueError, match="does not drop degree by 2"):
        GradedComplex([1, 0], [{1: 1}, {}], u_action=[{1: 1}, {}])
    with pytest.raises(ValueError, match="explicit zero stored"):
        GradedComplex([1, 0], [{1: 0}, {}])
    # d(x) = y and d(a) = b, with U(x) = a: U(d x) = 0 but d(U x) = b
    with pytest.raises(ValueError, match="U does not commute"):
        GradedComplex([3, 2, 1, 0], [{1: 1}, {}, {3: 1}, {}],
                      u_action=[{2: 1}, {}, {}, {}])
    # d(j) = 0 but d(U j) = b, with U(j) = a and d(a) = b
    with pytest.raises(ValueError, match="U does not commute"):
        GradedComplex([3, 1, 0], [{}, {2: 1}, {}],
                      u_action=[{1: 1}, {}, {}])


def test_graded_complex_check_sums_terms_that_cancel():
    # d(a) = b + c with d(b) = e, d(c) = -e: d(d a) = e - e = 0
    GradedComplex([2, 1, 1, 0], [{1: 1, 2: 1}, {3: 1}, {3: -1}, {}])
    # d(x) = y, d(a) = d(c) = b, U(x) = a - c: d(U x) = b - b = U(d x)
    GradedComplex([3, 2, 1, 0, 1], [{1: 1}, {}, {3: 1}, {}, {3: 1}],
                  u_action=[{2: 1, 4: -1}, {}, {}, {}, {}])
    # d(x) = y + z, U(y) = a, U(z) = -a: U(d x) = a - a = d(U x)
    GradedComplex([3, 2, 2, 0], [{1: 1, 2: 1}, {}, {}, {}],
                  u_action=[{}, {3: 1}, {3: -1}, {}])


def _violations(degrees, boundary, u_action):
    """Every message GradedComplex's check could raise on these lists,
    found from the whole composed columns (helpers._compose)."""
    found = set()
    for j, col in enumerate(boundary):
        for i, v in col.items():
            if v == 0:
                found.add("explicit zero stored in boundary")
            if degrees[i] != degrees[j] - 1:
                found.add(f"boundary entry {j}->{i} does not drop degree "
                          "by 1")
    if any(_compose(boundary, boundary)):
        found.add("boundary does not square to zero")
    for j, col in enumerate(u_action):
        for i in col:
            if degrees[i] != degrees[j] - 2:
                found.add(f"U entry {j}->{i} does not drop degree by 2")
    if _compose(u_action, boundary) != _compose(boundary, u_action):
        found.add("U does not commute with the boundary")
    return found


def test_graded_complex_check_agrees_with_composed_columns():
    # one entry of d or U of a benchmark ladder cone, as built or as
    # cancelled, or of a region of torsion_square (where d(d a) sums two
    # terms), flipped, stored as zero or deleted: the check raises
    # exactly when the composed columns show a violation, and with one
    # of the messages they show
    rng = random.Random(20261019)
    k = torsion_square()
    gc = realization(realize(k, t_b(k), band_floor(k, [(t_b(k), 0)]) + 8))
    complexes = [(gc.degrees, gc.boundary, gc.u_action)]
    for k, p, q in [(staircase(3), 7, 3), (staircase(5), 1, 1)]:
        for i in range(p):
            desc = SurgeryDescriptor(p, q, i, truncation_sigma(k, p, q, i),
                                     TOWER_LEVELS)
            gc = build_mapping_cone(k, desc).complex
            complexes.append((list(gc.degrees),
                              [dict(c) for c in gc.boundary],
                              [dict(c) for c in gc.u_action]))
            gc.cancel_units()
            complexes.append((gc.degrees, gc.boundary, gc.u_action))
    seen = set()
    for degrees, boundary, u_action in complexes:
        assert not _violations(degrees, boundary, u_action)
        for _ in range(20):
            maps = [[dict(c) for c in boundary],
                    [dict(c) for c in u_action]]
            m = rng.choice([m for m in maps if any(m)])
            col = rng.choice([c for c in m if c])
            i = rng.choice(sorted(col))
            how = rng.choice(("flip", "zero", "delete"))
            if how == "delete":
                del col[i]
            else:
                col[i] = -col[i] if how == "flip" else 0
            found = _violations(degrees, *maps)
            try:
                GradedComplex(degrees, *maps)
                raised = None
            except ValueError as exc:
                raised = str(exc)
            assert (raised is None) == (not found), (how, found)
            assert raised is None or raised in found, (raised, found)
            seen.add(raised)
    assert seen == {None, "explicit zero stored in boundary",
                    "boundary does not square to zero",
                    "U does not commute with the boundary"}, seen


def test_chain_map_validation_and_induced():
    src = GradedComplex([0], [{}])
    tgt = GradedComplex([0], [{}])
    doubling = ChainMap(src, tgt, [{0: 2}])
    ind = doubling.induced(graded_homology(src), graded_homology(tgt))
    assert ind.kernel_rank() == 0
    assert not ind.is_surjective()
    identity = ChainMap(src, tgt, [{0: 1}])
    assert identity.induced(graded_homology(src),
                            graded_homology(tgt)).is_isomorphism()


def test_chain_map_rejects_non_chain_maps():
    src = GradedComplex([1, 0], [{1: 1}, {}])
    tgt = GradedComplex([1, 0], [{1: 2}, {}])
    with pytest.raises(ValueError):
        ChainMap(src, tgt, [{0: 1}, {1: 1}])  # does not commute with d


def _tower_complex(levels, extra_degrees=()):
    """U-tower with top at degree 2*(levels-1), plus idle extra classes."""
    degrees = [2 * k for k in range(levels)] + list(extra_degrees)
    boundary = [{} for _ in degrees]
    u = [{} for _ in degrees]
    for k in range(1, levels):
        u[k] = {k - 1: 1}
    return GradedComplex(degrees, boundary, u_action=u)


def test_tower_decompose_bare_tower():
    h = graded_homology(_tower_complex(8))
    t = tower_decompose(h)
    assert t.d_bottom == 0
    assert t.total_reduced_rank == 0


def test_tower_decompose_reports_reduced_classes():
    h = graded_homology(_tower_complex(8, extra_degrees=[3, 3, 0]))
    t = tower_decompose(h)
    assert t.d_bottom == 0
    assert dict(t.reduced) == {3: (2, ()), 0: (1, ())}
    assert t.total_reduced_rank == 3


def test_tower_decompose_shifted_bottom():
    degrees = [4, 6, 8, 10]
    u = [{}, {0: 1}, {1: 1}, {2: 1}]
    h = graded_homology(GradedComplex(degrees, [{} for _ in degrees],
                                      u_action=u))
    t = tower_decompose(h)
    assert t.d_bottom == 4


def test_tower_decompose_needs_tower_levels_occupied_degrees():
    for levels in (2, 3):
        with pytest.raises(NotStabilizedError):
            tower_decompose(graded_homology(_tower_complex(levels)))
    for levels in (4, 5):
        h = graded_homology(_tower_complex(levels))
        assert tower_decompose(h).d_bottom == 0, levels


def _tower_plus(degrees, boundary, u_action):
    """The tower at 0, 2, 4, 6 (elements 0..3, U sending each to the
    one below), followed by these elements."""
    u = [{}, {0: 1}, {1: 1}, {2: 1}] + list(u_action)
    return GradedComplex([0, 2, 4, 6] + list(degrees),
                         [{} for _ in range(4)] + list(boundary), u_action=u)


@pytest.mark.parametrize("complex_, error, message", [
    # Z + Z/2 at the top
    (_tower_plus([7, 6], [{5: 2}, {}], [{}, {}]),
     TorsionInTowerError, "torsion at degree 6 inside the stable tower region"),
    # U maps the top onto a Z/2 one level down: the walk checks that
    # level before its image there, the zero class, could stop it
    (GradedComplex([0, 2, 4, 5, 6], [{}, {}, {}, {2: 2}, {}],
                   u_action=[{}, {0: 1}, {}, {}, {2: 1}]),
     TorsionInTowerError, "torsion at degree 4 inside the stable tower region"),
    (_tower_plus([6], [{}], [{}]),
     NotStabilizedError, "rank 2 at degree 6 near the top"),
    (GradedComplex([0, 2, 4, 8], [{} for _ in range(4)],
                   u_action=[{}, {0: 1}, {1: 1}, {}]),
     NotStabilizedError, "tower degrees not spaced by two near 8"),
    (GradedComplex([0, 2, 4, 6], [{} for _ in range(4)],
                   u_action=[{}, {0: 1}, {1: 1}, {2: 2}]),
     NotStabilizedError, "U is not an isomorphism from degree 6"),
])
def test_tower_decompose_names_the_first_failed_check(complex_, error,
                                                      message):
    with pytest.raises(error) as exc:
        tower_decompose(graded_homology(complex_))
    assert str(exc.value) == message


def test_tower_decompose_reads_u_once_per_degree(monkeypatch):
    # the check of the top levels and the walk share one U per degree
    h = graded_homology(_tower_complex(8, extra_degrees=[3, 3, 0]))
    read = []
    u_matrix = type(h).u_matrix

    def reading(self, d):
        read.append(d)
        return u_matrix(self, d)

    monkeypatch.setattr(type(h), "u_matrix", reading)
    assert tower_decompose(h).d_bottom == 0
    assert read == [14, 12, 10, 8, 6, 4, 2]


def test_smith_normal_form_rejects_ragged_rows():
    with pytest.raises(ValueError) as exc:
        smith_normal_form([[1, 2], [3]])
    assert str(exc.value) == "matrix rows have unequal lengths"


def test_graded_group_reads_only_what_it_holds():
    # degrees 0 and 2, a tower with U; degree 1 holds nothing
    h = graded_homology(_tower_complex(2))
    with pytest.raises(ValueError) as exc:
        h.coords_global(1, {0: 1})
    assert str(exc.value) == "cycle in a degree with no basis"
    assert h.coords_global(1, {}) == []
    with pytest.raises(ValueError) as exc:
        h.coords_global(0, {1: 1})
    assert str(exc.value) == "vector is not homogeneous of degree 0"
    assert h.u_matrix(2) == [[1]]
    assert h.u_matrix(5) == []  # nothing in degree 5
    bare = graded_homology(GradedComplex([0, 2], [{}, {}]))
    with pytest.raises(ValueError) as exc:
        bare.u_matrix(2)
    assert str(exc.value) == "complex carries no U-action"


def test_random_realizations_match_rational_oracle():
    rng = random.Random(20260825)
    for _ in range(50):
        k = random_complex(rng)
        t = rng.choice([t_b(k), 0, 1])
        top = band_floor(k, [(t, 0)]) + 2 * rng.randrange(2, 5)
        realized = realize(k, t, top)
        gc = realization(realized)
        h = graded_homology(gc)
        oracle = homology_free_ranks(gc)
        for d in set(gc.degrees):
            assert h.free_rank(d) == oracle.get(d, 0), (k.name, t, d)
        # a ceiling skips the degrees above it and changes none below
        cut = graded_homology(gc, ceiling=realized.ceiling)
        assert all(cut.degree_data(d) is None
                   for d in set(gc.degrees) if d > realized.ceiling)
        assert cut.summary() == h.summary(realized.ceiling), k.name


def _outcome(compute):
    """compute()'s value, or the type of the error it raised."""
    try:
        return compute()
    except (NotStabilizedError, TorsionInTowerError) as exc:
        return type(exc)


def _assert_no_unit_entries(gc):
    assert all(abs(v) != 1 for col in gc.boundary for v in col.values())


def test_cancel_units_keeps_torsion_and_drops_split_pairs():
    torsion = GradedComplex([1, 0], [{1: 2}, {}])
    torsion.cancel_units()
    assert torsion.n == 2 and graded_homology(torsion).torsion(0) == (2,)
    split = GradedComplex([1, 0, 0], [{1: 1, 2: 2}, {}, {}],
                          labels=["x", "y", "z"])
    split.cancel_units()
    assert split.n == 1 and split.labels == ["z"] and split.degrees == [0]
    assert split.by_degree == {0: [0]}
    assert graded_homology(split).summary() == {0: (1, ())}


def test_cancel_units_with_nothing_to_cancel_changes_and_checks_nothing(
        monkeypatch):
    # d(x) = 2 y and U(x) = z: no unit, so the complex stays as built,
    # and the check made at construction is not repeated
    checked = library_checks(monkeypatch)
    gc = GradedComplex([2, 1, 0], [{1: 2}, {}, {}],
                       u_action=[{2: 1}, {}, {}], labels=["x", "y", "z"])

    def state():
        return (gc.n, gc.degrees, gc.boundary, gc.u_action, gc.labels,
                gc.by_degree)

    before = repr(state())
    gc.cancel_units()
    assert repr(state()) == before
    assert [c.n for c in checked] == [3]


@pytest.mark.no_self_check
def test_the_installed_check_catches_a_broken_residue(monkeypatch):
    # x -> y + 2 z cancels x against y, so z is left, and the library
    # checks the complex it built and not the residue.  A step that
    # also sets d(z) = z leaves a residue whose d keeps its degree; the
    # check tests/conftest.py installs on cancel_unit_pairs, marker
    # no_self_check or not, catches it
    checked = library_checks(monkeypatch)
    gc = GradedComplex([1, 0, 0], [{1: 1, 2: 2}, {}, {}])
    gc.cancel_units()
    assert gc.n == 1 and checked == [gc]
    step = homology._cancel_pair

    def looping(boundary, *args):
        step(boundary, *args)
        boundary[-1][len(boundary) - 1] = 1

    monkeypatch.setattr(homology, "_cancel_pair", looping)
    gc = GradedComplex([1, 0, 0], [{1: 1, 2: 2}, {}, {}])
    with pytest.raises(ValueError, match="does not drop degree by 1") as exc:
        gc.cancel_units()
    assert "cancel_units" in [entry.name for entry in exc.traceback]


def test_cancel_units_transports_u_along_a_cancelled_pair():
    # d(x) = y and d(a) = b, with U(x) = a, U(y) = b and U(t) = y for a
    # lone class t: pi sends y to y - d(x) = 0, so after both pairs
    # cancel only t is left, and U(t) = 0 on the residue.
    gc = GradedComplex([3, 2, 1, 0, 4],
                       [{1: 1}, {}, {3: 1}, {}, {}],
                       u_action=[{2: 1}, {3: 1}, {}, {}, {1: 1}])
    gc.cancel_units()
    assert gc.n == 1 and gc.degrees == [4]
    assert gc.u_action == [{}] and gc.boundary == [{}]


def test_cancel_units_agrees_with_the_unreduced_complex():
    rng = random.Random(20261018)
    torsion_seen = False
    for _ in range(60):
        k = random_complex(rng)
        t = rng.choice([t_b(k), 0, 1])
        top = band_floor(k, [(t, 0)]) + 2 * rng.randrange(2, 6)
        full = graded_homology(realization(realize(k, t, top)))
        gc = realization(realize(k, t, top))
        boundary, u_action = gc.boundary, gc.u_action
        gc.cancel_units()
        assert gc.boundary is boundary and gc.u_action is u_action
        assert len(gc.degrees) == gc.n == len(boundary) == len(u_action)
        _assert_no_unit_entries(gc)
        reduced = graded_homology(gc)
        assert reduced.summary() == full.summary(), (k.name, t)
        torsion_seen |= any(t for _, t in full.summary().values())
        assert (_outcome(lambda: tower_decompose(reduced))
                == _outcome(lambda: tower_decompose(full))), k.name
    assert torsion_seen


def test_cancel_unit_pairs_carries_maps_out_of_the_complex():
    # the complex is x (3) -> y (2), w (4) with U(w) = y, z (2) and
    # U(x) = v (1); x's component outside is f(x) = 5 e.  Cancelling x
    # against y takes U(w) -= U(w)_y d(x), so g(w) = -5 e, and every
    # list is compacted to w, z, v
    degrees = [3, 2, 4, 2, 1]
    boundary = [{1: 1}, {}, {}, {}, {}]
    u_action = [{4: 1}, {}, {1: 1}, {}, {}]
    f = [{0: 5}, {}, {}, {}, {}]
    g = [{}, {}, {}, {}, {}]
    keep = homology.cancel_unit_pairs(degrees, boundary, u_action,
                                      carried=(f, g))
    assert keep == [2, 3, 4] and degrees == [4, 2, 1]
    assert boundary == [{}, {}, {}] and u_action == [{}, {}, {}]
    assert f == [{}, {}, {}] and g == [{0: -5}, {}, {}]


def _doubling_cancel_pair(monkeypatch):
    """Make each cancellation step double the first boundary column left."""
    step = homology._cancel_pair

    def doubling(boundary, *args):
        step(boundary, *args)
        col = next((col for col in boundary if col), {})
        for i in col:
            col[i] *= 2

    monkeypatch.setattr(homology, "_cancel_pair", doubling)


def _random_region():
    k = random_complex(random.Random(5))
    return realize(k, t_b(k), band_floor(k, [(t_b(k), 0)]) + 8)


def test_cancel_unit_pairs_self_check_catches_a_wrong_step(monkeypatch):
    _doubling_cancel_pair(monkeypatch)
    rr = _random_region()
    with pytest.raises(AssertionError, match="changed the homology"):
        homology.cancel_unit_pairs(rr.degrees, rr.boundary, rr.u_action)


def test_the_cancellation_check_runs_on_cones_and_regions(monkeypatch):
    # the check conftest installs on cancel_unit_pairs also catches a
    # wrong step reached through GradedComplex.cancel_units, and through
    # hf_plus, whose first cancellation reduces a bottom region
    # (surgery.reduce_regions)
    _doubling_cancel_pair(monkeypatch)
    with pytest.raises(AssertionError, match="changed the homology"):
        realization(_random_region()).cancel_units()
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    with pytest.raises(AssertionError, match="changed the homology") as exc:
        hf_plus(staircase(3), 7, 3)
    assert "reduce_regions" in [entry.name for entry in exc.traceback]


def test_the_cancellation_check_runs_on_each_strip(monkeypatch):
    # a step that also doubles every incoming column leaves the homology
    # of each strip alone; the step-by-step comparison the check makes
    # on every call with incoming columns catches it
    step = homology._cancel_pair

    def doubling(boundary, rows, *args):
        step(boundary, rows, *args)
        for col in boundary[len(rows):]:
            for i in col:
                col[i] *= 2

    monkeypatch.setattr(homology, "_cancel_pair", doubling)
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    with pytest.raises(AssertionError, match="step-by-step") as exc:
        hf_plus(staircase(3), 7, 3)
    assert "_reduce_strip" in [entry.name for entry in exc.traceback]


def test_the_snf_check_catches_a_wrong_elimination(monkeypatch):
    # the check conftest installs on _SnfWork runs on every elimination,
    # whether graded_homology or smith_normal_form asks for it: here each
    # reduced pivot is negated in D but not in L
    reduce = homology._SnfWork._reduce_slot

    def negating(self, t):
        reduce(self, t)
        self.rows[t][t] = -self.rows[t][t]

    monkeypatch.setattr(homology._SnfWork, "_reduce_slot", negating)
    with pytest.raises(AssertionError, match="smith normal form"):
        graded_homology(GradedComplex([1, 0], [{1: 2}, {}]))
    with pytest.raises(AssertionError, match="smith normal form"):
        smith_normal_form([[2, 4], [6, 8]])


def _count_snf_works(monkeypatch):
    """A list that grows by one for every _SnfWork built from now on."""
    built = []
    work = homology._SnfWork

    def counting(*args, **kwargs):
        built.append(args)
        return work(*args, **kwargs)

    monkeypatch.setattr(homology, "_SnfWork", counting)
    return built


def test_zero_differential_reads_homology_off_the_basis(monkeypatch):
    # every degree has no boundary in or out: one free Z per element,
    # U on homology is U's own columns, and no elimination runs
    degrees = [0, 0, 2, 2, 4]
    u = [{}, {}, {0: 1, 1: -1}, {1: 3}, {2: 2, 3: 1}]
    gc = GradedComplex(degrees, [{} for _ in degrees], u_action=u)
    built = _count_snf_works(monkeypatch)
    h = graded_homology(gc)
    assert h.summary() == {0: (2, ()), 2: (2, ()), 4: (1, ())}
    for d, ids in gc.by_degree.items():
        below = gc.by_degree.get(d - 2, [])
        assert h.u_matrix(d) == [[u[j].get(i, 0) for i in below]
                                 for j in ids], d
        # every transform of a bare degree is the identity, held as None
        dh = h.degree_data(d)
        assert dh.bare
        assert (dh.kernel_cols, dh.q_rows, dh.y_l_rows, dh.y_linv_cols) == (
            None, None, None, None), d
    assert built == []


def _with_unit_pairs(gc):
    """gc plus an acyclic pair x -> y, d(x) = y and no U, from every
    occupied degree: the homology and U on it are unchanged, and every
    degree of gc then has a boundary leaving it."""
    degrees = list(gc.degrees)
    boundary = [dict(col) for col in gc.boundary]
    u_action = [dict(col) for col in gc.u_action]
    for d in sorted(gc.by_degree):
        degrees += [d, d - 1]
        boundary += [{len(boundary) + 1: 1}, {}]
        u_action += [{}, {}]
    return GradedComplex(degrees, boundary, u_action=u_action)


def test_bare_degrees_read_the_same_as_through_the_snf(monkeypatch):
    # random residues read as they are, with their zero-differential
    # degrees bare, and with a unit pair in every degree, which sends
    # each degree through the elimination: the homology, the kernels of
    # U on it and the tower split agree
    rng = random.Random(20261020)
    built = _count_snf_works(monkeypatch)
    bare, towers = 0, 0
    for _ in range(40):
        k = random_complex(rng)
        t = rng.choice([t_b(k), 0, 1])
        top = band_floor(k, [(t, 0)]) + 2 * rng.randrange(2, 5)
        gc = realization(realize(k, t, top))
        gc.cancel_units()
        padded = _with_unit_pairs(gc)
        h = graded_homology(gc)
        bare += sum(h.degree_data(d).bare for d in gc.by_degree)
        before = len(built)
        forced = graded_homology(padded)
        assert len(built) - before >= len(gc.by_degree), k.name
        assert not any(forced.degree_data(d).bare for d in gc.by_degree)
        assert forced.summary() == h.summary(), k.name
        assert homology_profile(padded) == homology_profile(gc), k.name
        outcome = _outcome(lambda: tower_decompose(h))
        assert _outcome(lambda: tower_decompose(forced)) == outcome, k.name
        towers += not isinstance(outcome, type)
    assert bare and towers


def test_a_degree_with_boundary_arriving_still_runs_the_snf(monkeypatch):
    # degree 0 has no boundary of its own but receives 2y from degree 1,
    # so its quotient by the image is read off an SNF: H_0 = Z/2
    gc = GradedComplex([1, 0, 0], [{1: 2}, {}, {}])
    built = _count_snf_works(monkeypatch)
    h = graded_homology(gc)
    assert h.summary() == {0: (1, (2,))}
    # one for the boundary leaving degree 1, one for the image in degree 0
    assert len(built) == 2


def test_quotient_by_class_matches_the_snf(monkeypatch):
    # H = prod Z/f (f = 0 for Z) modulo one class, against the invariant
    # factors of its presentation matrix; only a free H and a class with
    # a unit entry skip the elimination
    rng = random.Random(17)
    built = _count_snf_works(monkeypatch)
    shortcut = 0
    for trial in range(300):
        n = rng.randrange(1, 5)
        factors = [rng.choice((0, 0, 0, 2, 3, 4, 6)) if trial % 2 else 0
                   for _ in range(n)]
        vec = [rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(n)]
        relations = ([[f if r == c else 0 for r in range(n)]
                      for c, f in enumerate(factors) if f]
                     + [vec])
        matrix = [[col[r] for col in relations] for r in range(n)]
        _, d, _ = smith_normal_form(matrix)
        diag = [d[i][i] for i in range(min(n, len(relations)))]
        expect = (n - sum(1 for x in diag if x),
                  tuple(sorted(x for x in diag if x > 1)))
        before = len(built)
        assert homology._quotient_by_class(factors, vec) == expect, (
            factors, vec)
        skipped = not any(factors) and (1 in vec or -1 in vec)
        assert (len(built) == before) == skipped, (factors, vec)
        shortcut += skipped
    assert 50 < shortcut < 250
