import random
from collections import OrderedDict
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from helpers import (ReferenceCone, checked_complex, h_columns,
                     homology_dims_mod_p, homology_profile, id_of,
                     kept_regions, library_checks, map_h, map_v,
                     random_knot, reduce_step_by_step, reference_spin_c,
                     staircase, strip_gradings, t_b, torsion_square, twisty,
                     v_columns)
from hfplus import acomplex, cfk, homology, surgery
from hfplus.acomplex import (band_floor, genus, hfk_hat, kernel_rank_v,
                             realize, signed_flip)
from hfplus.cfk import (BUILTIN_NAMES, Generator, KnotComplex, builtin,
                        flip_chain_sign, mirror, validate)
from hfplus.detect import casson_surgery
from hfplus.errors import (FlipMissingError, GradingError,
                           InvalidComplexError, NotStabilizedError)
from hfplus.homology import (TOWER_LEVELS, GradedComplex, graded_homology,
                             tower_decompose)
from hfplus.surgery import (SpincResult, SurgeryDescriptor,
                            build_mapping_cone, conjugation_constant,
                            hf_plus, lens_d_oracle, truncation_sigma)
from sweep import sweep

F = Fraction

GRID = [(p, q) for p in range(1, 11) for q in range(1, 6) if gcd(p, q) == 1]


def _first(g, label, t):
    """The first translate of g in the cone block labelled label.

    It is k = -i_x in B = {i >= 0}, and k = -max(i_x, j_x - t) in
    A_t = {max(i, j - t) >= 0}.
    """
    if label[0] == "B":
        return -g.i
    return -max(g.i, g.j - t)


def _kept_blocks(k, descriptor):
    return surgery._cone_blocks(descriptor, genus(k))


def _band_floor(k, descriptor):
    """The kept blocks' band's lower end, from the pieces' definitions."""
    return max(offset + g.m + 2 * _first(g, label, t)
               for label, t, offset in kept_regions(k, descriptor)
               for g in k.generators) + 1


def test_truncation_sigma_examples():
    assert truncation_sigma(builtin("unknot"), 1, 1, 0) == 1
    assert truncation_sigma(builtin("trefoil_right"), 1, 1, 0) == 1
    assert truncation_sigma(builtin("figure_eight"), 7, 3, 2) == 1
    assert truncation_sigma(builtin("trefoil_right"), 1, 5, 0) == 4
    assert truncation_sigma(builtin("torus_2_5"), 3, 1, 0) == 1
    for p, q in ((0, 1), (-1, 1), (1, 0)):
        with pytest.raises(ValueError) as exc:
            truncation_sigma(builtin("unknot"), p, q, 0)
        assert str(exc.value) == "truncation_sigma requires p, q > 0"


def test_mapping_cone_shape():
    # the window is s in [-1, 1]; t(s) = s, genus 1, so (A_1, B_1) and
    # (A_-1, B_0) cancel and one A block is built
    trefoil = builtin("trefoil_right")
    desc = SurgeryDescriptor(1, 1, 0, sigma=1, depth=8)
    cone = build_mapping_cone(trefoil, desc)
    assert cone.n_a_summands == 1 and cone.n_b_summands == 0
    assert {label[:2] for label in cone.ids} == {("A", 0)}
    assert cone.complex.n > 0
    # at 1/5, t(s) = floor(s / 5): the four A blocks with t = -1 go, each
    # with the B above it, and A_0..A_4 joined by B_1..B_4 stay; every
    # element of B_1..B_4 is cancelled, so only A labels are built
    desc = SurgeryDescriptor(1, 5, 0, sigma=4, depth=8)
    cone = build_mapping_cone(trefoil, desc)
    assert cone.n_a_summands == 5 and cone.n_b_summands == 4
    assert {label[:2] for label in cone.ids} == {("A", s) for s in range(5)}


TRIM_KNOTS = ([builtin(name) for name in BUILTIN_NAMES]
              + [staircase(g) for g in range(2, 7)]
              + [twisty(2), torsion_square()])


def test_end_blocks_cancel_by_chain_isomorphisms():
    # what _cone_blocks relies on, at the chain level: for t >= g, A_t is
    # B element for element and v is the identity; for t <= -g, h is a
    # +-1 bijection onto B cut where h lands
    for k in TRIM_KNOTS:
        g = genus(k)
        flip = signed_flip(k)
        top = band_floor(k, [(t_b(k), 0)]) + 2 * TOWER_LEVELS
        b = realize(k, t_b(k), top)
        for t in (g, g + 1, g + 3):
            a = realize(k, t, top)
            assert ((a.ids, a.degrees, a.boundary, a.u_action)
                    == (b.ids, b.degrees, b.boundary, b.u_action)), (
                        k.name, t)
            assert v_columns(a.ids, b) == [{n: 1} for n in range(len(b.ids))]
        for t in (-g, -g - 1, -g - 3):
            a = realize(k, t, top)
            target = realize(k, t_b(k), top - 2 * t)
            cols = h_columns(k, flip, t, a.ids, target)
            assert all(len(col) == 1 and abs(c) == 1
                       for col in cols for c in col.values()), (k.name, t)
            assert (sorted(n for col in cols for n in col)
                    == list(range(len(target.ids)))), (k.name, t)
            assert all(target.degrees[n] == a.degrees[j] - 2 * t
                       for j, col in enumerate(cols) for n in col)


def test_calibration_minimum_lies_in_the_kept_window():
    # the unknot's tower bottom is the minimum of f(s) = off_A(s) +
    # 2 min(0, t(s)) over the whole window, which _calibration_shift
    # reads as off_A(0); the kept blocks must reach the same minimum
    for name in BUILTIN_NAMES:
        k = builtin(name)
        g = genus(k)
        for p, q in GRID:
            for i in range(p):
                sigma = truncation_sigma(k, p, q, i)
                for desc in (SurgeryDescriptor(p, q, i, sigma, TOWER_LEVELS),
                             SurgeryDescriptor(p, q, i, sigma + 1,
                                               TOWER_LEVELS)):
                    off_a = surgery._cone_offsets(desc)
                    f = {s: off_a[s] + 2 * min(0, desc.t(s))
                         for s in range(-desc.sigma, desc.sigma + 1)}
                    kept = [s for s, _, _ in surgery._cone_blocks(desc, g)]
                    assert (min(f[s] for s in kept)
                            == min(f.values())), (name, desc)
                    assert min(f.values()) == off_a[0], (name, desc)


def test_the_key_table_undoes_h_with_hop():
    # the flip is an involution, so hop's offset of flip(n) is minus
    # that of n, and a key h_t sends into B comes back under
    # key + hop[key % G][1] + G t, as MappingCone._join reads it
    knots = [builtin(name) for name in BUILTIN_NAMES]
    knots += [mirror(k) for k in knots] + [staircase(g) for g in (2, 3, 4)]
    for k in knots:
        hop, in_b = surgery._key_table(k)
        G = len(hop)
        for n, (_, off, _) in enumerate(hop):
            assert hop[n + off][1] == -off, (k.name, n)
        g = genus(k)
        keys = range(-G * (g + 3), G * (g + 3))
        for t in range(-g - 1, g + 2):
            for key, col in zip(keys, surgery._h_columns(k, keys, t)):
                for image in col:
                    assert image >= in_b[image % G], (k.name, key, t)
                    assert image + hop[image % G][1] + G * t == key, (
                        k.name, key, t)


def _strip(k, t, top=None):
    """S_t = C{i < 0 <= j - t} from its definition, key -> degree."""
    return {(g.name, n): g.m + 2 * n for g in k.generators
            for n in range(t - g.j, -g.i)
            if top is None or g.m + 2 * n <= top}


def test_each_a_block_is_b_plus_its_strip():
    # what MappingCone relies on, at the chain level: at any cut, A_t is
    # B plus the strip S_t, element for element; S_t is a subcomplex, B
    # the quotient, and v the identity on B's keys
    for k in TRIM_KNOTS:
        g = genus(k)
        floor = band_floor(k, [(t_b(k), 0)])
        for t in range(-g - 2, g + 3):
            assert len(_strip(k, t)) == sum(max(0, x.j - x.i - t)
                                            for x in k.generators), k.name
            for top in (floor - 3, floor, floor + 2 * TOWER_LEVELS):
                a = realize(k, t, top)
                b = realize(k, t_b(k), top)
                strip = _strip(k, t, top)
                assert not strip.keys() & set(b.ids), (k.name, t)
                assert (dict(zip(a.ids, a.degrees))
                        == {**dict(zip(b.ids, b.degrees)), **strip}), (
                            k.name, t, top)
                index = id_of(b)
                assert v_columns(a.ids, b) == [
                    {} if key in strip else {index[key]: 1}
                    for key in a.ids]
                for key, col, ucol in zip(a.ids, a.boundary, a.u_action):
                    if key in strip:
                        assert {a.ids[n] for n in (*col, *ucol)} <= set(strip)
                        continue
                    n = index[key]
                    for into, own in ((col, b.boundary[n]),
                                      (ucol, b.u_action[n])):
                        assert ({a.ids[i]: c for i, c in into.items()
                                 if a.ids[i] not in strip}
                                == {b.ids[i]: c for i, c in own.items()})


def test_hf_plus_realizes_each_region_once(monkeypatch):
    # 1/5 and 2/7 have q > p, so several Spin^c structures share a
    # bottom region; at 5/1 every cone of the trefoil is one A block;
    # the random knot's cone at 2/1 still shrinks in cancel_units
    cases = [(staircase(5), 7, 3), (builtin("figure_eight"), 2, 7),
             (builtin("trefoil_right"), 1, 5),
             (builtin("trefoil_right"), 5, 1),
             (random_knot(random.Random(0), 4), 2, 1)]
    joined = shrunk = 0
    for k, p, q in cases:
        tops, ts = {}, set()
        for i in range(p):
            desc = SurgeryDescriptor(p, q, i, truncation_sigma(k, p, q, i),
                                     TOWER_LEVELS)
            top = _band_floor(k, desc) + 2 * desc.depth
            (_, t, offset), *rest = _kept_blocks(k, desc)
            tops[t] = max(tops.get(t, top - offset), top - offset)
            ts.update(t for _, t, _ in rest)
        calls, strips, cones, sizes = [], [], [], []

        def counting(complex_, t, top):
            calls.append((t, top))
            return realize(complex_, t, top)

        def stripping(complex_, t):
            # _reduce_strip builds S_t only when the memo misses
            strips.append(t)
            return acomplex._strip(complex_, t)

        def building(*args):
            cones.append(build_mapping_cone(*args))
            sizes.append(cones[-1].complex.n)
            return cones[-1]

        with monkeypatch.context() as m:
            m.setattr(cfk, "_memo", OrderedDict())
            acomplex.genus(k)  # its hat homology checks columns
            m.setattr(surgery, "realize", counting)
            m.setattr(surgery, "_strip", stripping)
            m.setattr(surgery, "build_mapping_cone", building)
            checked = library_checks(m)
            hf_plus(k, p, q)
        # one realization per distinct bottom region, at the largest top
        # any Spin^c structure's cone needs, and none of B; one strip S_t
        # for each distinct t; and the library checks each of the p cones
        # once, when it is built, and no region, strip or residue
        assert len(calls) == len(tops) and dict(calls) == tops, (p, q)
        assert set(tops) == {_kept_blocks(k, c.descriptor)[0][1]
                             for c in cones}
        assert sorted(strips) == sorted(ts), (p, q)
        assert len(cones) == p and checked == [c.complex for c in cones], (
            p, q)
        shrunk += sum(sizes) > sum(cone.complex.n for cone in cones)
        # the bottom block lies in its region, every other A_s is
        # the strip S_t(s), and no element of any B_s is left
        for cone in cones:
            kept = _kept_blocks(k, cone.descriptor)
            blocks = {s: (t, offset) for s, t, offset in kept}
            joined += len(kept) > 1
            assert not any(label[0] == "B" for label in cone.ids), (p, q)
            for label, degree in zip(cone.ids, cone.complex.degrees):
                t, offset = blocks[label[1]]
                g = k.by_name[label[2]]
                i, j = g.i + label[3], g.j + label[3]
                assert degree == g.m + 2 * label[3] + offset
                assert degree <= cone.ceiling + 1
                if label[1] == kept[0][0]:
                    assert label[3] >= _first(g, label, t), (
                        p, q, label)
                else:
                    assert i < 0 <= j - t, (p, q, label)
    assert joined >= 5 and shrunk


def _residue_total(complex_, descriptor, regions):
    """Elements of the cone's bottom residue and its strips' residues."""
    _, residues = regions
    (_, bottom, _), *rest = _kept_blocks(complex_, descriptor)
    return len(residues[bottom][0]) + sum(
        len(surgery._reduce_strip(complex_, t)[0]) for _, t, _ in rest)


def test_cone_sizes_read_off_the_translate_rules(monkeypatch):
    # every realization holds _k_range's translates of each generator;
    # every strip S_t is built with _strip_range's translates, whole,
    # since it lies 2 depth + 2 or more below the top of each cone it is
    # used in; and each cone is its bottom residue and the residues of
    # its strips
    cases = [(builtin(name), p, q) for name in BUILTIN_NAMES
             for p, q in GRID]
    cases += [(staircase(g), p, q) for g in range(2, 9)
              for p, q in ((1, 1), (7, 3))]
    rng = random.Random(11)
    cases += [(random_knot(rng, 2), p, q) for _ in range(4)
              for p, q in ((1, 1), (7, 3), (2, 5))]
    realized, strips, built, given = [], {}, [], []
    cancel, reduce_strip = surgery.cancel_unit_pairs, surgery._reduce_strip

    def counting(complex_, t, top):
        real = realize(complex_, t, top)
        realized.append((complex_, t, top, len(real.ids)))
        return real

    def cancelling(degrees, *args):
        given[:] = [list(degrees)]
        return cancel(degrees, *args)

    def reducing(source, t):
        # the strip's degrees as built, which its one cancellation gets
        # when the memo misses
        given.clear()
        residue = reduce_strip(source, t)
        if given:
            strips[t] = given[0], residue[0]
        return residue

    def building(complex_, descriptor, regions):
        cone = build_mapping_cone(complex_, descriptor, regions)
        for _, t, offset in _kept_blocks(complex_, descriptor)[1:]:
            degrees, kept = strips[t]
            translates = [(g, k) for g in complex_.generators
                          for k in acomplex._strip_range(g, t)]
            assert degrees == [g.m + 2 * k for g, k in translates], (
                complex_.name, descriptor, t)
            assert set(kept) <= {(g.name, k) for g, k in translates}
            assert (max(degrees) + offset + 2 * descriptor.depth + 2
                    <= cone.ceiling + 1)
            built.append(len(degrees))
        assert (cone.complex.n
                == _residue_total(complex_, descriptor, regions)), (
                    complex_.name, descriptor)
        return cone

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "realize", counting)
    monkeypatch.setattr(surgery, "cancel_unit_pairs", cancelling)
    monkeypatch.setattr(surgery, "_reduce_strip", reducing)
    monkeypatch.setattr(surgery, "build_mapping_cone", building)
    for k, p, q in cases:
        # a cold memo, so that every strip a case reads is built in it
        cfk._memo.clear()
        strips.clear()
        hf_plus(k, p, q)
    for k, t, top, size in realized:
        assert size == sum(len(acomplex._k_range(g, t, top))
                           for g in k.generators), (k.name, t, top)
    assert len(realized) > len(cases) and sum(built) > 1000


def test_a_large_cone_is_its_residues(monkeypatch):
    # T(2,41) at 1/4 has one cone; built with whole strips it held
    # 41,886 elements, and as the residues of its bottom region and its
    # strips it holds 1,606
    k = staircase(20)
    sizes = []

    def building(complex_, descriptor, regions):
        cone = build_mapping_cone(complex_, descriptor, regions)
        assert (cone.complex.n
                == _residue_total(complex_, descriptor, regions))
        sizes.append(cone.complex.n)
        return cone

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "build_mapping_cone", building)
    hf_plus(k, 1, 4)
    assert len(sizes) == 1 and sizes[0] < 2000, sizes


# Chain steps the cones of staircase(5) at 7/3 take when every frontier
# is swept to its end, keeping the keys that can no longer reach a
# strip: the sum of chain_steps over the seven cones of
# hf_plus(staircase(5), 7, 3) with the live test in MappingCone._join's
# sweep removed, so that each frontier stops only at the top block or
# where it is empty.
UNPRUNED_STEPS = 534


def test_chains_stop_once_no_strip_is_reachable(monkeypatch):
    # the columns are pinned by the reference tests; this pins that
    # most of each chain is never walked, and that signed_flip and the
    # key table are worked out once per knot, not once per cone or call
    k = staircase(5)
    flips, tables, cones = [], [], []
    key_table = surgery._key_table.__wrapped__

    def flipping(source):
        flips.append(source)
        return signed_flip(source)

    @cfk.memoized
    def tabling(source):
        tables.append(source)
        return key_table(source)

    def building(*args):
        cones.append(build_mapping_cone(*args))
        return cones[-1]

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "signed_flip", flipping)
    monkeypatch.setattr(surgery, "_key_table", tabling)
    monkeypatch.setattr(surgery, "build_mapping_cone", building)
    hf_plus(k, 7, 3)
    assert len(cones) == 7 and len(flips) == len(tables) == 1
    steps = sum(cone.chain_steps for cone in cones)
    assert 0 < steps < UNPRUNED_STEPS // 4, steps
    hf_plus(k, 1, 1)
    assert len(cones) > 7 and len(flips) == len(tables) == 1


def test_strips_are_shared_across_calls_and_never_changed(monkeypatch):
    # a strip and the key table depend on the knot alone, so 7/3 after
    # 1/1 reduces only the strips 1/1 did not, and 1/1 again (an hf_plus
    # hit) none; signed_flip runs once for the knot; after every cone
    # each strip residue in the memo still equals a fresh reduction of
    # that strip; and every result is the one a cold memo gives
    k = staircase(4)
    slopes = [(1, 1), (7, 3), (1, 1)]
    cold = {}
    for p, q in set(slopes):
        monkeypatch.setattr(cfk, "_memo", OrderedDict())
        cold[p, q] = hf_plus(k, p, q).comparable()
    reduce_strip = surgery._reduce_strip
    reduce_fresh = reduce_strip.__wrapped__
    read, flips, fresh = [], [], {}

    def in_memo():
        return {key[2]: value for key, value in cfk._memo.items()
                if key[0] is reduce_fresh}

    def reading(source, t):
        read[-1].add(t)
        return reduce_strip(source, t)

    def flipping(source):
        flips.append(source)
        return signed_flip(source)

    def building(*args):
        cone = build_mapping_cone(*args)
        for t, residue in in_memo().items():
            if t not in fresh:
                fresh[t] = deepcopy(reduce_fresh(k, t))
            assert residue == fresh[t], t
        return cone

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "_reduce_strip", reading)
    monkeypatch.setattr(surgery, "signed_flip", flipping)
    monkeypatch.setattr(surgery, "build_mapping_cone", building)
    reduced = []
    for p, q in slopes:
        before = set(in_memo())
        read.append(set())
        assert hf_plus(k, p, q).comparable() == cold[p, q], (p, q)
        reduced.append(set(in_memo()) - before)
    assert reduced[0] == read[0] and reduced[0]
    assert reduced[1] == read[1] - reduced[0] and read[1] & reduced[0]
    assert not reduced[2] and not read[2]
    assert flips == [k]
    assert fresh.keys() == reduced[0] | reduced[1]


def test_cones_sharing_a_bottom_region_are_cut_at_one_degree(monkeypatch):
    # in each case some cones share a bottom region whose least cuts
    # differ; every such cone is cut at the largest, which holds at least
    # TOWER_LEVELS tower levels, and reads what a cone built alone at
    # its own least cut reads
    cones = []

    def building(*args):
        cones.append(build_mapping_cone(*args))
        return cones[-1]

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    for k, p, q in [(builtin("torus_2_5"), 5, 3), (staircase(4), 7, 3)]:
        cones.clear()
        with monkeypatch.context() as m:
            m.setattr(surgery, "build_mapping_cone", building)
            result = hf_plus(k, p, q)
        cuts = {}
        for cone in cones:
            _, t, offset = _kept_blocks(k, cone.descriptor)[0]
            least = _band_floor(k, cone.descriptor) + 2 * TOWER_LEVELS - 1
            assert cone.ceiling >= least, (k.name, cone.descriptor)
            cuts.setdefault(t, set()).add(
                (cone.ceiling - offset, least - offset))
        assert all(len({cut for cut, _ in c}) == 1 for c in cuts.values())
        assert any(len({own for _, own in c}) > 1 for c in cuts.values())
        for r in result.spin_c:
            desc = SurgeryDescriptor(p, q, r.index, r.sigma, TOWER_LEVELS)
            assert (build_mapping_cone(k, desc).ceiling
                    == _band_floor(k, desc) + 2 * TOWER_LEVELS - 1)
            alone = surgery._spin_c_result(k, desc)
            assert alone == r, (k.name, p, q, r.index)


def test_cone_joins_are_the_v_and_h_maps():
    # the unreduced cones the reduced one is tested against: the whole
    # window, and the kept blocks that the chain-level identity cancels
    cases = [(builtin("figure_eight"),
              SurgeryDescriptor(7, 3, 2, sigma=2, depth=12), False),
             (builtin("trefoil_right"),
              SurgeryDescriptor(1, 5, 0, sigma=4, depth=TOWER_LEVELS), True)]
    for k, desc, kept in cases:
        cone = ReferenceCone(k, desc, kept=kept)
        off_a = surgery._cone_offsets(desc)
        index = {label: n for n, label in enumerate(cone.ids)}
        a_positions = ([s for s, _, _ in _kept_blocks(k, desc)] if kept
                       else list(range(-desc.sigma, desc.sigma + 1)))
        joins = 0
        for s in a_positions:
            # the cone cuts A_s at its top; map_v and map_h cut B to match
            top = cone.ceiling + 1 - off_a[s]
            for b_pos, chain_map in ((s, map_v(k, desc.t(s), top)),
                                     (s + 1, map_h(k, desc.t(s), top))):
                if b_pos not in a_positions[1:]:
                    continue
                target = chain_map.target.labels
                expected = [{target[r]: c for r, c in col.items()}
                            for col in chain_map.columns]
                block = []
                for key in chain_map.source.labels:
                    col = cone.complex.boundary[index[("A", s) + key]]
                    block.append({cone.ids[r][2:]: c for r, c in col.items()
                                  if cone.ids[r][:2] == ("B", b_pos)})
                assert block == expected, (s, b_pos)
                joins += 1
        assert joins == 2 * (len(a_positions) - 1) == 8, kept


def _cancel_matched_pairs(cone, units, pairs):
    """The cone's columns, by label, after cancelling units, then pairs.

    Each of units has a +-1 entry when it is cancelled, and each of
    pairs an entry 1.
    """
    boundary = [dict(col) for col in cone.complex.boundary]
    rows = homology._row_index(boundary, len(boundary))
    for x, y in units:
        assert boundary[x][y] in (1, -1)
        homology._cancel_pair(boundary, rows, [], x, y)
    for x, y in pairs:
        assert boundary[x][y] == 1
        homology._cancel_pair(boundary, rows, [], x, y)
    return {cone.ids[j]: {cone.ids[i]: c for i, c in col.items()}
            for j, col in enumerate(boundary) if col is not None}


CHAIN_CASES = ([builtin(name) for name in BUILTIN_NAMES]
               + [twisty(2), torsion_square(), staircase(3)]
               + [random_knot(random.Random(seed), 4)
                  for seed in (0, 1, 2, 30, 31, 52, 60, 97)])


def _profile_to(gc, ceiling):
    """helpers.homology_profile of gc on the degrees up to ceiling."""
    summary, u_ranks = homology_profile(gc)
    support = sorted(summary)
    return ({d: v for d, v in summary.items() if d <= ceiling},
            [r for d, r in zip(support, u_ranks) if d <= ceiling])


@pytest.mark.no_self_check
def test_cone_is_the_kept_cone_with_every_b_cancelled(monkeypatch):
    # with the bottom block left unreduced, the cone's columns are those
    # of the unreduced cone of the kept blocks after cancelling exactly
    # the pairs that each strip S_t(s) cancelled when it was reduced, in
    # A_s, and then the pairs (p, v(p)): every key p of the copy of B
    # inside A_s, s > lo, below the top, against the same key of B_s;
    # less the columns of the elements of B_s at the top, which nothing
    # maps into; and U agrees on homology up to the ceiling
    step, cancel = homology._cancel_pair, homology.cancel_unit_pairs
    reduce_strip = surgery._reduce_strip
    strip_labels, strip_pairs, recording = [], {}, []

    def strip(source, t):
        # _reduce_strip's elements, in the order it builds them; it
        # reduces S_t, and reducing records its pairs, when the memo misses
        strip_labels[:] = [(source.content_key(), t),
                           [(g.name, k) for g in source.generators
                            for k in acomplex._strip_range(g, t)]]
        return reduce_strip(source, t)

    def recorded(boundary, rows, maps, x, y):
        recording.append((x, y))
        step(boundary, rows, maps, x, y)

    def reducing(degrees, boundary, u_action, carried=None):
        if len(boundary) == len(degrees):  # a bottom region stays whole
            checked_complex(degrees, boundary, u_action)
            return list(range(len(degrees)))
        key, ids = strip_labels
        recording.clear()
        keep = cancel(degrees, boundary, u_action, carried)
        strip_pairs[key] = [(ids[x], ids[y]) for x, y in recording]
        return keep

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "_reduce_strip", strip)
    monkeypatch.setattr(homology, "_cancel_pair", recorded)
    monkeypatch.setattr(surgery, "cancel_unit_pairs", reducing)
    joined = dropped = units_cancelled = 0
    for k in CHAIN_CASES:
        for p, q in [(1, 1), (2, 1), (5, 2), (7, 3), (1, 5), (2, 7)]:
            for i in range(p):
                desc = SurgeryDescriptor(p, q, i,
                                         truncation_sigma(k, p, q, i),
                                         TOWER_LEVELS)
                if len(_kept_blocks(k, desc)) == 1:
                    continue
                joined += 1
                cone = build_mapping_cone(k, desc)
                kept = ReferenceCone(k, desc, kept=True)
                assert cone.ceiling == kept.ceiling
                index = {label: n for n, label in enumerate(kept.ids)}
                units = []
                for s, t, _ in _kept_blocks(k, desc)[1:]:
                    pairs = strip_pairs[(k.content_key(), t)]
                    units += [(index[("A", s) + x], index[("A", s) + y])
                              for x, y in pairs]
                units_cancelled += len(units)
                pairs = [(index[("A",) + label[1:]], n)
                         for n, label in enumerate(kept.ids)
                         if label[0] == "B"
                         and kept.complex.degrees[n] <= kept.ceiling]
                top = {label for label, degree
                       in zip(kept.ids, kept.complex.degrees)
                       if label[0] == "B" and degree == kept.ceiling + 1}
                dropped += len(top)
                cancelled = _cancel_matched_pairs(kept, units, pairs)
                assert not any(top & col.keys()
                               for col in cancelled.values()), (
                                   k.name, p, q, i)
                columns = {label: {cone.ids[i]: c for i, c in col.items()}
                           for label, col in zip(cone.ids,
                                                 cone.complex.boundary)}
                assert columns == {label: col
                                   for label, col in cancelled.items()
                                   if label not in top}, (k.name, p, q, i)
                kept.complex.cancel_units()
                assert (_profile_to(cone.complex, cone.ceiling)
                        == _profile_to(kept.complex, cone.ceiling)), (
                            k.name, p, q, i)
    assert joined >= 50 and dropped and units_cancelled


@pytest.mark.no_self_check
def test_the_b_elements_of_the_top_degree_change_no_homology():
    # the full-window cone, with and without the elements of its B
    # blocks in its top degree, has the same homology over Z and F_p up
    # to its ceiling: what MappingCone relies on to build none of them
    dropped = 0
    for k in CHAIN_CASES:
        for p, q in [(1, 1), (2, 1), (5, 2), (7, 3)]:
            for i in range(p):
                desc = SurgeryDescriptor(p, q, i,
                                         truncation_sigma(k, p, q, i),
                                         TOWER_LEVELS)
                cone = ReferenceCone(k, desc)
                gc, ceiling = cone.complex, cone.ceiling
                keep = [n for n, label in enumerate(cone.ids)
                        if label[0] == "A" or gc.degrees[n] <= ceiling]
                new = {old: n for n, old in enumerate(keep)}
                # nothing maps into the top degree, so this is a subcomplex
                cut = GradedComplex(
                    [gc.degrees[j] for j in keep],
                    [{new[i]: c for i, c in gc.boundary[j].items()}
                     for j in keep],
                    [{new[i]: c for i, c in gc.u_action[j].items()}
                     for j in keep])
                dropped += gc.n - cut.n
                assert (graded_homology(cut, ceiling=ceiling).summary()
                        == graded_homology(gc, ceiling=ceiling).summary()
                        ), (k.name, p, q, i)
                for prime in (2, 3):
                    dims = [{d: n for d, n in homology_dims_mod_p(c, prime)
                             .items() if d <= ceiling} for c in (gc, cut)]
                    assert dims[0] == dims[1], (k.name, p, q, i, prime)
    assert dropped


@pytest.mark.no_self_check
def test_cone_agrees_with_the_reference_on_random_knots():
    # the last seven have a generator with j - i > g, so A_t is not B at
    # the chain level even for t >= g
    for seed in (*range(4), 30, 31, 52, 60, 97, 106, 108):
        k = random_knot(random.Random(seed), 4)
        for p, q in [(1, 1), (2, 1), (5, 2), (1, 5)]:
            for r in hf_plus(k, p, q).spin_c:
                assert (reference_spin_c(k, p, q, r.index, r.sigma)
                        == (r.d, r.hf_red)), (seed, p, q, r.index)


def _anticommuting_flip(k):
    """k with its flip changed to x -> ((-1)^m_x s, y)."""
    flip = {x: (-s if k.by_name[x].m % 2 else s, y)
            for x, (s, y) in k.flip.items()}
    return KnotComplex(k.generators, k.differential, flip, name=k.name)


def test_flip_sign_rule_for_anticommuting_flips():
    for name in ("trefoil_right", "figure_eight", "torus_2_5"):
        k = builtin(name)
        odd = _anticommuting_flip(k)
        assert validate(odd) == [], name
        assert flip_chain_sign(k) == 1 and flip_chain_sign(odd) == -1, name
        for p, q in [(1, 1), (2, 1), (7, 3), (-3, 2)]:
            assert (hf_plus(odd, p, q).comparable()
                    == hf_plus(k, p, q).comparable()), (name, p, q)
        top = 12
        for s in range(-2, 3):
            assert (map_h(odd, s, top).columns
                    == map_h(k, s, top).columns), (name, s)


def test_lens_oracle_frozen_values():
    assert lens_d_oracle(1, 1, 0) == 0
    assert lens_d_oracle(1, 5, 0) == 0
    assert [lens_d_oracle(2, 1, i) for i in range(2)] == [F(1, 4), F(-1, 4)]
    assert [lens_d_oracle(5, 1, i) for i in range(5)] == [
        F(1), F(1, 5), F(-1, 5), F(-1, 5), F(1, 5)]
    assert [lens_d_oracle(3, 2, i) for i in range(3)] == [
        F(1, 6), F(1, 6), F(-1, 2)]


def test_lens_oracle_domain():
    with pytest.raises(ValueError):
        lens_d_oracle(0, 1, 0)
    with pytest.raises(ValueError):
        lens_d_oracle(4, 2, 0)
    with pytest.raises(ValueError):
        lens_d_oracle(3, 2, 3)


def test_lens_oracle_conjugation_symmetry():
    for p, q in [(3, 1), (5, 2), (7, 3), (10, 3), (9, 5)]:
        values = [lens_d_oracle(p, q, i) for i in range(p)]
        assert any(
            all(values[i] == values[(c - i) % p] for i in range(p))
            for c in range(p))


def test_unknot_surgery_is_a_lens_space():
    for p, q in [(1, 1), (3, 2), (5, 4), (7, 2)]:
        res = hf_plus(builtin("unknot"), p, q)
        assert res.total_reduced_rank == 0
        for r in res.spin_c:
            assert r.d == lens_d_oracle(p, q, r.index)
            assert r.hf_red == ()


def test_plus_one_surgeries():
    right = hf_plus(builtin("trefoil_right"), 1, 1)
    assert right.d_values() == [F(-2)]
    assert right.total_reduced_rank == 0

    left = hf_plus(builtin("trefoil_left"), 1, 1)
    assert left.d_values() == [F(0)]
    assert left.spin_c[0].hf_red == ((F(0), 1, ()),)
    assert left.spin_c[0].parity == (1, 0)

    eight = hf_plus(builtin("figure_eight"), 1, 1)
    assert eight.d_values() == [F(0)]
    assert eight.spin_c[0].hf_red == ((F(-1), 1, ()),)
    assert eight.spin_c[0].parity == (0, 1)


def test_figure_eight_seven_thirds_frozen():
    res = hf_plus(builtin("figure_eight"), 7, 3)
    assert res.d_values() == [
        F(3, 14), F(1, 2), F(3, 14), F(-9, 14), F(-1, 14), F(-1, 14),
        F(-9, 14)]
    reds = {r.index: r.hf_red for r in res.spin_c}
    assert reds[0] == ((F(-11, 14), 1, ()),)
    assert reds[1] == ((F(-1, 2), 1, ()),)
    assert reds[2] == ((F(-11, 14), 1, ()),)
    assert all(reds[i] == () for i in (3, 4, 5, 6))
    assert res.total_reduced_rank == 3
    for r in res.spin_c:
        assert r.parity[0] == 0  # everything reduced sits in odd parity
    assert conjugation_constant(res) == 2


def test_right_trefoil_five_surgery_negates_the_lens_space():
    res = hf_plus(builtin("trefoil_right"), 5, 1)
    assert res.total_reduced_rank == 0
    mine = sorted(res.d_values())
    lens = sorted(-lens_d_oracle(5, 1, i) for i in range(5))
    assert mine == lens


@pytest.mark.no_self_check
def test_calibration_shift_matches_the_unknot_cone():
    # the unknot cone is the oracle the closed form replaced
    unknot = builtin("unknot")
    shapes = 0
    for p in range(1, 8):
        for q in range(1, 6):
            if gcd(p, q) != 1:
                continue
            for i in range(p):
                for sigma in (1, 2, 4):
                    for depth in (8, 24):
                        desc = SurgeryDescriptor(p, q, i, sigma, depth)
                        bottom, reduced = surgery._cone_data(unknot, desc)
                        assert reduced == (), desc
                        assert (lens_d_oracle(p, q, i) - bottom
                                == surgery._calibration_shift(desc)), desc
                        shapes += 1
    assert shapes == 612


def test_hf_plus_builds_no_calibration_cone(monkeypatch):
    built = []

    def build(complex_, descriptor, *rest):
        built.append(len(complex_.generators))
        return build_mapping_cone(complex_, descriptor, *rest)

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "build_mapping_cone", build)
    for name, p, q in [("trefoil_right", 7, 3), ("figure_eight", 5, 2)]:
        built.clear()
        hf_plus(builtin(name), p, q)
        assert len(built) >= p and 1 not in built, (name, built)


def test_hf_plus_builds_one_cone_per_spin_c_structure(monkeypatch):
    built, realized = [], []

    def build(complex_, descriptor, *rest):
        built.append(descriptor)
        return build_mapping_cone(complex_, descriptor, *rest)

    def counting(complex_, t, top):
        realized.append(t)
        return realize(complex_, t, top)

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "build_mapping_cone", build)
    monkeypatch.setattr(surgery, "realize", counting)
    for g, p, q in [(6, 1, 1), (7, 1, 1), (8, 1, 1), (8, 7, 3)]:
        k = staircase(g)
        built.clear()
        realized.clear()
        hf_plus(k, p, q)
        assert [d.spin_c for d in built] == list(range(p)), (g, p, q)
        assert all(d.depth == TOWER_LEVELS for d in built), (g, p, q)
        # the large cones keep up to 2g - 1 A blocks, and realize only
        # their bottom ones, each distinct region once
        bottoms = {_kept_blocks(k, d)[0][1] for d in built}
        assert len(realized) == len(set(realized)), (g, p, q)
        assert set(realized) == bottoms, (g, p, q)


@pytest.mark.no_self_check
def test_band_floor_bounds_hf_red_and_doubling_changes_nothing():
    cases = [(builtin(name), p, q) for name in BUILTIN_NAMES
             for p, q in GRID]
    cases += [(staircase(g), p, q) for g in range(1, 7)
              for p, q in [(1, 1), (7, 3)]]
    for k, p, q in cases:
        result = hf_plus(k, p, q)
        deeper = []
        for r in result.spin_c:
            desc = SurgeryDescriptor(p, q, r.index, r.sigma, TOWER_LEVELS)
            assert _band_floor(k, desc) == band_floor(
                k, [(t, offset) for _, t, offset
                    in kept_regions(k, desc)]), (k.name, desc)
            # the band floor moved to absolute degrees, as r.d and hf_red are
            floor = _band_floor(k, desc) + surgery._calibration_shift(desc)
            assert r.d < floor, (k.name, desc)
            assert all(deg < floor for deg, _, _ in r.hf_red), (k.name, desc)
            deeper.append(surgery._spin_c_result(k, SurgeryDescriptor(
                p, q, r.index, r.sigma, 2 * TOWER_LEVELS)))
        assert (replace(result, spin_c=tuple(deeper)).comparable()
                == result.comparable()), (k.name, p, q)


def test_too_small_depth_names_the_cone_in_its_error():
    pattern = r"^1/1 surgery, Spin\^c 0, sigma 1, depth 3: "
    with pytest.raises(NotStabilizedError, match=pattern) as info:
        surgery._spin_c_result(builtin("torus_2_5"),
                               SurgeryDescriptor(1, 1, 0, 1, 3))
    assert type(info.value.__cause__) is NotStabilizedError


def test_negative_slope_errors_name_the_slope_asked_for(monkeypatch):
    def failing(h):
        raise NotStabilizedError("tower check failed")

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "tower_decompose", failing)
    pattern = (r"^-1/1 surgery, cone built on the mirror: 1/1 surgery, "
               rf"Spin\^c 0, sigma 1, depth {TOWER_LEVELS}: tower check")
    with pytest.raises(NotStabilizedError, match=pattern) as info:
        hf_plus(builtin("torus_2_5"), -1, 1)
    assert type(info.value.__cause__) is NotStabilizedError


def test_casson_identity_on_plus_minus_one_over_n():
    # chi(HF_red) - d/2 = lambda for integer homology spheres
    # (arXiv:math/0110170, Thm 1.3), chi read from the absolute degree
    knots = [builtin(name) for name in ("trefoil_right", "trefoil_left",
                                        "figure_eight", "torus_2_5")]
    knots += [twisty(2), twisty(3)]
    for k in knots:
        for sign in (1, -1):
            for n in (1, 2):
                (r,) = hf_plus(k, sign, n).spin_c
                chi = sum(rank if deg % 2 == 0 else -rank
                          for deg, rank, _ in r.hf_red)
                assert chi - r.d / 2 == casson_surgery(k, sign * n), (
                    k.name, sign, n)


def _alexander_second_derivative(k):
    """Delta''(1) of Delta(t) = sum_x (-1)^m_x t^(j_x - i_x)."""
    coeffs = {}
    for g in k.generators:
        s = g.j - g.i
        coeffs[s] = coeffs.get(s, 0) + (1 if g.m % 2 == 0 else -1)
    return sum(c * s * (s - 1) for s, c in coeffs.items())


def test_casson_walker_identity_at_every_slope():
    # sum_i [chi(HF_red(i)) - (d_K(i) - d_O(i))/2] = sign(p) q Delta''(1)/2
    # for O the unknot: Rustamov (arXiv:math/0409294) with the
    # Casson-Walker surgery formula (Walker; Boyer-Lines).  chi is read
    # from parity, even minus odd; d_O from lens_d_oracle, negated for
    # p < 0, where S^3_{p/q}(O) = -L(|p|, q); Delta from the generators
    knots = ([builtin(name) for name in BUILTIN_NAMES]
             + [staircase(3), staircase(4)]
             + [twisty(n) for n in range(1, 4)])
    slopes = [(p, q) for p in range(-10, 11) for q in range(1, 6)
              if p and gcd(abs(p), q) == 1]
    assert len(knots) * len(slopes) == 700
    for k in knots:
        delta2 = _alexander_second_derivative(k)
        for p, q in slopes:
            sign = 1 if p > 0 else -1
            total = sum(F(r.parity[0] - r.parity[1]) - r.d / 2
                        + sign * lens_d_oracle(abs(p), q, r.index) / 2
                        for r in hf_plus(k, p, q).spin_c)
            assert total == F(sign * q * delta2, 2), (k.name, p, q)


def test_reverse_orientation_transports_free_part_and_torsion():
    r = SpincResult(index=0, d=F(1, 2),
                    hf_red=((F(-3, 2), 1, (2,)), (F(-1, 2), 2, (3,))),
                    parity=(1, 2), sigma=1)
    out = surgery._reverse_orientation(r)
    # free 1 -> 1/2, torsion 2 -> -1/2, free 2 -> -1/2, torsion 3 -> -3/2
    assert out.hf_red == ((F(-3, 2), 0, (3,)), (F(-1, 2), 2, (2,)),
                          (F(1, 2), 1, ()))
    assert out.d == F(-1, 2) and out.parity == (2, 1)
    assert (out.index, out.sigma) == (0, 1)


def test_hf_plus_rejects_invalid_complexes():
    square = [Generator("a", 1, 1, 2), Generator("b", 0, 1, 1),
              Generator("c", 1, 0, 1), Generator("d", 0, 0, 0),
              Generator("e", 0, 0, 0)]
    flip = {"a": (1, "a"), "b": (1, "c"), "c": (1, "b"), "d": (1, "d"),
            "e": (1, "e")}
    not_a_complex = KnotComplex(
        square, {"a": ((1, 0, "b"), (1, 0, "c")), "b": ((1, 0, "d"),),
                 "c": ((1, 0, "d"),)}, flip)
    upward = KnotComplex([Generator("a", 0, 0, 0), Generator("b", 1, 1, -1)],
                         {"a": ((1, 0, "b"),)},
                         {"a": (1, "a"), "b": (1, "b")})
    # negative slopes validate the mirror, whose arrows run backwards
    for k, violation in [(not_a_complex, "d-squared nonzero at "),
                         (upward, "filtration violated at ")]:
        for p in (1, -1):
            with pytest.raises(InvalidComplexError) as info:
                hf_plus(k, p, 1)
            (found,) = info.value.violations
            assert found.startswith(violation), (found, p)


def test_a_corrupted_flip_is_caught_before_any_cone(monkeypatch):
    k = builtin("figure_eight")
    assert k.flip["d"] == (-1, "d")
    bad = KnotComplex(k.generators, k.differential,
                      {**k.flip, "d": (1, "d")})
    assert validate(bad) == ["flip is not a chain map up to global sign"]
    built = []

    def build(*args):
        built.append(args)
        return build_mapping_cone(*args)

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "build_mapping_cone", build)
    for p in (1, -1):
        with pytest.raises(InvalidComplexError) as info:
            hf_plus(bad, p, 1)
        assert info.value.violations == [
            "flip is not a chain map up to global sign"], p
        # no gradings, or no flip at all, is its own typed error; at
        # p = -1 the mirror asks for the gradings first
        asks = "surgery" if p > 0 else "mirror"
        with pytest.raises(GradingError,
                           match=f"^{asks} requires solved gradings$"):
            hf_plus(strip_gradings(k), p, 1)
        with pytest.raises(FlipMissingError,
                           match="^surgery requires flip data$"):
            hf_plus(KnotComplex(k.generators, k.differential), p, 1)
    with pytest.raises(GradingError,
                       match="^surgery requires solved gradings$"):
        surgery.reduce_regions(strip_gradings(k),
                               [SurgeryDescriptor(1, 1, 0, 1, TOWER_LEVELS)])
    assert not built


def _one_arrow_moved_down(restrict):
    """cfk._restrict with one arrow of d one translate lower.

    The first arrow x -> y of the unfolding lands on the translate of y
    one below (key - G), so every column of x that keeps that translate
    carries an arrow that drops the degree by three, and one that does
    not keep it loses the arrow.
    """
    def moved(unfolding, rows, columns=None):
        index, arrows, *rest = unfolding
        n = next(n for n, out in enumerate(arrows) if out)
        (off, c), *others = arrows[n]
        arrows = [*arrows[:n], [(off - len(arrows), c), *others],
                  *arrows[n + 1:]]
        return restrict((index, arrows, *rest), rows, columns)

    return moved


@pytest.mark.no_self_check
def test_the_installed_check_catches_a_broken_restriction(monkeypatch):
    # cfk._restrict is the one rule that restricts d, so one corruption
    # of it reaches every piece.  The library checks no region and no
    # strip of a cone; the check tests/conftest.py installs on
    # cancel_unit_pairs, marker no_self_check or not, raises before any
    # cone is built and checked: in reduce_regions, on the regions
    # realized (as acomplex names _restrict), or in the strips (as
    # surgery names it), which _reduce_strip reduces when the first cone
    # that reads them lays out its blocks, before that cone's own check.
    # hfk_hat's column (as cfk names it) and kernel_rank_v's strip (as
    # acomplex names it) are GradedComplexes, checked when built.
    # The moved arrow leaves a column, so hfk_hat reads a knot with a
    # square inside one filtration level: b -> c + d, c -> e, d -> -e
    box = KnotComplex([("a", 0, 0, 0), ("b", 0, 0, 1), ("c", 0, 0, 0),
                       ("d", 0, 0, 0), ("e", 0, 0, -1)],
                      {"b": [(1, 0, "c"), (1, 0, "d")],
                       "c": [(1, 0, "e")], "d": [(-1, 0, "e")]})
    assert validate(box) == [] and hfk_hat(box, 0).total_free_rank() == 1
    built = []

    def build(*args):
        cone = build_mapping_cone(*args)
        built.append(cone)
        return cone

    def cone():
        hf_plus(staircase(5), 7, 3)

    monkeypatch.setattr(surgery, "build_mapping_cone", build)
    for module, run, inside, outside in [
            (acomplex, cone, {"reduce_regions"}, "_reduce_strip"),
            (surgery, cone, {"build_mapping_cone", "_reduce_strip"}, None),
            (cfk, lambda: hfk_hat(box, 0), {"hfk_hat", "column"}, None),
            (acomplex, lambda: kernel_rank_v(staircase(5), 0),
             {"kernel_rank_v"}, "column")]:
        with monkeypatch.context() as m:
            m.setattr(cfk, "_memo", OrderedDict())
            m.setattr(module, "_restrict",
                      _one_arrow_moved_down(module._restrict))
            with pytest.raises(ValueError, match="degree by 1|square to "
                               "zero") as exc:
                run()
        names = [entry.name for entry in exc.traceback]
        assert inside <= set(names) and outside not in names, inside
    assert not built


def test_a_reordered_complex_shares_the_unfolding(monkeypatch):
    # the memo keys a complex by content, which ignores the order of its
    # generators, so a reordered copy is handed the first one's
    # unfolding; every piece reaches a generator through its index
    k = staircase(3)
    reordered = KnotComplex(k.generators[::-1], k.differential, k.flip)

    def invariants(complex_):
        return (hf_plus(complex_, 7, 3).comparable(),
                [kernel_rank_v(complex_, s) for s in range(-3, 4)],
                [hfk_hat(complex_, s).summary() for s in range(-3, 4)])

    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    expected = invariants(k)
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    index = cfk._unfold(k)[0]
    assert cfk._unfold(reordered)[0] is index
    assert list(index) != [g.name for g in reordered.generators]
    assert invariants(reordered) == expected


def test_negative_slope_reports_reversed_orientation():
    res = hf_plus(builtin("trefoil_right"), -1, 1)
    assert res.orientation == "reversed"
    assert res.slope == F(-1)
    # -1 surgery on the right trefoil mirrors +1 on the left
    direct = hf_plus(builtin("trefoil_left"), 1, 1)
    assert res.d_values() == [-d for d in direct.d_values()]
    assert res.total_reduced_rank == direct.total_reduced_rank


def test_mirror_figure_eight_same_surgeries():
    # the complex is amphichiral, so every surgery output must agree
    for p, q in [(1, 1), (3, 2)]:
        a = hf_plus(builtin("figure_eight"), p, q)
        b = hf_plus(mirror(builtin("figure_eight")), p, q)
        assert a.comparable() == b.comparable()


def test_slope_validation():
    with pytest.raises(ValueError):
        hf_plus(builtin("unknot"), 0, 1)
    with pytest.raises(ValueError):
        hf_plus(builtin("unknot"), 1, 0)
    with pytest.raises(ValueError):
        hf_plus(builtin("unknot"), 4, 2)


@pytest.mark.parametrize("args, message", [
    ((0, 1, 0, 1, 4), "descriptor requires p, q > 0"),
    ((2, 4, 1, 1, 4), "slope must be in lowest terms"),
    ((3, 2, 3, 1, 4), "spin_c index out of range"),
    ((3, 2, 0, 1, 0), "sigma and depth must be positive"),
])
def test_surgery_descriptor_rejects_a_bad_shape(args, message):
    with pytest.raises(ValueError) as exc:
        SurgeryDescriptor(*args)
    assert str(exc.value) == message


def _result(p, ds):
    """An HFResult at p/1 with these d-invariants and nothing reduced."""
    return surgery.HFResult(p=p, q=1, orientation="standard", spin_c=tuple(
        SpincResult(index=i, d=F(d), hf_red=(), parity=(0, 0), sigma=1)
        for i, d in enumerate(ds)))


def test_conjugation_constant_is_none_without_a_reflection():
    # d = 0, 1, 5 at p = 3: each reflection i -> c - i swaps two unequal d
    assert conjugation_constant(_result(3, [0, 1, 5])) is None
    assert conjugation_constant(_result(3, [0, 1, 1])) == 0


def test_depth_and_width_do_not_change_results():
    # the trimmed cone against the unreduced cone of the whole window
    # at sigma and at sigma + 1, each read up to its own ceiling
    samples = [("trefoil_right", 3, 2), ("figure_eight", 7, 3),
               ("trefoil_left", 5, 4), ("torus_2_5", 4, 3),
               ("torus_2_5", 1, 3)]
    for name, p, q in samples:
        k = builtin(name)
        base = hf_plus(k, p, q)
        deeper = replace(base, spin_c=tuple(
            surgery._spin_c_result(k, SurgeryDescriptor(
                p, q, r.index, r.sigma, 2 * TOWER_LEVELS))
            for r in base.spin_c))
        assert base.comparable() == deeper.comparable(), name
        for r in base.spin_c:
            for sigma in (r.sigma, r.sigma + 1):
                assert (reference_spin_c(k, p, q, r.index, sigma)
                        == (r.d, r.hf_red)), (name, p, q, r.index, sigma)


# the builtins at every grid slope and its negative
SIGNED_CASES = [(name, sign * p, q) for name in BUILTIN_NAMES
                for p, q in GRID for sign in (1, -1)]


def test_moving_the_offsets_pin_changes_no_result(monkeypatch):
    # the offsets are pinned at off_A(-sigma) = 0; the calibration reads
    # the same offsets as the cone, so it absorbs any other pin
    pinned = surgery._cone_offsets

    def moved(descriptor):
        return {s: off + 5 for s, off in pinned(descriptor).items()}

    base = [hf_plus(builtin(name), p, q).comparable()
            for name, p, q in SIGNED_CASES]
    desc = SurgeryDescriptor(7, 3, 2, 1, TOWER_LEVELS)
    bottom, _ = surgery._cone_data(builtin("figure_eight"), desc)
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "_cone_offsets", moved)
    assert surgery._cone_data(builtin("figure_eight"), desc)[0] == bottom + 5
    for (name, p, q), comparable in zip(SIGNED_CASES, base):
        assert hf_plus(builtin(name), p, q).comparable() == comparable, (
            name, p, q)


def test_gauge_shifts_every_d_by_the_constant(monkeypatch):
    # shifting the built blocks' offsets and not the calibration's moves
    # every d and HF_red degree by the shift, negated at negative slopes
    kept = surgery._cone_blocks

    def shifted(descriptor, g):
        return [(s, t, off + 5) for s, t, off in kept(descriptor, g)]

    base = [hf_plus(builtin(name), p, q) for name, p, q in SIGNED_CASES]
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    monkeypatch.setattr(surgery, "_cone_blocks", shifted)
    for (name, p, q), r0 in zip(SIGNED_CASES, base):
        by = 5 if p > 0 else -5
        r5 = hf_plus(builtin(name), p, q)
        assert r5.d_values() == [d + by for d in r0.d_values()], (name, p, q)
        for a, b in zip(r0.spin_c, r5.spin_c):
            assert b.parity == a.parity, (name, p, q)
            assert b.hf_red == tuple((deg + by, rank, torsion)
                                     for deg, rank, torsion in a.hf_red)


def test_conjugation_constant_exists_on_samples():
    for name in ("unknot", "trefoil_right", "trefoil_left",
                 "figure_eight", "torus_2_5"):
        for p, q in [(4, 1), (5, 3)]:
            assert conjugation_constant(hf_plus(builtin(name), p, q)) is not None


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SurgeryDescriptor(0, 1, 0, 1, 8)
    with pytest.raises(ValueError):
        SurgeryDescriptor(3, 1, 3, 1, 8)  # spin_c out of range
    with pytest.raises(ValueError):
        SurgeryDescriptor(3, 1, 0, 0, 8)  # sigma must be >= 1


def _cone_invariants(cone, ceiling):
    """Homology summary and U-ranks up to ceiling, and tower split.

    The cone is cancelled first; the tower split reads up to the
    cone's own ceiling.
    """
    gc = cone.complex
    gc.cancel_units()
    assert cone.ids == gc.labels and len(gc.labels) == gc.n
    assert all(abs(v) != 1 for col in gc.boundary for v in col.values())
    h = graded_homology(gc, ceiling=cone.ceiling)
    summary, u_ranks = _profile_to(gc, ceiling)
    return summary, tower_decompose(h), u_ranks


REDUCED_CONE_CASES = (
    [(builtin(name), p, q) for name in BUILTIN_NAMES
     for p, q in [(1, 1), (2, 1), (5, 2), (7, 3)]]
    + [(twisty(2), p, q) for p, q in [(1, 1), (2, 1), (5, 2), (7, 3)]]
    + [(staircase(g), p, q) for g in (3, 4, 5) for p, q in [(7, 3), (2, 7)]]
    # a knot of the benchmark's ladder, whose chains mostly stop early
    + [(staircase(6), p, q) for p, q in [(1, 1), (7, 3)]]
    + [(torsion_square(), p, q) for p, q in [(2, 1), (3, 2)]]
    # random pieces give U terms between blocks below the cut
    + [(random_knot(random.Random(seed), 4), p, q) for seed in range(4)
       for p, q in [(2, 1), (1, 5)]])


@pytest.mark.no_self_check
def test_cancel_units_agrees_with_the_unreduced_cone():
    # the cone built from the reduced regions of the kept blocks against
    # the cone of whole prefixes of the whole window, cancelled as one
    # complex, in every Spin^c structure of each case, on the degrees
    # both trust; where the unreduced cone is small its homology is also
    # read directly
    for k, p, q in REDUCED_CONE_CASES:
        for i in range(p):
            desc = SurgeryDescriptor(p, q, i, truncation_sigma(k, p, q, i),
                                     TOWER_LEVELS)
            reference = ReferenceCone(k, desc)
            cone = build_mapping_cone(k, desc)
            ceiling = cone.ceiling
            assert ceiling <= reference.ceiling, (k.name, p, q, i)
            assert set(cone.ids) <= set(reference.ids), (k.name, p, q, i)
            assert cone.complex.n <= reference.complex.n, (k.name, p, q, i)
            if reference.complex.n <= 2000:
                h = graded_homology(reference.complex,
                                    ceiling=reference.ceiling)
                unreduced = h.summary(ceiling), tower_decompose(h)
            else:
                unreduced = None
            invariants = _cone_invariants(cone, ceiling)
            assert invariants == _cone_invariants(reference, ceiling), (
                k.name, p, q, i)
            assert unreduced in (None, invariants[:2]), (k.name, p, q, i)


def _mirrored_random_knots():
    # the 11th and 19th random_knot(Random(7), 2): their mirrors' cones
    # carry f(x) into pi(y) from the bottom region
    rng = random.Random(7)
    knots = [random_knot(rng, 2) for _ in range(19)]
    assert [knots[10].name, knots[18].name] == [
        "random_knot_809435", "random_knot_449145"]
    return [mirror(knots[10]), mirror(knots[18])]


STEP_CASES = ([(builtin(name), p, q) for name in BUILTIN_NAMES
               for p, q in GRID]
              + [(staircase(g), p, q) for g in range(2, 6)
                 for p, q in [(1, 1), (7, 3)]]
              + [(torsion_square(), p, q) for p, q in GRID]
              + [(k, p, q) for k in _mirrored_random_knots()
                 for p, q in [(9, 4), (8, 3), (3, 4), (2, 3)]])


@pytest.mark.no_self_check
def test_unit_cancellation_is_the_step_by_step_reduction(monkeypatch):
    # every cancel_unit_pairs that hf_plus makes, on each bottom region
    # with its carried h columns, on each strip with its carried and
    # incoming columns, and on each cone, leaves exactly what its pairs
    # leave when each step is applied in full, pi and iota, to d, U, f
    # and g before the next (helpers.reduce_step_by_step)
    pairs = []
    step, cancel = homology._cancel_pair, homology.cancel_unit_pairs

    def recorded(boundary, rows, maps, x, y):
        pairs.append((x, y))
        step(boundary, rows, maps, x, y)

    seen = {"regions": 0, "carried": 0, "strips": 0, "cones": 0}

    def checked(degrees, boundary, u_action, carried=None):
        given = deepcopy((degrees, boundary, u_action, carried))
        pairs.clear()
        keep = cancel(degrees, boundary, u_action, carried)
        f, g = carried if carried is not None else (None, None)
        assert ((keep, degrees, boundary, u_action, f, g)
                == reduce_step_by_step(*given, pairs))
        return keep

    def in_surgery(degrees, boundary, u_action, carried=None):
        if len(boundary) > len(degrees):
            seen["strips"] += 1
        else:
            seen["regions"] += 1
            seen["carried"] += carried is not None
        return checked(degrees, boundary, u_action, carried)

    def in_cones(*args):
        seen["cones"] += 1
        return checked(*args)

    monkeypatch.setattr(homology, "_cancel_pair", recorded)
    monkeypatch.setattr(surgery, "cancel_unit_pairs", in_surgery)
    monkeypatch.setattr(homology, "cancel_unit_pairs", in_cones)
    monkeypatch.setattr(cfk, "_memo", OrderedDict())
    for k, p, q in STEP_CASES:
        hf_plus(k, p, q)
    # the unreduced cones of the whole window also cancel a y that d(x)
    # of an earlier pair reaches, so some pi(y) reads a later pi(y')
    k = builtin("torus_2_5")
    for p, q in [(1, 1), (2, 1)]:
        for i in range(p):
            desc = SurgeryDescriptor(p, q, i, truncation_sigma(k, p, q, i),
                                     TOWER_LEVELS)
            ReferenceCone(k, desc).complex.cancel_units()
    assert seen["carried"] and seen["regions"] > seen["carried"], seen
    assert seen["strips"] and seen["cones"] >= len(STEP_CASES), seen


def test_torsion_goes_through_the_cone():
    k = torsion_square()
    assert validate(k) == []
    expected = {
        (2, 1): [(F(1, 4), ((F(-3, 4), 2, ()),)),
                 (F(-1, 4), ((F(-5, 4), 0, (2,)),))],
        (-2, 1): [(F(-1, 4), ((F(-1, 4), 2, ()),)),
                  (F(1, 4), ((F(-3, 4), 0, (2,)),))],
    }
    for (p, q), rows in expected.items():
        assert [(r.d, r.hf_red) for r in hf_plus(k, p, q).spin_c] == rows
    for p, q, degree in [(3, 1, F(-7, 6)), (3, 2, F(-3, 2))]:
        assert any((degree, 0, (2,)) in r.hf_red
                   for r in hf_plus(k, p, q).spin_c), (p, q)
    # unit cancellation keeps the Z/2 of the cone for Spin^c 1 at 2/1
    desc = SurgeryDescriptor(2, 1, 1, truncation_sigma(k, 2, 1, 1),
                             TOWER_LEVELS)
    cone = build_mapping_cone(k, desc)
    before = graded_homology(cone.complex, ceiling=cone.ceiling).summary()
    cone.complex.cancel_units()
    after = graded_homology(cone.complex, ceiling=cone.ceiling).summary()
    assert after == before
    assert any(torsion == (2,) for _, torsion in before.values())


def test_cone_homology_mod_p_obeys_universal_coefficients():
    # dim H_d(C; F_p) = free_d + #{p | t in torsion_d}
    #                 + #{p | t in torsion_(d-1)} (Hatcher, Thm 3A.3), on
    # every cone as built (boundary everywhere, through the Smith form)
    # and as cancelled (bare degrees), against ranks mod p alone
    cases = [(builtin(name), p, q) for name in BUILTIN_NAMES
             for p, q in [(1, 1), (2, 1), (3, 2), (7, 3)]]
    cases += [(torsion_square(), p, q) for p, q in [(2, 1), (3, 2)]]
    for k, p, q in cases:
        descriptors = [SurgeryDescriptor(p, q, i,
                                         truncation_sigma(k, p, q, i),
                                         TOWER_LEVELS) for i in range(p)]
        regions = surgery.reduce_regions(k, descriptors)
        moved = {2: 0, 3: 0}
        for desc in descriptors:
            gc = build_mapping_cone(k, desc, regions=regions).complex
            for cancel in (False, True):
                if cancel:
                    gc.cancel_units()
                h = graded_homology(gc)
                for prime in moved:
                    dims = homology_dims_mod_p(gc, prime)
                    expect = {d: h.free_rank(d)
                              + sum(t % prime == 0 for t in h.torsion(d))
                              + sum(t % prime == 0 for t in h.torsion(d - 1))
                              for d in dims}
                    assert dims == expect, (k.name, p, q, desc, prime)
                    moved[prime] += sum(dims.values()) - sum(
                        h.free_rank(d) for d in dims)
        # Z/2 moves the F_2 dimension and not the F_3 one
        assert moved[3] == 0, (k.name, p, q)
        assert bool(moved[2]) == (k.name == "torsion_square"), (k.name, p, q)


def test_cone_homology_reads_the_cancelled_cone_itself(monkeypatch):
    # the benchmark links a cone to its homology by the cone's object
    built, read = [], []

    def build(*args):
        cone = build_mapping_cone(*args)
        built.append((cone.complex, cone.complex.n))
        return cone

    def homology(complex_, ceiling=None):
        read.append((complex_, complex_.n))
        return graded_homology(complex_, ceiling=ceiling)

    monkeypatch.setattr(surgery, "build_mapping_cone", build)
    monkeypatch.setattr(surgery, "graded_homology", homology)
    # a cone whose residues are joined by a +-1 entry, so that
    # cancel_units still shrinks it
    k = random_knot(random.Random(0), 4)
    desc = SurgeryDescriptor(2, 1, 0, truncation_sigma(k, 2, 1, 0),
                             TOWER_LEVELS)
    assert len(_kept_blocks(k, desc)) == 3
    surgery._cone_data(k, desc)
    ((cone_complex, n_built),) = built
    ((read_complex, n_read),) = read
    assert read_complex is cone_complex and n_read < n_built


@pytest.mark.no_self_check
def test_sweep_digest_is_pinned(monkeypatch):
    # tests/sweep.py's four lines: results, errors, the sha256 of every
    # answer, and the elements of every cone as built; a change that
    # alters answers on purpose updates these values
    assert sweep(monkeypatch) == (
        3920, 0,
        "1339121a612bb639d2efc94d5c9710d1177c96d850b7be2c77541ff9cc50bdbc",
        297446)
