"""Exact homological algebra over the integers for graded complexes.

Everything here is finitely generated and free as a module; gradings
are integers (or exact rationals after a global shift), boundary maps
drop the grading by exactly 1, and the optional U-endomorphism drops
it by 2.  Homology is computed degree by degree through an integer
Smith normal form, which keeps every result exact: free ranks, torsion
invariant factors, and chosen cycle representatives that let U act
on homology.

The Smith normal form is a sparse gcd-pivot elimination.  Pivots are
chosen with the smallest nonzero magnitude (entries of magnitude one
are taken immediately, scanning the stored entries row by row), and
every row/column operation is mirrored into all four unimodular
transforms, L, L^{-1}, R and R^{-1}:

    L * M * R == D

with D diagonal and d_1 | d_2 | ... .  Kernel computations read R and
R^{-1}, the quotient structure L and L^{-1}; every elimination carries
all four, in one configuration, because the two it does not need cost
nothing measurable: cancel_unit_pairs runs first and leaves every
matrix a few rows wide (at most 11 x 11 over the 3,920 queries of
tests/sweep.py), and a cold pass of the benchmark's slope grid runs 20
eliminations, each at most 3 x 1.  The matrix is kept as row dicts
alone, and a column is read by scanning the rows, where a column
index kept in step with every operation costs more than the scans it
saves.  A matrix with no entry is its own Smith form and takes no
elimination (_ZeroSnf): every transform is the identity, which is
held as None and never built: that same grid pass meets 4,778
degrees, 4,771 of them with no boundary leaving or arriving, and
building identities for them would be work for nothing.  So a degree
with no boundary leaving it and none arriving from one degree up, as
in every degree of a residue with zero differential, is bare: its
kernel is the whole degree, nothing is divided out, and each element
is one free class, its own representative and coordinate.  Between
two bare degrees U on homology is U's own columns, read straight off the
complex (GradedGroup.u_matrix, which keeps nothing between calls:
tower_decompose reads each degree once, in one walk down the tower
that also checks its top TOWER_LEVELS levels).  This is exact, since
the identity is a unimodular L and R for the zero matrix.  For the
same reason the quotient of a free group by a class with a +-1 entry,
which spans a direct summand, is free of rank one less and takes no
elimination (_quotient_by_class).

cancel_unit_pairs shrinks a complex before any of this: it cancels
basis pairs joined by a +-1 boundary entry (reduction by elementary
collapses, Kaczynski-Mrozek-Slusarek 1998), degree by degree upward,
carries U to the residue as pi U iota (the perturbation lemma), and
compacts the lists it is given to the residue, in place.  Each step
applies its chain inverse iota to every map as it happens; pi is
applied once, at the end, working back from the last pair.  It can carry
the maps out of the complex that join it to the rest of a mapping
cone, and incoming columns: the d and U of elements outside it that
meet it, which are reduced along with it but never pivot and are
never rows.  Every pivot is a unit, so the reduction is exact over Z
and keeps torsion.  It runs on the regions and strips of a surgery
cone and, as GradedComplex.cancel_units, on the cone itself: what is
read from their homology needs nothing beyond U.

A GradedComplex checks itself when built (_check), in one pass over
its columns: for each column j, no zero is stored in d(j), d lowers
the degree by one and U by two, and d(d j) = 0 and U(d j) = d(U j),
each composite summed into one dict for j and then dropped.  In a
surgery call that is each assembled cone.  Its regions and strips
(subquotients of a complex cfk.require_valid checks) and every residue
cancel_unit_pairs leaves (exact reductions) are not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .errors import NotStabilizedError, TorsionInTowerError

# Top occupied degrees tower_decompose requires to be bare tower levels;
# truncations cut at or above acomplex.band_floor + 2 TOWER_LEVELS hold
# them exactly.
TOWER_LEVELS = 4


# ---------------------------------------------------------------------------
# sparse helpers


def _dict_axpy(dst, src, k):
    # dst += k * src, dropping zeros
    for key, v in src.items():
        nv = dst.get(key, 0) + k * v
        if nv:
            dst[key] = nv
        elif key in dst:
            del dst[key]


def _add(col, n, c):
    # col[n] += c (c != 0), dropping a zero
    c += col.get(n, 0)
    if c:
        col[n] = c
    else:
        del col[n]


# ---------------------------------------------------------------------------
# Smith normal form


class _SnfWork:
    """Sparse SNF elimination that carries L, L^{-1}, R and R^{-1}.

    The matrix lives as a list of row dicts alone, and every row and
    column operation is mirrored into all four transforms (see the
    module docstring): l_rows holds L by rows, linv_cols L^{-1} by
    columns, r_cols R by columns and q_rows R^{-1} by rows.
    """

    def __init__(self, rows, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.l_rows = [{i: 1} for i in range(nrows)]
        self.linv_cols = [{i: 1} for i in range(nrows)]
        self.r_cols = [{i: 1} for i in range(ncols)]
        self.q_rows = [{i: 1} for i in range(ncols)]
        self.rank = 0
        self.diag = []

    # -- elementary operations ------------------------------------------

    def _row_axpy(self, r, p, k):
        # row_r += k * row_p (k != 0)
        _dict_axpy(self.rows[r], self.rows[p], k)
        _dict_axpy(self.l_rows[r], self.l_rows[p], k)
        # L <- E L  =>  Linv <- Linv E^{-1}: col_p -= k * col_r
        _dict_axpy(self.linv_cols[p], self.linv_cols[r], -k)

    def _col_axpy(self, j, i, k):
        # col_j += k * col_i (k != 0) in _reduce_slot's column phase,
        # which runs once its row phase has left the pivot alone in
        # column i, and takes each j from row i: so col_i is row i
        # alone, and row i already holds j
        row = self.rows[i]
        nv = row[j] + k * row[i]
        if nv:
            row[j] = nv
        else:
            del row[j]
        _dict_axpy(self.r_cols[j], self.r_cols[i], k)
        # R <- R E  =>  Rinv <- E^{-1} Rinv: row_i -= k * row_j
        _dict_axpy(self.q_rows[i], self.q_rows[j], -k)

    def _row_swap(self, r, p):
        for rows in (self.rows, self.l_rows, self.linv_cols):
            rows[r], rows[p] = rows[p], rows[r]

    def _col_swap(self, i, j):
        if i == j:
            return
        for row in self.rows:
            vi = row.pop(i, None)
            vj = row.pop(j, None)
            if vj is not None:
                row[i] = vj
            if vi is not None:
                row[j] = vi
        for cols in (self.r_cols, self.q_rows):
            cols[i], cols[j] = cols[j], cols[i]

    def _row_negate(self, r):
        for row in (self.rows[r], self.l_rows[r], self.linv_cols[r]):
            for c in row:
                row[c] = -row[c]

    # -- elimination ------------------------------------------------------

    def _pick_pivot(self, t):
        best = None
        best_val = None
        rows = self.rows
        # a reduced slot's row and column hold only its pivot, so the
        # rows at or below t hold every entry left, none left of t
        for r in range(t, self.nrows):
            for c, v in rows[r].items():
                v = abs(v)
                if v == 1:
                    return r, c
                if best_val is None or v < best_val:
                    best_val = v
                    best = (r, c)
        return best

    def _reduce_slot(self, t):
        # rows and columns before t hold only their pivots, and no
        # operation here reaches them
        rows = self.rows
        while True:
            if rows[t][t] < 0:
                self._row_negate(t)
            p = rows[t][t]
            # clear column t below the pivot; a remainder is a smaller
            # pivot, swapped in to start again
            for r in range(t + 1, self.nrows):
                if t in rows[r]:
                    k = rows[r][t] // p
                    if k:
                        self._row_axpy(r, t, -k)
                    if rows[r].get(t):
                        self._row_swap(t, r)
                        break
            else:
                # the pivot is alone in column t: clear row t likewise;
                # a column operation then changes row t alone
                for c in [c for c in rows[t] if c != t]:
                    k = rows[t][c] // p
                    if k:
                        self._col_axpy(c, t, -k)
                    if rows[t].get(c):
                        self._col_swap(t, c)
                        break
                else:
                    return

    def run(self):
        t = 0
        limit = min(self.nrows, self.ncols)
        while t < limit:
            piv = self._pick_pivot(t)
            if piv is None:
                break
            self._row_swap(t, piv[0])
            self._col_swap(t, piv[1])
            self._reduce_slot(t)
            t += 1
        self.rank = t
        # enforce the divisibility chain d_i | d_{i+1}
        i = 0
        while i + 1 < self.rank:
            a = self.rows[i][i]
            if self.rows[i + 1][i + 1] % a:
                self._row_axpy(i, i + 1, 1)
                self._reduce_slot(i)
                if i:
                    i -= 1
            else:
                i += 1
        for k in range(self.rank):
            if self.rows[k][k] < 0:
                self._row_negate(k)
        self.diag = [self.rows[k][k] for k in range(self.rank)]
        return self


class _ZeroSnf:
    """The Smith normal form of a zero matrix, built without elimination.

    D is the zero matrix, so the rank is 0 and the identity satisfies
    L * M * R == D: each of the four transforms is the identity, given
    as None and never built.
    """

    rank = 0
    diag = ()
    l_rows = linv_cols = r_cols = q_rows = None


def _snf(entries_rows, nrows, ncols):
    """Smith data of the matrix with these row dicts; a matrix with no
    entry takes no elimination (_ZeroSnf)."""
    if not any(entries_rows):
        return _ZeroSnf()
    return _SnfWork(entries_rows, nrows, ncols).run()


def smith_normal_form(matrix):
    """Smith normal form of a dense integer matrix (list of rows).

    Returns (L, D, R) as dense lists of rows with L*matrix*R == D,
    D diagonal with nonnegative entries satisfying d_1 | d_2 | ...,
    and L, R unimodular.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("matrix rows have unequal lengths")
    rows = [{c: int(v) for c, v in enumerate(row) if v} for row in matrix]
    work = _SnfWork(rows, nrows, ncols).run()
    l_dense = [[work.l_rows[r].get(c, 0) for c in range(nrows)]
               for r in range(nrows)]
    d_dense = [[work.rows[r].get(c, 0) for c in range(ncols)]
               for r in range(nrows)]
    r_dense = [[work.r_cols[c].get(r, 0) for c in range(ncols)]
               for r in range(ncols)]
    return l_dense, d_dense, r_dense


# ---------------------------------------------------------------------------
# graded complexes


class GradedComplex:
    """A finite chain complex of free Z-modules with exact degrees.

    boundary and u_action are column-sparse: entry ``boundary[j][i]``
    is the coefficient of basis element i in the boundary of basis
    element j.  The boundary drops the degree by 1; u_action (when
    present) drops it by 2 and commutes with the boundary.
    """

    def __init__(self, degrees, boundary, u_action=None, labels=None):
        self.degrees = list(degrees)
        self.boundary = boundary
        self.u_action = u_action
        self.labels = labels
        self._index()
        self._check()

    def _index(self):
        self.n = len(self.degrees)
        by_degree = {}
        for idx, d in enumerate(self.degrees):
            by_degree.setdefault(d, []).append(idx)
        self.by_degree = by_degree

    def _check(self):
        """One pass per column j: its entries, d(d j) = 0, U(d j) = d(U j).

        Each composite of j is summed into one dict, tested and dropped;
        no composed column list is built.
        """
        deg, boundary, u_action = self.degrees, self.boundary, self.u_action
        for j, col in enumerate(boundary):
            dd, ud = {}, {}
            if col:
                below = deg[j] - 1
                for i, v in col.items():
                    if v == 0:
                        raise ValueError("explicit zero stored in boundary")
                    if deg[i] != below:
                        raise ValueError(f"boundary entry {j}->{i} does not "
                                         "drop degree by 1")
                    for r, w in boundary[i].items():
                        dd[r] = dd.get(r, 0) + v * w
                    if u_action is not None:
                        for r, w in u_action[i].items():
                            ud[r] = ud.get(r, 0) + v * w
                if any(dd.values()):
                    raise ValueError("boundary does not square to zero")
            ucol = u_action[j] if u_action is not None else None
            if ucol:
                below = deg[j] - 2
                for i, v in ucol.items():
                    if deg[i] != below:
                        raise ValueError(
                            f"U entry {j}->{i} does not drop degree by 2")
                    for r, w in boundary[i].items():
                        ud[r] = ud.get(r, 0) - v * w
            if any(ud.values()):
                raise ValueError("U does not commute with the boundary")

    def cancel_units(self):
        """Shrink to a homotopy-equivalent residue by cancelling unit pairs.

        cancel_unit_pairs does the cancelling and compacts the lists in
        place (the same object, its lists edited); the labels follow.
        The residue is not checked again: each step is an exact
        elementary reduction of the complex checked at construction.
        """
        keep = cancel_unit_pairs(self.degrees, self.boundary, self.u_action)
        if self.labels is not None:
            self.labels[:] = [self.labels[j] for j in keep]
        self._index()


def cancel_unit_pairs(degrees, boundary, u_action, carried=None):
    """Cancel the +-1 pairs of a complex degree by degree upward, in place.

    The complex has columns boundary and u_action (or None), one per
    entry of degrees.  In each degree in increasing order, each live x
    with a +-1 entry c at some y of d(x) (the y with the fewest other
    boundaries through it) is cancelled against y, until no such x is
    left: every column a with y in d(a) takes a += k x, k = -c d(a)_y,
    in d, in U and in carried alike, and then x leaves every column and
    x, y are deleted.  That is d' = pi d iota for the projection pi onto
    the quotient by the contractible span of x and d(x), which sends x
    to 0 and y to y - c d(x), and its chain inverse iota(a) = a + k x,
    which each step applies to every map as it happens.  U' = pi U iota
    then needs pi once, at the end (_project), so homology, torsion and
    the U-action on homology are unchanged.

    The complex may be one summand of a bigger complex, such as a
    mapping cone, that nothing outside maps back into.  carried =
    (f, g) then holds, for every column j, the components f[j] of d(j)
    and g[j] of U(j) outside the complex: they become f(iota j) and
    g(iota j) plus the outside part of pi U iota j, pi sending y to
    y - c (d(x) + f(x)).  Their entries are keys of the outside, which
    are left as they are.

    Columns of boundary past the n = len(degrees) elements are
    incoming: each is d of an element outside the complex that meets
    it, with its U column and carried columns at the same index.  They
    take every iota step and pi at the end, as carried maps do, but
    never pivot and are never rows, so they come out as d, pi U iota
    and f, g of that element over the residue.

    The lists degrees, boundary, u_action and the two of carried are
    compacted in place to the surviving elements, renumbered in index
    order, followed by the incoming columns.  Returns keep, the
    surviving elements' old indices; when no pair is found that is
    range(n) and every list is left as it was.
    """
    n = len(degrees)
    rows = _row_index(boundary, n)
    by_degree = {}
    for x, deg in enumerate(degrees):
        by_degree.setdefault(deg, []).append(x)
    maps = [m for m in (u_action, *(carried or ())) if m is not None]
    live = [True] * n
    pairs = []  # (x, y, d(x) as it stood), in the order cancelled
    for deg in sorted(by_degree):
        batch = by_degree[deg]
        cancelled = True
        while cancelled:
            cancelled = False
            for x in batch:
                if not live[x]:
                    continue
                y = None
                for i, v in boundary[x].items():
                    if ((v == 1 or v == -1)
                            and (y is None or len(rows[i]) < len(rows[y]))):
                        y = i
                if y is None:
                    continue
                pairs.append((x, y, boundary[x]))
                _cancel_pair(boundary, rows, maps, x, y)
                live[x] = live[y] = False
                cancelled = True
    if not pairs:
        return list(range(n))
    keep = [x for x in range(n) if live[x]]
    columns = keep + list(range(n, len(boundary)))
    if u_action is not None:
        _project(live, pairs, columns, u_action, carried)
    new = {old: pos for pos, old in enumerate(keep)}
    degrees[:] = [degrees[j] for j in keep]
    boundary[:] = [{new[i]: v for i, v in boundary[j].items()}
                   for j in columns]
    if u_action is not None:
        u_action[:] = [{new[i]: v for i, v in u_action[j].items()}
                       for j in columns]
    if carried is not None:
        for m in carried:
            m[:] = [m[j] for j in columns]
    return keep


def _project(live, pairs, columns, u_action, carried):
    """Apply pi to the U columns of columns, which hold U(iota j).

    pi sends a survivor to itself, a cancelled x to 0 and a cancelled y
    to pi(y) = -c (d(x) + f(x) - c y), with d(x) and f(x) as they stood
    when y was cancelled.  d(x) meets only survivors and the y cancelled
    after it, so one forward pass over the pairs finds every y that the
    columns reach, and one reverse pass works out pi(y) for those alone,
    each from terms already final.  The part of pi U iota j outside the
    complex is added to g[j].
    """
    f, g = carried or (None, None)
    need = {z for j in columns for z in u_action[j] if not live[z]}
    for x, y, dx in pairs:
        if y in need:
            need.update(z for z in dx if not live[z])
    pi = {}  # cancelled y -> (pi(y) inside, its part outside)
    for x, y, dx in reversed(pairs):
        if y not in need:
            continue
        c = dx[y]
        inside, outside = {}, {}
        if f is not None:
            _dict_axpy(outside, f[x], -c)
        for z, v in dx.items():
            if z != y:
                _image(live, pi, inside, outside, z, -c * v)
        pi[y] = inside, outside
    for j in columns:
        inside, outside = {}, {}
        for z, v in u_action[j].items():
            _image(live, pi, inside, outside, z, v)
        u_action[j] = inside
        if g is not None:
            _dict_axpy(g[j], outside, 1)


def _image(live, pi, inside, outside, z, k):
    # (inside, outside) += k pi(z); a survivor may also be reached
    # through some pi(y), so its own term accumulates
    if live[z]:
        _add(inside, z, k)
    elif z in pi:
        _dict_axpy(inside, pi[z][0], k)
        _dict_axpy(outside, pi[z][1], k)


def _row_index(columns, n):
    """rows[i] = the set of columns with an entry at i."""
    rows = [set() for _ in range(n)]
    for j, col in enumerate(columns):
        for i in col:
            rows[i].add(j)
    return rows


def _indexed_axpy(columns, rows, a, src, k):
    # columns[a] += k * src (k != 0), keeping rows in step
    col = columns[a]
    for i, v in src.items():
        nv = col.get(i, 0) + k * v
        if nv:
            if i not in col:
                rows[i].add(a)
            col[i] = nv
        else:
            del col[i]
            rows[i].discard(a)


def _cancel_pair(boundary, rows, maps, x, y):
    """One cancellation step of cancel_unit_pairs: iota on every map.

    Every column a with y in d(a) takes a += k x in the boundary and in
    each column list of maps (U and the carried f and g).
    """
    dx = boundary[x]
    c = dx[y]
    for a in list(rows[y]):
        if a != x:
            k = -c * boundary[a][y]
            _indexed_axpy(boundary, rows, a, dx, k)
            for m in maps:
                _dict_axpy(m[a], m[x], k)
    for a in rows[x]:
        del boundary[a][x]
    for z in (x, y):
        for i in boundary[z]:
            rows[i].discard(z)
        boundary[z] = rows[z] = None


class _DegreeHomology:
    """Homology of a graded complex in a single degree, with enough of
    the Smith data retained to convert cycles to homology coordinates
    and to produce cycle representatives.

    work is the Smith result of the boundary leaving the degree and
    ywork that of the image arriving from one degree up, in kernel
    coordinates (the zero result when nothing arrives).  Only R and
    R^{-1} of work, past its rank, and L and L^{-1} of ywork are kept.
    A transform given as None is the identity (_ZeroSnf): kernel_cols
    and q_rows when no boundary leaves the degree, y_l_rows and
    y_linv_cols when none arrives.  A bare degree, with neither, keeps
    every element as a free slot and reads coordinates off its basis.
    """

    __slots__ = ("ids", "_pos", "z", "d_rank", "kernel_cols", "q_rows",
                 "y_l_rows", "y_linv_cols", "bare", "kept", "factors",
                 "free_rank", "torsion")

    def __init__(self, ids, work, ywork=_ZeroSnf()):
        self.ids = ids
        self._pos = None
        self.d_rank = work.rank
        self.z = z = len(ids) - work.rank
        self.kernel_cols = (None if work.r_cols is None
                            else work.r_cols[work.rank:])
        self.q_rows = work.q_rows
        self.y_l_rows = ywork.l_rows
        self.y_linv_cols = ywork.linv_cols
        self.bare = self.q_rows is None and self.y_l_rows is None
        # ywork.diag is d_1 | d_2 | ...: its 1s come first
        y_diag = ywork.diag
        units = y_diag.count(1)
        self.kept = range(units, z)
        self.factors = list(y_diag[units:]) + [0] * (z - len(y_diag))
        self.free_rank = z - len(y_diag)
        self.torsion = tuple(y_diag[units:])

    @property
    def pos(self):
        """Local position of each element, worked out when first read."""
        if self._pos is None:
            self._pos = {gid: i for i, gid in enumerate(self.ids)}
        return self._pos

    def kernel_coords(self, local_vec):
        # rows `d_rank..z-1` of Rinv applied to a cycle give its
        # coordinates in the kernel basis
        if self.q_rows is None:
            return [local_vec.get(s, 0) for s in range(self.z)]
        out = [0] * self.z
        for s in range(self.z):
            qrow = self.q_rows[self.d_rank + s]
            acc = 0
            for c, v in local_vec.items():
                coeff = qrow.get(c)
                if coeff:
                    acc += coeff * v
            out[s] = acc
        return out

    def coords(self, local_vec):
        """Homology coordinates (aligned with `kept`) of a cycle."""
        w = self.kernel_coords(local_vec)
        if self.y_l_rows is None:
            return w
        out = []
        for s, fac in zip(self.kept, self.factors):
            acc = 0
            for c, v in self.y_l_rows[s].items():
                acc += v * w[c]
            if fac:
                acc %= fac
            out.append(acc)
        return out

    def rep_local(self, slot_index):
        """A cycle (local sparse vector) representing generator
        `slot_index` of the homology in this degree."""
        s = self.kept[slot_index]
        kcoords = {s: 1} if self.y_linv_cols is None else self.y_linv_cols[s]
        if self.kernel_cols is None:
            return dict(kcoords)
        vec = {}
        for kslot, coeff in kcoords.items():
            _dict_axpy(vec, self.kernel_cols[kslot], coeff)
        return vec


class GradedGroup:
    """Degreewise homology of a GradedComplex, with induced U-maps."""

    def __init__(self, complex_, data, ceiling):
        self.complex = complex_
        self._data = data
        self.ceiling = ceiling

    def degree_data(self, d):
        return self._data.get(d)

    def support(self, max_degree=None):
        out = [d for d, dh in self._data.items() if dh.kept]
        if max_degree is not None:
            out = [d for d in out if d <= max_degree]
        return sorted(out)

    def free_rank(self, d):
        dh = self._data.get(d)
        return dh.free_rank if dh else 0

    def torsion(self, d):
        dh = self._data.get(d)
        return dh.torsion if dh else ()

    def total_free_rank(self):
        return sum(self.free_rank(d) for d in self.support())

    def summary(self, max_degree=None):
        """dict degree -> (free_rank, torsion) over nonzero degrees."""
        out = {}
        for d in self.support(max_degree):
            out[d] = (self.free_rank(d), self.torsion(d))
        return out

    def rep_global(self, d, slot_index):
        dh = self._data[d]
        local = dh.rep_local(slot_index)
        return {dh.ids[i]: v for i, v in local.items()}

    def coords_global(self, d, global_vec):
        """Homology coordinates at degree d of a global cycle vector."""
        dh = self._data.get(d)
        if dh is None:
            if global_vec:
                raise ValueError("cycle in a degree with no basis")
            return []
        if not dh.kept:
            return []  # zero homology: every cycle is a boundary
        local = {}
        for gid, v in global_vec.items():
            p = dh.pos.get(gid)
            if p is None:
                raise ValueError("vector is not homogeneous of degree %r" % d)
            local[p] = v
        return dh.coords(local)

    def u_matrix(self, d):
        """Induced U on homology, degree d -> d-2, as coordinate columns."""
        if self.complex.u_action is None:
            raise ValueError("complex carries no U-action")
        src = self._data.get(d)
        dst = self._data.get(d - 2)
        u = self.complex.u_action
        if src is None:
            cols = []
        elif src.bare and (dst is None or dst.bare):
            # both degrees are their own homology: U's own columns
            below = dst.ids if dst else ()
            cols = [[u[j].get(i, 0) for i in below] for j in src.ids]
        else:
            cols = []
            for slot in range(len(src.kept)):
                img = {}
                for gid, coeff in self.rep_global(d, slot).items():
                    _dict_axpy(img, u[gid], coeff)
                cols.append(self.coords_global(d - 2, img))
        return cols


def graded_homology(complex_, ceiling=None):
    """Homology of a GradedComplex, one Smith normal form per degree.

    Degrees above ceiling are skipped; the ceiling's image is still
    read from the boundary columns one degree up.  An empty boundary
    matrix, leaving a degree or arriving in it, takes no elimination
    and no local matrix (_snf), so a bare degree costs its elements.
    """
    data = {}
    by_degree = complex_.by_degree
    boundary = complex_.boundary
    # the elements of each degree with a boundary, by local position
    sources = {d: [(j, gid) for j, gid in enumerate(ids) if boundary[gid]]
               for d, ids in by_degree.items()}
    for d, ids in by_degree.items():
        if ceiling is not None and d > ceiling:
            continue
        # local matrix of the boundary leaving degree d
        rows = []
        if sources[d]:
            pos_below = {gid: i for i, gid in enumerate(by_degree[d - 1])}
            rows = [{} for _ in pos_below]
            for j, gid in sources[d]:
                for tgt, v in boundary[gid].items():
                    rows[pos_below[tgt]][j] = v
        work = _snf(rows, len(rows), len(ids))
        dh = _DegreeHomology(ids, work)
        if sources.get(d + 1):
            # image from one degree up, in kernel coordinates
            pos = dh.pos
            y_rows, ncols_y = [{} for _ in range(dh.z)], 0
            for _, gid in sources[d + 1]:
                w = dh.kernel_coords(
                    {pos[t]: v for t, v in boundary[gid].items()})
                for s, val in enumerate(w):
                    if val:
                        y_rows[s][ncols_y] = val
                if any(w):
                    ncols_y += 1
            dh = _DegreeHomology(ids, work, _snf(y_rows, dh.z, ncols_y))
        data[d] = dh
    return GradedGroup(complex_, data, ceiling=ceiling)


# ---------------------------------------------------------------------------
# tower decomposition


@dataclass(frozen=True)
class TowerDecomposition:
    """A homology group split into one U-tower plus a finite remainder.

    d_bottom is the degree of the bottom of the tower; reduced maps
    each degree to (free_rank, torsion) of the complement.
    """

    d_bottom: object
    reduced: tuple

    @property
    def total_reduced_rank(self):
        return sum(r for _, (r, _) in self.reduced)


def _quotient_by_class(factors, vec):
    """(free_rank, torsion) of H/<v> where H = prod Z/factors (0 = Z)."""
    n = len(factors)
    if not any(factors) and (1 in vec or -1 in vec):
        return n - 1, ()  # a class with a unit entry spans a summand of Z^n
    cols = []
    for i, f in enumerate(factors):
        if f > 1:
            cols.append({i: f})
    entries = {i: v for i, v in enumerate(vec) if v}
    if entries:
        cols.append(entries)
    rows = [{} for _ in range(n)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows[r][j] = v
    work = _SnfWork(rows, n, len(cols)).run()
    free = n - work.rank
    torsion = tuple(sorted(x for x in work.diag if x > 1))
    return free, torsion


def tower_decompose(h):
    """Split a U-equipped homology group into tower + reduced part.

    Only degrees up to h.ceiling are read (all when it is None), where
    producers of truncated complexes trust their homology.  The top
    TOWER_LEVELS occupied degrees must look like an honest truncated
    tower: bare Z's, spaced by two and linked by U-isomorphisms (this
    is the stabilization check).
    """
    degrees = h.support(h.ceiling)
    if len(degrees) < TOWER_LEVELS:
        raise NotStabilizedError(f"{len(degrees)} occupied degrees, "
                                 f"fewer than {TOWER_LEVELS} tower levels")
    data = h._data
    # walk the tower down from the top; each of the top TOWER_LEVELS
    # degrees is checked when the walk reaches it, before the walk may
    # stop there, and inside them U is an isomorphism, so it never does
    cur, img, tower = degrees[-1], [1], {}
    for level in count(1):
        dh = data[cur]
        if level <= TOWER_LEVELS:
            if dh.torsion:
                raise TorsionInTowerError(
                    f"torsion at degree {cur} inside the stable tower region")
            if dh.free_rank != 1:
                raise NotStabilizedError(
                    f"rank {dh.free_rank} at degree {cur} near the top")
        if dh.torsion:
            img = [v % f if f else v for v, f in zip(img, dh.factors)]
            if not any(v for v, f in zip(img, dh.factors) if f == 0):
                break
        elif not any(img):
            break
        tower[cur] = vec = img
        if level < TOWER_LEVELS and degrees[-level - 1] != cur - 2:
            raise NotStabilizedError(
                f"tower degrees not spaced by two near {cur}")
        below = data.get(cur - 2)
        if below is None or not below.kept:
            break
        u = h.u_matrix(cur)
        if level < TOWER_LEVELS and u not in ([[1]], [[-1]]):
            raise NotStabilizedError(
                f"U is not an isomorphism from degree {cur}")
        img = [0] * len(below.kept)
        for coeff, col in zip(vec, u):
            if coeff:
                for r, v in enumerate(col):
                    img[r] += coeff * v
        cur -= 2
    d_bottom = min(tower)
    reduced = []
    for d in degrees:
        dh = data[d]
        if d in tower:
            free, torsion = _quotient_by_class(dh.factors, tower[d])
        else:
            free, torsion = dh.free_rank, dh.torsion
        if free or torsion:
            reduced.append((d, (free, torsion)))
    return TowerDecomposition(d_bottom=d_bottom, reduced=tuple(reduced))
