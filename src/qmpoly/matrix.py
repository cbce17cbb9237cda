"""Immutable dense matrices over GF(q), vectors of GF(q)^k packed into
one int each (`PackedRows`), and the exact row-space operations on them
(echelon forms, orthogonal complements) that the subspace lattice is
built from."""

from __future__ import annotations

from functools import partial

from .field import GF, slot_ops


class Matrix:
    """Row-major matrix with entries in a GF field.

    Entries live in a tuple of row tuples, so matrices hash and compare
    by value and canonical forms can key dicts.  Every operation
    returns a new matrix, and nothing is cached: the library reduces
    each `Matrix` it builds at most once.
    """

    __slots__ = ("field", "ncols", "rows")

    def __init__(self, field: GF, rows, ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if ncols is not None and ncols != width:
                raise ValueError(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        q = field.q
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for v in r:
                if not 0 <= v < q:
                    raise ValueError(f"entry {v} outside GF({q})")
        self.field = field
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _of(cls, field: GF, rows, ncols: int) -> Matrix:
        # Trusted path for row lists of field elements built internally.
        mat = object.__new__(cls)
        mat.field = field
        mat.ncols = ncols
        mat.rows = tuple(map(tuple, rows))
        return mat

    @classmethod
    def zeros(cls, field: GF, nrows: int, ncols: int) -> Matrix:
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: GF, n: int) -> Matrix:
        return cls(field, [[1 if i == j else 0 for j in range(n)]
                           for i in range(n)], n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        F = self.field
        cols = other.ncols
        out = []
        for ra in self.rows:
            row = []
            for j in range(cols):
                acc = 0
                for k, a in enumerate(ra):
                    if a:
                        acc = F.add(acc, F.mul(a, other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(F, out, cols)

    def transpose(self) -> Matrix:
        return Matrix(self.field,
                      [[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], self.nrows)

    # -- echelon forms ------------------------------------------------

    def rref(self) -> tuple[Matrix, int, tuple[int, ...]]:
        """Reduced row-echelon form: (R, rank, pivot columns).

        R has the same shape as self, zero rows trailing; the form is
        the unique canonical representative of the row space plus its
        zero padding.
        """
        rows, rank, pivots = rref_rows(
            self.field, [list(r) for r in self.rows], self.ncols)
        return Matrix._of(self.field, rows, self.ncols), rank, pivots

    def rank(self) -> int:
        return self.rref()[1]

    # -- plumbing -----------------------------------------------------

    def _check_same_shape(self, other: Matrix):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.field == other.field
                and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {list(map(list, self.rows))!r})"


def rref_rows(F: GF, rows: list[list[int]],
              ncols: int) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Gauss-Jordan elimination on a list of row lists, in place:
    (rows, rank, pivot columns), with the rows in reduced echelon form
    and zero rows trailing: the route of `Matrix.rref`, which parses
    outside input.  Everything built internally is reduced on packed rows
    (`PackedRows.rref`)."""
    sub, mul = F.sub, F.mul
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        lead = rows[pr]
        rows[pr] = rows[r]
        inv = F.inv(lead[c])
        if inv != 1:
            lead = [mul(inv, v) for v in lead]
        rows[r] = lead
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(row, lead)]
        pivots.append(c)
        r += 1
    return rows, r, tuple(pivots)


def vstack(first: Matrix, *rest: Matrix) -> Matrix:
    rows = list(first.rows)
    for m in rest:
        if m.field != first.field or m.ncols != first.ncols:
            raise ValueError("stack needs matching fields and widths")
        rows.extend(m.rows)
    return Matrix(first.field, rows, first.ncols)


def trace_product(a: Matrix, b: Matrix) -> int:
    """The bilinear form sum_ij a_ij * b_ij, i.e. Trace(a b^t)."""
    a._check_same_shape(b)
    F = a.field
    acc = 0
    for ra, rb in zip(a.rows, b.rows):
        for x, y in zip(ra, rb):
            if x and y:
                acc = F.add(acc, F.mul(x, y))
    return acc


def _dot2(x: int, y: int) -> int:
    return (x & y).bit_count() & 1


def _dot_slots(shifts, mask, log, exp, add, x: int, y: int) -> int:
    s = 0
    for shift in shifts:
        if (u := x >> shift & mask) and (v := y >> shift & mask):
            s = add(s, exp[log[u] + log[v]])
    return s


class PackedRows:
    """Vectors of GF(p^e)^k, each held as one int of k slots.

    Coordinate j sits in slot k-1-j of `width` bits, so coordinate 0 is
    the highest slot, and the first non-zero coordinate is in slot
    (x.bit_length() - 1) // width.  A slot holds the field's slot encoding
    (`GF.slot`), whose values rise with the elements, so ints compare as
    their coordinates do.  `add` and `sub` are `field.slot_ops` on k
    slots; `times` scales through the field's slot tables, with no `GF`
    call; `dot` is the dot product of two vectors, as a slot value.  An
    instance keeps only what depends on k; one per (field instance, k):
    `packed_rows`.
    """

    __slots__ = ("field", "width", "mask", "add", "sub", "dot", "_shifts")

    def __init__(self, F: GF, k: int):
        self.field = F
        self.width = width = F.e * F.digit
        self.mask = (1 << width) - 1
        self._shifts = shifts = tuple(width * (k - 1 - j) for j in range(k))
        self.add, self.sub = slot_ops(F, k)
        # Module-level functions: a field caching this pickles as far as
        # its own slot ops do.
        self.dot = _dot2 if F.q == 2 else partial(
            _dot_slots, shifts, self.mask, F.slot_log, F.slot_exp, F._slot_add)

    def __reduce__(self):
        return packed_rows, (self.field, len(self._shifts))

    def pack(self, vec) -> int:
        slot, width = self.field.slot, self.width
        x = 0
        for v in vec:
            x = (x << width) | slot[v]
        return x

    def unpack(self, x: int) -> list[int]:
        elem, mask = self.field.element_of, self.mask
        return [elem[(x >> s) & mask] for s in self._shifts]

    def times(self, s: int, x: int) -> int:
        """x times the element in slot value s; x itself when s is 1."""
        if s <= 1:
            return x if s else 0
        F, mask = self.field, self.mask
        log, exp, ls = F.slot_log, F.slot_exp, F.slot_log[s]
        return sum(exp[ls + log[t]] << shift for shift in self._shifts
                   if (t := (x >> shift) & mask))

    def inverse(self, s: int) -> int:
        """The slot value of the inverse of the element in slot s."""
        return self.field.slot_exp[self.field.q - 1 - self.field.slot_log[s]]

    def rref(self, rows) -> tuple[int, ...]:
        """The non-zero rows of `rref_rows`, packed, in order: each row is
        cleared at the kept rows' pivots, and a remainder is divided by its
        lead (by bit length), cleared from the kept rows, and kept."""
        width, mask, sub, times = self.width, self.mask, self.sub, self.times
        kept: dict[int, int] = {}
        for v in rows:
            for shift, b in kept.items():
                if f := (v >> shift) & mask:
                    v = sub(v, times(f, b))
            if v:
                j = (v.bit_length() - 1) // width * width
                v = v if v >> j == 1 else times(self.inverse(v >> j), v)
                for shift, b in kept.items():
                    if f := (b >> j) & mask:
                        kept[shift] = sub(b, times(f, v))
                kept[j] = v
        return tuple(kept[j] for j in sorted(kept, reverse=True))


def packed_rows(F: GF, k: int) -> PackedRows:
    """The `PackedRows` of GF(q)^k on F itself, built once per (F, k) and
    kept on F."""
    rows = F.packed.get(k)
    if rows is None:
        rows = F.packed[k] = PackedRows(F, k)
    return rows


def orthogonal_rows(packed: PackedRows, rows) -> tuple[int, ...]:
    """The packed canonical basis of the dot-product complement of the
    span of `rows`, a packed reduced echelon basis; the route for a lone
    subspace, as `SubspaceLattice` cuts its members' complements along
    its parent tree.  Per non-pivot slot j, the kernel vector 1 at j minus
    each row's entry at j at that row's pivot; one `PackedRows.rref`."""
    width, mask, sub = packed.width, packed.mask, packed.sub
    pivots = [(b.bit_length() - 1) // width * width for b in rows]
    vecs = []
    for shift in packed._shifts:
        if shift not in pivots:
            w = 0
            for b, pivot in zip(rows, pivots):
                w |= ((b >> shift) & mask) << pivot
            vecs.append(sub(1 << shift, w))
    return packed.rref(vecs)
