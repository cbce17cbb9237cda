"""The lattice of all subspaces of GF(q)^n.

A `Subspace` is held as its canonical basis: the rows of its reduced
row-echelon form, each packed into one int (`matrix.PackedRows`).  A
`SubspaceLattice` holds each member as one int, its key: those packed
rows concatenated, the first row highest.  Enumeration walks
pivot-column patterns and ORs the free entries into each row directly,
so every canonical basis is produced exactly once and nothing needs
deduplicating; the output size equals the answer size.  `Subspace` objects of members are built only when
asked for, one at a time.

Lattice members are ordered by dimension and then lexicographically by
the flattened canonical basis, which is the order of their keys.  The
order is stable across runs, so rank tables indexed by lattice
position compare bit for bit.

Pair operations on lattice indices work on point sets.  A subspace is
the union of the projective points (1-dimensional subspaces) it
contains, so each member is held as a bitmask over the points: meet is
AND and containment is a subset test.  The dot product on GF(q)^n is
non-degenerate, so X -> X_perp reverses inclusion and is an
involution, and the sum is X + Y = (X_perp & Y_perp)_perp.
"""

from __future__ import annotations

import itertools
from array import array
from functools import cached_property

from .errors import check_guard
from .field import GF
from .matrix import Matrix, PackedRows, orthogonal_rows, packed_rows

DEFAULT_SUBSPACE_GUARD = 10 ** 6
LATTICE_MEMBERS = "subspace lattice members"
MASK_BITS = "lattice point-mask bits"
MAX_MASK_BITS = 1 << 22


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, exactly."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class Subspace:
    """A subspace of GF(q)^n held as its canonical basis: the rows of its
    reduced echelon form, each packed into one int on
    `packed_rows(field, n)` (`matrix.PackedRows`), first row first.
    `basis` unpacks them into row tuples.

    Two subspaces are equal exactly when their canonical bases are, so
    instances are safe as dict keys.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: GF, n: int, span):
        # Spanning rows (or a Matrix) from outside: validated, then reduced.
        mat = span if isinstance(span, Matrix) else Matrix(field, span, ncols=n)
        if mat.field != field or mat.ncols != n:
            raise ValueError(f"spanning rows in {mat.field!r}^{mat.ncols}, ambient {field!r}^{n}")
        R, rank, _ = mat.rref()
        self.field = field
        self.n = n
        self.rows = tuple(map(packed_rows(field, n).pack, R.rows[:rank]))

    @classmethod
    def _of(cls, field: GF, n: int, rows: tuple[int, ...]) -> Subspace:
        # Trusted path for packed rows already in canonical echelon form.
        s = object.__new__(cls)
        s.field = field
        s.n = n
        s.rows = rows
        return s

    @classmethod
    def _reduce(cls, field: GF, n: int, rows) -> Subspace:
        # Trusted path for spanning rows built internally: packed, then
        # one `PackedRows.rref`, with no `Matrix` and no validation.
        packed = packed_rows(field, n)
        return cls._of(field, n, packed.rref(map(packed.pack, rows)))

    @classmethod
    def zero(cls, field: GF, n: int) -> Subspace:
        return cls._of(field, n, ())

    @classmethod
    def full(cls, field: GF, n: int) -> Subspace:
        width = packed_rows(field, n).width
        return cls._of(field, n, tuple(1 << width * j for j in reversed(range(n))))

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The canonical basis as row tuples of field elements."""
        unpack = packed_rows(self.field, self.n).unpack
        return tuple(tuple(unpack(r)) for r in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_ambient(self, other: Subspace):
        if self.field != other.field or self.n != other.n:
            raise ValueError("ambient space mismatch")

    def _holds(self, v: int) -> bool:
        """Whether the packed vector v lies in this subspace.  Each basis
        row b is 1 at its pivot and every other row is 0 there, so
        v - v[c]*b clears pivot c of v and leaves the other pivots as they
        were; once every pivot is cleared, v is zero exactly when it is
        the combination sum_c v[c]*b, that is, when it lies in the span.
        At most dim row updates, with no field call."""
        packed = packed_rows(self.field, self.n)
        width, mask, sub, times = packed.width, packed.mask, packed.sub, packed.times
        for b in self.rows:
            if f := v >> (b.bit_length() - 1) // width * width & mask:
                v = sub(v, times(f, b))
        return not v

    def __le__(self, other: Subspace) -> bool:
        """Containment: every basis row of self lies in other
        (`_holds`): at most dim(self) * dim(other) row updates, with no
        stacking and no row reduction."""
        self._check_ambient(other)
        return self.dim <= other.dim and all(map(other._holds, self.rows))

    def __add__(self, other: Subspace) -> Subspace:
        self._check_ambient(other)
        return Subspace._of(self.field, self.n, packed_rows(
            self.field, self.n).rref(self.rows + other.rows))

    def __and__(self, other: Subspace) -> Subspace:
        # Zassenhaus, the reference intersection (independent of masks
        # and complements): reduce [a | a; b | 0] once, on rows of 2n
        # slots; the right halves of the rows whose left half vanished
        # are the canonical basis.
        self._check_ambient(other)
        F, n = self.field, self.n
        shift = n * packed_rows(F, n).width
        rows = packed_rows(F, 2 * n).rref(
            [a << shift | a for a in self.rows] + [b << shift for b in other.rows])
        return Subspace._of(F, n, tuple(r for r in rows if not r >> shift))

    def orthogonal_complement(self) -> Subspace:
        """All vectors with zero dot product against this subspace, read
        off the packed canonical basis (`matrix.orthogonal_rows`)."""
        return Subspace._of(self.field, self.n, orthogonal_rows(
            packed_rows(self.field, self.n), self.rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field == other.field
                and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.rows))

    def __repr__(self) -> str:
        return f"Subspace({self.field!r}, n={self.n}, dim={self.dim}, rows={list(map(list, self.basis))})"


def _split(key: int, bits: int) -> list[int]:
    """The packed rows of a member's key, first row first; no row of a
    canonical basis is zero, so the key ends where its rows do."""
    rows, low = [], (1 << bits) - 1
    while key:
        rows.append(key & low)
        key >>= bits
    rows.reverse()
    return rows


def _join(rows, bits: int) -> int:
    """The key of packed canonical basis rows, first row highest."""
    key = 0
    for r in rows:
        key = key << bits | r
    return key


def _cutter(packed: PackedRows, bits: int):
    """cut(rows, a): the key of Y & a_perp, for the packed canonical basis
    rows of Y, last row first, and a packed vector a with Y not inside
    a_perp.  y_t, the first of `rows` off a_perp (the last in the basis),
    is dropped and cleared from each row y_j after it that is off a_perp:
    y_j - (y_j.a / y_t.a) y_t.  y_t is zero at every other pivot and
    before its own, so the rows left are the canonical basis of Y & a_perp
    as they stand: no elimination."""
    F, dot, sub, times = packed.field, packed.dot, packed.sub, packed.times
    log, exp, q1 = F.slot_log, F.slot_exp, F.q - 1

    def cut(rows, a: int) -> int:
        key = shift = yt = 0
        for y in rows:
            if s := dot(y, a):
                if not yt:
                    yt, ls = y, q1 - log[s]
                    continue
                y = sub(y, times(exp[log[s] + ls], yt))
            key |= y << shift
            shift += bits
        return key
    return cut


def _member_keys(field: GF, n: int) -> tuple[list[int], list[int]]:
    """Every member's key in lattice order, and the number of members
    of each dimension.  A pivot pattern's bases are the product of its
    rows' lists: the pivot 1 OR'd with every filling of the free
    entries; each basis is folded into its key row by row."""
    width = packed_rows(field, n).width
    bits = n * width
    keys, counts = [], []
    for d in range(n + 1):
        start = len(keys)
        for pivots in itertools.combinations(range(n), d):
            lists = [[1 << (n - 1 - c) * width] for c in pivots]
            for c, rows in zip(pivots, lists):
                for j in set(range(c + 1, n)).difference(pivots):
                    rows[:] = [r | s << (n - 1 - j) * width
                               for r in rows for s in field.slot]
            block = [0]
            for rows in lists:
                block = [b << bits | r for b in block for r in rows]
            keys += block
        counts.append(len(keys) - start)
    keys.sort()
    return keys, counts


class SubspaceLattice:
    """All subspaces of GF(q)^n with fixed positions and complements.

    Each member is held as one int, its key: the packed rows
    (`matrix.PackedRows`) of its canonical basis concatenated, the first
    row highest.  With rows of w bits, a key of d rows lies in
    [2^((d-1)w), 2^(dw)), so keys sort by dimension and then by
    flattened canonical basis, and the lattice order is the order of the
    keys: a member of smaller dimension has a smaller index, position 0
    is the zero space, positions 1..L are the L points and the last
    position is the full space.  One dict maps each key to its index.
    `lat[i]`, iteration and `members` build `Subspace` objects on
    demand; tables, weights and axiom scans never do.

    Complements are cut along the parent tree, each pair once, from its
    member of dimension at most n/2: X_perp is parent(X)_perp cut by the
    hyperplane orthogonal to X's last row, read off the parent's
    complement key with one `PackedRows.dot` per row and no elimination
    (`matrix.orthogonal_rows` is the route for a lone subspace).  The pair
    operations read `masks`, built on the first pair query; a lattice
    that never gets one builds nothing beyond its keys and complements.
    `dims`, `complements`, both halves of `parents` and `children` are
    `array('i')`, four bytes per member each.
    """

    def __init__(self, field: GF, n: int):
        self.field = field
        self.n = n
        packed = packed_rows(field, n)
        self._bits = bits = n * packed.width
        keys, counts = _member_keys(field, n)
        self._keys = keys
        self._index = index = dict(zip(keys, range(len(keys))))
        self.dims = array("i")
        for d, count in enumerate(counts):
            self.dims.extend(array("i", [d]) * count)
        # X_perp is parent(X)_perp & a_perp, a the last row of X.
        # Members of dimension at most n/2 come first, and the children of
        # a parent are neighbours in key order: its rows are split once.
        c = array("i", [-1]) * len(keys)
        c[0], c[-1] = len(keys) - 1, 0
        cut, low, parent = _cutter(packed, bits), (1 << bits) - 1, -1
        for i in range(1, sum(counts[:n // 2 + 1])):
            if c[i] >= 0:
                continue
            key = keys[i]
            if key >> bits != parent:
                parent = key >> bits
                rows = _split(keys[c[index[parent]]], bits)[::-1]
            c[i] = j = index[cut(rows, key & low)]
            c[j] = i
        self.complements = c

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._keys)))

    def __getitem__(self, i: int) -> Subspace:
        return Subspace._of(self.field, self.n,
                            tuple(_split(self._keys[i], self._bits)))

    @cached_property
    def members(self) -> tuple[Subspace, ...]:
        """Every member as a `Subspace`, in lattice order; built on the
        first read and kept.  The library itself never reads it."""
        return tuple(self)

    @property
    def point_keys(self) -> list[int]:
        """The key of each point, positions 1..L: its one canonical basis
        row, packed on `packed_rows(field, n)`.  A fresh slice per read."""
        return self._keys[1:gaussian_binomial(self.n, 1, self.field.q) + 1]

    @property
    def zero_index(self) -> int:
        return 0

    @property
    def full_index(self) -> int:
        return len(self._keys) - 1

    def index(self, s: Subspace) -> int:
        if s.field == self.field and s.n == self.n:
            i = self._index.get(_join(s.rows, self._bits))
            if i is not None:
                return i
        raise ValueError("subspace is not a member of this lattice")

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per member, the points it contains: bit l-1 is set when point
        l lies in it.

        Hyperplanes of dimension >= 2 are filled by containment tests;
        p <= c[r] says that points p and r are orthogonal, which is
        symmetric, so one test fills a bit of two hyperplanes: L(L+1)/2
        `Subspace.__le__` calls for L points, on the L point and L
        hyperplane `Subspace`s built once.  Each clears at most n - 1
        pivots from one packed row (`Subspace._holds`), with no field
        call and no row reduction.  Any other member X of dimension >= 2
        is the intersection of the hyperplanes b_perp over the basis rows
        b of X_perp; a packed basis row is its point's key.
        """
        c, dims, n, F = self.complements, self.dims, self.n, self.field
        n_points = check_mask_bits(F, n, len(self))
        masks = [0] * len(self)
        for p in range(1, n_points + 1):
            masks[p] = 1 << (p - 1)
        if n >= 3:
            points = list(map(self.__getitem__, range(1, n_points + 1)))
            hyper = c[1:n_points + 1].tolist()  # hyper[a] is point a+1's
            planes = list(map(self.__getitem__, hyper))
            for a, point in enumerate(points):
                for b in range(a, n_points):
                    if point <= planes[b]:
                        masks[hyper[b]] |= 1 << a
                        masks[hyper[a]] |= 1 << b
        keys, index, bits = self._keys, self._index, self._bits
        for i, d in enumerate(dims):
            if d >= 2 and d != n - 1:
                mask = (1 << n_points) - 1
                for b in _split(keys[c[i]], bits):
                    mask &= masks[c[index[b]]]
                masks[i] = mask
        return tuple(masks)

    @cached_property
    def parents(self) -> tuple[array, array]:
        """Two arrays, parent and line: per member, the member spanned
        by all but the last row of its canonical basis, and the point
        spanned by that last row; -1 at the zero space.

        Both row sets are canonical bases as they stand: a reduced
        echelon basis minus its last row is still one, and a single
        reduced row is its line's.  So the parent has one dimension
        less, lies in the member, and sum_index(parent, line) is the
        member.  On keys both are arithmetic: the parent's key is the
        member's shifted down one row, and the line's is its last row.
        """
        keys, index, bits = self._keys, self._index, self._bits
        low = (1 << bits) - 1
        parent, line = array("i", [-1]), array("i", [-1])
        parent.fromlist([index[k >> bits] for k in itertools.islice(keys, 1, None)])
        line.fromlist([index[k & low] for k in itertools.islice(keys, 1, None)])
        return parent, line

    @cached_property
    def children(self) -> array:
        """N + 1 offsets: member i's children under `parents` are the
        positions children[i] .. children[i+1] - 1.  A key is its
        parent's key shifted up one row plus its last row, so key order is
        parent order: parents never decrease from position 1, and each
        member's children are one run."""
        counts = [0] * len(self)
        for p in itertools.islice(self.parents[0], 1, None):
            counts[p] += 1
        return array("i", itertools.accumulate(counts, initial=1))

    @cached_property
    def _by_mask(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.masks)}

    def sum_index(self, i: int, j: int) -> int:
        c, masks = self.complements, self.masks
        return c[self._by_mask[masks[c[i]] & masks[c[j]]]]

    def meet_index(self, i: int, j: int) -> int:
        masks = self.masks
        return self._by_mask[masks[i] & masks[j]]

    def leq(self, i: int, j: int) -> bool:
        masks = self.masks
        return masks[i] & masks[j] == masks[i]

    def dimension_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for d in self.dims:
            counts[d] = counts.get(d, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"SubspaceLattice({self.field!r}, n={self.n}, size={len(self)})"


# Never evicted: repeated commands in one process (a loop of `verify`
# calls) reuse the lattices, and the member guard bounds each entry.
_lattice_cache: dict[tuple[int, int, int], SubspaceLattice] = {}


def lattice_size(field: GF, n: int) -> int:
    """Number of subspaces of GF(q)^n, by the Galois-number recurrence
    G_0 = 1, G_1 = 2, G_(k+1) = 2 G_k + (q^k - 1) G_(k-1): O(n) big-int
    products, where summing Gaussian binomials costs O(n^2)."""
    prev, cur, qk = 0, 1, 1
    for _ in range(n):
        prev, cur, qk = cur, 2 * cur + (qk - 1) * prev, qk * field.q
    return cur


def checked_lattice_size(field: GF, n: int, guard: int) -> int:
    """The number of subspaces of GF(q)^n, once it passes the member
    guard, which is checked in bounded time.

    The count is at least 2^bits, bits = (bitlen(q) - 1) a (n - a) with
    a = n // 2, as GF(q)^n has at least q^(a(n-a)) subspaces of
    dimension a.  A 2^bits over the guard and over 64 bits (so reported
    as "at least 2^bits") fails the call without the exact count, which
    costs seconds at q = 65521, n = 1024; otherwise the exact count
    decides.
    """
    bits = (field.q.bit_length() - 1) * (n // 2) * (n - n // 2)
    if bits >= max(64, guard.bit_length()):
        check_guard(LATTICE_MEMBERS, 1 << bits, guard)
    size = lattice_size(field, n)
    check_guard(LATTICE_MEMBERS, size, guard)
    return size


def check_mask_bits(field: GF, n: int, members: int) -> int:
    """The point-mask guard on N*L bits, for the N `members` and the L
    points of GF(q)^n; returns L.  `SubspaceLattice.masks` checks it
    before its build, and the command before it enumerates a lattice
    whose axioms it will scan."""
    n_points = gaussian_binomial(n, 1, field.q)
    check_guard(MASK_BITS, members * n_points, MAX_MASK_BITS)
    return n_points


def enumerate_subspaces(field: GF, n: int,
                        guard: int | None = None) -> SubspaceLattice:
    """Build (or fetch) the full subspace lattice of GF(q)^n; the
    member count is checked against the guard before enumeration
    (`checked_lattice_size`)."""
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    checked_lattice_size(
        field, n, DEFAULT_SUBSPACE_GUARD if guard is None else guard)
    key = (field.p, field.e, n)
    lat = _lattice_cache.get(key)
    if lat is None:
        lat = SubspaceLattice(field, n)
        _lattice_cache[key] = lat
    return lat
