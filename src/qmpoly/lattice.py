"""The lattice of all subspaces of GF(q)^n.

A subspace is represented by its canonical basis: the rows of its
reduced row-echelon form, a tuple of row tuples.  The lattice is built
on packed rows (`matrix.PackedRows`): enumeration walks pivot-column
patterns and ORs the free entries into each row directly, so every
canonical basis is produced exactly once and nothing needs
deduplicating; the output size equals the answer size.

Lattice members are ordered by dimension and then lexicographically by
the flattened canonical basis, which is the order of their packed rows
as tuples of ints.  The order is stable across runs, so rank tables
indexed by lattice position compare bit for bit.

Pair operations on lattice indices work on point sets.  A subspace is
the union of the projective points (1-dimensional subspaces) it
contains, so each member is held as a bitmask over the points: meet is
AND and containment is a subset test.  The dot product on GF(q)^n is
non-degenerate, so X -> X_perp reverses inclusion and is an
involution, and the sum is X + Y = (X_perp & Y_perp)_perp.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import check_guard
from .field import GF
from .matrix import (Matrix, in_row_space, orthogonal_rows, packed_rows,
                     rref_rows)

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
    reduced echelon form, a tuple of row tuples.

    Two subspaces are equal exactly when their canonical bases are, so
    instances are safe as dict keys.
    """

    __slots__ = ("field", "n", "basis")

    def __init__(self, field: GF, n: int, span):
        # Spanning rows (or a Matrix) from outside: validated, then reduced.
        mat = span if isinstance(span, Matrix) else Matrix(field, span, ncols=n)
        if mat.field != field or mat.ncols != n:
            raise ValueError(f"spanning rows in {mat.field!r}^{mat.ncols}, ambient {field!r}^{n}")
        R, rank, _ = mat.rref()
        self.field = field
        self.n = n
        self.basis = R.rows[:rank]

    @classmethod
    def _from_rref(cls, field: GF, n: int, rows: tuple) -> Subspace:
        # Trusted path for row tuples already in canonical echelon form.
        s = object.__new__(cls)
        s.field = field
        s.n = n
        s.basis = rows
        return s

    @classmethod
    def _reduce(cls, field: GF, n: int, rows) -> Subspace:
        # Trusted path for spanning rows built internally: one
        # `rref_rows` elimination, with no `Matrix` and no validation.
        reduced, rank, _ = rref_rows(field, [list(r) for r in rows], n)
        return cls._from_rref(field, n, tuple(map(tuple, reduced[:rank])))

    @classmethod
    def zero(cls, field: GF, n: int) -> Subspace:
        return cls._from_rref(field, n, ())

    @classmethod
    def full(cls, field: GF, n: int) -> Subspace:
        return cls._from_rref(field, n, tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other: Subspace):
        if self.field != other.field or self.n != other.n:
            raise ValueError("ambient space mismatch")

    def __le__(self, other: Subspace) -> bool:
        """Containment: every basis row of self lies in other's row
        space.  Both bases are canonical, so `matrix.in_row_space`
        clears other's pivot columns from each row of self and tests
        the remainder for zero: at most dim(self) * dim(other) row
        updates, with no stacking and no row reduction."""
        self._check_ambient(other)
        if self.dim > other.dim:
            return False
        return in_row_space(self.field, other.basis, self.basis)

    def __add__(self, other: Subspace) -> Subspace:
        self._check_ambient(other)
        return Subspace(self.field, self.n, self.basis + other.basis)

    def __and__(self, other: Subspace) -> Subspace:
        # Zassenhaus, the reference intersection (independent of masks
        # and complements): reduce [a | a; b | 0] once; the right halves
        # of the rows whose left half vanished are the canonical basis.
        self._check_ambient(other)
        F, n = self.field, self.n
        rows, rank, _ = rref_rows(
            F, [list(r + r) for r in self.basis]
            + [list(r + (0,) * n) for r in other.basis], 2 * n)
        return Subspace._from_rref(F, n, tuple(
            tuple(r[n:]) for r in rows[:rank] if not any(r[:n])))

    def orthogonal_complement(self) -> Subspace:
        """All vectors with zero dot product against this subspace, read
        off the packed canonical basis (`matrix.orthogonal_rows`)."""
        packed = packed_rows(self.field, self.n)
        rows = orthogonal_rows(packed, tuple(map(packed.pack, self.basis)))
        return Subspace._from_rref(self.field, self.n, tuple(
            tuple(packed.unpack(r)) for r in rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field == other.field
                and self.n == other.n
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.basis))

    def __repr__(self) -> str:
        return f"Subspace({self.field!r}, n={self.n}, dim={self.dim}, rows={list(map(list, self.basis))})"


def _members(field: GF, n: int) -> tuple[list, tuple[Subspace, ...]]:
    """The canonical bases as tuples of packed rows, in lattice order,
    and their members.  A pivot pattern's bases are the product of its
    rows' lists: the pivot 1 OR'd with every filling of the free entries."""
    packed = packed_rows(field, n)
    width, keys = packed.width, []
    for d in range(n + 1):
        block = []
        for pivots in itertools.combinations(range(n), d):
            lists = [[1 << (n - 1 - c) * width] for c in pivots]
            for c, rows in zip(pivots, lists):
                for j in set(range(c + 1, n)).difference(pivots):
                    rows[:] = [r | s << (n - 1 - j) * width
                               for r in rows for s in field.slot]
            block.extend(itertools.product(*lists))
        keys += sorted(block)
    unpacked = {r: tuple(packed.unpack(r)) for r in set(itertools.chain.from_iterable(keys))}
    new = Subspace._from_rref
    return keys, tuple(new(field, n, tuple(map(unpacked.__getitem__, t))) for t in keys)


class SubspaceLattice:
    """All subspaces of GF(q)^n with fixed positions and complements.

    Members are ordered by dimension, then by flattened canonical basis.
    So a member of smaller dimension has a smaller index, position 0 is the
    zero space, positions 1..L are the L points and the last position
    is the full space.  Complements are read off the packed bases
    (`matrix.orthogonal_rows`), each pair once, from its member of
    dimension at least n/2.  The pair operations read `masks`, built on
    the first pair query; a lattice that never gets one builds nothing
    beyond its members and complements.
    """

    def __init__(self, field: GF, n: int):
        self.field = field
        self.n = n
        keys, self.members = _members(field, n)
        self.dims = dims = tuple(map(len, keys))
        # Canonical basis rows -> index: members and parents are looked
        # up by row tuple, never by hashing Subspace objects.
        self._by_rows = {s.basis: i for i, s in enumerate(self.members)}
        position, packed = dict(zip(keys, range(len(keys)))), packed_rows(field, n)
        c = [-1] * len(keys)
        for i in reversed(range(len(keys))):
            if c[i] < 0 and 2 * dims[i] >= n:
                c[i] = j = position[orthogonal_rows(packed, keys[i])]
                c[j] = i
        self.complements = tuple(c)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Subspace:
        return self.members[i]

    @property
    def zero_index(self) -> int:
        return 0

    @property
    def full_index(self) -> int:
        return len(self.members) - 1

    def index(self, s: Subspace) -> int:
        if s.field == self.field and s.n == self.n:
            i = self._by_rows.get(s.basis)
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
        `Subspace.__le__` calls for L points.  Each clears at most n - 1
        pivot columns from one row (`matrix.in_row_space`) and
        row-reduces nothing.  Any other member X of dimension >= 2 is
        the intersection of the hyperplanes b_perp over the basis rows
        b of X_perp.
        """
        members, c, dims, n = self.members, self.complements, self.dims, self.n
        n_points = check_mask_bits(self.field, n, len(members))
        masks = [0] * len(members)
        for p in range(1, n_points + 1):
            masks[p] = 1 << (p - 1)
        if n >= 3:
            for p in range(1, n_points + 1):
                for r in range(p, n_points + 1):
                    if members[p] <= members[c[r]]:
                        masks[c[r]] |= 1 << (p - 1)
                        masks[c[p]] |= 1 << (r - 1)
        # A canonical basis row is the canonical basis of its own line.
        line = {members[p].basis[0]: p for p in range(1, n_points + 1)}
        for i, d in enumerate(dims):
            if d >= 2 and d != n - 1:
                mask = (1 << n_points) - 1
                for b in members[c[i]].basis:
                    mask &= masks[c[line[b]]]
                masks[i] = mask
        return tuple(masks)

    @cached_property
    def parents(self) -> tuple[tuple[int, int] | None, ...]:
        """Per member, the pair (parent, last line): the member spanned
        by all but the last row of its canonical basis, and the point
        spanned by that last row.  None at the zero space.

        Both row sets are canonical bases as they stand: a reduced
        echelon basis minus its last row is still one, and a single
        reduced row is its line's.  So the parent has one dimension
        less, lies in the member, and sum_index(parent, line) is the
        member.
        """
        by_rows = self._by_rows
        return (None,) + tuple(
            (by_rows[s.basis[:-1]], by_rows[s.basis[-1:]])
            for s in self.members[1:])

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
        return f"SubspaceLattice({self.field!r}, n={self.n}, size={len(self.members)})"


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
