"""Delsarte rank-metric codes: linear spaces of m-by-n matrices over
GF(q), their subcodes supported on a subspace, trace duals, associated
rank tables, and the two weight theories (support weights and
anticode-based weights).  `to_polymatroid` is the one place a rank
table is computed from subspaces: block sums and weighted intersection
tables are sums of the tables of 1-by-n codes.

A code is a `Subspace` of GF(q)^(mn), the row-major vectorizations of
its codewords, together with its shape; code equality is subspace
equality.  Under row-major vectorization the trace form Trace(A B^t)
becomes the plain dot product, so the trace dual is the orthogonal
complement.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Sequence

from .errors import check_guard
from .field import GF, _digits, field
from .lattice import Subspace, SubspaceLattice, enumerate_subspaces
from .matrix import Matrix, packed_rows
from .polymatroid import (PolymatroidTable, WeightProfile, _first_reaching,
                          conullity_table, generalized_weights)

DEFAULT_CODEWORD_GUARD = 1 << 20


def vectorize(mat: Matrix) -> tuple[int, ...]:
    """Row-major flattening of a matrix into a length-(m*n) vector."""
    return tuple(v for row in mat.rows for v in row)


def devectorize(field: GF, m: int, n: int, vec: Sequence[int]) -> Matrix:
    """Inverse of vectorize for the given shape."""
    vec = tuple(vec)
    if len(vec) != m * n:
        raise ValueError(f"vector of length {len(vec)} does not fill {m}x{n}")
    return Matrix(field, [vec[i * n:(i + 1) * n] for i in range(m)], n)


class DelsarteCode:
    """A linear space of m-by-n matrices over GF(q): a `Subspace` of
    GF(q)^(mn) plus its shape.

    The constructor reduces any spanning rows of width m*n, or a
    `Matrix` of them, to the canonical basis, so equal codes compare
    and hash equal however they were given.
    """

    __slots__ = ("space", "nrows", "ncols")

    def __init__(self, field: GF, nrows: int, ncols: int, basis):
        self.space = Subspace(field, nrows * ncols, basis)
        self.nrows = nrows
        self.ncols = ncols

    @classmethod
    def _of(cls, space: Subspace, m: int, n: int) -> DelsarteCode:
        # Trusted path for a subspace of GF(q)^(mn) built internally.
        code = object.__new__(cls)
        code.space = space
        code.nrows = m
        code.ncols = n
        return code

    @classmethod
    def span(cls, field: GF, m: int, n: int,
             mats: Iterable[Matrix | Sequence[int]]) -> DelsarteCode:
        """Code spanned by matrices (or already-vectorized rows)."""
        vecs = []
        for item in mats:
            if isinstance(item, Matrix):
                if item.field != field:
                    raise ValueError(
                        f"generator over {item.field!r}, expected {field!r}")
                if item.shape != (m, n):
                    raise ValueError(
                        f"generator of shape {item.shape}, expected {(m, n)}")
                item = vectorize(item)
            vecs.append(item)
        return cls(field, m, n, vecs)

    @classmethod
    def from_generators(cls, field: GF, m: int, n: int,
                        mats: Sequence[Matrix | Sequence[int]]) -> DelsarteCode:
        """Like span, but the generators must be linearly independent."""
        code = cls.span(field, m, n, mats)
        if code.dim != len(mats):
            raise ValueError("generators are linearly dependent")
        return code

    @classmethod
    def zero(cls, field: GF, m: int, n: int) -> DelsarteCode:
        return cls._of(Subspace.zero(field, m * n), m, n)

    @classmethod
    def full(cls, field: GF, m: int, n: int) -> DelsarteCode:
        return cls._of(Subspace.full(field, m * n), m, n)

    @property
    def field(self) -> GF:
        return self.space.field

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The canonical basis of the vectorized codewords, as row tuples."""
        return self.space.basis

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def ambient_dim(self) -> int:
        return self.nrows * self.ncols

    @property
    def generators(self) -> tuple[Matrix, ...]:
        return tuple(devectorize(self.field, self.nrows, self.ncols, row)
                     for row in self.basis)

    def is_subcode_of(self, other: DelsarteCode) -> bool:
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("codes live in different matrix spaces")
        return self.space <= other.space

    def contains_matrix(self, mat: Matrix) -> bool:
        if mat.field != self.field:
            raise ValueError("field mismatch")
        if mat.shape != self.shape:
            raise ValueError("shape mismatch")
        return self.space._holds(
            packed_rows(self.field, self.ambient_dim).pack(vectorize(mat)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, DelsarteCode)
                and self.shape == other.shape
                and self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.shape, self.space))

    def __repr__(self) -> str:
        return (f"DelsarteCode(GF({self.field.q}), {self.nrows}x{self.ncols}, "
                f"dim={self.dim})")


def support_space(x: Subspace, m: int) -> DelsarteCode:
    """All m-by-n matrices whose row space lies in x; dimension m*dim x.

    Each canonical basis row of x put into one matrix row at a time, a
    packed row shifted into place, gives a basis already in canonical
    form.
    """
    bits = x.n * packed_rows(x.field, x.n).width
    rows = tuple(b << (m - 1 - i) * bits for i in range(m) for b in x.rows)
    return DelsarteCode._of(Subspace._of(x.field, m * x.n, rows), m, x.n)


def subcode_dims(code: DelsarteCode,
                 lattice: SubspaceLattice) -> tuple[int, ...]:
    """dim of the supported subcode at every lattice member.

    A codeword sum_i c_i G_i has its row space in X exactly when it
    annihilates X_perp.  Let W(A) <= GF(q)^k be the span of the vectors
    (G_i[r] . b)_i over the rows r < m and all b in A; then
    dim C(X) = k - dim W(X_perp).  Four facts build W on the whole
    lattice at little cost:

    - Parent and last line.  Drop the last row of a member's canonical
      basis, and what is left is the canonical basis of the member one
      dimension down, its parent; the dropped row is the canonical
      basis of a point, its last line (`SubspaceLattice.parents`).
    - Additivity.  b -> (G_i[r] . b)_i is linear for each r, so
      W(A + B) = W(A) + W(B).
    - Monotonicity.  The parent lies in the member, so W(parent) <=
      W(member): every descendant of a rank-k member in the parent tree
      has rank k too (axiom R2 of the code's rank function).
    - Shared blocks.  A point's m-by-k block is linear in the point,
      and scaling a block keeps its row space.  When m*k < n the map
      from points to blocks has a kernel, so many points carry one
      block up to a scalar (q^n - 1 non-zero vectors land on at most
      q^(mk) blocks); when m*k >= n it is injective as a rule, and
      keying blocks would only cost.

    So W of each of the L points (lattice positions 1..L) is computed
    and row-reduced, and its reduced rows are packed into one int each
    (`matrix.PackedRows`).  A point's key is its canonical basis row b,
    packed, so entry (r, i) of its m-by-k block is one `PackedRows.dot`
    of the key with G_i[r], read off the code's packed row i by shift
    and mask; no matrix product is formed.  When m*k >= n each block row
    r is packed on k slots, slot i its entry (r, i), and each point's m
    rows are reduced once by `PackedRows.rref`, with no `Matrix` and no
    field call.  When m*k < n the entries are packed into one int of m*k
    slots, scaled so that its leading slot is 1, and each distinct
    packed block is reduced once in the call, as a `Matrix`, and its
    packed rows shared by every point that carries it.  The reduced echelon form is canonical for the row
    space, so both routes give the same lines.  A walk then goes down
    the parent tree a dimension at a time from the zero space.  It
    expands only the children (`SubspaceLattice.children`) of the
    frontier, the members below rank k; only they keep a basis, and a
    member the walk does not reach is not visited at all.  W of a child
    is W(parent) with the packed rows of its last line merged in: a
    short echelon insert into a basis of at most k vectors, stopped once
    the rank reaches k.  A merge subtracts packed rows (XOR in
    characteristic 2, a slot-wise add for odd p) and finds each leading
    coordinate by `int.bit_length`; it scales by `PackedRows.times`,
    with no field call, and keeps each multiple it makes.  A child whose
    last line alone has rank k is not merged.  The full code has dim
    C(X) = m*dim X and the zero code 0; neither needs any of this.
    """
    if code.field != lattice.field or code.ncols != lattice.n:
        raise ValueError("lattice ambient does not match code columns")
    k = code.dim
    if k == code.ambient_dim:
        return tuple(code.nrows * d for d in lattice.dims)
    if k == 0:
        return (0,) * len(lattice)
    F, m, n = code.field, code.nrows, code.ncols
    # gens[r][i] is G_i[r], packed as the point keys are, so entry (r, i)
    # of a point's block is the dot of the two, a slot value: row r's
    # slots of the packed generator G_i, by shift and mask.
    dot = packed_rows(F, n).dot
    packed = packed_rows(F, k)
    sub, times, inverse = packed.sub, packed.times, packed.inverse
    width, mask = packed.width, packed.mask
    low = (1 << n * width) - 1
    gens = [[g >> (m - 1 - r) * n * width & low for g in code.space.rows]
            for r in range(m)]

    lines: list[tuple[int, ...]] = [()]
    if m * k >= n:
        # Block row r packed on k slots, slot i = entry (r, i).
        rref = packed.rref
        for b in lattice.point_keys:
            rows = []
            for row in gens:
                x = 0
                for g in row:
                    x = x << width | dot(b, g)
                rows.append(x)
            lines.append(rref(rows))
    else:
        # A block packed into one int, slot (r, i) = entry (r, i), and
        # scaled to a leading 1, keys the lines of every point carrying it.
        blocks = packed_rows(F, m * k)
        flat = [g for row in gens for g in row]
        shared: dict[int, tuple[int, ...]] = {}
        for b in lattice.point_keys:
            key = 0
            for g in flat:
                key = key << width | dot(b, g)
            if key:
                key = blocks.times(blocks.inverse(
                    key >> (key.bit_length() - 1) // width * width), key)
            found = shared.get(key)
            if found is None:
                entries = blocks.unpack(key)
                reduced, rank, _ = Matrix(F, [entries[r * k:(r + 1) * k]
                                              for r in range(m)], k).rref()
                found = shared[key] = tuple(map(packed.pack,
                                                reduced.rows[:rank]))
            lines.append(found)
    # ranks[i] is dim W(member i); members the walk does not reach keep
    # rank k.  A frontier entry, for a member below rank k with children,
    # is the run of its children, its rank and its basis: basis[j] is the
    # row whose leading coordinate, a 1, sits in slot j; 0 when none does.
    ranks = [k] * len(lattice)
    ranks[0] = 0
    multiples: dict[tuple[int, int], int] = {}
    children, line_of = lattice.children, lattice.parents[1]
    frontier = [(range(children[0], children[1]), 0, [0] * k)]
    while frontier:
        below = []
        for run, parent_rank, parent_basis in frontier:
            for i in run:
                new = lines[line_of[i]]
                if len(new) == k:
                    continue
                rank, basis = parent_rank, parent_basis[:]
                for v in new:
                    while v:
                        j = (v.bit_length() - 1) // width
                        f = (v >> (j * width)) & mask
                        b = basis[j]
                        if not b:
                            basis[j] = times(inverse(f), v)
                            rank += 1
                            break
                        if f != 1:
                            fb = multiples.get((b, f))
                            if fb is None:
                                fb = multiples[b, f] = times(f, b)
                            b = fb
                        v = sub(v, b)
                    if rank == k:
                        break
                else:
                    ranks[i] = rank
                    if children[i] < children[i + 1]:
                        below.append((range(children[i], children[i + 1]),
                                      rank, basis))
        frontier = below
    return tuple([k - ranks[c] for c in lattice.complements])


def to_polymatroid(code: DelsarteCode,
                   lattice: SubspaceLattice | None = None) -> PolymatroidTable:
    """The rank table rho(X) = dim C - dim C(X_perp) of the code.

    Its conullity at X equals dim C(X), which is what the weight
    computations scan.
    """
    lat = lattice if lattice is not None else enumerate_subspaces(
        code.field, code.ncols)
    dims = subcode_dims(code, lat)
    k = code.dim
    vals = [k - dims[c] for c in lat.complements]
    return PolymatroidTable(lat, code.nrows, vals)


def trace_dual(code: DelsarteCode) -> DelsarteCode:
    """Orthogonal code under Trace(M N^t): the orthogonal complement of
    the vectorized code under the dot product."""
    return DelsarteCode._of(code.space.orthogonal_complement(),
                            code.nrows, code.ncols)


def transpose_code(code: DelsarteCode) -> DelsarteCode:
    """Entrywise transpose of every codeword; shape flips to n-by-m.

    Entry (i, j) of a codeword sits at i*n + j of its vector, so row j
    of the transpose is v[j::n]; the permuted rows are reduced once.
    """
    m, n = code.shape
    return DelsarteCode._of(Subspace._reduce(
        code.field, m * n, [[v for j in range(n) for v in row[j::n]]
                            for row in code.basis]), n, m)


def code_weights(code: DelsarteCode,
                 lattice: SubspaceLattice | None = None) -> WeightProfile:
    """Generalized weights d_r = min { dim X : dim C(X) >= r }, read off
    the per-dimension maxima of the supported subcode dimensions, which
    are the conullity profile of the code's rank table; the table
    itself is not built."""
    if code.dim == 0:
        raise ValueError("zero code has no weights")
    lat = lattice if lattice is not None else enumerate_subspaces(
        code.field, code.ncols)
    sub, dims = subcode_dims(code, lat), lat.dims
    profile = [max(sub[bisect_left(dims, x):bisect_right(dims, x)])
               for x in range(lat.n + 1)]
    (values,) = _first_reaching((profile, code.dim))
    return WeightProfile(code.dim, values)


def anticode_weights(code: DelsarteCode,
                     table: PolymatroidTable | None = None) -> WeightProfile:
    """Anticode-based weights, via the shape-dependent reduction:

      m > n : equal to the code's own weights
      m = n : the weights of `transpose_min_polymatroid`, which are the
              pointwise min of the code's and its transpose's weights
      m < n : the transposed code's weights (computed on its own,
              wider-row side, where values range in 1..m)

    The min table's conullity at X is the larger of the two codes'
    (both have dimension K), so its profile is the larger of theirs,
    and r is first reached where either profile first reaches it; the
    min table is not built.  `table` is the code's own table, read when
    given; no rank table is built here.
    """
    if code.dim == 0:
        raise ValueError("zero code has no weights")
    m, n = code.shape
    if m < n:
        return code_weights(transpose_code(code))
    if table is None:
        own, lat = code_weights(code), None
    else:
        own, lat = generalized_weights(table), table.lattice
    if m > n:
        return own
    other = code_weights(transpose_code(code), lat)
    return WeightProfile(own.rank, tuple(map(min, own.values, other.values)))


def transpose_min_polymatroid(
        code: DelsarteCode,
        lattice: SubspaceLattice | None = None) -> PolymatroidTable:
    """For square shapes, the pointwise min of the rank tables of the
    code and its transpose.  A demi-polymatroid whose conullity is the
    max of the two subcode dimensions, so its weights are the pointwise
    min of the two profiles (`anticode_weights` reads them so)."""
    if code.nrows != code.ncols:
        raise ValueError("defined for square matrix codes only")
    table = to_polymatroid(code, lattice)
    other = to_polymatroid(transpose_code(code), table.lattice)
    return PolymatroidTable(table.lattice, code.nrows,
                            [min(a, b) for a, b in zip(table.values, other.values)])


def _block_table(spaces: Sequence[Subspace], weights: Sequence[int],
                 lattice: SubspaceLattice | None, noun: str) -> PolymatroidTable:
    """sum_i w_i * rho_i with multiplier sum_i w_i, rho_i the rank table
    dim V_i - dim(V_i & X_perp) of the 1-by-n code `support_space(V_i, 1)`:
    one table per space, whatever its weight."""
    if not spaces:
        raise ValueError(f"need at least one {noun}")
    field, n = spaces[0].field, spaces[0].n
    if any(v.field != field or v.n != n for v in spaces):
        raise ValueError(f"ambient space mismatch among {noun}s")
    lat = lattice if lattice is not None else enumerate_subspaces(field, n)
    vals = [0] * len(lat)
    for v, w in zip(spaces, weights):
        table = to_polymatroid(support_space(v, 1), lat)
        vals = [a + w * b for a, b in zip(vals, table.values)]
    return PolymatroidTable(lat, sum(weights), vals)


def sum_polymatroid(blocks: Sequence[Subspace],
                    lattice: SubspaceLattice | None = None) -> PolymatroidTable:
    """Sum of the rank tables of m length-n block codes C_i (subspaces of
    GF(q)^n), each dim C_i - dim(C_i & X_perp): a (q,m)-polymatroid with
    m = number of blocks and conullity sum_i dim(C_i & X)."""
    return _block_table(blocks, [1] * len(blocks), lattice, "block code")


def intersection_demipolymatroid(
        spaces: Sequence[Subspace], weights: Sequence[int],
        lattice: SubspaceLattice | None = None) -> PolymatroidTable:
    """Weighted intersection-dimension table
    rho(J) = sum_i w_i * dim(V_i & J), with multiplier m = sum of the
    weights: the conullity of the weighted sum of the V_i's code tables.
    Generally a demi-polymatroid only; its dual is the same construction
    on the orthogonal complements of the V_i.
    """
    if len(spaces) != len(weights):
        raise ValueError(
            f"{len(spaces)} subspaces but {len(weights)} weights")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    return conullity_table(_block_table(spaces, weights, lattice, "subspace"))


# -- Gabidulin construction -------------------------------------------


def _combinations(ext: GF, scalars: Sequence[int],
                  gens: Sequence[int]) -> list[int]:
    """Every sum_t scalars[c_t] * gens[t] in the field ext, listed at
    position sum_t c_t s^t for s = len(scalars): one walk over the
    sums, a generator at a time."""
    sums = [0]
    for g in gens:
        scaled = [ext.mul(a, g) for a in scalars]
        sums = [ext.add(z, b) for b in scaled for z in sums]
    return sums


def _subfield_embedding(base: GF, ext: GF) -> list[int]:
    """The images in GF(q^m) of the q elements of GF(q), by encoding.

    For prime q the constants already agree.  Otherwise the base
    modulus has a root in the extension; the smallest such root (by
    encoding) fixes a deterministic embedding, which sends
    sum_d a_d x^d to sum_d a_d root^d.  The roots lie in the subfield
    of order q, whose non-zero elements are the ((Q-1)/(q-1))-th powers
    of the extension's primitive element (`GF._exp` lists its powers),
    so only those q - 1 are tried.
    """
    if base.e == 1:
        return list(range(base.q))
    roots = []
    for z in ext._exp[::(ext.q - 1) // (base.q - 1)]:
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, z), c)
        if acc == 0:
            roots.append(z)
    powers = [1]
    for _ in range(base.e - 1):
        powers.append(ext.mul(powers[-1], min(roots)))
    return _combinations(ext, range(base.p), powers)


def gabidulin(base: GF, m: int, n: int, k: int) -> DelsarteCode:
    """The classical MRD construction as a Delsarte code of shape m x n.

    Codewords are evaluations of q-linearized polynomials
    a_0 x + a_1 x^q + ... + a_{k-1} x^{q^{k-1}} with coefficients in
    GF(q^m), taken at the first n elements of the power basis
    1, alpha, ..., alpha^{m-1} of GF(q^m), every value expanded over
    that same basis into a column.  The basis and evaluation points are
    fixed by the deterministic modulus, so the output is reproducible.
    Dimension is m*k and the minimum rank distance is n - k + 1.

    The coordinates (c_0, ..., c_{m-1}) over GF(q) of every element
    z = sum_t embed(c_t) alpha^t come from one walk over those sums:
    `position[z]` is sum_t c_t q^t, whose base-q digits they are.
    """
    if not 1 <= k <= n <= m:
        raise ValueError(
            f"need 1 <= k <= n <= m, got k={k}, n={n}, m={m}")
    q = base.q
    ext = field(base.p, base.e * m)
    basis = [1]
    for _ in range(m - 1):
        basis.append(ext.mul(basis[-1], base.p))  # p encodes the polynomial x
    position = [0] * ext.q
    for i, z in enumerate(_combinations(ext, _subfield_embedding(base, ext),
                                        basis)):
        position[z] = i
    rows = []
    for i in range(k):
        evals = [ext.pow(g, q ** i) for g in basis[:n]]
        for b in basis:
            cols = [_digits(position[ext.mul(b, ev)], q, m) for ev in evals]
            rows.append([c[r] for r in range(m) for c in cols])
    space = Subspace._reduce(base, m * n, rows)
    assert space.dim == m * k, "evaluation map lost rank"
    return DelsarteCode._of(space, m, n)


# -- distance and MRD -------------------------------------------------


def min_rank_distance(code: DelsarteCode,
                      guard: int = DEFAULT_CODEWORD_GUARD) -> int:
    """Minimum rank over all nonzero codewords, by full enumeration;
    each codeword is a packed combination of the code's packed rows, and
    its rank is the length of one `PackedRows.rref` of its m row slices."""
    k = code.dim
    if k == 0:
        raise ValueError("zero code has no distance")
    F, m, n = code.field, code.nrows, code.ncols
    count = F.q ** k - 1
    check_guard("nonzero codewords", count, guard)
    space, packed = packed_rows(F, m * n), packed_rows(F, n)
    bits = n * packed.width
    low, shifts = (1 << bits) - 1, range((m - 1) * bits, -1, -bits)
    best = min(m, n)
    for enc in range(1, count + 1):
        vec = 0
        for c, row in zip(_digits(enc, F.q, k), code.space.rows):
            if c:
                vec = space.add(vec, space.times(F.slot[c], row))
        rank = len(packed.rref([vec >> s & low for s in shifts]))
        if rank < best:
            best = rank
            if best == 1:
                break
    return best


def is_mrd(code: DelsarteCode) -> bool:
    """Whether the code meets the rank-metric Singleton bound.

    Requires m >= n and a positive dimension divisible by m; violations
    raise, they do not return False.
    """
    m, n = code.shape
    if m < n:
        raise ValueError("MRD test needs at least as many rows as columns")
    if code.dim == 0 or code.dim % m != 0:
        raise ValueError(
            f"dimension {code.dim} is not a positive multiple of m={m}")
    return min_rank_distance(code) == n - code.dim // m + 1


# -- anticode/support weight comparison --------------------------------


class GapCertificate(NamedTuple):
    """A code whose anticode-based weight drops below its support
    weight at index r."""
    code: DelsarteCode
    r: int
    anticode_weight: int
    support_weight: int


def anticode_gap_search(field: GF, size: int) -> GapCertificate | None:
    """Exhaustively search all codes of square shape size x size for an
    instance with some a_r < d_r.  Returns the first certificate in
    canonical code order, or None if the gap never occurs at this size.
    """
    ambient = enumerate_subspaces(field, size * size)
    for member in ambient:
        if member.dim == 0:
            continue
        code = DelsarteCode._of(member, size, size)
        table = to_polymatroid(code)
        d = generalized_weights(table)
        a = anticode_weights(code, table)
        for r in range(1, code.dim + 1):
            if a.values[r - 1] < d.values[r - 1]:
                return GapCertificate(code, r, a.values[r - 1], d.values[r - 1])
    return None


# -- random codes ------------------------------------------------------


def random_code(field: GF, m: int, n: int, k: int,
                rng: random.Random) -> DelsarteCode:
    """Uniformly random k-dimensional code of shape m x n.

    Rejection-samples k rows of length m*n until they are independent;
    every subspace has the same number of such bases, so canonicalizing
    the row space samples uniformly.
    """
    if not 0 <= k <= m * n:
        raise ValueError(f"dimension {k} outside 0..{m * n}")
    if k == 0:
        return DelsarteCode.zero(field, m, n)
    width = m * n
    q = field.q
    while True:
        rows = [[rng.randrange(q) for _ in range(width)] for _ in range(k)]
        space = Subspace._reduce(field, width, rows)
        if space.dim == k:
            return DelsarteCode._of(space, m, n)


def random_subcode(code: DelsarteCode, k: int,
                   rng: random.Random) -> DelsarteCode:
    """Uniformly random k-dimensional subcode."""
    if not 0 <= k <= code.dim:
        raise ValueError(f"subcode dimension {k} outside 0..{code.dim}")
    if k == 0:
        return DelsarteCode.zero(code.field, code.nrows, code.ncols)
    F = code.field
    q = F.q
    while True:
        coeff = Matrix(F, [[rng.randrange(q) for _ in range(code.dim)]
                           for _ in range(k)], code.dim)
        if coeff.rank() == k:
            picked = coeff @ Matrix(F, code.basis, code.ambient_dim)
            return DelsarteCode(F, code.nrows, code.ncols, picked)
