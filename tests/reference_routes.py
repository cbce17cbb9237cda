"""Reference routes that the library has replaced, kept as test oracles.

- `gabidulin`: the matrix route.  Each extension element is expanded
  over the base field through the inverse of an em x em prime-field
  matrix (or read off its digits when the base is prime), and every
  generator is built as a `Matrix`.
- `random_code`: rejection sampling that tests the rank of a `Matrix`
  of the drawn rows.
- `random_subcode_by_products`: the same sampling on coefficient rows,
  whose `Matrix` product with the code's basis spans the subcode.
- `all_subspaces` and `orthogonal_rows`: the lattice enumeration on
  tuple rows, sorted by `encoding` (the flattened canonical basis), and
  complements read off canonical bases as row lists, reduced by
  `rref_rows`.
- `in_row_space`: containment on row lists, one field call per entry.
- `primitive_powers`: the powers of the first primitive element, found
  by walking the whole cycle of each candidate generator.
- `digit_add` and `digit_neg`: GF(p^e) addition and negation digit by
  digit, mod p.
- `subcode` and `flag_conullity`: the supported subcode at one subspace
  as a Zassenhaus intersection (`Subspace.__and__`) of the code with the
  support space, and the flag's alternating sum of their dimensions.
- `member_witnesses`, `dual_table_report` and `min_table_anticode_weights`:
  the weight witnesses by one pass over every member, the Wei report on
  the weights of the built dual table, and square anticode weights read
  off the built transpose-min table.

The library builds the same objects from coordinate tables, row lists,
packed rows, order tests and slot-wise adds, reads every supported
subcode dimension off the one rank table (`subcode_dims`), and reads
every weight off a per-dimension profile, with no dual or min table.
"""

from __future__ import annotations

import itertools
import random

from qmpoly import (DelsarteCode, GF, Matrix, Subspace, WeightProfile,
                    WeiReport, field, residue_partition, support_space,
                    to_polymatroid, transpose_code, transpose_min_polymatroid)
from qmpoly.field import _digits, _undigits
from qmpoly.matrix import rref_rows


def subfield_embedding(base: GF, ext: GF):
    """GF(q) -> GF(q^m) through the smallest root of the base modulus,
    found by a scan over every element of the extension."""
    if base.e == 1:
        return lambda a: a
    for z in ext.elements():
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, z), c)
        if acc == 0:
            root = z
            break
    else:
        raise AssertionError("base modulus has no root in the extension")
    powers = [1]
    for _ in range(base.e - 1):
        powers.append(ext.mul(powers[-1], root))

    def embed(a: int) -> int:
        out = 0
        for d, pw in zip(_digits(a, base.p, base.e), powers):
            if d:
                out = ext.add(out, ext.mul(d, pw))
        return out

    return embed


def expansion_map(base: GF, ext: GF, basis):
    """z -> the base-field coordinates c_t with z = sum_t c_t basis[t]."""
    m = len(basis)
    if base.e == 1:
        return lambda z: tuple(_digits(z, base.p, m))
    embed = subfield_embedding(base, ext)
    prime = GF(base.p)
    em = base.e * m
    cols = []
    for t in range(m):
        for d in range(base.e):
            elt = ext.mul(embed(base.p ** d), basis[t])
            cols.append(_digits(elt, base.p, em))
    # column (t*e + d) holds the digits of basis[t] * root^d; the right
    # half of the reduced [M | I] is the inverse of M
    aug = Matrix(prime, [[cols[c][r] for c in range(em)]
                         + [int(r == j) for j in range(em)]
                         for r in range(em)], 2 * em)
    inv = [row[em:] for row in aug.rref()[0].rows]

    def expand(z: int) -> tuple[int, ...]:
        digs = _digits(z, base.p, em)
        coords = []
        for r in range(em):
            acc = 0
            for c, d in enumerate(digs):
                if d:
                    acc = prime.add(acc, prime.mul(inv[r][c], d))
            coords.append(acc)
        return tuple(_undigits(coords[t * base.e:(t + 1) * base.e], base.p)
                     for t in range(m))

    return expand


def gabidulin(base: GF, m: int, n: int, k: int) -> DelsarteCode:
    q = base.q
    ext = field(base.p, base.e * m)
    basis = [1]
    for _ in range(m - 1):
        basis.append(ext.mul(basis[-1], base.p))
    expand = expansion_map(base, ext, basis)
    gens = []
    for i in range(k):
        evals = [ext.pow(g, q ** i) for g in basis[:n]]
        for t in range(m):
            cols = [expand(ext.mul(basis[t], ev)) for ev in evals]
            gens.append(Matrix(base, [[cols[j][r] for j in range(n)]
                                      for r in range(m)], n))
    return DelsarteCode.span(base, m, n, gens)


def random_code(f: GF, m: int, n: int, k: int,
                rng: random.Random) -> DelsarteCode:
    if k == 0:
        return DelsarteCode.zero(f, m, n)
    width = m * n
    while True:
        mat = Matrix(f, [[rng.randrange(f.q) for _ in range(width)]
                         for _ in range(k)], width)
        if mat.rank() == k:
            return DelsarteCode(f, m, n, mat)


def random_subcode_by_products(code: DelsarteCode, k: int,
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


def encoding(s: Subspace) -> tuple[int, ...]:
    """Flattened canonical basis; the lexicographic sort key."""
    return tuple(v for row in s.basis for v in row)


def all_subspaces(f: GF, n: int):
    """Every subspace of GF(q)^n in the canonical order."""
    q = f.q
    for k in range(n + 1):
        block = []
        for pivots in itertools.combinations(range(n), k):
            pivset = set(pivots)
            free = [(i, j) for i in range(k)
                    for j in range(pivots[i] + 1, n) if j not in pivset]
            base = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                base[i][c] = 1
            for assign in itertools.product(range(q), repeat=len(free)):
                rows = [r[:] for r in base]
                for (i, j), v in zip(free, assign):
                    rows[i][j] = v
                block.append(Subspace(f, n, rows))
        block.sort(key=encoding)
        yield from block


def orthogonal_rows(f: GF, basis, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the kernel of a reduced echelon basis: one
    vector per non-pivot column fc, 1 at fc and -b[fc] at the pivot of
    each basis row b, reduced by `rref_rows`."""
    pivots = [b.index(1) for b in basis]
    vecs = []
    for fc in range(n):
        if fc not in pivots:
            v = [0] * n
            v[fc] = 1
            for pc, b in zip(pivots, basis):
                if b[fc]:
                    v[pc] = f.neg(b[fc])
            vecs.append(v)
    rows, _, _ = rref_rows(f, vecs, n)
    return tuple(map(tuple, rows))


def in_row_space(F: GF, basis, rows) -> bool:
    """Whether every row of `rows` lies in the row space of `basis`, a
    reduced echelon basis: each row is 1 at its pivot, the first
    non-zero entry, and every other row is 0 there.

    For each basis row b with pivot c, v - v[c]*b clears column c of
    the candidate v and leaves every other pivot column as it was.  So
    once all pivots are cleared, v is zero exactly when it is the
    combination sum_c v[c]*b of the basis, that is, when it lies in
    the span.
    """
    sub, mul = F.sub, F.mul
    pivoted = [(b.index(1), b) for b in basis]
    for v in rows:
        for c, b in pivoted:
            f = v[c]
            if f:
                v = [sub(x, mul(f, y)) if y else x for x, y in zip(v, b)]
        if any(v):
            return False
    return True


def primitive_powers(f: GF) -> list[int]:
    """g^0, ..., g^(q-2) for the first g whose cycle under `_raw_mul`
    has length q - 1."""
    for g in range(1, f.q):
        exp, acc = [1], 1
        while True:
            acc = f._raw_mul(acc, g)
            if acc == 1:
                break
            exp.append(acc)
        if len(exp) == f.q - 1:
            return exp
    raise AssertionError("multiplicative group has no generator")


def digit_add(f: GF, a: int, b: int) -> int:
    """a + b, the base-p digits added one by one, mod p."""
    return _undigits([(x + y) % f.p for x, y in zip(_digits(a, f.p, f.e),
                                                     _digits(b, f.p, f.e))], f.p)


def digit_neg(f: GF, a: int) -> int:
    """-a, each base-p digit negated mod p."""
    return _undigits([-x % f.p for x in _digits(a, f.p, f.e)], f.p)


def subcode(code: DelsarteCode, x: Subspace) -> DelsarteCode:
    """The matrices of the code whose row space lies in x."""
    if code.field != x.field or code.ncols != x.n:
        raise ValueError("subspace ambient does not match code columns")
    if x.dim == x.n:
        return code
    return DelsarteCode._of(code.space & support_space(x, code.nrows).space,
                            code.nrows, code.ncols)


def flag_conullity(flag, x: Subspace) -> int:
    """Alternating sum of the supported subcode dimensions at x; never
    negative for a genuine flag."""
    if flag.field != x.field or flag.shape[1] != x.n:
        raise ValueError("subspace ambient does not match flag columns")
    acc = 0
    for i, c in enumerate(flag.codes):
        acc += (-1) ** i * subcode(c, x).dim
    assert acc >= 0, "alternating subcode dimensions went negative"
    return acc


def _check_weights_exist(table) -> None:
    """The ValueError of a table without weights, before any is listed:
    the conullity reaches r exactly where some value is at most
    rank - r, so the largest r reached is rank - min(values)."""
    k = table.rank
    if k < 0:
        raise ValueError("negative rank; table violates the axioms")
    low = min(table.values)
    if k > 0 and low > 0:
        raise ValueError(f"conullity never reaches {k - low + 1}; "
                         "table violates the axioms")


def member_witnesses(table) -> tuple[int, ...]:
    """For each r = 1 .. rank, the first lattice index whose conullity
    reaches r, in one pass over the members in lattice order."""
    _check_weights_exist(table)
    k = table.rank
    if k == 0:
        return ()
    vals = table.values
    out: list[int] = []
    need = 0
    for i, c in enumerate(table.lattice.complements):
        co = k - vals[c]
        if co > need:
            co = min(co, k)
            out += [i] * (co - need)
            need = co
            if need == k:
                break
    return tuple(out)


def member_weights(table) -> WeightProfile:
    dims = table.lattice.dims
    return WeightProfile(table.rank,
                         tuple(dims[i] for i in member_witnesses(table)))


def dual_table_report(table) -> WeiReport:
    """The Wei report with the dual's weights read off the dual table;
    both sides are checked before either is listed."""
    n, m, k = table.lattice.n, table.m, table.rank
    dual = table.dual()
    _check_weights_exist(table)
    _check_weights_exist(dual)
    witnesses = member_witnesses(table)
    weights = member_weights(table)
    dual_weights = member_weights(dual)
    residues, partition_ok = residue_partition(n, m, k, weights, dual_weights)
    gaps = all(p.values[r - 1] < p.values[r + m - 1]
               for p in (weights, dual_weights)
               for r in range(1, p.rank - m + 1))
    return WeiReport(n=n, m=m, rank=k, dual_rank=dual.rank,
                     weights=weights, dual_weights=dual_weights,
                     witnesses=witnesses, residues=residues,
                     partition_ok=partition_ok,
                     disjoint_ok=all(r.dual_side.isdisjoint(r.primal_side)
                                     for r in residues),
                     monotone_gaps_ok=gaps)


def min_table_anticode_weights(code: DelsarteCode) -> WeightProfile:
    """Anticode weights through built tables: the code's own (m > n),
    its transpose's (m < n), or the transpose-min table's (m = n)."""
    m, n = code.shape
    if m > n:
        return member_weights(to_polymatroid(code))
    if m < n:
        return member_weights(to_polymatroid(transpose_code(code)))
    return member_weights(transpose_min_polymatroid(code))
