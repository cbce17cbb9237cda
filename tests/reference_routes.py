"""Reference routes that the library has replaced, kept as test oracles.

- `gabidulin`: the matrix route.  Each extension element is expanded
  over the base field through the inverse of an em x em prime-field
  matrix (or read off its digits when the base is prime), and every
  generator is built as a `Matrix`.
- `random_code`: rejection sampling that tests the rank of a `Matrix`
  of the drawn rows.

The library builds the same objects from coordinate tables and row
lists.
"""

from __future__ import annotations

import random

from qmpoly import DelsarteCode, GF, Matrix, field
from qmpoly.field import _digits, _undigits


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
