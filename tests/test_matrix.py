import random

import pytest

from qmpoly import Matrix, Subspace, enumerate_subspaces, trace_product, vstack


def rand_matrix(f, nrows, ncols, rng):
    return Matrix(f, [[rng.randrange(f.q) for _ in range(ncols)]
                      for _ in range(nrows)], ncols)


def test_rref_identity_and_zero(gf2):
    ident = Matrix.identity(gf2, 3)
    r, rank, pivots = ident.rref()
    assert r == ident and rank == 3 and pivots == (0, 1, 2)
    zero = Matrix.zeros(gf2, 2, 3)
    r, rank, pivots = zero.rref()
    assert r == zero and rank == 0 and pivots == ()


def test_rref_gf2_rank_one(gf2):
    m = Matrix(gf2, [[1, 1], [1, 1]])
    r, rank, _ = m.rref()
    assert r.rows == ((1, 1), (0, 0))
    assert rank == 1


def test_rref_idempotent_and_row_space_invariant(gf2, gf3):
    rng = random.Random(11)
    for f in (gf2, gf3):
        for _ in range(40):
            m = rand_matrix(f, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            r = m.rref()[0]
            assert r.rref()[0] == r
            perm = list(m.rows)
            rng.shuffle(perm)
            assert Matrix(f, perm, m.ncols).rref()[0] == r


def test_rref_builds_its_form_without_checking_entries_again(gf3, monkeypatch):
    # The reduced form skips `Matrix.__init__`'s entry check, and is the
    # same value, rows as tuples, that the checked constructor makes.
    m = Matrix(gf3, [[1, 2, 0], [2, 2, 1], [0, 0, 2]])
    inits = []
    init = Matrix.__init__

    def counting(self, *args):
        inits.append(args)
        init(self, *args)
    monkeypatch.setattr(Matrix, "__init__", counting)
    r, rank, _ = m.rref()
    monkeypatch.undo()
    assert inits == [] and rank == 3
    checked = Matrix(gf3, r.rows, 3)
    assert r == checked and hash(r) == hash(checked)
    assert type(r.rows) is tuple and all(type(row) is tuple for row in r.rows)


def test_rank_nullity(gf2, gf3):
    # The orthogonal complement of the row space is the right null space.
    rng = random.Random(7)
    for f in (gf2, gf3):
        for _ in range(40):
            m = rand_matrix(f, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            ker = Subspace(f, m.ncols, m).orthogonal_complement()
            assert m.rank() + ker.dim == m.ncols
            for row in ker.basis:
                col = Matrix(f, [[v] for v in row], 1)
                assert all(v == (0,) for v in (m @ col).rows)


def test_kernel_examples(gf2):
    def kernel(mat):
        return Subspace(gf2, mat.ncols, mat).orthogonal_complement().basis
    assert kernel(Matrix.identity(gf2, 3)) == ()
    assert kernel(Matrix.zeros(gf2, 2, 3)) == Matrix.identity(gf2, 3).rows
    assert kernel(Matrix(gf2, [[1, 1]])) == ((1, 1),)


def test_trace_product_examples(gf2, gf3):
    a = Matrix.identity(gf2, 2)
    assert trace_product(a, Matrix.zeros(gf2, 2, 2)) == 0
    assert trace_product(a, a) == 0  # 1 + 1 over GF(2)
    x = Matrix(gf3, [[1, 2]])
    y = Matrix(gf3, [[2, 2]])
    assert trace_product(x, y) == 0  # 1*2 + 2*2 = 6 = 0 mod 3
    with pytest.raises(ValueError):
        trace_product(a, Matrix.zeros(gf2, 1, 2))


def test_trace_product_is_symmetric_bilinear(gf3):
    rng = random.Random(3)
    for _ in range(25):
        a = rand_matrix(gf3, 2, 3, rng)
        b = rand_matrix(gf3, 2, 3, rng)
        c = rand_matrix(gf3, 2, 3, rng)
        a_plus_b = Matrix(gf3, [[gf3.add(x, y) for x, y in zip(ra, rb)]
                                for ra, rb in zip(a.rows, b.rows)], 3)
        assert trace_product(a, b) == trace_product(b, a)
        assert trace_product(a_plus_b, c) == gf3.add(trace_product(a, c),
                                                     trace_product(b, c))


def test_rowspace_sum_and_intersect_examples(gf2):
    e1 = Matrix(gf2, [[1, 0]])
    e2 = Matrix(gf2, [[0, 1]])
    s1, s2 = Subspace(gf2, 2, e1), Subspace(gf2, 2, e2)
    assert (s1 + s1).basis == e1.rows
    assert (s1 + s2).basis == Matrix.identity(gf2, 2).rows
    assert (s1 & s2).dim == 0
    a = Subspace(gf2, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(gf2, 3, [[0, 1, 0], [0, 0, 1]])
    assert (a & b).basis == ((0, 1, 0),)


def test_modular_law_exhaustive_gf2_n4(gf2):
    # dim(X+Y) + dim(X&Y) = dim X + dim Y over every pair in F_2^4
    lat = enumerate_subspaces(gf2, 4)
    for i in range(len(lat)):
        for j in range(i, len(lat)):
            s = lat.dims[lat.sum_index(i, j)]
            t = lat.dims[lat.meet_index(i, j)]
            assert s + t == lat.dims[i] + lat.dims[j]


def test_matmul(gf3):
    rng = random.Random(19)
    for _ in range(20):
        m = rand_matrix(gf3, 3, 3, rng)
        assert m @ Matrix.identity(gf3, 3) == m == Matrix.identity(gf3, 3) @ m
    a = rand_matrix(gf3, 2, 3, rng)
    b = rand_matrix(gf3, 3, 2, rng)
    ab = a @ b
    assert ab.shape == (2, 2)
    assert ab.rows == tuple(
        tuple(trace_product(Matrix(gf3, [ra]), Matrix(gf3, [cb]))
              for cb in b.transpose().rows) for ra in a.rows)
    with pytest.raises(ValueError):
        a @ a


def test_vstack_and_shape_errors(gf2, gf3):
    a = Matrix(gf2, [[1, 0]])
    b = Matrix(gf2, [[0, 1]])
    assert vstack(a, b).rows == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        vstack(a, Matrix(gf2, [[1, 0, 0]]))
    with pytest.raises(ValueError):
        trace_product(a, Matrix(gf3, [[1, 0]]))
    with pytest.raises(ValueError):
        Matrix(gf2, [[2, 0]])
    with pytest.raises(ValueError):
        Matrix(gf2, [], None)
