import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qmpoly
import reference_routes
from qmpoly import (DelsarteCode, GuardExceeded, Matrix, Subspace,
                    SubspaceLattice, WeightProfile, anticode_gap_search,
                    anticode_weights, check_axioms, code_weights,
                    devectorize, enumerate_subspaces, field, gabidulin,
                    gaussian_binomial, generalized_weights, is_mrd,
                    min_rank_distance, nullity_profiles, random_code,
                    random_flag,
                    random_subcode, subcode_dims, support_space,
                    to_polymatroid, trace_dual, trace_product, transpose_code,
                    transpose_min_polymatroid, uniform, vectorize, vstack,
                    wei_duality_report)
from qmpoly.matrix import PackedRows, packed_rows


def test_every_public_name_exists():
    # Names leave `__all__` together with the code they named.
    assert all(hasattr(qmpoly, name) for name in qmpoly.__all__)
    assert not {"subcode", "flag_conullity"} & set(qmpoly.__all__)


def test_vectorize_roundtrip(gf2, gf3):
    ident = Matrix.identity(gf2, 2)
    assert vectorize(ident) == (1, 0, 0, 1)
    assert vectorize(Matrix.zeros(gf2, 2, 3)) == (0,) * 6
    rng = random.Random(2)
    for _ in range(10):
        m = Matrix(gf3, [[rng.randrange(3) for _ in range(3)]
                         for _ in range(2)], 3)
        assert devectorize(gf3, 2, 3, vectorize(m)) == m
    with pytest.raises(ValueError):
        devectorize(gf3, 2, 3, (0,) * 5)


def test_trace_product_is_vectorized_dot(gf3):
    rng = random.Random(4)
    for _ in range(20):
        a = Matrix(gf3, [[rng.randrange(3) for _ in range(3)]
                         for _ in range(2)], 3)
        b = Matrix(gf3, [[rng.randrange(3) for _ in range(3)]
                         for _ in range(2)], 3)
        dot = 0
        for x, y in zip(vectorize(a), vectorize(b)):
            dot = gf3.add(dot, gf3.mul(x, y))
        assert trace_product(a, b) == dot


def test_support_space_dimensions(gf2):
    zero = Subspace.zero(gf2, 3)
    assert support_space(zero, 4).dim == 0
    full = Subspace.full(gf2, 3)
    assert support_space(full, 4) == DelsarteCode.full(gf2, 4, 3)
    line = Subspace(gf2, 3, [[1, 0, 0]])
    assert support_space(line, 5).dim == 5
    # basis construction lands in canonical form already
    sup = support_space(Subspace(gf2, 3, [[1, 0, 1], [0, 1, 1]]), 2)
    assert Subspace(gf2, 6, sup.basis).basis == sup.basis


def test_subcode_identities(gf2):
    lat = enumerate_subspaces(gf2, 3)
    c = random_code(gf2, 2, 3, 3, random.Random(8))
    assert reference_routes.subcode(c, Subspace.zero(gf2, 3)).dim == 0
    assert reference_routes.subcode(c, Subspace.full(gf2, 3)) == c
    for y in lat:
        my = support_space(y, 2)
        for z in lat:
            assert reference_routes.subcode(my, z) == support_space(y & z, 2)


def test_to_polymatroid_trivial_codes(gf2):
    lat = enumerate_subspaces(gf2, 2)
    zero = to_polymatroid(DelsarteCode.zero(gf2, 3, 2), lat)
    assert zero.values == (0,) * 5
    full = to_polymatroid(DelsarteCode.full(gf2, 3, 2), lat)
    assert full.values == tuple(3 * d for d in lat.dims)


def test_conullity_equals_subcode_dimension(gf2):
    rng = random.Random(13)
    lat = enumerate_subspaces(gf2, 3)
    for _ in range(10):
        c = random_code(gf2, 2, 3, rng.randrange(1, 6), rng)
        t = to_polymatroid(c, lat)
        dims = subcode_dims(c, lat)
        for i in range(len(lat)):
            assert t.conullity_at(i) == dims[i]


def test_subcode_dims_match_zassenhaus_subcode(gf2, gf3, gf4):
    rng = random.Random(41)
    for f, m, n in [(gf2, 2, 4), (gf3, 2, 3), (gf4, 2, 3), (field(3, 2), 2, 2)]:
        lat = enumerate_subspaces(f, n)
        codes = [random_code(f, m, n, rng.randrange(1, m * n), rng)
                 for _ in range(3)]
        codes += [DelsarteCode.zero(f, m, n), DelsarteCode.full(f, m, n)]
        for c in codes:
            dims = subcode_dims(c, lat)
            for j, x in enumerate(lat):
                assert dims[j] == reference_routes.subcode(c, x).dim


def reference_subcode_dims(code, lat):
    """The per-member formula: dim C(X) = k - rank M, where row i of M
    is the row-major flattening of G_i B^t for the canonical basis B of
    X_perp; one row reduction per member."""
    k = code.dim
    out = []
    for c in lat.complements:
        perp = lat[c]
        if k == 0 or perp.dim == 0:
            out.append(k)
            continue
        perp_t = Matrix(code.field, perp.basis, perp.n).transpose()
        rows = [vectorize(g @ perp_t) for g in code.generators]
        out.append(k - Matrix(code.field, rows, len(rows[0])).rank())
    return tuple(out)



@st.composite
def walk_extremes(draw):
    """Codes at the extremes of the frontier walk in `subcode_dims`:
    k = 1; k near m*n, where the frontier is nearly the whole lattice;
    and subcodes of a 1-dimensional Gabidulin code, whose nonzero
    codewords all have rank n, so every point already reaches rank k
    and the walk stops after dimension 1."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    f = field(p, e)
    n = draw(st.sampled_from([4, 3, 2, 1] if f.q == 2 else [3, 2, 1]))
    m = draw(st.sampled_from([3, 2, 1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["k=1", "near full", "points at rank k"]))
    if kind == "k=1":
        return kind, random_code(f, m, n, 1, rng)
    if kind == "near full":
        k = max(1, m * n - draw(st.integers(1, 3)))
        return kind, random_code(f, m, n, k, rng)
    m = max(m, n)
    k = draw(st.integers(1, m))
    return kind, random_subcode(gabidulin(f, m, n, 1), k, rng)


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_extremes())
@example(("near full", random_code(field(2), 3, 4, 11, random.Random(1))))
@example(("near full", random_code(field(3), 3, 3, 8, random.Random(1))))
@example(("points at rank k", gabidulin(field(2), 4, 4, 1)))
def test_subcode_dims_match_the_per_member_formula_at_the_walk_extremes(case):
    kind, code = case
    lat = enumerate_subspaces(code.field, code.ncols)
    dims = subcode_dims(code, lat)
    assert dims == reference_subcode_dims(code, lat)
    if kind == "points at rank k":
        # no nonzero codeword has its row space in a hyperplane
        assert all(dims[i] == 0 for i, d in enumerate(lat.dims)
                   if d == code.ncols - 1)

@pytest.mark.parametrize("p,e,m,n", [(2, 1, 2, 5), (2, 1, 4, 3), (2, 1, 1, 4),
                                     (3, 1, 2, 3), (2, 2, 2, 3), (5, 1, 3, 2),
                                     (3, 2, 2, 2), (2, 3, 2, 3), (3, 3, 2, 2),
                                     (5, 2, 2, 2), (2053, 1, 2, 2),
                                     (2, 3, 1, 3), (3, 2, 1, 3), (5, 2, 1, 2),
                                     (3, 3, 3, 2), (2, 3, 2, 1), (3, 2, 3, 1),
                                     (5, 2, 2, 1), (3, 3, 1, 1)])
def test_subcode_dims_match_the_per_member_formula(p, e, m, n):
    # k below, at and above m, and the zero and full codes; GF(9), GF(25)
    # and GF(27) have slot encodings that differ from their elements, and
    # n = 1 has a single point.
    f = field(p, e)
    lat = enumerate_subspaces(f, n)
    rng = random.Random(f"{p}^{e} {m}x{n}")
    ks = {0, 1, m - 1, m, m + 1, rng.randrange(m * n + 1), m * n - 1, m * n}
    for k in sorted(ks & set(range(m * n + 1))):
        c = random_code(f, m, n, k, rng)
        assert subcode_dims(c, lat) == reference_subcode_dims(c, lat), k


@st.composite
def shared_block_codes(draw):
    """Codes with m*k < n, whose points share blocks up to scalars:
    random codes, k = 1 among them, and subcodes of the support space
    of a proper subspace X, whose blocks vanish at the points of
    X_perp."""
    p, e, m, n = draw(st.sampled_from([
        (2, 1, 1, 4), (2, 1, 2, 5), (2, 1, 1, 5), (2, 1, 3, 4),
        (3, 1, 1, 4), (3, 1, 2, 3), (2, 2, 1, 3), (2, 2, 2, 3),
        (3, 2, 1, 2), (3, 2, 1, 3), (2053, 1, 1, 2)]))
    f = field(p, e)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    k = draw(st.integers(1, (n - 1) // m))
    if not draw(st.booleans()):
        return random_code(f, m, n, k, rng)
    x = random_code(f, 1, n, draw(st.integers(1, n - 1)), rng).space
    space = support_space(x, m)
    return random_subcode(space, min(k, space.dim), rng)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(shared_block_codes())
@example(random_code(field(2053), 1, 2, 1, random.Random(1)))
@example(support_space(Subspace(field(3, 2), 3, [(1, 2, 0)]), 1))
@example(random_code(field(2), 2, 5, 2, random.Random(1)))
def test_subcode_dims_shared_blocks_match_the_per_member_formula(code):
    lat = enumerate_subspaces(code.field, code.ncols)
    assert code.nrows * code.dim < code.ncols
    assert subcode_dims(code, lat) == reference_subcode_dims(code, lat)


@st.composite
def per_point_block_codes(draw):
    """Codes with m*k >= n, whose points merge their raw block rows at
    the walk's first level: random codes, and subcodes of the support
    space of a proper subspace X, whose blocks vanish at the points of
    X_perp and lose rank at others."""
    p, e, m, n = draw(st.sampled_from([
        (2, 1, 2, 4), (2, 1, 3, 4), (2, 1, 2, 5), (3, 1, 2, 3),
        (3, 1, 3, 3), (2, 2, 2, 3), (5, 1, 2, 3), (3, 2, 2, 2),
        (2053, 1, 2, 2)]))
    f = field(p, e)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    least = -(-n // m)
    if not draw(st.booleans()):
        return random_code(f, m, n, draw(st.integers(least, m * n - 1)), rng)
    d = draw(st.integers(-(-least // m), n - 1))
    x = random_code(f, 1, n, d, rng).space
    return random_subcode(support_space(x, m),
                          draw(st.integers(least, m * d)), rng)


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(per_point_block_codes())
@example(support_space(Subspace(field(2), 6, [(1, 0, 0, 1, 1, 0),
                                              (0, 1, 0, 0, 1, 1)]), 3))
@example(random_code(field(2053), 2, 2, 1, random.Random(1)))
def test_subcode_dims_per_point_blocks_match_the_per_member_formula(code):
    # The code and its trace dual, which may take either route.
    lat = enumerate_subspaces(code.field, code.ncols)
    assert code.nrows * code.dim >= code.ncols
    for c in (code, trace_dual(code)):
        assert subcode_dims(c, lat) == reference_subcode_dims(c, lat)


def distinct_blocks_up_to_scalars(code, lat, scaled=True):
    """How many distinct m-by-k point blocks there are once each is
    scaled to a leading 1 (as they are, if not `scaled`), by field
    arithmetic on the unpacked points."""
    F, m, n = code.field, code.nrows, code.ncols
    unpack = packed_rows(F, n).unpack
    seen = set()
    for key in lat.point_keys:
        b = unpack(key)
        block = []
        for r in range(m):
            for g in code.basis:
                acc = 0
                for x, y in zip(g[r * n:(r + 1) * n], b):
                    acc = F.add(acc, F.mul(x, y))
                block.append(acc)
        lead = next((v for v in block if v), 1) if scaled else 1
        seen.add(tuple(F.mul(F.inv(lead), v) for v in block))
    return len(seen)


@pytest.mark.parametrize("p,e,m,n,k,most", [
    (2, 16, 1, 2, 1, 2), (2, 1, 2, 6, 2, 16), (3, 1, 1, 4, 2, 5),
    (3, 2, 1, 3, 2, 11), (2, 1, 3, 4, 1, 8)])
def test_subcode_dims_reduces_each_distinct_block_once(p, e, m, n, k, most,
                                                       monkeypatch):
    # When m*k < n, one row reduction per distinct block up to scalars,
    # where there used to be one per point: 65,537 points on the 1x2
    # GF(2^16) code, 63 on GF(2)^6.
    f = field(p, e)
    lat = enumerate_subspaces(f, n)
    if f.q == 2 ** 16:
        code = DelsarteCode(f, 1, 2, [(1, 5)])
    else:
        code = random_code(f, m, n, k, random.Random(f"{p}^{e} {m}x{n}"))
    calls = []
    rref = Matrix.rref

    def counting(self):
        calls.append(self.shape)
        return rref(self)
    monkeypatch.setattr(Matrix, "rref", counting)
    dims = subcode_dims(code, lat)
    monkeypatch.undo()
    distinct = distinct_blocks_up_to_scalars(code, lat)
    assert len(calls) == distinct <= most < len(lat.point_keys)
    if f.q == 2 ** 16:
        # only the point spanned by (1, 5) and the full space hold it
        assert dims.count(1) == 2 and dims.count(0) == len(lat) - 2
    else:
        assert dims == reference_subcode_dims(code, lat)


def reductions_in_subcode_dims(code, lat, monkeypatch):
    """subcode_dims(code, lat) and the `PackedRows.rref` and
    `Matrix.rref` calls it makes."""
    calls = []
    packed_rref, matrix_rref = PackedRows.rref, Matrix.rref

    def counting_packed(self, rows):
        calls.append(("packed", len(rows)))
        return packed_rref(self, rows)

    def counting_matrix(self):
        calls.append(("matrix", self.shape))
        return matrix_rref(self)
    monkeypatch.setattr(PackedRows, "rref", counting_packed)
    monkeypatch.setattr(Matrix, "rref", counting_matrix)
    dims = subcode_dims(code, lat)
    monkeypatch.undo()
    return dims, calls


def test_subcode_dims_reduces_no_block_when_none_is_zero(gf2, monkeypatch):
    # GF(2)^5 has 374 members and 31 points, and the 31 blocks are
    # distinct, so none is zero.  The points are the walk's first level:
    # each merges its raw block rows into an empty basis, so no block
    # and no member is row reduced.
    lat = enumerate_subspaces(gf2, 5)
    code = random_code(gf2, 3, 5, 6, random.Random(3))
    dims, calls = reductions_in_subcode_dims(code, lat, monkeypatch)
    assert calls == []
    assert distinct_blocks_up_to_scalars(code, lat, scaled=False) == 31
    assert dims == reference_subcode_dims(code, lat)


def test_subcode_dims_reduces_no_block_when_blocks_vanish(gf2, monkeypatch):
    # m*k = 18 >= n = 6, but a block depends on the point only through
    # its dots with the basis of X, so the 63 points carry 4 blocks, the
    # zero block among them.  A zero row merges to nothing, so shared
    # blocks need no dict and no row reduction either.
    x = Subspace(gf2, 6, [(1, 0, 0, 1, 1, 0), (0, 1, 0, 0, 1, 1)])
    code = support_space(x, 3)
    lat = enumerate_subspaces(gf2, 6)
    dims, calls = reductions_in_subcode_dims(code, lat, monkeypatch)
    assert calls == []
    assert distinct_blocks_up_to_scalars(code, lat, scaled=False) == 4
    assert dims == reference_subcode_dims(code, lat)


@pytest.mark.parametrize("p,e,m,n,k", [
    (2, 1, 2, 6, 2), (2, 1, 3, 4, 5), (3, 1, 2, 4, 3), (2, 2, 2, 3, 2),
    (2, 3, 1, 3, 2), (3, 2, 2, 3, 3), (5, 2, 2, 2, 3), (3, 3, 1, 2, 1),
    (5, 1, 1, 1, 1), (2, 16, 1, 2, 1)])
def test_point_sums_of_the_unit_blocks_are_the_dots_of_the_point_keys(
        p, e, m, n, k):
    # `_point_sums` of the unit blocks K_c (slot (r, i) coordinate c of
    # G_i[r]) gives, in point_keys order, each point's block: slot (r, i)
    # the dot of its key with row r of generator i.
    f = field(p, e)
    lat = enumerate_subspaces(f, n)
    code = random_code(f, m, n, k, random.Random(f"{p}^{e} {m}x{n} {k}"))
    flat = packed_rows(f, m * k)
    units = [flat.pack([g[r * n + c] for r in range(m) for g in code.basis])
             for c in range(n)]
    dot, width = packed_rows(f, n).dot, packed_rows(f, n).width
    low = (1 << n * width) - 1
    want = []
    for b in lat.point_keys:
        block = 0
        for r in range(m):
            for g in code.space.rows:
                block = block << width | dot(b, g >> (m - 1 - r) * n * width & low)
        want.append(block)
    assert qmpoly.lattice._point_sums(flat, units) == want


def test_subcode_dims_merges_make_no_field_calls(monkeypatch):
    # When m*k >= n the block sums, the points' merges of their raw block
    # rows and the merges below them scale through the field's slot
    # tables: no field method is called anywhere in subcode_dims.  The
    # GF(9) support space has a zero block, at the point X_perp, and
    # blocks whose leading entries are not 1.
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper
    codes = [random_code(field(p, e), m, n, k, random.Random(6))
             for p, e, m, n, k in [(2, 1, 3, 6, 7), (3, 1, 2, 4, 5),
                                   (2, 2, 2, 3, 4), (5, 1, 2, 3, 2)]]
    codes.append(support_space(
        Subspace(field(3, 2), 3, [(1, 0, 4), (0, 1, 7)]), 2))
    for code in codes:
        f = code.field
        lat = enumerate_subspaces(f, code.ncols)
        assert code.nrows * code.dim >= code.ncols
        for name in ("add", "sub", "mul", "neg", "inv", "pow"):
            monkeypatch.setattr(type(f), name, counted(getattr(type(f), name)))
        dims = subcode_dims(code, lat)
        monkeypatch.undo()
        assert calls == [], code
        assert dims == reference_subcode_dims(code, lat)


@pytest.mark.parametrize("p,e,n", [(3, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_subcode_dims_of_support_spaces_match_the_per_member_formula(p, e, n):
    # Every proper non-zero X has points in X_perp, whose blocks are zero
    # in the support space of X; with m*k >= n they merge to nothing at
    # the walk's first level.  GF(9) has slot encodings that differ from
    # its elements.
    f = field(p, e)
    lat = enumerate_subspaces(f, n)
    for x in lat:
        for m in range(1, 4):
            if x.dim and m * m * x.dim >= n:
                code = support_space(x, m)
                assert subcode_dims(code, lat) == reference_subcode_dims(
                    code, lat), (x, m)


@pytest.mark.parametrize("p,e,m,n,k", [(2, 1, 3, 5, 6), (3, 2, 2, 3, 3),
                                       (5, 1, 2, 3, 4), (2, 1, 2, 6, 2),
                                       (3, 1, 1, 4, 2)])
def test_subcode_dims_forms_no_product(p, e, m, n, k, monkeypatch):
    # A point's block is a sum of the code's unit blocks and their
    # multiples, built by slot adds: no Matrix product or transpose, and
    # no packed dot product.  When m*k >= n no Matrix is built at all;
    # when m*k < n there is one (m, k) block Matrix per distinct block up
    # to scalars, each reduced once.
    f = field(p, e)
    lat = enumerate_subspaces(f, n)
    code = random_code(f, m, n, k, random.Random(p * n + k))
    products, blocks, depth = [], [], [0]
    for name in ("__matmul__", "transpose"):
        monkeypatch.setattr(Matrix, name,
                            lambda *args, name=name: products.append(name))
    for width in {n, k, m * k}:
        monkeypatch.setattr(packed_rows(f, width), "dot",
                            lambda *args: products.append("dot"))
    init, rref = Matrix.__init__, Matrix.rref

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not depth[0]:
            blocks.append(self.shape)

    def counting_rref(self):
        depth[0] += 1
        try:
            return rref(self)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "rref", counting_rref)
    dims = subcode_dims(code, lat)
    monkeypatch.undo()
    assert products == []
    if m * k >= n:
        assert blocks == []
    else:
        distinct = distinct_blocks_up_to_scalars(code, lat)
        assert blocks == [(m, k)] * distinct
        assert 0 < distinct < gaussian_binomial(n, 1, f.q)
    assert dims == reference_subcode_dims(code, lat)


@pytest.mark.parametrize("p,m,n,k", [(2, 2, 6, 5), (3, 2, 5, 4)])
def test_tables_weights_and_profiles_build_no_member(p, m, n, k, monkeypatch):
    # A member is one int; the table, its weights, Wei report and
    # profiles read dims, complements, parents and the point rows, and
    # never build a Subspace member of the lattice.
    f = field(p)
    lat = SubspaceLattice(f, n)
    built = []
    getitem = SubspaceLattice.__getitem__

    def counting(self, i):
        built.append(i)
        return getitem(self, i)
    monkeypatch.setattr(SubspaceLattice, "__getitem__", counting)
    table = to_polymatroid(random_code(f, m, n, k, random.Random(p)), lat)
    generalized_weights(table)
    wei_duality_report(table)
    nullity_profiles(table)
    assert built == [] and "members" not in vars(lat)


def test_gabidulin_231_is_uniform(gf2):
    c = gabidulin(gf2, 3, 2, 1)
    assert c.dim == 3
    assert to_polymatroid(c) == uniform(1, 2, 3, gf2)
    assert code_weights(c).values == (2, 2, 2)
    d = trace_dual(c)
    assert d.dim == 3
    assert code_weights(d).values == (2, 2, 2)


def test_trace_dual_properties(gf2):
    rng = random.Random(17)
    lat3 = enumerate_subspaces(gf2, 3)
    assert trace_dual(DelsarteCode.zero(gf2, 2, 3)) == DelsarteCode.full(gf2, 2, 3)
    for x in lat3:
        assert trace_dual(support_space(x, 2)) == \
            support_space(x.orthogonal_complement(), 2)
    for _ in range(10):
        c = random_code(gf2, 3, 2, rng.randrange(0, 7), rng)
        d = trace_dual(c)
        assert d.dim == 6 - c.dim
        assert trace_dual(d) == c
        assert to_polymatroid(d) == to_polymatroid(c).dual()
        for g in c.generators:
            for h in d.generators:
                assert trace_product(g, h) == 0


def test_transpose_involution(gf2, gf3):
    rng = random.Random(21)
    for f in (gf2, gf3):
        for m, n in ((2, 3), (3, 2), (3, 3)):
            for _ in range(5):
                c = random_code(f, m, n, rng.randrange(1, m * n), rng)
                t = transpose_code(c)
                assert t.shape == (n, m) and t.dim == c.dim
                assert t == DelsarteCode.span(
                    f, n, m, [g.transpose() for g in c.generators])
                assert transpose_code(t) == c


def test_code_weights_full_space_and_line_support(gf2):
    full = DelsarteCode.full(gf2, 2, 2)
    assert code_weights(full).values == tuple(
        math.ceil(r / 2) for r in range(1, 5))
    line = Subspace(gf2, 3, [[1, 0, 0]])
    c = support_space(line, 5)
    assert code_weights(c).values == (1,) * 5
    with pytest.raises(ValueError):
        code_weights(DelsarteCode.zero(gf2, 2, 2))


def test_code_weights_match_table_route(gf2):
    rng = random.Random(29)
    lat = enumerate_subspaces(gf2, 3)
    for _ in range(10):
        c = random_code(gf2, 3, 3, rng.randrange(1, 9), rng)
        w = code_weights(c, lat)
        assert w == generalized_weights(to_polymatroid(c, lat))


def test_min_rank_distance(gf2):
    assert min_rank_distance(DelsarteCode.full(gf2, 2, 2)) == 1
    assert min_rank_distance(gabidulin(gf2, 3, 2, 1)) == 2
    rng = random.Random(37)
    for _ in range(5):
        c = random_code(gf2, 2, 2, rng.randrange(1, 4), rng)
        assert min_rank_distance(c) == code_weights(c).values[0]
    with pytest.raises(ValueError):
        min_rank_distance(DelsarteCode.zero(gf2, 2, 2))
    big = DelsarteCode.full(gf2, 2, 2)
    with pytest.raises(GuardExceeded):
        min_rank_distance(big, guard=3)


def test_is_mrd(gf2):
    assert is_mrd(gabidulin(gf2, 3, 2, 1))
    assert is_mrd(gabidulin(gf2, 2, 2, 2))  # k = n gives the full space
    assert is_mrd(DelsarteCode.full(gf2, 2, 2))
    line = Subspace(gf2, 2, [[1, 0]])
    assert not is_mrd(support_space(line, 2))  # distance 1, needs 2
    with pytest.raises(ValueError):
        is_mrd(random_code(gf2, 2, 3, 2, random.Random(1)))  # m < n
    with pytest.raises(ValueError):
        is_mrd(DelsarteCode.zero(gf2, 2, 2))
    with pytest.raises(ValueError):
        is_mrd(random_code(gf2, 2, 2, 3, random.Random(1)))  # m does not divide K


def test_gabidulin_parameter_validation(gf2):
    with pytest.raises(ValueError):
        gabidulin(gf2, 2, 3, 1)  # n > m
    with pytest.raises(ValueError):
        gabidulin(gf2, 3, 2, 0)
    with pytest.raises(ValueError):
        gabidulin(gf2, 3, 2, 3)  # k > n


def test_gabidulin_deterministic_and_mrd(gf2, gf3):
    assert gabidulin(gf2, 3, 2, 1) == gabidulin(gf2, 3, 2, 1)
    for f, m, n, k in [(gf2, 3, 3, 2), (gf3, 2, 2, 1), (gf2, 4, 2, 1)]:
        c = gabidulin(f, m, n, k)
        assert c.dim == m * k
        assert min_rank_distance(c) == n - k + 1
        assert is_mrd(c)


# Bases and the largest m tried with each; every n <= m and k <= n.
GABIDULIN_BASES = [(2, 1, 6), (3, 1, 4), (5, 1, 4), (7, 1, 3), (2, 2, 5),
                   (2, 3, 4), (3, 2, 4)]


@pytest.mark.parametrize("p, e, max_m", GABIDULIN_BASES)
def test_gabidulin_matches_the_matrix_route(p, e, max_m):
    base = field(p, e)
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            for k in range(1, n + 1):
                assert (gabidulin(base, m, n, k)
                        == reference_routes.gabidulin(base, m, n, k))


def test_random_code_draws_as_the_matrix_route(gf2, gf3, gf4):
    for f, m, n, k in [(gf2, 2, 3, 4), (gf2, 6, 6, 12), (gf3, 3, 5, 5),
                       (gf4, 2, 3, 6), (field(3, 2), 2, 2, 4), (gf2, 1, 1, 1)]:
        for seed in range(4):
            a, b = random.Random(seed), random.Random(seed)
            assert (random_code(f, m, n, k, a).basis
                    == reference_routes.random_code(f, m, n, k, b).basis)
            assert a.getstate() == b.getstate()


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 8)])
def test_random_subcode_draws_as_the_product_route(p, e):
    # The coefficient space is drawn by random_code's sampler, with the
    # same draws and the same acceptance as the Matrix product route.
    f = field(p, e)
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        for d in sorted({(m * n) // 2, m * n - 1, m * n}):
            code = random_code(f, m, n, d, random.Random(d))
            for k in range(d + 1):
                for seed in range(3):
                    a, b = random.Random(seed), random.Random(seed)
                    sub = random_subcode(code, k, a)
                    assert sub == reference_routes.random_subcode_by_products(
                        code, k, b)
                    assert a.getstate() == b.getstate()


def test_gabidulin_prime_power_base(gf4):
    c = gabidulin(gf4, 2, 2, 1)
    assert c.dim == 2
    assert is_mrd(c)
    assert min_rank_distance(c) == 2


def test_anticode_weights_tall_shapes_match(gf2):
    rng = random.Random(41)
    for _ in range(8):
        c = random_code(gf2, 3, 2, rng.randrange(1, 6), rng)
        assert anticode_weights(c) == code_weights(c)
        assert anticode_weights(c, to_polymatroid(c)) == code_weights(c)


def test_anticode_weights_square_bounded_by_support_weights(gf2):
    rng = random.Random(43)
    for _ in range(8):
        c = random_code(gf2, 2, 2, rng.randrange(1, 4), rng)
        a = anticode_weights(c)
        d = code_weights(c)
        assert all(x <= y for x, y in zip(a.values, d.values))
    sym = DelsarteCode.span(gf2, 2, 2, [Matrix.identity(gf2, 2)])
    assert transpose_code(sym) == sym
    assert anticode_weights(sym) == code_weights(sym)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_square_anticode_weights_are_the_min_of_both_profiles(p, e):
    f = field(p, e)
    rng = random.Random(p ** e)
    for size in (2, 3):
        for _ in range(4):
            c = random_code(f, size, size, rng.randrange(1, size * size), rng)
            a, b = code_weights(c), code_weights(transpose_code(c))
            expected = WeightProfile(
                c.dim, tuple(min(x, y) for x, y in zip(a.values, b.values)))
            assert anticode_weights(c) == expected
            assert anticode_weights(c, to_polymatroid(c)) == expected


def test_anticode_weights_wide_shapes_use_transpose(gf2):
    rng = random.Random(47)
    for _ in range(5):
        c = random_code(gf2, 2, 3, rng.randrange(1, 6), rng)
        assert anticode_weights(c) == code_weights(transpose_code(c))
        assert all(1 <= v <= 2 for v in anticode_weights(c).values)


def test_anticode_gap_certificate_exists_at_2x2(gf2):
    cert = anticode_gap_search(gf2, 2)
    assert cert is not None
    a = anticode_weights(cert.code)
    d = code_weights(cert.code)
    assert a.values[cert.r - 1] == cert.anticode_weight
    assert d.values[cert.r - 1] == cert.support_weight
    assert cert.anticode_weight < cert.support_weight


def test_transpose_min_table_is_demi(gf2):
    rng = random.Random(53)
    for _ in range(6):
        c = random_code(gf2, 2, 2, rng.randrange(1, 4), rng)
        t = transpose_min_polymatroid(c)
        rep = check_axioms(t)
        assert rep.r1.ok and rep.r2.ok and rep.r4.ok
        # conullity is the max of the two subcode dimensions
        lat = t.lattice
        d1 = subcode_dims(c, lat)
        d2 = subcode_dims(transpose_code(c), lat)
        for i in range(len(lat)):
            assert t.conullity_at(i) == max(d1[i], d2[i])
        w = generalized_weights(t)
        wa, wb = code_weights(c), code_weights(transpose_code(c))
        assert w.values == tuple(min(x, y) for x, y in zip(wa.values, wb.values))
    sym = DelsarteCode.span(gf2, 2, 2, [Matrix.identity(gf2, 2)])
    assert transpose_min_polymatroid(sym) == to_polymatroid(sym)
    with pytest.raises(ValueError):
        transpose_min_polymatroid(random_code(gf2, 2, 3, 2, rng))


def test_nested_code_monotonicity(gf2):
    # nested codes have pointwise-ordered rank functions, and the
    # subcode-dimension difference grows with the support
    rng = random.Random(59)
    lat = enumerate_subspaces(gf2, 3)
    for _ in range(6):
        c1 = random_code(gf2, 2, 3, rng.randrange(2, 6), rng)
        c2 = random_subcode(c1, rng.randrange(1, c1.dim), rng)
        assert c2.is_subcode_of(c1)
        t1 = to_polymatroid(c1, lat)
        t2 = to_polymatroid(c2, lat)
        assert all(v2 <= v1 for v1, v2 in zip(t1.values, t2.values))
        d1 = subcode_dims(c1, lat)
        d2 = subcode_dims(c2, lat)
        for i in range(len(lat)):
            for j in range(len(lat)):
                if lat.leq(i, j):
                    assert d1[i] - d2[i] <= d1[j] - d2[j]


def test_subcode_dims_monotone(gf2):
    rng = random.Random(61)
    lat = enumerate_subspaces(gf2, 3)
    c = random_code(gf2, 2, 3, 4, rng)
    dims = subcode_dims(c, lat)
    for i in range(len(lat)):
        for j in range(len(lat)):
            if lat.leq(i, j):
                assert dims[i] <= dims[j]


def test_from_generators_requires_independence(gf2):
    g = Matrix(gf2, [[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        DelsarteCode.from_generators(gf2, 2, 2, [g, g])
    c = DelsarteCode.from_generators(gf2, 2, 2, [g])
    assert c.dim == 1


def test_generators_must_be_over_the_code_field(gf2, gf3):
    # a GF(3) identity has entries in range for GF(2), but another field
    ident = Matrix.identity(gf3, 2)
    for build in (DelsarteCode.span, DelsarteCode.from_generators):
        with pytest.raises(ValueError, match="generator over GF"):
            build(gf2, 2, 2, [ident])
    assert DelsarteCode.span(gf3, 2, 2, [ident]).dim == 1


def test_random_code_determinism_and_uniform_touch(gf2):
    a = random_code(gf2, 2, 2, 2, random.Random(99))
    b = random_code(gf2, 2, 2, 2, random.Random(99))
    assert a == b
    assert random_code(gf2, 2, 2, 0, random.Random(1)).dim == 0
    with pytest.raises(ValueError):
        random_code(gf2, 2, 2, 5, random.Random(1))


def test_code_equality_is_canonical(gf2):
    g1 = Matrix(gf2, [[1, 0], [0, 1]])
    g2 = Matrix(gf2, [[0, 1], [1, 0]])
    g1_plus_g2 = Matrix(gf2, [[1, 1], [1, 1]])
    c1 = DelsarteCode.span(gf2, 2, 2, [g1, g2])
    c2 = DelsarteCode.span(gf2, 2, 2, [g2, g1_plus_g2])
    assert c1 == c2
    assert c1.contains_matrix(g1_plus_g2)


def containment_population():
    """Codes grouped by matrix space: seeded random codes, the members
    of random flags, support_space codes and nested Gabidulin codes."""
    rng = random.Random(67)
    gf2, gf3, gf4 = field(2), field(3), field(2, 2)
    groups = []
    for f, m, n in [(gf2, 2, 3), (gf3, 2, 2), (gf4, 2, 2)]:
        codes = [DelsarteCode.zero(f, m, n), DelsarteCode.full(f, m, n)]
        codes += [random_code(f, m, n, rng.randrange(1, m * n), rng)
                  for _ in range(6)]
        for length in (2, 3):
            codes += random_flag(f, m, n, length, rng).codes
        groups.append(codes)
    groups.append([support_space(x, 2) for x in enumerate_subspaces(gf2, 3)])
    groups.append([gabidulin(gf2, 3, 3, k) for k in (1, 2, 3)]
                  + [random_code(gf2, 3, 3, 4, rng)])
    return groups


def test_containment_matches_the_stacked_rank_reference():
    rng = random.Random(71)
    for codes in containment_population():
        for a in codes:
            for b in codes:
                rank = vstack(Matrix(a.field, b.basis, b.ambient_dim),
                              Matrix(a.field, a.basis, a.ambient_dim)).rank()
                assert a.is_subcode_of(b) == (rank == b.dim)
        for c in codes:
            f, (m, n) = c.field, c.shape
            mats = [g for other in codes for g in other.generators]
            mats += [Matrix(f, [[rng.randrange(f.q) for _ in range(n)]
                                for _ in range(m)], n) for _ in range(5)]
            for mat in mats:
                row = Matrix(f, [vectorize(mat)], m * n)
                rank = vstack(Matrix(f, c.basis, m * n), row).rank()
                assert c.contains_matrix(mat) == (rank == c.dim)


def test_contains_matrix_rejects_another_field(gf2, gf3):
    code = DelsarteCode.full(gf2, 2, 2)
    with pytest.raises(ValueError):
        code.contains_matrix(Matrix.identity(gf3, 2))
