import itertools
import random
import time
from bisect import bisect_left

import pytest

import reference_routes
from qmpoly import (DelsarteCode, GF, GuardExceeded, Matrix, PolymatroidTable,
                    Subspace, SubspaceLattice, check_axioms,
                    enumerate_subspaces, field, gabidulin, gaussian_binomial,
                    lattice_size, min_rank_distance, random_code,
                    random_flag, random_subcode, support_space, trace_dual,
                    transpose_code, vstack)
from qmpoly import lattice as lattice_module
from qmpoly.lattice import MASK_BITS, MAX_MASK_BITS
from qmpoly.matrix import PackedRows, packed_rows


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(7, 0, 3) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    # q -> 1 limit sanity at q=2: symmetric in k
    assert gaussian_binomial(5, 2, 2) == gaussian_binomial(5, 3, 2)


def test_small_lattice_counts(gf2):
    assert len(enumerate_subspaces(gf2, 1)) == 2
    assert len(enumerate_subspaces(gf2, 2)) == 5
    lat = enumerate_subspaces(gf2, 4)
    assert len(lat) == 67
    assert lat.dimension_counts() == {0: 1, 1: 15, 2: 35, 3: 15, 4: 1}


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_counts_match_gaussian_binomials(q, n, gf2, gf3):
    f = gf2 if q == 2 else gf3
    lat = enumerate_subspaces(f, n)
    counts = lat.dimension_counts()
    for k in range(n + 1):
        assert counts.get(k, 0) == gaussian_binomial(n, k, q)
    assert lattice_size(f, n) == len(lat)


def test_lattice_size_matches_gaussian_binomial_sum():
    for (p, e), ns in [((2, 1), range(9)), ((3, 1), range(9)),
                       ((5, 1), range(9)), ((2, 2), range(6)),
                       ((2, 1), [300])]:
        for n in ns:
            assert lattice_size(field(p, e), n) == sum(
                gaussian_binomial(n, k, p ** e) for k in range(n + 1))


def test_members_are_unique_and_ordered(gf3):
    lat = enumerate_subspaces(gf3, 3)
    assert len(set(lat.members)) == len(lat)
    keys = [(s.dim, reference_routes.encoding(s)) for s in lat]
    assert keys == sorted(keys)
    assert lat.dims[lat.zero_index] == 0
    assert lat.dims[lat.full_index] == 3


@pytest.mark.parametrize("p,e,n", [(2, 1, 5), (3, 1, 4), (2, 2, 3),
                                   (2, 3, 2), (3, 2, 3), (5, 2, 2),
                                   (3, 3, 2), (2053, 1, 2), (2, 16, 2),
                                   (2, 1, 1), (3, 1, 0)])
def test_points_are_built_in_key_order(p, e, n):
    # The points, built in order as sums of unit vectors (`_point_sums`),
    # ascend like the sorted keys of every other dimension, so the
    # lattice order is the key order.
    f = field(p, e)
    lat = SubspaceLattice(f, n)
    packed = packed_rows(f, n)
    assert lat._keys == sorted(lat._keys)
    assert [packed.unpack(b) for b in lat.point_keys] == [
        list(s.basis[0]) for s in reference_routes.all_subspaces(f, n)
        if s.dim == 1]


def test_ordering_is_stable_across_builds(gf2):
    a = SubspaceLattice(gf2, 3)
    b = SubspaceLattice(gf2, 3)
    assert ([reference_routes.encoding(s) for s in a]
            == [reference_routes.encoding(s) for s in b])
    assert a.complements == b.complements


def test_complement_involution(gf2, gf3):
    for f, n in [(gf2, 3), (gf2, 4), (gf3, 2)]:
        lat = enumerate_subspaces(f, n)
        for i in range(len(lat)):
            j = lat.complements[i]
            assert lat.complements[j] == i
            assert lat.dims[i] + lat.dims[j] == n
        assert lat.complements[lat.zero_index] == lat.full_index


def test_orthogonal_complement_examples(gf2):
    zero = Subspace.zero(gf2, 2)
    assert zero.orthogonal_complement() == Subspace.full(gf2, 2)
    diag = Subspace(gf2, 2, [[1, 1]])
    assert diag.orthogonal_complement() == diag  # self-orthogonal line
    e1 = Subspace(gf2, 3, [[1, 0, 0]])
    assert e1.orthogonal_complement() == Subspace(gf2, 3, [[0, 1, 0], [0, 0, 1]])


def test_spanning_rows_are_validated(gf2, monkeypatch):
    with pytest.raises(ValueError, match=r"in GF\(5\)\^2, ambient GF\(2\)\^2"):
        Subspace(gf2, 2, Matrix(field(5), [[4, 3]]))  # a matrix over another field
    with pytest.raises(ValueError, match=r"in GF\(2\)\^2, ambient GF\(2\)\^3"):
        Subspace(gf2, 3, Matrix(gf2, [[1, 0]]))
    with pytest.raises(ValueError, match="declared 3 columns, rows have 2"):
        Subspace(gf2, 3, [[1, 0]])
    with pytest.raises(ValueError):
        Subspace(gf2, 2, [[2, 0]])
    # Rows are checked by the one Matrix built from them, and that Matrix
    # is not compared with the field again.
    inits, compared = [], []
    init, eq = Matrix.__init__, GF.__eq__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def counting_eq(self, other):
        compared.append(other)
        return eq(self, other)
    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(GF, "__eq__", counting_eq)
    s = Subspace(gf2, 3, [[1, 1, 0], [0, 1, 1]])
    monkeypatch.undo()
    assert len(inits) == 1 and compared == []
    assert s.basis == ((1, 0, 1), (0, 1, 1))


def test_containment(gf2):
    zero = Subspace.zero(gf2, 2)
    full = Subspace.full(gf2, 2)
    line = Subspace(gf2, 2, [[1, 0]])
    assert zero <= line and zero <= full
    assert not (full <= line)
    e1 = Subspace(gf2, 3, [[1, 0, 0]])
    e12 = Subspace(gf2, 3, [[1, 0, 0], [0, 1, 0]])
    assert e1 <= e12
    assert not (e12 <= e1)
    with pytest.raises(ValueError):
        e1 <= line


@pytest.mark.parametrize("p,e,n", [(2, 1, 0), (2, 1, 1), (2, 1, 4),
                                   (3, 1, 3), (2, 2, 3)])
def test_containment_matches_the_stacked_rank_reference(p, e, n):
    lat = SubspaceLattice(field(p, e), n)
    for x, y in itertools.product(lat, repeat=2):
        rank = vstack(Matrix(x.field, y.basis, n),
                      Matrix(x.field, x.basis, n)).rank()
        assert (x <= y) == (rank == y.dim)


def reference_kernel(mat):
    """The kernel as computed before complements were read off the
    canonical basis: reduce, build one vector per free column, reduce
    those again."""
    R, rank, pivots = mat.rref()
    F, n = mat.field, mat.ncols
    vecs = []
    for fc in range(n):
        if fc not in pivots:
            v = [0] * n
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = F.neg(R.rows[i][fc])
            vecs.append(v)
    return Subspace(F, n, vecs).basis


@pytest.mark.parametrize("p,e,n", [(2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3),
                                   (2, 1, 4), (2, 1, 5), (3, 1, 3), (2, 2, 3),
                                   (5, 1, 3), (3, 2, 2)])
def test_complements_match_the_kernel_reference(p, e, n):
    lat = SubspaceLattice(field(p, e), n)
    for x, c in zip(lat, lat.complements):
        ref = reference_kernel(Matrix(x.field, x.basis, n))
        assert lat[c].basis == ref
        assert x.orthogonal_complement().basis == ref


def count_rref_calls(monkeypatch):
    calls = []
    rref = Matrix.rref

    def counting(self):
        calls.append(self.rows)
        return rref(self)
    monkeypatch.setattr(Matrix, "rref", counting)
    return calls


def test_complements_are_read_off_canonical_bases(gf2, monkeypatch):
    # Each complement is cut from its parent's canonical basis as it
    # stands, with no Matrix.rref; an older route reduced every member's
    # basis again (2 * 374 rref calls here).
    calls = count_rref_calls(monkeypatch)
    SubspaceLattice(gf2, 5)
    assert calls == []


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4)])
def test_complements_are_cut_with_no_elimination(p, n, monkeypatch):
    # The lattice cuts each complement off its parent's; the lone-subspace
    # route (orthogonal_rows and its PackedRows.rref) is never called.
    calls = []
    for owner, name in [(lattice_module, "orthogonal_rows"), (PackedRows, "rref")]:
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    lat = SubspaceLattice(field(p), n)
    assert calls == []
    lat[3].orthogonal_complement()  # the counters do count
    assert calls == ["orthogonal_rows", "rref"]


def test_trusted_paths_build_no_matrix(gf2, monkeypatch):
    # Only outside input is validated through Matrix; lattice members,
    # complements, support spaces, trace duals, transposes, the zero and
    # full codes, Gabidulin codes, random codes, subcodes and flags are
    # canonical packed rows as built, and codewords and their ranks come
    # from packed rows.
    x = Subspace(gf2, 4, [[1, 0, 1, 1], [0, 1, 1, 0]])
    code = random_code(gf2, 2, 4, 3, random.Random(5))
    calls = []
    init = Matrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Matrix, "__init__", counting)
    assert len(SubspaceLattice(gf2, 5)) == 374
    assert support_space(x, 3).dim == 6
    assert trace_dual(code).dim == 5
    assert transpose_code(code).shape == (4, 2)
    assert DelsarteCode.zero(gf2, 2, 4).dim == 0
    assert DelsarteCode.full(gf2, 2, 4).dim == 8
    assert x.orthogonal_complement().dim == 2
    for f, m, n, k in [(gf2, 4, 3, 2), (field(3), 3, 3, 1),
                       (field(2, 2), 3, 2, 1), (field(3, 2), 2, 2, 1)]:
        gab = gabidulin(f, m, n, k)
        assert gab.dim == m * k
        assert min_rank_distance(gab) == n - k + 1
    assert random_code(gf2, 3, 3, 4, random.Random(1)).dim == 4
    assert min_rank_distance(code) == 1
    rng = random.Random(6)
    assert random_subcode(code, 2, rng).is_subcode_of(code)
    assert random_flag(gf2, 2, 3, 3, rng).length == 3
    assert calls == []


def test_intersection_is_one_elimination_without_matrix(gf2, monkeypatch):
    # Zassenhaus on the canonical packed rows: the rows of the one
    # stacked reduction whose left half vanished are the answer as they
    # stand, with no Matrix.
    a = Subspace(gf2, 4, [[1, 0, 1, 1], [0, 1, 1, 0]])
    b = Subspace(gf2, 4, [[0, 1, 1, 0], [0, 0, 0, 1]])
    inits = []
    init = Matrix.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Matrix, "__init__", counting)
    rref_calls = count_rref_calls(monkeypatch)
    assert (a & b).basis == ((0, 1, 1, 0),)
    assert rref_calls == [] and inits == []


def test_first_mask_build_tests_containment_without_row_reduction(
        monkeypatch):
    # GF(5)^3 has L = 31 points: the build makes L(L+1)/2 containment
    # tests on packed rows, and none of them row-reduces or calls the
    # field's add, sub or mul.
    lat = SubspaceLattice(field(5), 3)
    calls = []
    for owner, name in [(Subspace, "__le__"), (GF, "add"), (GF, "sub"), (GF, "mul")]:
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    rref_calls = count_rref_calls(monkeypatch)
    lat.masks
    assert calls == ["__le__"] * (31 * 32 // 2) and rref_calls == []


def test_sum_and_intersection_operators(gf2):
    e1 = Subspace(gf2, 2, [[1, 0]])
    e2 = Subspace(gf2, 2, [[0, 1]])
    assert e1 + e2 == Subspace.full(gf2, 2)
    assert (e1 & e2).dim == 0
    assert e1 + e1 == e1


@pytest.mark.parametrize("p,e,n", [(2, 1, 0), (2, 1, 1), (2, 1, 3),
                                   (2, 1, 4), (3, 1, 3), (2, 2, 2),
                                   (3, 2, 2), (2, 1, 5)])
def test_pair_operations_match_subspace_operators(p, e, n):
    lat = SubspaceLattice(field(p, e), n)
    pairs = itertools.product(range(len(lat)), repeat=2)
    if len(lat) > 100:
        rng = random.Random(n)
        pairs = [(rng.randrange(len(lat)), rng.randrange(len(lat)))
                 for _ in range(3000)]
    for i, j in pairs:
        x, y = lat[i], lat[j]
        assert lat.sum_index(i, j) == lat.index(x + y)
        assert lat.meet_index(i, j) == lat.index(x & y)
        assert lat.leq(i, j) == (x <= y)


def test_cold_axiom_scan_makes_no_row_space_sums(gf2, monkeypatch):
    # The pair operations read point masks, built by at most L^2
    # containment tests, L = 15 points; they compute no sum or meet.
    calls = {"__add__": 0, "__and__": 0, "__le__": 0}

    def counted(name):
        op = getattr(Subspace, name)

        def wrapper(self, other):
            calls[name] += 1
            return op(self, other)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Subspace, name, counted(name))
    lat = SubspaceLattice(gf2, 4)
    table = PolymatroidTable(lat, 2, [2 * min(d, 2) for d in lat.dims])
    assert check_axioms(table).r3.ok
    assert calls["__add__"] == calls["__and__"] == 0
    assert 0 < calls["__le__"] <= 15 ** 2


def test_masks_hold_the_points_of_each_member(gf3):
    lat = SubspaceLattice(gf3, 3)
    points = range(1, 14)
    assert all(lat.dims[p] == 1 for p in points) and lat.dims[14] == 2
    for i, x in enumerate(lat):
        assert lat.masks[i] == sum(1 << (p - 1) for p in points if lat[p] <= x)


@pytest.mark.parametrize("p,e,n", [(2, 1, 0), (2, 1, 1), (2, 1, 4),
                                   (3, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_parent_and_last_line_rebuild_each_member(p, e, n):
    lat = SubspaceLattice(field(p, e), n)
    parent_of, line_of = lat.parents
    assert len(parent_of) == len(line_of) == len(lat)
    assert parent_of[0] == line_of[0] == -1
    for i in range(1, len(lat)):
        parent, line = parent_of[i], line_of[i]
        assert lat.dims[parent] == lat.dims[i] - 1 and lat.dims[line] == 1
        assert parent < i
        assert lat.leq(parent, i) and lat.leq(line, i)
        assert lat.sum_index(parent, line) == i



@pytest.mark.parametrize("p,e,n", [(2, 1, n) for n in range(7)]
                         + [(3, 1, n) for n in range(1, 5)] + [(2, 2, 3)])
def test_children_runs_partition_the_parent_tree(p, e, n):
    # Member x's children are one run of positions, every one with
    # parent x, and the runs in order tile positions 1..N-1.
    lat = enumerate_subspaces(field(p, e), n)
    parent_of, children = lat.parents[0], lat.children
    assert len(children) == len(lat) + 1
    runs = [range(children[x], children[x + 1]) for x in range(len(lat))]
    assert list(itertools.chain.from_iterable(runs)) == list(range(1, len(lat)))
    for x, run in enumerate(runs):
        assert all(parent_of[i] == x for i in run)
    assert list(children) == [bisect_left(parent_of, x, 1)
                              for x in range(len(lat) + 1)]

def test_mask_guard_stops_large_lattices_before_the_build():
    # GF(2053)^2 has L = 2054 points and N = 2056 members, past 2^22 bits
    lat = SubspaceLattice(field(2053), 2)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded) as exc:
        lat.meet_index(1, 2)
    assert time.perf_counter() - start < 2
    assert exc.value.resource == MASK_BITS
    assert exc.value.needed == 2056 * 2054
    assert exc.value.guard == MAX_MASK_BITS == 2 ** 22


def test_canonicalization_of_spanning_sets(gf2):
    # redundant and unordered spanning rows give the same member
    s1 = Subspace(gf2, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    s2 = Subspace(gf2, 3, [[0, 1, 1], [1, 1, 0]])
    assert s1 == s2 and s1.dim == 2
    assert hash(s1) == hash(s2)


def test_lattice_index_and_membership(gf2):
    lat = enumerate_subspaces(gf2, 2)
    line = Subspace(gf2, 2, [[1, 1]])
    i = lat.index(line)
    assert lat[i] == line
    with pytest.raises(ValueError):
        lat.index(Subspace(gf2, 3, [[1, 0, 0]]))
    with pytest.raises(ValueError):  # the same rows over another field
        lat.index(Subspace(field(3), 2, [[1, 1]]))


def test_guard_exceeded_reports_needed_count(gf2):
    # Up to 64 bits the exact count is reported.
    with pytest.raises(GuardExceeded) as exc:
        enumerate_subspaces(gf2, 12)
    assert exc.value.needed == lattice_size(gf2, 12)
    assert exc.value.needed > 10 ** 6
    # Past that, the lower bound 2^(floor(n/2) ceil(n/2)) is reported
    # once it exceeds the guard; the exact count is never computed.
    with pytest.raises(GuardExceeded) as exc:
        enumerate_subspaces(gf2, 40)
    assert exc.value.needed == 2 ** 400 < lattice_size(gf2, 40)
    # A guard above the bound falls back to the exact count.
    with pytest.raises(GuardExceeded) as exc:
        enumerate_subspaces(gf2, 40, guard=2 ** 400)
    assert exc.value.needed == lattice_size(gf2, 40)


def test_generator_matches_lattice(gf2):
    lat = enumerate_subspaces(gf2, 3)
    assert tuple(reference_routes.all_subspaces(gf2, 3)) == lat.members


@pytest.mark.parametrize("p,e,n", [(2, 1, n) for n in range(8)]
                         + [(3, 1, 4), (2, 2, 4), (5, 1, 4), (2, 3, 3), (3, 2, 3)])
def test_packed_build_matches_the_reference_enumeration(p, e, n):
    # Members (order and basis tuples) and complements of the packed
    # build against the tuple enumeration and the list-based kernel.
    f = field(p, e)
    lat = SubspaceLattice(f, n)
    ref = tuple(reference_routes.all_subspaces(f, n))
    assert [s.basis for s in lat] == [s.basis for s in ref]
    position = {s.basis: i for i, s in enumerate(ref)}
    assert tuple(lat.complements) == tuple(
        position[reference_routes.orthogonal_rows(f, s.basis, n)] for s in ref)
    c, dims = lat.complements, lat.dims
    assert all(c[c[i]] == i and dims[c[i]] == n - dims[i] for i in range(len(lat)))
    # Members are built on demand, and each maps back to its index; the
    # parent and last line are the first rows and the last row.
    assert all(lat.index(lat[i]) == i for i in range(len(lat)))
    assert list(lat) == list(lat.members)
    parent_of, line_of = lat.parents
    for i, s in enumerate(ref[1:], 1):
        assert (parent_of[i], line_of[i]) == (
            position[s.basis[:-1]], position[s.basis[-1:]])


@pytest.mark.parametrize("p,e,n", [(2, 1, 5), (3, 1, 4), (2, 2, 3), (3, 2, 3)])
def test_lattice_build_makes_no_field_call(p, e, n, monkeypatch):
    # Enumeration, unpacking and complements all run on packed rows and
    # the slot tables; over GF(2) no row is ever scaled at all.
    f = field(p, e)
    calls = []
    for op in ("add", "sub", "neg", "mul", "inv"):
        def counted(self, *args, op=op, fn=getattr(GF, op)):
            calls.append(op)
            return fn(self, *args)
        monkeypatch.setattr(GF, op, counted)
    lat = SubspaceLattice(f, n)
    assert calls == [] and len(lat) == lattice_size(f, n)
