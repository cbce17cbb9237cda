"""Property tests of the input parser, the CLI, the weight scan, table
duality, the lattice's pair operations, subspace operators, canonical
bases, packed rows and their dot products, packed elimination,
complements and complement cuts, and the minimum rank distance on
generated inputs.

Examples are derandomized, so every run draws the same inputs.  Sizes
stay small: the explicit reproductions in test_cli.py own the timing
budgets, and no example here may run long on the parser's slow paths.
"""

import contextlib
import io
import json
import os
import pickle
import random
import tempfile

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import reference_routes
from qmpoly import (DelsarteCode, Flag, Matrix, PolymatroidTable, Subspace,
                    WeiReport, anticode_weights, code_weights,
                    conullity_table, devectorize, enumerate_subspaces, field,
                    flag_polymatroid, generalized_weights, lattice_size,
                    min_rank_distance, nullity_profiles, nullity_table,
                    random_code, random_subcode, relative_weights,
                    to_polymatroid, uniform, wei_duality_report,
                    weight_witnesses)
from qmpoly.cli import (EXIT_GUARD, EXIT_INPUT, EXIT_OK, EXIT_VIOLATION,
                        InputError, load_input, main, parse_code_obj)
from qmpoly.errors import GuardExceeded
from qmpoly.lattice import _cutter, _join
from qmpoly.matrix import packed_rows, rref_rows

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])
# A lattice guard this small keeps every table line's lattice tiny.
SMALL_LATTICE = 200

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2)]
FIELDS = ["kind", "p", "e", "q", "m", "n", "generators", "values", "label"]
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.integers(),
                    st.floats(), st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=16)
free_objects = st.dictionaries(st.sampled_from(FIELDS), json_values,
                               max_size=len(FIELDS))


@st.composite
def code_objects(draw):
    """Code lines of the right shape, with small possibly-invalid fields."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    entry = st.sampled_from([0, 0, 0, 1, 1, 1, 2, -1])
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=m, max_size=m)
    obj = {"p": draw(st.sampled_from([2, 3]) | st.integers(-1, 4)),
           "e": draw(st.just(1) | st.integers(0, 2)),
           "m": m, "n": n, "generators": draw(st.lists(matrix, max_size=4))}
    if draw(st.integers(0, 3)) == 0:
        obj["q"] = draw(st.integers(1, 9))
    return obj


@st.composite
def generator_lines(draw):
    """Valid code lines over SMALL_FIELDS, at most 2x3, with at most m*n
    generators; the last of two or more is often a repeat of the first."""
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entry = st.integers(0, field(p, e).q - 1)
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=m, max_size=m)
    gens = draw(st.lists(matrix, max_size=m * n))
    if len(gens) >= 2 and draw(st.booleans()):
        gens[-1] = gens[0]
    return {"p": p, "e": e, "m": m, "n": n, "generators": gens}


@SETTINGS
@given(generator_lines())
def test_a_parsed_code_line_is_the_code_of_its_generators(obj):
    f, m, n = field(obj["p"], obj["e"]), obj["m"], obj["n"]
    mats = [Matrix(f, g, n) for g in obj["generators"]]
    try:
        expected = DelsarteCode.from_generators(f, m, n, mats)
    except ValueError:
        expected = None
    try:
        code, _ = parse_code_obj(obj)
    except InputError as exc:
        assert expected is None
        assert str(exc) == "field 'generators': generators are linearly dependent"
    else:
        assert code == expected and code.basis == expected.basis


@st.composite
def table_objects(draw):
    """Table lines over GF(2), GF(3) or GF(4) with n <= 3, m <= 64 and
    values |v| <= 64, mostly with as many values as lattice members."""
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    n = draw(st.integers(0, 3))
    size = lattice_size(field(p, e), n)
    length = draw(st.one_of(st.just(size), st.integers(0, size + 1)))
    values = draw(st.lists(st.integers(-64, 64),
                           min_size=length, max_size=length))
    return {"kind": "table", "p": p, "e": e, "n": n,
            "m": draw(st.integers(1, 64)), "values": values}


lines = st.one_of(free_objects.map(json.dumps),
                  json_values.map(json.dumps),
                  code_objects().map(json.dumps),
                  table_objects().map(json.dumps),
                  st.text(max_size=12))


def _write(text: str) -> str:
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@SETTINGS
@given(st.lists(lines, min_size=0, max_size=3))
def test_load_input_returns_or_raises_input_or_guard_errors(file_lines):
    path = _write("\n".join(file_lines) + "\n")
    try:
        load_input(path, SMALL_LATTICE)
    except (InputError, GuardExceeded):
        pass
    finally:
        os.unlink(path)


@SETTINGS
@given(table_objects(), st.sampled_from(["weights", "verify"]),
       st.sampled_from(["text", "json"]))
def test_cli_on_small_tables_exits_with_a_documented_code(obj, command, fmt):
    path = _write(json.dumps(obj) + "\n")
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, path, "--format", fmt])
    finally:
        os.unlink(path)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_INPUT, EXIT_GUARD)


@st.composite
def tables(draw):
    """Tables on GF(q)^n, n <= 3, with small values of either sign."""
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    lat = enumerate_subspaces(field(p, e), draw(st.integers(0, 3)))
    values = draw(st.lists(st.integers(-8, 8), min_size=len(lat),
                           max_size=len(lat)))
    return PolymatroidTable(lat, draw(st.integers(1, 3)), values)


def reference_witnesses(table):
    """One scan per r = 1 .. rank for the first index whose conullity
    reaches r; the ValueError names the first r never reached."""
    k = table.rank
    if k < 0:
        raise ValueError("negative rank; table violates the axioms")
    out = []
    for r in range(1, k + 1):
        hit = [i for i in range(len(table.lattice))
               if table.conullity_at(i) >= r]
        if not hit:
            raise ValueError(f"conullity never reaches {r}; "
                             "table violates the axioms")
        out.append(hit[0])
    return tuple(out)


def _outcome(fn, table):
    try:
        return fn(table)
    except ValueError as exc:
        return str(exc)


@SETTINGS
@given(tables())
def test_weight_scans_fail_as_the_reference_scan(table):
    expected = _outcome(reference_witnesses, table)
    assert _outcome(weight_witnesses, table) == expected
    # the Wei report fails on the primal side first, then on the dual
    if not isinstance(expected, str):
        expected = _outcome(reference_witnesses, table.dual())
    report = _outcome(wei_duality_report, table)
    if isinstance(expected, str):
        assert report == expected
    else:
        assert isinstance(report, WeiReport)


def test_weight_scan_of_rank_0_tables_is_empty():
    lat = enumerate_subspaces(field(3), 2)
    # rank 0 with every conullity <= 0, and rank 0 with conullities up to 5
    for values in ([0] * len(lat), [-5] * (len(lat) - 1) + [0]):
        table = PolymatroidTable(lat, 2, values)
        assert weight_witnesses(table) == reference_witnesses(table) == ()


def test_weight_scan_caps_conullities_above_the_rank():
    # A negative value makes the conullity of its complement exceed the
    # rank; every r up to the rank is reached there at once.
    lat = enumerate_subspaces(field(2), 3)
    u = uniform(1, 3, 2, field(2))
    for neg in (1, 5, len(lat) - 2):
        values = list(u.values)
        values[neg] = -7
        table = PolymatroidTable(lat, 2, values)
        assert table.conullity_at(lat.complements[neg]) > table.rank
        assert weight_witnesses(table) == reference_witnesses(table)
    # rank 4, conullity 0 at the zero space and 7 at every other member
    values = [-3] * (len(lat) - 1) + [4]
    table = PolymatroidTable(lat, 2, values)
    assert weight_witnesses(table) == reference_witnesses(table) == (1,) * 4


# Tables whose rank and dual rank rho(0) + m*n - rho(E) stay bounded
# wherever weights get listed: rho(0) and rho(E) are bounded above, and
# a few other members take any integer.
WEIGHT_LATTICES = [(2, 1, n) for n in range(6)] + [(3, 1, 3), (2, 2, 3),
                                                    (5, 1, 2)]


@st.composite
def weight_tables(draw):
    p, e, n = draw(st.sampled_from(WEIGHT_LATTICES))
    lat = enumerate_subspaces(field(p, e), n)
    m = draw(st.integers(1, 3))
    small = st.integers(-2, m * n + 2)
    values = draw(st.lists(small, min_size=len(lat), max_size=len(lat)))
    for i, v in draw(st.lists(st.tuples(st.integers(0, len(lat) - 1),
                                        st.integers()), max_size=3)):
        values[i] = v
    for i in {0, len(lat) - 1}:
        values[i] = min(values[i], m * n + 2)
    return PolymatroidTable(lat, m, values)


@settings(SETTINGS, max_examples=500)
@given(weight_tables(), st.integers(0, 2 ** 32), st.data())
def test_weights_from_profiles_match_the_member_and_dual_table_routes(
        table, seed, data):
    assert (_outcome(generalized_weights, table)
            == _outcome(reference_routes.member_weights, table))
    assert (_outcome(weight_witnesses, table)
            == _outcome(reference_routes.member_witnesses, table))
    assert (_outcome(wei_duality_report, table)
            == _outcome(reference_routes.dual_table_report, table))
    lat, m = table.lattice, table.m
    if lat.n == 0:
        return
    rng = random.Random(seed)
    code = random_code(lat.field, m, lat.n,
                       data.draw(st.integers(1, m * lat.n)), rng)
    own = to_polymatroid(code, lat)
    assert wei_duality_report(own) == reference_routes.dual_table_report(own)
    assert code_weights(code, lat) == reference_routes.member_weights(own)
    expected = reference_routes.min_table_anticode_weights(code)
    assert anticode_weights(code) == anticode_weights(code, own) == expected
    if code.dim > 1:
        inner = random_subcode(code, rng.randrange(code.dim), rng)
        pair = flag_polymatroid(Flag((code, inner)), lat)
        assert relative_weights(code, inner, lat) == (
            reference_routes.member_weights(pair),
            reference_routes.member_weights(pair.dual()))


# Per-member references for the table passes, written with nullity_at
# and conullity_at; tables() includes tables that break the axioms.


@SETTINGS
@given(tables())
def test_nullity_profiles_are_the_per_dimension_maxima(table):
    lat = table.lattice
    h = [max(table.nullity_at(i) for i in range(len(lat)) if lat.dims[i] == x)
         for x in range(lat.n + 1)]
    hstar = [max(table.conullity_at(i) for i in range(len(lat))
                 if lat.dims[i] == x) for x in range(lat.n + 1)]
    prof = nullity_profiles(table)
    assert prof.nullity == tuple(h)
    assert prof.conullity == tuple(hstar)


@SETTINGS
@given(tables())
def test_dual_is_m_dim_minus_conullity_pointwise(table):
    # rho*(X) = rho(X_perp) + m*dim X - rho(E) = m*dim X - conullity(X)
    lat = table.lattice
    assert table.dual().values == tuple(
        table.m * lat.dims[i] - table.conullity_at(i) for i in range(len(lat)))


@SETTINGS
@given(tables())
def test_nullity_and_conullity_tables_pointwise(table):
    members = range(len(table.lattice))
    assert nullity_table(table).values == tuple(
        table.nullity_at(i) for i in members)
    assert conullity_table(table).values == tuple(
        table.conullity_at(i) for i in members)


@st.composite
def lattice_triples(draw):
    """A subspace lattice with up to 400 members and three member indices."""
    p, e, n = draw(st.sampled_from([(2, 1, 0), (2, 1, 1), (2, 1, 4),
                                    (2, 1, 5), (3, 1, 3), (3, 1, 4),
                                    (2, 2, 3), (5, 1, 2)]))
    lat = enumerate_subspaces(field(p, e), n)
    index = st.integers(0, len(lat) - 1)
    return lat, draw(index), draw(index), draw(index)


@SETTINGS
@given(lattice_triples())
def test_lattice_pair_operations_satisfy_the_modular_law(triple):
    lat, x, y, z = triple
    x = lat.meet_index(x, z)
    assert lat.leq(x, z)
    assert (lat.sum_index(x, lat.meet_index(y, z))
            == lat.meet_index(lat.sum_index(x, y), z))


@SETTINGS
@given(lattice_triples())
def test_complements_are_an_inclusion_reversing_involution(triple):
    lat, x, y, _ = triple
    c = lat.complements
    assert c[c[x]] == x
    assert lat.dims[c[x]] == lat.n - lat.dims[x]
    assert lat.leq(x, y) == lat.leq(c[y], c[x])


@SETTINGS
@given(lattice_triples())
def test_sum_and_meet_dimensions_add_up(triple):
    lat, x, y, _ = triple
    s, t = lat.sum_index(x, y), lat.meet_index(x, y)
    assert lat.leq(t, x) and lat.leq(x, s) and lat.leq(t, y) and lat.leq(y, s)
    assert lat.dims[s] + lat.dims[t] == lat.dims[x] + lat.dims[y]


@SETTINGS
@given(tables())
def test_the_dual_is_an_involution_exactly_when_the_zero_space_has_rank_0(table):
    # rho**(X) = rho(X) - rho(0), so rho** = rho exactly when rho(0) = 0
    lat, m, values = table.lattice, table.m, table.values
    assert table.dual().dual().values == tuple(v - values[0] for v in values)
    assert (table.dual().dual() == table) == (values[0] == 0)
    grounded = PolymatroidTable(lat, m, (0,) + values[1:])
    assert grounded.dual().dual() == grounded


@SETTINGS
@given(tables())
def test_conullity_is_the_nullity_of_the_dual(table):
    # both sides are rho(E) - rho(X_perp)
    dual = table.dual()
    for i in range(len(table.lattice)):
        assert table.conullity_at(i) == dual.nullity_at(i)


@st.composite
def spanning_rows(draw):
    """Rows of width m*n over GF(2), GF(3), GF(4) or GF(5): random rows,
    some scaled copies and a sum of two, in random order, so they are
    often dependent and rarely in echelon form."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]))
    f = field(p, e)
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, f.q - 1), min_size=m * n, max_size=m * n)
    rows = draw(st.lists(row, max_size=4))
    scale = st.integers(1, f.q - 1)
    rows += [[f.mul(c, v) for v in r]
             for r, c in zip(rows, draw(st.lists(scale, max_size=len(rows))))]
    if len(rows) >= 2:
        rows.append([f.add(a, b) for a, b in zip(rows[0], rows[1])])
    return f, m, n, draw(st.permutations(rows))


def is_reduced_echelon(rows) -> bool:
    """Leading 1s, strictly increasing pivots, and zeros above and below
    each pivot."""
    pivots = []
    for r in rows:
        lead = next((j for j, v in enumerate(r) if v), None)
        if lead is None or r[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(r[c] == int(i == k) for k, c in enumerate(pivots)
               for i, r in enumerate(rows))


@SETTINGS
@given(spanning_rows())
@example((field(3), 1, 2, [[2, 0]]))
def test_codes_and_subspaces_reduce_spanning_rows_to_one_canonical_basis(case):
    f, m, n, rows = case
    basis = Subspace(f, m * n, rows).basis
    assert is_reduced_echelon(basis)
    rank = Matrix(f, rows, m * n).rank()
    assert len(basis) == rank == Matrix(f, list(basis) + rows, m * n).rank()
    code = DelsarteCode(f, m, n, Matrix(f, rows, m * n))
    spanned = DelsarteCode.span(f, m, n, [devectorize(f, m, n, r) for r in rows])
    assert code.basis == basis
    assert code == spanned and hash(code) == hash(spanned)
    assert code.is_subcode_of(spanned) and spanned.is_subcode_of(code)


# Every slot layout of `PackedRows`: XOR with e = 1 and e > 1, the
# slot-wise add with e = 1 and e > 1, and a 13-bit digit field.
PACKED_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1), (2053, 1)]


@st.composite
def packed_cases(draw):
    """A field, a length k, two vectors of GF(q)^k and a scalar, with
    0, 1 and q - 1 drawn often."""
    f = field(*draw(st.sampled_from(PACKED_FIELDS)))
    k = draw(st.integers(0, 7))
    entry = st.sampled_from([0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    vec = st.lists(entry, min_size=k, max_size=k)
    return f, k, draw(vec), draw(vec), draw(entry)


@SETTINGS
@given(packed_cases())
def test_packed_rows_agree_with_the_field_coordinate_by_coordinate(case):
    # The packed results must equal the packing of the per-coordinate
    # field results as ints, not only after unpacking: the merges key
    # their caches by packed rows and read leads off the bit length.
    f, k, a, b, s = case
    rows = packed_rows(f, k)
    x, y = rows.pack(a), rows.pack(b)
    assert rows.unpack(x) == a
    # coordinate 0 is the highest slot: the bit length finds the lead
    lead = next((j for j, v in enumerate(a) if v), k)
    assert (x.bit_length() - 1) // rows.width == k - 1 - lead
    assert rows.add(x, y) == rows.pack([f.add(u, v) for u, v in zip(a, b)])
    assert rows.sub(x, y) == rows.pack([f.sub(u, v) for u, v in zip(a, b)])
    assert rows.sub(x, x) == 0
    assert rows.times(f.slot[s], x) == rows.pack([f.mul(s, u) for u in a])


DOT_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (65521, 1)]


@st.composite
def dot_cases(draw):
    """Two vectors of GF(q)^k, k in 1..8, over GF(2), GF(3), GF(4), GF(9)
    or GF(65521), with 0, 1 and q - 1 drawn often."""
    f = field(*draw(st.sampled_from(DOT_FIELDS)))
    k = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    vec = st.lists(entry, min_size=k, max_size=k)
    return f, k, draw(vec), draw(vec)


@SETTINGS
@given(dot_cases())
def test_packed_dot_is_the_field_dot_product(case):
    f, k, a, b = case
    rows = packed_rows(f, k)
    assert rows.dot(rows.pack(a), rows.pack(b)) == f.slot[field_dot(f, a, b)]


def field_dot(f, a, b) -> int:
    acc = 0
    for u, v in zip(a, b):
        acc = f.add(acc, f.mul(u, v))
    return acc


# q^K <= 729 keeps the codeword enumeration of min_rank_distance short.
D1_FIELDS = [((2, 1), 9), ((3, 1), 6), ((2, 2), 4), ((3, 2), 3)]


@st.composite
def small_codes(draw):
    """Non-zero codes over GF(2), GF(3), GF(4) or GF(9), at most 3x3,
    spanned by drawn rows."""
    (p, e), max_k = draw(st.sampled_from(D1_FIELDS))
    f = field(p, e)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.sampled_from([0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=m * n, max_size=m * n),
                         min_size=1, max_size=min(max_k, m * n)))
    code = DelsarteCode(f, m, n, rows)
    assume(code.dim > 0)
    return code


@SETTINGS
@given(small_codes())
def test_minimum_rank_distance_is_the_first_generalized_weight(code):
    # d_1 by two independent routes: the least rank over all non-zero
    # codewords, and the first weight read off the code's rank table.
    assert min_rank_distance(code) == code_weights(code).values[0]


ELIMINATION_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@st.composite
def row_lists(draw, max_k):
    """A field of ELIMINATION_FIELDS, a length k <= max_k and a list of
    rows of GF(q)^k, often dependent: the sum of the first two rows is
    appended when there are two."""
    f = field(*draw(st.sampled_from(ELIMINATION_FIELDS)))
    k = draw(st.integers(0, max_k))
    entry = st.sampled_from([0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=k + 1))
    if len(rows) >= 2:
        rows.append([f.add(a, b) for a, b in zip(rows[0], rows[1])])
    return f, k, rows


W16 = field(2, 16)


# The per-point blocks of `subcode_dims` on large fields: zero rows, lists
# whose rows are all multiples of one, and k = 1 and 2.
@SETTINGS
@given(row_lists(8))
@example((field(2053), 2, []))
@example((field(2053), 2, [[0, 0], [0, 0]]))
@example((field(2053), 1, [[5], [2052], [0], [1]]))
@example((field(2053), 2, [[3, 7], [6, 14], [2050, 2046]]))
@example((field(2053), 2, [[0, 9], [4, 0], [4, 9]]))
@example((W16, 1, [[0], [40000], [1]]))
@example((W16, 2, [[0, 0], [0, 0]]))
@example((W16, 2, [[4660, 5]] + [[W16.mul(c, 4660), W16.mul(c, 5)]
                                 for c in (2, 65535, 1)]))
@example((W16, 2, [[0, 1], [1, 0], [65535, 65534]]))
def test_packed_elimination_matches_rref_rows(case):
    f, k, rows = case
    packed = packed_rows(f, k)
    reduced, rank, _ = rref_rows(f, [list(r) for r in rows], k)
    assert (packed.rref([packed.pack(r) for r in rows])
            == tuple(packed.pack(r) for r in reduced[:rank]))


@SETTINGS
@given(row_lists(12))
def test_orthogonal_complement_matches_the_reference_kernel(case):
    # The trace dual's route: Subspace.orthogonal_complement, on packed
    # rows, against the list-based kernel read off the same basis.
    f, n, rows = case
    space = Subspace(f, n, rows) if rows else Subspace.zero(f, n)
    assert (space.orthogonal_complement().basis
            == reference_routes.orthogonal_rows(f, space.basis, n))


OPERATOR_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2053, 1), (2, 16)]


def stacked_rref(f, n, rows) -> tuple:
    reduced, rank, _ = rref_rows(f, [list(r) for r in rows], n)
    return tuple(map(tuple, reduced[:rank]))


@st.composite
def subspace_cases(draw):
    """A field of OPERATOR_FIELDS, n in 0..4, spanning rows of a subspace
    X, a second subspace Y (the zero and full spaces among both) and a
    vector v of GF(q)^n."""
    f = field(*draw(st.sampled_from(OPERATOR_FIELDS)))
    n = draw(st.integers(0, 4))
    entry = st.sampled_from([0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    vec = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(vec, max_size=n + 1)
                | st.just([[int(i == j) for j in range(n)] for i in range(n)]))
    y = draw(st.sampled_from([Subspace.zero(f, n), Subspace.full(f, n)])
             | st.lists(vec, max_size=n).map(lambda r: Subspace(f, n, r)))
    return f, n, rows, y, draw(vec)


@SETTINGS
@given(subspace_cases())
def test_subspace_operators_match_the_list_routes(case):
    # Subspace works on packed rows; every operator against the row-list
    # routes: containment by `in_row_space`, sums by one stacked
    # `rref_rows` reduction, meets and complements by list-based kernels.
    f, n, rows, y, v = case
    x = Subspace(f, n, rows)
    assert x.basis == Subspace._reduce(f, n, rows).basis == stacked_rref(f, n, rows)
    assert Subspace(f, n, x.basis) == x == pickle.loads(pickle.dumps(x))
    perp = reference_routes.orthogonal_rows
    assert x.orthogonal_complement().basis == perp(f, x.basis, n)
    assert (x + y).basis == stacked_rref(f, n, x.basis + y.basis)
    assert (x & y).basis == perp(f, stacked_rref(
        f, n, perp(f, x.basis, n) + perp(f, y.basis, n)), n)
    for a, b in [(x, y), (y, x), (x & y, x), (y, x + y)]:
        assert (a <= b) == reference_routes.in_row_space(f, b.basis, a.basis)
    m = 2 if n in (2, 4) else 1
    code = DelsarteCode(f, m, n // m, rows)
    assert code == pickle.loads(pickle.dumps(code))
    for w in (v, *x.basis):
        assert (code.contains_matrix(devectorize(f, m, n // m, w))
                == reference_routes.in_row_space(f, x.basis, [w]))


@st.composite
def cut_cases(draw):
    """A field of ELIMINATION_FIELDS, a non-zero subspace Y of GF(q)^n,
    n in 1..7, and a vector a of GF(q)^n with Y not inside a_perp."""
    f = field(*draw(st.sampled_from(ELIMINATION_FIELDS)))
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    vec = st.lists(entry, min_size=n, max_size=n)
    y = Subspace(f, n, draw(st.lists(vec, min_size=1, max_size=n)))
    a = draw(vec)
    assume(any(field_dot(f, row, a) for row in y.basis))
    return f, n, y, a


@SETTINGS
@given(cut_cases())
def test_one_cut_is_the_canonical_basis_of_the_intersection(case):
    # The lattice's complement step: Y & a_perp, against
    # (Y_perp + <a>)_perp, read off the list-based kernel twice.
    f, n, y, a = case
    packed = packed_rows(f, n)
    bits = n * packed.width
    key = _cutter(packed, bits)(
        [packed.pack(r) for r in reversed(y.basis)], packed.pack(a))
    wider, rank, _ = rref_rows(
        f, [list(r) for r in reference_routes.orthogonal_rows(f, y.basis, n)]
        + [list(a)], n)
    ref = reference_routes.orthogonal_rows(f, tuple(map(tuple, wider[:rank])), n)
    assert len(ref) == y.dim - 1
    assert key == _join(map(packed.pack, ref), bits)
