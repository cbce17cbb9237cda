import random

import pytest

from qmpoly import (DelsarteCode, Flag, NestingError, NormalizedFlag,
                    Subspace, Verdict, check_axioms, code_weights, dual_flag,
                    enumerate_subspaces, flag_polymatroid, flag_weights,
                    generalized_weights, normalize_flag, random_code,
                    random_flag, random_subcode, relative_weights,
                    residue_partition, support_space, to_polymatroid,
                    trace_dual, verify_flag_duality)
from reference_routes import flag_conullity, subcode


@pytest.fixture(scope="module")
def support_pair(gf2):
    x = Subspace(gf2, 3, [[1, 0, 0]])
    y = Subspace(gf2, 3, [[1, 0, 0], [0, 1, 0]])
    return x, y, support_space(y, 5), support_space(x, 5)


def test_flag_validation(gf2):
    c = random_code(gf2, 2, 2, 2, random.Random(1))
    assert Flag((c,)).length == 1
    other = random_code(gf2, 2, 2, 3, random.Random(2))
    with pytest.raises(NestingError) as exc:
        Flag((c, other))
    assert exc.value.index == 1
    with pytest.raises(ValueError):
        Flag(())
    with pytest.raises(ValueError):
        Flag((c, random_code(gf2, 2, 3, 1, random.Random(3))))


def test_singleton_flag_matches_code_table(gf2):
    rng = random.Random(5)
    for _ in range(5):
        c = random_code(gf2, 2, 3, rng.randrange(1, 6), rng)
        assert flag_polymatroid(Flag((c,))) == to_polymatroid(c)


def test_support_flag_rank_and_weights(support_pair, gf2):
    x, y, c1, c2 = support_pair
    assert (c1.dim, c2.dim) == (10, 5)
    flag = Flag((c1, c2))
    table = flag_polymatroid(flag)
    assert flag.rank == 5
    assert table.rank == 5
    assert flag_weights(flag).values == (1, 1, 1, 1, 1)
    assert generalized_weights(table.dual()).values == \
        (1, 1, 1, 1, 1, 2, 2, 2, 2, 2)


def test_support_flag_conullity_on_lines(support_pair, gf2):
    x, y, c1, c2 = support_pair
    flag = Flag((c1, c2))
    lat = enumerate_subspaces(gf2, 3)
    for z in lat:
        got = flag_conullity(flag, z)
        if z.dim == 1:
            expect = 5 if (z <= y and z != x) else 0
            assert got == expect


def test_support_flag_r3_violation(support_pair, gf2):
    x, y, c1, c2 = support_pair
    flag = Flag((c1, c2))
    table = flag_polymatroid(flag)
    rep = check_axioms(table)
    assert rep.verdict == Verdict.DEMI_POLYMATROID
    assert rep.r1.ok and rep.r2.ok and rep.r4.ok and not rep.r3.ok
    # two distinct planes meeting x_perp in y_perp break submodularity
    xp = x.orthogonal_complement()
    yp = y.orthogonal_complement()
    planes = [s for s in table.lattice
              if s.dim == 2 and s != xp and (s & xp) == yp]
    assert len(planes) >= 2
    a, b = planes[0], planes[1]
    assert table.rho(a) == table.rho(b) == 0
    assert table.rho(a & b) == 0
    assert table.rho(a + b) == 5
    assert table.rho(a + b) + table.rho(a & b) > table.rho(a) + table.rho(b)


def test_flag_conullity_matches_table(gf2):
    rng = random.Random(7)
    lat = enumerate_subspaces(gf2, 3)
    for length in (2, 3):
        for _ in range(5):
            flag = random_flag(gf2, 2, 3, length, rng)
            table = flag_polymatroid(flag, lat)
            for s in lat:
                assert flag_conullity(flag, s) == table.conullity(s)



@pytest.mark.parametrize("length", [3, 4])
def test_flag_table_is_the_alternating_sum_of_member_tables(length, gf2, gf3):
    # Members at even positions add and at odd positions subtract.
    for f, m, n in [(gf2, 2, 3), (gf3, 2, 2)]:
        rng = random.Random(length)
        lat = enumerate_subspaces(f, n)
        for _ in range(4):
            flag = random_flag(f, m, n, length, rng)
            tables = [to_polymatroid(c, lat).values for c in flag.codes]
            assert flag_polymatroid(flag, lat).values == tuple(
                sum((-1) ** j * t[i] for j, t in enumerate(tables))
                for i in range(len(lat)))


def test_random_flag_lengths(gf2):
    # Any length from 1 to m*n + 1 is drawn; any other is refused before
    # a draw.
    rng = random.Random(4)
    for length in (1, 7):
        flag = random_flag(gf2, 2, 3, length, rng)
        assert flag.length == length and flag.is_strict()
    for length in (0, -1, 8):
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"flag length .* outside 1\.\.7"):
            random_flag(gf2, 2, 3, length, rng)
        assert rng.getstate() == state
    with pytest.raises(ValueError, match=r"outside 1\.\.5"):
        random_flag(gf2, 2, 2, 0, rng)


def test_flag_table_bounds(gf2):
    rng = random.Random(11)
    lat = enumerate_subspaces(gf2, 3)
    for _ in range(8):
        flag = random_flag(gf2, 2, 3, 2 + rng.randrange(2), rng)
        table = flag_polymatroid(flag, lat)
        outer = to_polymatroid(flag.codes[0], lat)
        for i in range(len(lat)):
            assert 0 <= table.values[i] <= min(outer.values[i],
                                               2 * lat.dims[i])


def test_flag_weight_edge_cases(gf2):
    c = random_code(gf2, 3, 2, 4, random.Random(13))
    zero = DelsarteCode.zero(gf2, 3, 2)
    pair = Flag((c, zero))
    assert flag_weights(pair) == code_weights(c)
    same = Flag((c, c))
    assert flag_polymatroid(same).rank == 0
    with pytest.raises(ValueError):
        flag_weights(same)


def test_dual_flag(support_pair, gf2):
    x, y, c1, c2 = support_pair
    flag = Flag((c1, c2))
    dual = dual_flag(flag)
    assert dual.codes[0] == support_space(x.orthogonal_complement(), 5)
    assert dual.codes[1] == support_space(y.orthogonal_complement(), 5)
    assert dual_flag(dual) == flag
    single = Flag((DelsarteCode.zero(gf2, 2, 2),))
    assert dual_flag(single).codes[0] == DelsarteCode.full(gf2, 2, 2)
    rng = random.Random(15)
    for _ in range(5):
        triple = random_flag(gf2, 2, 3, 3, rng)
        assert dual_flag(dual_flag(triple)) == triple


def test_normalize_flag(gf2):
    rng = random.Random(17)
    c1 = random_code(gf2, 2, 2, 3, rng)
    c2 = random_subcode(c1, 1, rng)
    flag = Flag((c1, c2))
    norm = normalize_flag(flag)
    assert isinstance(norm, NormalizedFlag)
    assert norm.length == 3 and norm.codes[-1].dim == 0
    assert flag_polymatroid(norm) == flag_polymatroid(flag)

    single = normalize_flag(Flag((c1,)))
    assert single.length == 1 and single.codes == (c1,)

    with pytest.raises(ValueError):
        normalize_flag(Flag((c1, c1)))  # not strict
    zero = DelsarteCode.zero(gf2, 2, 2)
    with pytest.raises(ValueError):
        normalize_flag(Flag((c1, zero)))  # even length ending in zero

    odd_with_zero = NormalizedFlag((c1, c2, zero))
    assert normalize_flag(odd_with_zero) == odd_with_zero
    with pytest.raises(ValueError):
        NormalizedFlag((c1, c2))  # even length
    bound = 2 * ((2 * 2) // 2) + 1
    assert norm.length <= bound


def test_verify_flag_duality_lengths(gf2):
    rng = random.Random(19)
    # odd lengths check against the dual table, even against conullity
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for length in (1, 2, 3):
            for _ in range(3):
                flag = random_flag(gf2, m, n, length, rng)
                rep = verify_flag_duality(flag)
                assert rep.ok, (m, n, length, rep)
                assert rep.expected == ("dual" if length % 2 else "conullity")


def test_even_dual_is_three_term_flag(support_pair, gf2):
    # for a pair, the dual table equals the table of (full, inner', outer')
    x, y, c1, c2 = support_pair
    flag = Flag((c1, c2))
    table = flag_polymatroid(flag)
    full = DelsarteCode.full(gf2, 5, 3)
    three = Flag((full, trace_dual(c2), trace_dual(c1)))
    assert flag_polymatroid(three) == table.dual()


def test_relative_weights(support_pair, gf2):
    x, y, c1, c2 = support_pair
    rel = relative_weights(c1, c2)
    assert rel.weights.values == (1, 1, 1, 1, 1)
    assert rel.dual_weights.values == (1, 1, 1, 1, 1, 2, 2, 2, 2, 2)
    # the pair satisfies the m-fold partition with rank = dim gap
    records, ok = residue_partition(3, 5, 5, rel.weights, rel.dual_weights)
    assert ok

    c = random_code(gf2, 3, 2, 4, random.Random(23))
    rel = relative_weights(c, DelsarteCode.zero(gf2, 3, 2))
    assert rel.weights == code_weights(c)

    with pytest.raises(ValueError):
        relative_weights(c, c)


def trace_dual_side_weights(outer, inner):
    """Reference dual profile from the trace duals:
    min { dim X : m*dim X - dim inner_dual(X) + dim outer_dual(X) >= r }."""
    m, n = outer.shape
    outer_dual, inner_dual = trace_dual(outer), trace_dual(inner)
    best = [0] * (n + 1)
    for x in enumerate_subspaces(outer.field, n):
        v = (m * x.dim - subcode(inner_dual, x).dim
             + subcode(outer_dual, x).dim)
        best[x.dim] = max(best[x.dim], v)
    rank = m * n - (outer.dim - inner.dim)
    return tuple(next(d for d in range(n + 1) if best[d] >= r)
                 for r in range(1, rank + 1))


def test_relative_weights_random_pairs_partition(gf2, gf3):
    rng = random.Random(29)
    for f, m, n in [(gf2, 3, 2), (gf2, 2, 3), (gf2, 3, 3), (gf2, 2, 4),
                    (gf3, 2, 2)]:
        for _ in range(4):
            c1 = random_code(f, m, n, rng.randrange(2, m * n + 1), rng)
            c2 = random_subcode(c1, rng.randrange(0, c1.dim), rng)
            rel = relative_weights(c1, c2)
            k = c1.dim - c2.dim
            records, ok = residue_partition(n, m, k, rel.weights,
                                            rel.dual_weights)
            assert ok
            assert rel.dual_weights.values == trace_dual_side_weights(c1, c2)
