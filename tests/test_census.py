"""An exhaustive theorem census on small shapes.

Every m x n code over GF(q) is a member of the lattice of GF(q)^(mn),
so that lattice lists them all.  `check_codes` checks each nonzero code
of a shape and `check_pairs` each pair C2 < C1 of codes of a shape;
both return how many they checked.  `check_block_tables` and
`check_transpose_min` do the same for the paper's demi-polymatroids,
which no code table is.  Larger shapes run the same checks
outside the test suite:

    PYTHONPATH=src:tests python -c "from qmpoly import field; \\
        import test_census; print(test_census.check_codes(field(2), 2, 3))"
"""

import itertools
import operator

import pytest

import reference_routes
from qmpoly import (DelsarteCode, Flag, Verdict, anticode_weights,
                    check_axioms, enumerate_subspaces, field,
                    generalized_weights, intersection_demipolymatroid,
                    normalize_flag, relative_weights, residue_partition,
                    sum_polymatroid, to_polymatroid, trace_dual,
                    transpose_min_polymatroid, verify_flag_duality,
                    wei_duality_report)


def all_codes(f, m, n):
    """Every m x n code over f, the zero code first."""
    return [DelsarteCode(f, m, n, x.basis)
            for x in enumerate_subspaces(f, m * n)]


def check_codes(f, m, n) -> int:
    """Each nonzero code's table is a polymatroid that passes the Wei
    report, its trace dual's table is the dual table, its weights are
    the reference route's, and its anticode weights are at most its
    weights on square shapes and equal to them on tall ones.  Wide
    shapes are left out of the anticode check: there the anticode
    weights are the transposed code's."""
    lat = enumerate_subspaces(f, n)
    codes = all_codes(f, m, n)[1:]
    for code in codes:
        table = to_polymatroid(code, lat)
        assert check_axioms(table).verdict == Verdict.POLYMATROID, code.basis
        wei = wei_duality_report(table)
        assert wei.partition_ok and wei.disjoint_ok and wei.monotone_gaps_ok, \
            code.basis
        assert to_polymatroid(trace_dual(code), lat) == table.dual(), code.basis
        weights = generalized_weights(table)
        assert weights == reference_routes.member_weights(table), code.basis
        if m >= n:  # through `code_weights`, a route apart from the table
            a = anticode_weights(code).values
            assert (a == weights.values if m > n
                    else all(map(operator.le, a, weights.values))), code.basis
    return len(codes)


def check_pairs(f, m, n) -> int:
    """For each pair C2 < C1, flag duality holds for the pair flag and,
    when C2 is nonzero, for its normalization; the relative weights
    satisfy the m-fold partition with rank dim C1 - dim C2."""
    lat = enumerate_subspaces(f, n)
    codes = all_codes(f, m, n)
    pairs = [(c1, c2) for c1, c2 in itertools.permutations(codes, 2)
             if c2.is_subcode_of(c1)]
    for c1, c2 in pairs:
        flag = Flag((c1, c2))
        assert verify_flag_duality(flag).ok, (c1.basis, c2.basis)
        if c2.dim:
            assert verify_flag_duality(normalize_flag(flag)).ok, \
                (c1.basis, c2.basis)
        rel = relative_weights(c1, c2, lat)
        assert residue_partition(n, m, c1.dim - c2.dim, rel.weights,
                                 rel.dual_weights)[1], (c1.basis, c2.basis)
    return len(pairs)


@pytest.mark.parametrize("p,e,m,n,count", [(2, 1, 2, 2, 66), (2, 1, 3, 2, 2824),
                                           (3, 1, 2, 2, 211), (2, 2, 2, 2, 528),
                                           (3, 1, 1, 4, 211), (2, 2, 1, 3, 43),
                                           (5, 1, 1, 3, 63)])
def test_every_nonzero_code_satisfies_the_theorems(p, e, m, n, count):
    assert check_codes(field(p, e), m, n) == count


def test_every_gf2_2x2_pair_satisfies_flag_duality_and_the_partition():
    assert check_pairs(field(2), 2, 2) == 446


def check_demi(table) -> bool:
    """A (q,m)-demi-polymatroid at least, with the Wei partition and
    disjointness of its weights and its dual's; whether it is strictly
    demi (not a polymatroid)."""
    verdict = check_axioms(table).verdict
    assert verdict != Verdict.NEITHER
    wei = wei_duality_report(table)
    assert wei.partition_ok and wei.disjoint_ok
    return verdict == Verdict.DEMI_POLYMATROID


def check_block_tables(f, n, top) -> tuple[int, int]:
    """For every multiset of one or two members V_i of the lattice of
    GF(q)^n, with weights w_i in 1..top: the intersection table is a
    demi-polymatroid whose dual is the same construction on the
    orthogonal complements, and the sum table of the blocks, each V_i
    w_i times, is a polymatroid; both pass the Wei checks.  Returns the
    number of families and of strictly demi intersection tables: those
    with a V_i other than 0 and the whole space, on which dim(V_i & J) is
    supermodular in J and not modular."""
    lat = enumerate_subspaces(f, n)
    members = list(lat)
    weights = range(1, top + 1)
    families = [[(v, w)] for v in members for w in weights]
    families += [[(u, a), (v, b)]
                 for u, v in itertools.combinations_with_replacement(members, 2)
                 for a in weights for b in weights]
    strict = 0
    for family in families:
        spaces, ws = zip(*family)
        table = intersection_demipolymatroid(spaces, ws, lat)
        strict += check_demi(table)
        perps = [v.orthogonal_complement() for v in spaces]
        assert table.dual() == intersection_demipolymatroid(perps, ws, lat), family
        blocks = sum_polymatroid([v for v, w in family for _ in range(w)], lat)
        assert not check_demi(blocks), family  # a polymatroid
    return len(families), strict


def check_transpose_min(f, m) -> tuple[int, int]:
    """The transpose-min table of every nonzero m x m code is a
    demi-polymatroid that passes the Wei checks; returns the number of
    codes and of strictly demi tables."""
    lat = enumerate_subspaces(f, m)
    codes = all_codes(f, m, m)[1:]
    return len(codes), sum(check_demi(transpose_min_polymatroid(c, lat))
                           for c in codes)


@pytest.mark.parametrize("p,n,top,counts", [(2, 3, 2, (576, 560)),
                                            (3, 2, 3, (207, 174))])
def test_every_small_block_table_is_a_demi_polymatroid(p, n, top, counts):
    assert check_block_tables(field(p), n, top) == counts


@pytest.mark.parametrize("p,counts", [(2, (66, 18)), (3, (211, 32))])
def test_every_2x2_transpose_min_table_is_a_demi_polymatroid(p, counts):
    assert check_transpose_min(field(p), 2) == counts
