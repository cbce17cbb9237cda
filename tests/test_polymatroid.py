import copy
import functools
import math
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qmpoly
from qmpoly import (AxiomCheck, AxiomReport, DelsarteCode, FlagDualityReport,
                    GapCertificate, NullityProfiles, PolymatroidTable,
                    ResidueDuality, Subspace, SubspaceLattice, Verdict,
                    WeightProfile, WeiReport, check_axioms, conullity_table,
                    enumerate_subspaces, field, generalized_weights,
                    intersection_demipolymatroid, nullity_profiles,
                    nullity_table, random_code, residue_partition,
                    sum_polymatroid, to_polymatroid, uniform,
                    wei_duality_report, weight_witnesses)


def brute_weights(table):
    """Independent route: scan every subspace for each r."""
    lat = table.lattice
    out = []
    for r in range(1, table.rank + 1):
        out.append(min(lat.dims[i] for i in range(len(lat))
                       if table.conullity_at(i) >= r))
    return tuple(out)


def test_uniform_values(gf2):
    u = uniform(1, 2, 2, gf2)
    assert u.values == (0, 2, 2, 2, 2)
    assert u.rank == 2
    assert uniform(0, 2, 3, gf2).values == (0,) * 5
    full = uniform(2, 2, 3, gf2)
    assert full.values == tuple(3 * d for d in full.lattice.dims)


def test_uniform_axioms_and_self_duality(gf2):
    u = uniform(1, 2, 2, gf2)
    assert check_axioms(u).verdict == Verdict.POLYMATROID
    assert u.dual() == u  # U(r,n)* = U(n-r,n), here r = n-r = 1
    assert uniform(0, 3, 2, gf2).dual() == uniform(3, 3, 2, gf2)


def test_nullity_conullity_values(gf2):
    u = uniform(1, 2, 2, gf2)
    lat = u.lattice
    zero, full = lat[lat.zero_index], lat[lat.full_index]
    assert u.conullity(zero) == 0
    assert u.conullity(full) == 2
    for i in range(len(lat)):
        if lat.dims[i] == 1:
            assert u.conullity_at(i) == 0
            assert u.nullity_at(i) == 0
    assert u.nullity(full) == 2


def test_table_values_must_be_integers(gf2):
    lat = enumerate_subspaces(gf2, 1)
    for bad in (0.9, 1.0, "1", Fraction(1)):
        with pytest.raises(TypeError):
            PolymatroidTable(lat, 1, [0, bad])
    t = PolymatroidTable(lat, 1, [False, True])
    assert t.values == (0, 1) and t.rank == 1
    assert all(type(v) is int for v in t.values)


def test_library_tables_are_built_unchecked_and_outside_values_checked(
        gf2, monkeypatch):
    # Tables the library computes go through the trusted
    # `PolymatroidTable._of`, with no per-value `operator.index` pass;
    # the public constructor, which outside values reach, still checks.
    lat = enumerate_subspaces(gf2, 3)
    code = random_code(gf2, 2, 3, 3, random.Random(5))
    built = []
    init = PolymatroidTable.__init__

    def counting(self, *args):
        built.append(args[1])
        init(self, *args)
    monkeypatch.setattr(PolymatroidTable, "__init__", counting)
    table = to_polymatroid(code, lat)
    line = Subspace(gf2, 3, [(1, 0, 1)])
    for t in (table.dual(), nullity_table(table), conullity_table(table),
              sum_polymatroid([line], lat),
              intersection_demipolymatroid([line], [2], lat),
              qmpoly.transpose_min_polymatroid(
                  random_code(gf2, 3, 3, 4, random.Random(5)), lat),
              qmpoly.flag_polymatroid(
                  qmpoly.random_flag(gf2, 2, 3, 2, random.Random(5)), lat)):
        assert len(t.values) == len(lat)
    assert built == []
    for bad in (0.5, 2.0, "1"):
        with pytest.raises(TypeError):
            PolymatroidTable(lat, 2, [bad] + list(table.values[1:]))
    monkeypatch.undo()
    t = PolymatroidTable(lat, 1, [False] + [True] * (len(lat) - 1))
    assert all(type(v) is int for v in t.values) and t.rank == 1
    with pytest.raises(ValueError):
        PolymatroidTable._of(lat, 0, table.values)


def test_table_passes_make_no_per_member_method_calls(gf2, monkeypatch):
    # Counted in calls, not seconds: each pass reads the value tuple
    # directly, so a member costs no nullity_at/conullity_at/rank call.
    lat = enumerate_subspaces(gf2, 5)
    assert len(lat) == 374
    table = uniform(2, 5, 2, gf2).dual()  # rank 6; its scan runs far
    fresh = PolymatroidTable(lat, table.m, table.values)  # dual not built
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper
    for name in ("nullity_at", "conullity_at"):
        monkeypatch.setattr(PolymatroidTable, name,
                            counted(getattr(PolymatroidTable, name)))
    monkeypatch.setattr(PolymatroidTable, "rank",
                        property(counted(PolymatroidTable.rank.fget)))
    passes = [("nullity_profiles", lambda: nullity_profiles(table)),
              ("weight_witnesses", lambda: weight_witnesses(table)),
              ("dual", fresh.dual),
              ("conullity_table", lambda: conullity_table(table)),
              ("nullity_table", lambda: nullity_table(table))]
    for name, run in passes:
        calls.clear()
        run()
        assert len(calls) <= 2, (name, len(calls))


def test_dual_involution_and_rank(gf2):
    rng = random.Random(23)
    lat = enumerate_subspaces(gf2, 3)
    for m in (1, 2, 3):
        vals = [rng.randrange(m * d + 1) for d in lat.dims]
        t = PolymatroidTable(lat, m, vals)
        assert t.dual().dual() == t
        assert t.dual().rank == m * 3 - t.rank
    zero = PolymatroidTable(lat, 2, [0] * len(lat))
    assert zero.dual().values == tuple(2 * d for d in lat.dims)


def test_nullity_table_is_demi_not_polymatroid(gf2):
    u = uniform(1, 2, 2, gf2)
    nt = nullity_table(u)
    assert nt.values == (0, 0, 0, 0, 2)
    rep = check_axioms(nt)
    assert rep.verdict == Verdict.DEMI_POLYMATROID
    assert not rep.r3.ok
    i, j = rep.r3.witness
    lat = nt.lattice
    assert lat.dims[i] == lat.dims[j] == 1 and i != j
    ct = conullity_table(u)
    assert check_axioms(ct).verdict == Verdict.DEMI_POLYMATROID


def test_axiom_counterexamples_are_lattice_order_first(gf2):
    lat = enumerate_subspaces(gf2, 2)
    bad = PolymatroidTable(lat, 1, [0, 1, 0, 0, 0])  # a line outranks E
    rep = check_axioms(bad)
    assert not rep.r2.ok
    assert rep.r2.witness == (1, 4)
    i, j = rep.r2.witness
    assert lat.leq(i, j) and bad.values[i] > bad.values[j]


@functools.lru_cache(maxsize=None)
def containment_order(lat):
    """Per lattice, from the Subspace operator <= alone: up[i], the
    members containing X_i (X_i included), and for i < j the indices of
    X_i + X_j, the least member containing both, and of X_i & X_j, the
    greatest member inside both.  Members are ordered by dimension, so
    these are the least and the largest index among the common bounds."""
    members = list(lat)
    n_members = len(members)
    up = [{i} for i in range(n_members)]
    down = [{i} for i in range(n_members)]
    for i, x in enumerate(members):
        for j in range(i + 1, n_members):
            if x.dim < members[j].dim and x <= members[j]:
                up[i].add(j)
                down[j].add(i)
    bounds = {(i, j): (min(up[i] & up[j]), max(down[i] & down[j]))
              for i in range(n_members) for j in range(i + 1, n_members)}
    return up, bounds


def brute_axioms(table):
    """Independent route: scan R1-R4 over all N^2 ordered pairs, in the
    containment order of the Subspace operator <= (see
    containment_order); no point masks, complements or covers."""
    lat = table.lattice
    members = list(lat)
    up, bounds = containment_order(lat)
    m = table.m
    vals = table.values

    def check(bad):
        return AxiomCheck(True) if bad is None else AxiomCheck(False, bad)

    def r1(vs):
        return check(next(((i,) for i, x in enumerate(members)
                           if not 0 <= vs[i] <= m * x.dim), None))

    def r2(vs):
        return check(next(((i, j) for i in range(len(vs)) for j in sorted(up[i])
                           if i != j and vs[i] > vs[j]), None))

    r3 = check(next(((i, j) for (i, j), (s, t) in bounds.items()
                     if vals[s] + vals[t] > vals[i] + vals[j]), None))

    k = vals[lat.index(Subspace.full(lat.field, lat.n))]
    dual = [vals[lat.index(x.orthogonal_complement())] + m * x.dim - k
            for x in members]
    d1, d2 = r1(dual), r2(dual)
    if not d1.ok:
        r4 = AxiomCheck(False, d1.witness, note="dual table violates R1")
    elif not d2.ok:
        r4 = AxiomCheck(False, d2.witness, note="dual table violates R2")
    else:
        r4 = AxiomCheck(True)
    return r1(vals), r2(vals), r3, r4


def test_axiom_witnesses_match_brute_force_scan(gf2, gf3):
    rng = random.Random(41)
    gaps = {"r2": set(), "r3": set(), "r4": set()}
    for f, n in [(gf2, 3), (gf3, 2)]:
        lat = enumerate_subspaces(f, n)
        for _ in range(60):
            blocks = [lat[rng.randrange(len(lat))]
                      for _ in range(rng.randrange(1, 4))]
            vals = list(sum_polymatroid(blocks, lat).values)
            for _ in range(rng.randrange(1, 4)):
                vals[rng.randrange(len(vals))] += rng.choice((-2, -1, 1, 2))
            table = PolymatroidTable(lat, len(blocks), vals)
            rep = check_axioms(table)
            assert (rep.r1, rep.r2, rep.r3, rep.r4) == brute_axioms(table)
            for name in gaps:
                c = getattr(rep, name)
                if c.ok:
                    continue
                i, j = c.witness[0], c.witness[-1]
                if name == "r3":
                    gap = (lat.dims[lat.sum_index(i, j)]
                           - lat.dims[lat.meet_index(i, j)])
                else:
                    gap = lat.dims[j] - lat.dims[i]
                gaps[name].add(gap)
    # first witnesses beyond cover pairs and length-2 intervals occur
    assert max(gaps["r2"]) >= 2
    assert max(gaps["r3"]) >= 3
    assert max(gaps["r4"]) >= 2


AXIOM_LATTICES = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5),
                  (3, 1, 3), (2, 2, 3)]


@st.composite
def axiom_tables(draw):
    """A sum of block polymatroids, its nullity or conullity table (both
    fail R3), or values drawn in 0..m*dim+1, over GF(2)^1-5, GF(3)^3 or
    GF(4)^3; then up to three values moved by 1 or 2."""
    p, e, n = draw(st.sampled_from(AXIOM_LATTICES))
    lat = enumerate_subspaces(field(p, e), n)
    member = st.integers(0, len(lat) - 1)
    table = sum_polymatroid(
        [lat[i] for i in draw(st.lists(member, min_size=1, max_size=3))], lat)
    kind = draw(st.sampled_from(["sum", "nullity", "conullity", "random"]))
    if kind == "nullity":
        table = nullity_table(table)
    elif kind == "conullity":
        table = conullity_table(table)
    vals = list(table.values)
    if kind == "random":
        vals = [draw(st.integers(0, table.m * d + 1)) for d in lat.dims]
    moves = st.tuples(member, st.sampled_from([-2, -1, 1, 2]))
    for i, delta in draw(st.lists(moves, max_size=3)):
        vals[i] += delta
    return PolymatroidTable(lat, table.m, vals)


def gf2_table(n, m, vals):
    return PolymatroidTable(enumerate_subspaces(field(2), n), m, vals)


# No table fails R2 or R4 alone: R3 and R4 give R2, and R1, R2 and R3
# give R4.  The GF(2)^2 examples fail R3 alone, R2 and R4 with R3
# holding, R3 and R4 with R2 holding, and R4 through the dual's R2.  On
# the GF(2)^3 one only [0, Z] fails R3, Z the first plane, whose first
# point is its largest middle: a walk that does not take the middles in
# order of value misses it.
@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@example(gf2_table(2, 1, [0, 0, 0, 0, 1]))
@example(gf2_table(2, 1, [0, 0, 0, 1, 0]))
@example(gf2_table(2, 1, [0, 0, 0, 0, 2]))
@example(gf2_table(2, 1, [0, 1, 1, 2, 2]))
@example(gf2_table(3, 2, [0, 2, 1, 1, 2, 2, 2, 2, 3, 4, 3, 3, 3, 3, 4, 4]))
@given(axiom_tables())
def test_local_axiom_scan_matches_the_pair_scan(table):
    r1, r2, r3, r4 = brute_axioms(table)
    if r1.ok and r2.ok and r3.ok:
        verdict = Verdict.POLYMATROID
    elif r1.ok and r2.ok and r4.ok:
        verdict = Verdict.DEMI_POLYMATROID
    else:
        verdict = Verdict.NEITHER
    assert check_axioms(table) == AxiomReport(r1, r2, r3, r4, verdict)


def test_r2_witness_on_gf2_6_needs_no_pair_scan(gf2):
    # rho = dim with rho(E) lowered to 0 fails R2 (and R4) but no
    # length-2 interval, so the ordered pair scan, which the axiom-pair
    # guard stops at N^2 = 7,980,625 here, never runs.
    lat = enumerate_subspaces(gf2, 6)
    vals = list(lat.dims)
    vals[-1] = 0
    table = PolymatroidTable(lat, 1, vals)
    start = time.perf_counter()
    rep = check_axioms(table)
    assert time.perf_counter() - start < 2
    assert rep.r1.ok and rep.r3.ok and not rep.r4.ok
    # the first point lies in E, which the scan meets last
    assert rep.r2 == AxiomCheck(False, (1, len(lat) - 1))
    assert rep.verdict == Verdict.NEITHER


def test_generalized_weights_of_uniform_closed_form(gf2, gf3):
    for f in (gf2, gf3):
        for n in (2, 3):
            for m in (1, 2, 3):
                for r in range(n + 1):
                    t = uniform(r, n, m, f)
                    w = generalized_weights(t)
                    assert w.values == brute_weights(t)
                    expect = tuple(n - r + math.ceil(j / m)
                                   for j in range(1, m * r + 1))
                    assert w.values == expect


def test_weights_empty_for_rank_zero(gf2):
    t = uniform(0, 2, 2, gf2)
    w = generalized_weights(t)
    assert w.rank == 0 and w.values == ()


def test_weight_profile_is_monotone_with_m_gaps(gf2):
    rng = random.Random(5)
    lat = enumerate_subspaces(gf2, 3)
    # sums of block codes are polymatroids with arbitrary-ish profiles
    for _ in range(15):
        blocks = [lat[rng.randrange(len(lat))] for _ in range(2)]
        t = sum_polymatroid(blocks, lat)
        w = generalized_weights(t)
        vals = w.values
        assert all(1 <= v <= 3 for v in vals)
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
        assert all(vals[i] < vals[i + 2] for i in range(len(vals) - 2))


def test_weight_witnesses(gf2):
    t = uniform(1, 2, 2, gf2)
    wit = weight_witnesses(t)
    w = generalized_weights(t)
    lat = t.lattice
    for r, idx in enumerate(wit, start=1):
        assert lat.dims[idx] == w.values[r - 1]
        assert t.conullity_at(idx) >= r
        # nothing earlier in lattice order qualifies
        assert all(t.conullity_at(i) < r for i in range(idx))


def test_weight_routes_build_no_table(gf2, monkeypatch, on_table_built):
    # Every weight is read off a profile: no dual, transpose-min or
    # transpose table is built, and relative_weights builds only the
    # pair flag's own table.
    rng = random.Random(5)
    codes = [qmpoly.random_code(gf2, m, n, k, rng)
             for m, n, k in [(3, 3, 4), (2, 3, 3), (3, 2, 2), (2, 2, 1)]]
    tables = [qmpoly.to_polymatroid(c) for c in codes]
    inner = qmpoly.random_subcode(codes[0], 2, rng)
    built, in_flag = [], []
    flag_table = qmpoly.flags.flag_polymatroid

    def marked_flag_table(*args):
        in_flag.append(True)
        try:
            return flag_table(*args)
        finally:
            in_flag.pop()
    on_table_built(lambda m: in_flag or built.append(m))
    monkeypatch.setattr(PolymatroidTable, "dual",
                        lambda self: pytest.fail("dual table built"))
    monkeypatch.setattr(qmpoly.flags, "flag_polymatroid", marked_flag_table)
    for c, t in zip(codes, tables):
        generalized_weights(t)
        wei_duality_report(t)
        qmpoly.anticode_weights(c, t)
        qmpoly.anticode_weights(c)
        qmpoly.code_weights(c)
    rel = qmpoly.relative_weights(codes[0], inner)
    assert built == []
    assert (rel.weights.rank, rel.dual_weights.rank) == (2, 3 * 3 - 2)


class CountingValues(tuple):
    """Table values that count how many values are read through
    slices, which is how a profile pass reads its blocks."""

    read = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.read += len(range(*key.indices(len(self))))
        return tuple.__getitem__(self, key)


def test_a_table_makes_one_profile_pass(gf2):
    # The profiles are kept on the table, so the weights, the Wei report,
    # the profiles themselves and a whole `weights` report read every
    # value once between them.
    from qmpoly.cli import build_report
    lat = enumerate_subspaces(gf2, 4)
    for use in (lambda t: (generalized_weights(t), wei_duality_report(t),
                           weight_witnesses(t), nullity_profiles(t)),
                lambda t: build_report("table", None, None, t, False)):
        table = PolymatroidTable(lat, 2, [2 * min(d, 2) for d in lat.dims])
        table.values = values = CountingValues(table.values)
        use(table)
        assert values.read == len(lat)


def test_nullity_profiles_identity(gf2):
    rng = random.Random(9)
    lat = enumerate_subspaces(gf2, 3)
    tables = [uniform(r, 3, 2, gf2) for r in range(4)]
    tables += [sum_polymatroid([lat[rng.randrange(len(lat))]
                                for _ in range(3)], lat) for _ in range(10)]
    for t in tables:
        prof = nullity_profiles(t)
        n, m, k = 3, t.m, t.rank
        for x in range(n + 1):
            assert prof.conullity[x] == prof.nullity[n - x] - m * (n - x) + k
        for x in range(1, n + 1):
            assert 0 <= prof.conullity[x] - prof.conullity[x - 1] <= m


def test_nullity_monotone_on_nested_pairs(gf2):
    rng = random.Random(77)
    lat = enumerate_subspaces(gf2, 3)
    tables = [uniform(r, 3, 2, gf2) for r in range(4)]
    tables += [sum_polymatroid([lat[rng.randrange(len(lat))]
                                for _ in range(2)], lat) for _ in range(6)]
    for t in tables:
        m = t.m
        for i in range(len(lat)):
            for j in range(len(lat)):
                if lat.leq(i, j):
                    gap = m * (lat.dims[j] - lat.dims[i])
                    assert 0 <= t.nullity_at(j) - t.nullity_at(i) <= gap
                    assert 0 <= t.conullity_at(j) - t.conullity_at(i) <= gap


def test_dimension_is_weight_iff_conullity_profile_jumps(gf2):
    t = uniform(1, 2, 2, gf2)
    prof = nullity_profiles(t)
    w = set(generalized_weights(t).values)
    for x in range(1, 3):
        assert (x in w) == (prof.conullity[x - 1] < prof.conullity[x])
    # no intermediate conullity value 1 is attained here
    assert prof.conullity == (0, 0, 2)


def test_wei_report_uniform_all_residues(gf2):
    for r in range(4):
        rep = wei_duality_report(uniform(r, 3, 2, gf2))
        assert rep.partition_ok and rep.disjoint_ok and rep.monotone_gaps_ok
        for res in rep.residues:
            assert res.dual_side | res.primal_side == set(range(1, 4))
            assert not res.dual_side & res.primal_side


def test_wei_report_rank_zero_side(gf2):
    rep = wei_duality_report(uniform(0, 2, 2, gf2))
    assert rep.rank == 0 and rep.dual_rank == 4
    for res in rep.residues:
        assert res.primal_side == frozenset()
        assert res.dual_side == {1, 2}
        assert res.partition_ok
    assert rep.partition_ok


def pairwise_disjoint(rep):
    """Reference: no dual weight d*_r equals a reflected primal weight
    n + 1 - d_r' with r' = r + rank mod m, checked pair by pair."""
    n, m, k = rep.n, rep.m, rep.rank
    return not any(
        (rp - k - r) % m == 0
        and rep.dual_weights.values[r - 1] == n + 1 - rep.weights.values[rp - 1]
        for r in range(1, rep.dual_weights.rank + 1)
        for rp in range(1, rep.weights.rank + 1))


def test_wei_disjointness_matches_pairwise_scan(gf2, gf3, gf4):
    rng = random.Random(7)
    seen = set()
    for f, n in [(gf2, 3), (gf3, 2), (gf2, 4), (gf4, 2)]:
        lat = enumerate_subspaces(f, n)
        for _ in range(100):
            m = rng.randrange(1, 4)
            blocks = [lat[rng.randrange(len(lat))] for _ in range(m)]
            vals = list(sum_polymatroid(blocks, lat).values)
            for _ in range(rng.randrange(4)):
                vals[rng.randrange(len(vals))] += rng.choice((-2, -1, 1, 2))
            try:
                rep = wei_duality_report(PolymatroidTable(lat, m, vals))
            except ValueError:  # corrupted beyond having weights
                continue
            assert rep.disjoint_ok == pairwise_disjoint(rep)
            seen.add(rep.disjoint_ok)
    assert seen == {True, False}


def test_residue_partition_helper_on_classical_case(gf2):
    # m=1 is classical Wei duality; single residue
    t = sum_polymatroid([Subspace(gf2, 3, [[1, 0, 0], [0, 1, 0]])])
    rep = wei_duality_report(t)
    assert t.m == 1
    records, ok = residue_partition(3, 1, t.rank, rep.weights, rep.dual_weights)
    assert ok and len(records) == 1


def test_sum_polymatroid_examples(gf2):
    lat = enumerate_subspaces(gf2, 2)
    zero = Subspace.zero(gf2, 2)
    full = Subspace.full(gf2, 2)
    assert sum_polymatroid([zero, zero], lat).values == (0,) * 5
    t = sum_polymatroid([full, full], lat)
    assert t.values == tuple(2 * d for d in lat.dims)

    e1 = Subspace(gf2, 2, [[1, 0]])
    t = sum_polymatroid([e1, full], lat)
    rep = check_axioms(t)
    assert rep.verdict == Verdict.POLYMATROID
    w = generalized_weights(t)
    assert w.values[0] == 1
    assert t.conullity(e1) == 2  # dim(C1 & X) + dim(C2 & X) at X = span{e1}
    for i in range(len(lat)):
        expect = sum(lat.dims[lat.meet_index(lat.index(b), i)]
                     for b in (e1, full))
        assert t.conullity_at(i) == expect


def reference_sum_values(blocks, lat):
    # sum_i dim C_i - dim(C_i & X_perp), read off the lattice meets
    bidx = [lat.index(b) for b in blocks]
    return tuple(sum(lat.dims[b] - lat.dims[lat.meet_index(b, c)] for b in bidx)
                 for c in lat.complements)


def reference_intersection_values(spaces, weights, lat):
    # sum_i w_i * dim(V_i & J), read off the lattice meets
    vidx = [lat.index(v) for v in spaces]
    return tuple(sum(w * lat.dims[lat.meet_index(v, j)]
                     for v, w in zip(vidx, weights))
                 for j in range(len(lat)))


@pytest.mark.parametrize("p,e,n", [(2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3),
                                   (2, 1, 4), (3, 1, 2), (3, 1, 3), (2, 2, 2),
                                   (5, 1, 2)])
def test_block_tables_match_the_meet_references(p, e, n):
    # Both constructors sum 1-by-n code tables and never query pairs, so
    # a fresh lattice gets no point masks from them.
    f = field(p, e)
    rng = random.Random(100 * p + 10 * e + n)
    lat = SubspaceLattice(f, n)
    cases = [[Subspace.zero(f, n)], [Subspace.full(f, n)],
             [Subspace.zero(f, n), Subspace.full(f, n)]]
    cases += [[lat[rng.randrange(len(lat))] for _ in range(rng.randrange(1, 5))]
              for _ in range(12)]
    got = []
    for spaces in cases:
        weights = [rng.randrange(1, 4) for _ in spaces]
        got.append((spaces, weights, sum_polymatroid(spaces, lat),
                    intersection_demipolymatroid(spaces, weights, lat)))
    assert "masks" not in vars(lat)
    for spaces, weights, blocks, inter in got:
        assert blocks.m == len(spaces) and inter.m == sum(weights)
        assert blocks.values == reference_sum_values(spaces, lat)
        assert inter.values == reference_intersection_values(spaces, weights, lat)


def test_block_tables_need_no_point_masks():
    # N * L = 2056 * 2054 point-mask bits is past the mask guard, which
    # the block tables no longer reach.
    f = field(2053)
    line = Subspace(f, 2, [[1, 5]])
    t = sum_polymatroid([line, Subspace.full(f, 2)])
    assert t.rank == 3 and t.m == 2 and len(t.values) == 2056
    assert t.conullity(line) == 2
    assert intersection_demipolymatroid([line], [1000]).rank == 1000


def test_sum_polymatroid_ambient_mismatch(gf2, gf3):
    with pytest.raises(ValueError):
        sum_polymatroid([Subspace.full(gf2, 2), Subspace.full(gf2, 3)])
    with pytest.raises(ValueError):
        sum_polymatroid([Subspace.full(gf2, 2), Subspace.full(gf3, 2)])


def test_intersection_demipolymatroid_diagonal(gf2):
    lat = enumerate_subspaces(gf2, 2)
    diag = Subspace(gf2, 2, [[1, 1]])
    t = intersection_demipolymatroid([diag], [1], lat)
    assert t.m == 1 and t.rank == 1
    rep = check_axioms(t)
    assert rep.verdict == Verdict.DEMI_POLYMATROID
    assert not rep.r3.ok
    # the two coordinate axes witness the failure
    ax1 = lat.index(Subspace(gf2, 2, [[1, 0]]))
    ax2 = lat.index(Subspace(gf2, 2, [[0, 1]]))
    s = lat.sum_index(ax1, ax2)
    meet = lat.meet_index(ax1, ax2)
    assert t.values[s] + t.values[meet] > t.values[ax1] + t.values[ax2]


def test_intersection_demipolymatroid_dual_closed_form(gf2):
    rng = random.Random(31)
    lat = enumerate_subspaces(gf2, 3)
    for _ in range(10):
        spaces = [lat[rng.randrange(len(lat))] for _ in range(2)]
        weights = [rng.randrange(1, 3) for _ in range(2)]
        t = intersection_demipolymatroid(spaces, weights, lat)
        assert t.m == sum(weights)
        dual_direct = intersection_demipolymatroid(
            [v.orthogonal_complement() for v in spaces], weights, lat)
        assert t.dual() == dual_direct
        assert check_axioms(t).r4.ok


def test_intersection_demipolymatroid_full_spaces(gf2):
    lat = enumerate_subspaces(gf2, 2)
    full = Subspace.full(gf2, 2)
    t = intersection_demipolymatroid([full, full], [1, 2], lat)
    assert t.values == tuple(3 * d for d in lat.dims)


def test_intersection_demipolymatroid_weight_mismatch(gf2):
    full = Subspace.full(gf2, 2)
    with pytest.raises(ValueError):
        intersection_demipolymatroid([full, full], [1])
    with pytest.raises(ValueError):
        intersection_demipolymatroid([full], [0])


def test_table_validation(gf2):
    lat = enumerate_subspaces(gf2, 2)
    with pytest.raises(ValueError):
        PolymatroidTable(lat, 2, [0, 1])
    with pytest.raises(ValueError):
        PolymatroidTable(lat, 0, [0] * 5)


def test_import_loads_no_dataclasses():
    # Compared against the modules loaded before the import, so whatever
    # the interpreter's site set-up loads does not count.
    src = os.path.dirname(os.path.dirname(qmpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import qmpoly.cli; "
         "print(sorted(set(sys.modules) - before))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert "'qmpoly.cli'" in out and "dataclasses" not in out


def record_samples():
    """(class, field names in order, one value per field) for every
    result record; the names and order are the public interface."""
    check = AxiomCheck(False, (1, 2), "dual table violates R1")
    prof = WeightProfile(2, (1, 3))
    res = ResidueDuality(0, frozenset({1}), frozenset({2}), True)
    return [
        (AxiomCheck, ("ok", "witness", "note"), (False, (1, 2), "a note")),
        (AxiomReport, ("r1", "r2", "r3", "r4", "verdict"),
         (check, AxiomCheck(True), check, AxiomCheck(True), Verdict.NEITHER)),
        (WeightProfile, ("rank", "values"), (2, (1, 3))),
        (NullityProfiles, ("nullity", "conullity"), ((0, 1), (0, 2))),
        (ResidueDuality, ("residue", "dual_side", "primal_side",
                          "partition_ok"), (0, frozenset({1}), frozenset(), False)),
        (WeiReport, ("n", "m", "rank", "dual_rank", "weights", "dual_weights",
                     "witnesses", "residues", "partition_ok", "disjoint_ok",
                     "monotone_gaps_ok"),
         (2, 1, 2, 0, prof, WeightProfile(0, ()), (1, 3), (res,), True, True,
          True)),
        (GapCertificate, ("code", "r", "anticode_weight", "support_weight"),
         (DelsarteCode.full(field(2), 2, 2), 1, 1, 2)),
        (FlagDualityReport, ("length", "expected", "ok", "first_mismatch"),
         (3, "dual", False, 4)),
    ]


@pytest.mark.parametrize("cls, names, values", record_samples(),
                         ids=[sample[0].__name__ for sample in record_samples()])
def test_records_keep_fields_repr_equality_and_hash(cls, names, values):
    rec = cls(**dict(zip(names, values)))
    assert tuple(getattr(rec, n) for n in names) == values
    assert repr(rec) == (f"{cls.__name__}("
                         + ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
                         + ")")
    twin = cls(*values)
    assert rec == twin and hash(rec) == hash(twin) == hash(values)
    other = cls(*values[:-1], "x")
    assert rec != other
    for n in names:
        with pytest.raises(AttributeError):
            setattr(rec, n, None)
    assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))
    if cls is not WeightProfile:  # the named tuples
        assert rec == values and tuple(rec) == values
        assert rec._asdict() == dict(zip(names, values))
        assert rec._replace(**{names[-1]: "x"}) == other


@pytest.mark.parametrize("e", [1, 2, 3])
def test_records_over_characteristic_two_pickle_after_lattice_work(e):
    # The field caches a PackedRows per length once a lattice or subspace
    # has used it; over GF(2^e) those hold module-level functions only, so
    # a record carrying the field still pickles.
    f = field(2, e)
    lat = SubspaceLattice(f, 3)
    lat[3].orthogonal_complement()
    assert 3 in f.packed
    rec = GapCertificate(DelsarteCode.full(f, 2, 2), 1, 1, 2)
    assert pickle.loads(pickle.dumps(rec)) == rec



@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_codes_tables_and_records_over_odd_characteristic_pickle(p, e):
    # Odd-characteristic slot ops are closures; a field pickles by its
    # parameters, so a table over it pickles with its lattice after the
    # lattice, its masks and parent tree have been built.
    f = field(p, e)
    lat = enumerate_subspaces(f, 2)
    code = random_code(f, 2, 2, 2, random.Random(p))
    table = to_polymatroid(code, lat)
    lat.meet_index(1, 2)
    assert lat.children and 2 in f.packed
    rec = GapCertificate(code, 1, 1, 2)
    for obj in (code, table, rec):
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert pickle.loads(pickle.dumps(table)).lattice.field is f

def test_axiom_check_defaults():
    assert AxiomCheck(True) == AxiomCheck(ok=True, witness=None, note=None)


def test_weight_profile_is_a_sequence_of_its_values():
    prof = WeightProfile(3, (1, 1, 2))
    assert len(prof) == 3 and list(prof) == [1, 1, 2]
    assert [prof.weight(r) for r in (1, 2, 3)] == [1, 1, 2]
    for r in (0, 4):
        with pytest.raises(IndexError):
            prof.weight(r)
    # compared with its own kind only, not with a tuple of its fields
    assert prof != (3, (1, 1, 2))
    with pytest.raises(AttributeError):
        del prof.rank
