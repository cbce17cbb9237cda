"""Acceptance suite: one test per exit criterion, each printing a
single PASS line with its runtime.  Run with `pytest -s` to see the
lines as they come.

All checks are exact (integer equality, set equality); the only stated
tolerances are the per-criterion runtime budgets asserted at the end of
every test.
"""

import random
import time
from types import SimpleNamespace

import pytest

from qmpoly import (Flag, Subspace, Verdict, anticode_gap_search,
                    anticode_weights, check_axioms, code_weights,
                    enumerate_subspaces, flag_polymatroid, flag_weights,
                    gabidulin, gaussian_binomial, generalized_weights,
                    intersection_demipolymatroid, is_mrd, min_rank_distance,
                    nullity_profiles, nullity_table, random_code, random_flag,
                    subcode_dims, support_space, to_polymatroid, trace_dual,
                    uniform, wei_duality_report)
from reference_routes import flag_conullity

SHAPES = [(2, 2), (3, 2), (3, 3), (4, 3)]
FLAG_SHAPES = [(2, 2), (3, 2), (3, 3)]
SEED = 20250810


def report(name, started, budget):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def population(gf2):
    rng = random.Random(SEED)
    codes = []
    for m, n in SHAPES:
        for k in range(1, m * n):
            for _ in range(4):
                codes.append(random_code(gf2, m, n, k, rng))
    flags = []
    for i in range(60):
        m, n = FLAG_SHAPES[i % len(FLAG_SHAPES)]
        flags.append(random_flag(gf2, m, n, 2 if i < 30 else 3, rng))
    uniforms = [uniform(r, n, m, gf2)
                for n in (2, 3, 4) for m in (1, 2, 3)
                for r in range(n + 1)]
    uniforms += [uniform(r, n, m, gf2)
                 for n in (2, 3) for m in (4, 5) for r in range(n + 1)]
    # a few codes on the 67-member lattice of GF(2)^4
    wide_codes = [random_code(gf2, 2, 4, k, rng) for k in (1, 3, 5, 7)]
    return SimpleNamespace(codes=codes, flags=flags, uniforms=uniforms,
                           wide_codes=wide_codes)


def test_c1_nested_support_flag(gf2):
    started = time.perf_counter()
    lat = enumerate_subspaces(gf2, 3)
    assert len(lat) == 16
    x = Subspace(gf2, 3, [[1, 0, 0]])
    y = Subspace(gf2, 3, [[1, 0, 0], [0, 1, 0]])
    flag = Flag((support_space(y, 5), support_space(x, 5)))
    table = flag_polymatroid(flag, lat)
    assert table.rank == 5
    assert flag_weights(flag, lat).values == (1, 1, 1, 1, 1)
    assert generalized_weights(table.dual()).values == \
        (1, 1, 1, 1, 1, 2, 2, 2, 2, 2)

    # submodularity breaks on two distinct planes meeting x_perp in y_perp
    xp = x.orthogonal_complement()
    yp = y.orthogonal_complement()
    planes = [s for s in lat if s.dim == 2 and s != xp and (s & xp) == yp]
    a, b = planes[0], planes[1]
    assert table.rho(a) + table.rho(b) < table.rho(a + b) + table.rho(a & b)
    rep = check_axioms(table)
    assert rep.verdict == Verdict.DEMI_POLYMATROID and not rep.r3.ok

    wei = wei_duality_report(table)
    res2 = wei.residues[2]
    assert res2.dual_side == {1, 2}
    assert res2.primal_side == {3}
    assert res2.partition_ok and wei.partition_ok
    report("c1 nested-support-flag", started, 5)


def test_c2_mrd_gabidulin(gf2):
    started = time.perf_counter()
    c = gabidulin(gf2, 3, 2, 1)
    assert c.dim == 3
    assert min_rank_distance(c) == 2
    assert to_polymatroid(c) == uniform(1, 2, 3, gf2)
    assert code_weights(c).values == (2, 2, 2)
    d = trace_dual(c)
    assert code_weights(d).values == (2, 2, 2)
    assert is_mrd(c) and is_mrd(d)
    report("c2 mrd-gabidulin", started, 5)


def test_c3_code_table_dual_compatibility(population):
    started = time.perf_counter()
    assert len(population.codes) >= 100
    seen = {shape: set() for shape in SHAPES}
    for c in population.codes:
        seen[c.shape].add(c.dim)
        dual_route = to_polymatroid(trace_dual(c))
        table_route = to_polymatroid(c).dual()
        assert dual_route == table_route
    for (m, n), dims in seen.items():
        assert dims == set(range(1, m * n))
    report("c3 dual-compatibility", started, 60)


def test_c4_m_fold_wei_duality(population):
    started = time.perf_counter()
    tables = [to_polymatroid(c) for c in population.codes]
    tables += [to_polymatroid(c) for c in population.wide_codes]
    tables += list(population.uniforms)
    tables += [flag_polymatroid(f) for f in population.flags]
    for t in tables:
        wei = wei_duality_report(t)
        assert wei.partition_ok
        assert wei.disjoint_ok
        assert wei.monotone_gaps_ok
        for res in wei.residues:
            assert res.partition_ok
    report("c4 m-fold-wei-duality", started, 120)


def test_c5_axiom_suites(population, gf2):
    started = time.perf_counter()
    for c in population.codes:
        rep = check_axioms(to_polymatroid(c))
        assert rep.verdict == Verdict.POLYMATROID
    for f in population.flags:
        rep = check_axioms(flag_polymatroid(f))
        assert rep.r1.ok and rep.r2.ok and rep.r4.ok

    nt = nullity_table(uniform(1, 2, 2, gf2))
    rep = check_axioms(nt)
    assert rep.verdict == Verdict.DEMI_POLYMATROID
    assert not rep.r3.ok and rep.r3.witness is not None

    diagonal = Subspace(gf2, 2, [[1, 1]])
    diag_table = intersection_demipolymatroid([diagonal], [1])
    rep = check_axioms(diag_table)
    assert rep.verdict == Verdict.DEMI_POLYMATROID
    assert not rep.r3.ok and rep.r3.witness is not None
    report("c5 axiom-suites", started, 60)


def test_c6_nullity_profile_identity(population, gf2):
    started = time.perf_counter()
    tables = []
    for c in population.codes:
        t = to_polymatroid(c)
        tables += [t, t.dual(), to_polymatroid(trace_dual(c))]
    tables += list(population.uniforms)
    tables += [flag_polymatroid(f) for f in population.flags]
    tables.append(nullity_table(uniform(1, 2, 2, gf2)))
    tables.append(intersection_demipolymatroid(
        [Subspace(gf2, 2, [[1, 1]])], [1]))
    for t in tables:
        prof = nullity_profiles(t)
        n, m, k = t.lattice.n, t.m, t.rank
        for xdim in range(n + 1):
            assert prof.conullity[xdim] == \
                prof.nullity[n - xdim] - m * (n - xdim) + k
        for xdim in range(1, n + 1):
            assert 0 <= prof.conullity[xdim] - prof.conullity[xdim - 1] <= m
    report("c6 nullity-profile-identity", started, 60)


def test_c7_two_route_weight_equality(population):
    started = time.perf_counter()
    for c in population.codes:
        lat = enumerate_subspaces(c.field, c.ncols)
        dims = subcode_dims(c, lat)
        direct = tuple(
            min(lat.dims[i] for i in range(len(lat)) if dims[i] >= r)
            for r in range(1, c.dim + 1))
        via_table = generalized_weights(to_polymatroid(c, lat))
        assert direct == via_table.values
        assert code_weights(c, lat).values == direct
    for f in population.flags:
        table = flag_polymatroid(f)
        for s in table.lattice:
            assert flag_conullity(f, s) == table.conullity(s)
    report("c7 two-route-weights", started, 120)


def test_c8_anticode_weight_comparison(population, gf2):
    started = time.perf_counter()
    for c in population.codes:
        m, n = c.shape
        a = anticode_weights(c)
        d = code_weights(c)
        if m > n:
            assert a == d
        elif m == n:
            assert all(x <= y for x, y in zip(a.values, d.values))

    cert = anticode_gap_search(gf2, 2)
    if cert is None:
        print("ACCEPTANCE c8 note: no anticode/support gap at q=2, 2x2")
    else:
        print(f"ACCEPTANCE c8 note: gap certificate r={cert.r}, "
              f"a_r={cert.anticode_weight} < d_r={cert.support_weight}, "
              f"code basis {[list(r) for r in cert.code.basis]}")
        a = anticode_weights(cert.code)
        d = code_weights(cert.code)
        assert a.values[cert.r - 1] < d.values[cert.r - 1]
    report("c8 anticode-comparison", started, 120)


def test_c9_lattice_integrity(gf2, gf3):
    started = time.perf_counter()
    for f in (gf2, gf3):
        for n in range(1, 6):
            lat = enumerate_subspaces(f, n)
            counts = lat.dimension_counts()
            for k in range(n + 1):
                assert counts.get(k, 0) == gaussian_binomial(n, k, f.q)
            for i in range(len(lat)):
                j = lat.complements[i]
                assert lat.complements[j] == i
                assert lat.dims[i] + lat.dims[j] == n
            assert lat.complements[lat.zero_index] == lat.full_index
    report("c9 lattice-integrity", started, 30)
