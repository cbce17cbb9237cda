import hashlib
import itertools
import random

import pytest

import reference_routes
from qmpoly import GF, GuardExceeded, field
from qmpoly.cli import InputError, _factor_prime_power
from qmpoly.field import (_prime_divisors, is_irreducible, is_prime,
                          smallest_irreducible)
from qmpoly.matrix import packed_rows

# fields with q <= 64 get the exhaustive axiom treatment
SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                (2, 4), (2, 6)]


def test_prime_field_basics(gf2, gf3):
    assert gf2.add(1, 1) == 0
    assert gf2.modulus is None
    assert gf3.inv(2) == 2  # 2*2 = 4 = 1 mod 3
    assert gf3.mul(2, 2) == 1


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # brute-force every monic quadratic x^2 + c1 x + c0 over F_2
    reducible = set()
    for c0 in range(2):
        for c1 in range(2):
            for a in range(2):
                if (a * a + c1 * a + c0) % 2 == 0:
                    reducible.add((c0, c1))
    irreducibles = [(c0, c1) for c0 in range(2) for c1 in range(2)
                    if (c0, c1) not in reducible]
    assert irreducibles == [(1, 1)]
    assert field(2, 2).modulus == (1, 1, 1)


def test_gf4_multiplication_against_polynomial_oracle(gf4):
    # carry-less multiply mod x^2 + x + 1, done by hand, bit encoding
    def oracle(a, b):
        prod = 0
        for i in range(2):
            if (b >> i) & 1:
                prod ^= a << i
        for i in range(2, 4):
            if (prod >> i) & 1:
                prod ^= 0b111 << (i - 2)
        return prod & 0b11

    for a in range(4):
        for b in range(4):
            assert gf4.mul(a, b) == oracle(a, b)
    assert gf4.mul(2, 2) == 3


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, e):
    f = field(p, e)
    els = list(f.elements())
    assert f.q <= 64
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_inverses_and_frobenius_exhaustive(p, e):
    f = field(p, e)
    for a in f.elements():
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q) == a


def test_modulus_has_no_root_and_divides_nothing_smaller():
    for p, e in [(2, 3), (3, 2), (2, 4)]:
        coeffs = smallest_irreducible(p, e)
        assert len(coeffs) == e + 1 and coeffs[-1] == 1
        for a in range(p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * a + c) % p
            assert acc != 0
        assert is_irreducible(coeffs, p)


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (7, 2), (5, 3),
                                 (3, 10), (5, 6)])
def test_addition_matches_the_digit_loops(p, e):
    # The one-slot add, negate and subtract against the digit-by-digit
    # oracle: every pair up to q = 125, random pairs and extremes past it.
    f, rng = field(p, e), random.Random(p * e)
    if f.q <= 125:
        pairs = itertools.product(f.elements(), repeat=2)
    else:
        pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
        pairs += itertools.product([0, 1, f.q - 1], repeat=2)
    for a, b in pairs:
        minus_b = reference_routes.digit_neg(f, b)
        assert f.neg(b) == minus_b
        assert f.add(a, b) == reference_routes.digit_add(f, a, b)
        assert f.sub(a, b) == reference_routes.digit_add(f, a, minus_b)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (3, 1), (3, 2), (5, 3)])
def test_packed_rows_share_the_field_slot_tables(p, e):
    # Packed rows of every length read the tables the field built once.
    f = field(p, e)
    short, long = packed_rows(f, 2), packed_rows(f, 7)
    assert short.field is long.field is f
    for name in ("slot", "element_of", "slot_log", "slot_exp"):
        assert not hasattr(short, name) and not hasattr(long, name)
    assert f.slot_exp == [f.slot[a] for a in f._exp] * 2
    assert all(f.element_of[f.slot[a]] == a for a in f.elements())
    assert all(f.slot_log[f.slot[a]] == f._log[a] for a in range(1, f.q))


def test_packed_rows_are_built_on_the_field_they_are_asked_for():
    # An equal field built apart gets rows on itself, not on the first
    # field that asked for that length.
    packed_rows(field(3, 2), 3)
    g = GF(3, 2)
    rows = packed_rows(g, 3)
    assert rows.field is g and rows is packed_rows(g, 3)
    assert rows.field.slot_exp is g.slot_exp
    assert packed_rows(field(3, 2), 3).field is field(3, 2)


def test_powers():
    f = field(3, 2)
    g = 3  # the polynomial x
    acc = 1
    for k in range(12):
        assert f.pow(g, k) == acc
        acc = f.mul(acc, g)
    assert f.pow(g, -1) == f.inv(g)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rejects_nonprime_characteristic():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2, 0)


def test_order_guard():
    with pytest.raises(GuardExceeded) as exc:
        GF(2, 20)
    assert exc.value.needed == 2 ** 20


def test_field_identity_and_cache():
    assert field(2, 3) is field(2, 3)
    assert field(2, 3) == GF(2, 3)
    assert field(2) != field(3)


@pytest.mark.parametrize("p,e", SMALL_FIELDS + [(11, 1), (13, 1), (257, 1), (3, 3),
                                                (5, 2), (7, 2), (3, 5), (2, 8), (2, 10)])
def test_primitive_element_by_order_tests_matches_the_cycle_walk(p, e):
    # The order tests pick the same first primitive element as walking
    # each candidate's whole cycle, so both tables are unchanged.
    f = GF(p, e)
    assert f._exp == reference_routes.primitive_powers(f)
    assert [f._log[v] for v in f._exp] == list(range(f.q - 1))


def test_prime_divisors_match_a_full_scan():
    # every r in 2..n that divides n, its primality read off a sieve
    sieve = [False, False] + [True] * 4999
    for d in range(2, 71):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    for n in range(-2, 5001):
        assert _prime_divisors(n) == [r for r in range(2, n + 1)
                                      if n % r == 0 and sieve[r]], n
    assert [n for n in range(-2, 5001) if is_prime(n)] == [
        n for n in range(5001) if sieve[n]]


def test_factor_prime_power_messages():
    assert [_factor_prime_power(q) for q in (2, 4, 9, 65521, 65536, 3 ** 10)] \
        == [(2, 1), (2, 2), (3, 2), (65521, 1), (2, 16), (3, 10)]
    for q in (-4, 0, 1, 6, 12, 65535):
        with pytest.raises(InputError) as exc:
            _factor_prime_power(q)
        assert str(exc.value) == f"field order {q} is not a prime power"


# sha256 of repr((_exp, _log)), recorded when the primes of q - 1 were
# still found by testing every r < q
LARGE_FIELD_TABLES = {
    (2, 16): "216b4855b507db62757a5f46a792bdc6",
    (3, 10): "6ce1627d96c6a1addc554527c396d3ef",
    (65521, 1): "10150f6dedf8c6089bdd3fbb04c823d5",
}


@pytest.mark.parametrize("p,e", sorted(LARGE_FIELD_TABLES))
def test_large_field_tables_are_unchanged(p, e):
    f = field(p, e)
    digest = hashlib.sha256(repr((f._exp, f._log)).encode()).hexdigest()
    assert digest[:32] == LARGE_FIELD_TABLES[p, e]
