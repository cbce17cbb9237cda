"""Exact arithmetic in small finite fields GF(p^e).

Elements are plain ints in [0, q): the integer a stands for the
polynomial a0 + a1*x + a2*x^2 + ... where a0, a1, ... are the base-p
digits of a.  Prime fields (e = 1) therefore encode residues directly;
0 is always the additive identity and 1 the multiplicative identity.

Extension fields reduce modulo a monic irreducible polynomial chosen
deterministically: candidates are ordered by their coefficient vector
read as a base-p integer (constant term = least significant digit) and
the first irreducible one wins.  Canonical forms built downstream are
therefore reproducible across runs.

Multiplication, inversion and powers go through log/antilog tables over
a primitive element, built once per field.  Addition is digitwise mod p
(a plain XOR in characteristic 2).  Table-backed arithmetic keeps the
inner loops of lattice enumeration cheap.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import check_guard

DEFAULT_MAX_ORDER = 1 << 16
# check_order computes p^e exactly up to this many bits (under 0.1 s);
# past it, it reports the lower bound 2^min(e, ORDER_BITS) <= p^e.
ORDER_BITS = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_order(p: int, e: int) -> None:
    """The field-order guard on p^e for p >= 2 and e >= 1, in bounded
    time however large p and e are; other values are left to the
    caller's checks.  Run it before the primality test, whose trial
    division takes seconds for a large prime p."""
    if p >= 2 and e >= 1:
        q = (p ** e if e * p.bit_length() <= ORDER_BITS
             else 1 << min(e, ORDER_BITS))
        check_guard("field order", q, DEFAULT_MAX_ORDER)


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _undigits(digs, p: int) -> int:
    out = 0
    for d in reversed(digs):
        out = out * p + d
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    # Remainder of num modulo the monic polynomial den, over F_p.
    # Coefficient order is low degree first; num is consumed.
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(d):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return num[:d]


def is_irreducible(coeffs, p: int) -> bool:
    """Trial-division irreducibility test for a monic polynomial over F_p.

    Checks for roots in F_p first, then divides by every monic
    polynomial of degree 2 .. deg/2.
    """
    e = len(coeffs) - 1
    if e <= 0:
        return False
    if e == 1:
        return True
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    for d in range(2, e // 2 + 1):
        for enc in range(p ** d):
            den = _digits(enc, p, d) + [1]
            if not any(_poly_rem(list(coeffs), den, p)):
                return False
    return True


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e over F_p with the smallest
    coefficient encoding."""
    for enc in range(p ** e):
        coeffs = tuple(_digits(enc, p, e)) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


class GF:
    """The finite field GF(p^e) acting on integer-encoded elements.

    Parameters
    ----------
    p : prime characteristic
    e : extension degree (1 for prime fields)

    q = p^e is guarded by DEFAULT_MAX_ORDER; table construction is O(q).
    """

    def __init__(self, p: int, e: int = 1):
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        check_order(p, e)
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus: tuple[int, ...] | None = (
            smallest_irreducible(p, e) if e > 1 else None)
        self._exp, self._log = self._build_tables()

    def _raw_mul(self, a: int, b: int) -> int:
        # Direct polynomial product mod the modulus; only used while
        # bootstrapping the log tables.
        if self.e == 1:
            return (a * b) % self.p
        p = self.p
        da = _digits(a, p, self.e)
        db = _digits(b, p, self.e)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        return _undigits(_poly_rem(prod, list(self.modulus), p), p)

    def _build_tables(self):
        # The first g of order q - 1: g^((q-1)/r) != 1 (square and multiply)
        # for each prime r dividing q - 1.  Its powers fill the tables once.
        q = self.q
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(g for g in range(1, q)
                 if all(self._raw_pow(g, (q - 1) // r) != 1 for r in primes))
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._raw_mul(exp[-1], g))
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        return exp, log

    def _raw_pow(self, a: int, k: int) -> int:
        return 1 if k == 0 else self._raw_mul(
            self._raw_pow(self._raw_mul(a, a), k >> 1), a if k & 1 else 1)

    # -- arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((-a) % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    # -- identity -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@lru_cache(maxsize=None)
def field(p: int, e: int = 1) -> GF:
    """Shared GF instances, one per (p, e)."""
    return GF(p, e)
