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
a primitive element, built once per field, as is the one slot encoding
(`matrix.PackedRows` packs k slots to an int): the e base-p digits, lowest
first, in fields of `digit` bits: one bit for p = 2, one more than p
needs for odd p (so the slot is the element when p = 2 or e = 1).
Addition is XOR for p = 2, mod p for e = 1, and else the one-slot
`slot_ops` add.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate, chain, repeat

from .errors import check_guard

DEFAULT_MAX_ORDER = 1 << 16
# check_order computes p^e exactly up to this many bits (under 0.1 s);
# past it, it reports the lower bound 2^min(e, ORDER_BITS) <= p^e.
ORDER_BITS = 1 << 20


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order, by trial
    division up to the square root of the part not yet divided out;
    the module's one trial division.  Empty for n < 2."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def is_prime(n: int) -> bool:
    return _prime_divisors(n) == [n]


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
    """Trial-division irreducibility test for a monic polynomial over F_p:
    it divides by every monic polynomial of degree 1 .. deg/2."""
    e = len(coeffs) - 1
    if e <= 0:
        return False
    for d in range(1, e // 2 + 1):
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


def slot_ops(F: GF, k: int):
    """Add and subtract on k slots of the field F at once: XOR in
    characteristic 2; for odd p, add all digit fields at once, then
    subtract p from each field that reached p (SWAR, "SIMD within a
    register"): adding 2^(digit - 1) - p to a field of `digit` bits sets
    its top bit exactly when it holds p or more."""
    if F.p == 2:
        return operator.xor, operator.xor
    ones = sum(1 << (i * F.digit) for i in range(F.e * k))
    top = F.digit - 1
    all_p = F.p * ones
    offset = ((1 << top) - F.p) * ones
    tops = ones << top

    # Every field of s holds at most 2p - 1, so s + offset is below
    # 2^top + p - 1 < 2^digit and carries into no other field.
    def add(a: int, b: int) -> int:
        s = a + b
        g = (s + offset) & tops
        return s - (all_p & (g - (g >> top)))

    def sub(a: int, b: int) -> int:
        s = a + all_p - b
        g = (s + offset) & tops
        return s - (all_p & (g - (g >> top)))

    return add, sub


class GF:
    """The finite field GF(p^e) acting on integer-encoded elements.

    Parameters
    ----------
    p : prime characteristic
    e : extension degree (1 for prime fields)

    q = p^e is guarded by DEFAULT_MAX_ORDER; table construction is O(q).
    The slot tables: `slot` and `element_of` map elements to slot values
    and back; `slot_log` is keyed by slot value, and `slot_exp` lists the
    powers' slot values twice, so a sum of two logs indexes it.
    """

    def __init__(self, p: int, e: int = 1):
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        check_order(p, e)
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.e = e
        self.q = q = p ** e
        self.modulus: tuple[int, ...] | None = (
            smallest_irreducible(p, e) if e > 1 else None)
        self.digit = digit = 1 if p == 2 else p.bit_length() + 1
        self._slot_add, self._slot_sub = slot_ops(self, 1)
        same = p == 2 or e == 1  # the slot is the element
        if same:
            self.slot = self.element_of = range(q)
        else:
            self.slot = slot = [0] * q  # a % p lowest, a // p's slot above
            for a in range(1, q):
                slot[a] = a % p | slot[a // p] << digit
            self.element_of = {s: a for a, s in enumerate(slot)}
        powers = self._slot_powers()
        self.slot_exp = powers * 2
        self._exp = powers if same else [self.element_of[s] for s in powers]
        self._log = [-1] * q
        for i, a in enumerate(self._exp):
            self._log[a] = i
        self.slot_log = self._log if same else dict(zip(powers, range(q)))
        self.packed: dict = {}  # k -> PackedRows(self, k), by matrix.packed_rows

    def _raw_mul(self, a: int, b: int) -> int:
        # Direct polynomial product mod the modulus; only the order tests
        # and the digit images of `_slot_powers` use it.
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

    def _slot_powers(self) -> list[int]:
        """The slot values of g^0, ..., g^(q-2), for the first g of order
        q - 1: g^((q-1)/r) != 1 (square and multiply) for each prime r
        dividing q - 1.  x -> x*g is GF(p)-linear, so the slot of x*g is
        the slot-wise sum of the images of x's chunks of c digits (p^c <=
        256, or one digit), each read off a table of the chunk's values
        times g.  The tables are built the same way, by slot-wise adds of
        the images p^d * g of the e digit positions."""
        p = self.p
        e = self.e
        q = self.q
        primes = _prime_divisors(q - 1)
        g = next(g for g in range(1, q)
                 if all(self._raw_pow(g, (q - 1) // r) != 1 for r in primes))
        c = max(c for c in range(1, e + 1) if p ** c <= 256 or c == 1)
        mask = (1 << c * self.digit) - 1
        slot = self.slot
        add = self._slot_add
        images = [slot[self._raw_mul(p ** d, g)] for d in range(e)]
        tables = []
        for lo in range(0, e, c):
            values = [0]  # values[v] is the slot of v * p^lo * g
            for image in images[lo:lo + c]:
                # the values so far plus j * image, for j = 0 .. p - 1
                values = list(chain.from_iterable(zip(*(
                    accumulate(repeat(image, p - 1), add, initial=x)
                    for x in values))))
            tables.append((lo * self.digit, dict(zip(slot, values))))
        (_, first), *rest = tables
        powers = [1]
        for _ in range(q - 2):
            x = powers[-1]
            y = first[x & mask]
            for shift, table in rest:
                y = add(y, table[x >> shift & mask])
            powers.append(y)
        return powers

    def _raw_pow(self, a: int, k: int) -> int:
        if k == 0:
            return 1
        half = self._raw_pow(self._raw_mul(a, a), k >> 1)
        return self._raw_mul(half, a) if k & 1 else half

    # -- arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        return self.element_of[self._slot_add(self.slot[a], self.slot[b])]

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a - b) % self.p
        return self.element_of[self._slot_sub(self.slot[a], self.slot[b])]

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

    def __reduce__(self):
        # Pickled by its parameters: the slot ops and the cached
        # `PackedRows` are closures, rebuilt (or shared) on load.
        return field, (self.p, self.e)

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@lru_cache(maxsize=None)
def field(p: int, e: int = 1) -> GF:
    """Shared GF instances, one per (p, e)."""
    return GF(p, e)
