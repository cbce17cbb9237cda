"""Flags (nested chains) of Delsarte codes and their duality.

A flag C_1 >= C_2 >= ... >= C_s carries the alternating-sum rank
function rho(X) = sum_i (-1)^(i+1) rho_i(X), where rho_i is the rank
function of the i-th code's table.  The result is always a
demi-polymatroid, usually not a polymatroid, and its conullity is the
alternating sum of the supported subcode dimensions.

Dualizing reverses the chain and trace-dualizes every member.  For
flags of odd length the dual flag's table is the dual table; for even
length it is the conullity table.  Appending a zero code to an even,
strictly decreasing flag normalizes it without changing the table, and
on normalized flags duality is an exact match between the two routes.
"""

from __future__ import annotations

import operator
import random
from typing import NamedTuple, Sequence

from .delsarte import (DelsarteCode, random_code, random_subcode,
                       to_polymatroid, trace_dual)
from .field import GF
from .lattice import SubspaceLattice, enumerate_subspaces
from .polymatroid import (PolymatroidTable, WeightProfile,
                          _weights_and_dual_weights, conullity_table,
                          generalized_weights)


class NestingError(ValueError):
    """A flag whose codes fail to nest; index points at the first
    member not contained in its predecessor."""

    def __init__(self, index: int):
        super().__init__(
            f"flag member {index} is not a subcode of member {index - 1}")
        self.index = index


class Flag:
    """A tuple of codes, each containing the next."""

    __slots__ = ("codes",)

    def __init__(self, codes: Sequence[DelsarteCode]):
        codes = tuple(codes)
        if not codes:
            raise ValueError("a flag needs at least one code")
        first = codes[0]
        for i, c in enumerate(codes[1:], start=1):
            if c.field != first.field or c.shape != first.shape:
                key, a, b = next(t for t in zip("pemn", (c.field.p, c.field.e, *c.shape), (
                    first.field.p, first.field.e, *first.shape)) if t[1] != t[2])
                raise ValueError(f"flag members live in different matrix spaces: {key} = {a} "
                                 f"in member {i}, {key} = {b} in member 0")
            if not c.is_subcode_of(codes[i - 1]):
                raise NestingError(i)
        self.codes = codes

    @property
    def length(self) -> int:
        return len(self.codes)

    @property
    def field(self):
        return self.codes[0].field

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes[0].shape

    @property
    def rank(self) -> int:
        """Alternating sum of the member dimensions."""
        return sum((-1) ** i * c.dim for i, c in enumerate(self.codes))

    def is_strict(self) -> bool:
        return all(self.codes[i + 1].dim < self.codes[i].dim
                   for i in range(len(self.codes) - 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __repr__(self) -> str:
        dims = ", ".join(str(c.dim) for c in self.codes)
        m, n = self.shape
        return f"Flag(GF({self.field.q}), {m}x{n}, dims=({dims}))"


class NormalizedFlag(Flag):
    """Odd-length flag of strictly decreasing codes (the last may be
    zero).  The class closed under flag duality."""

    def __init__(self, codes: Sequence[DelsarteCode]):
        super().__init__(codes)
        if len(self.codes) % 2 == 0:
            raise ValueError("a normalized flag has odd length")
        if not self.is_strict():
            raise ValueError("a normalized flag strictly decreases")
        m, n = self.shape
        bound = 2 * ((m * n) // 2) + 1
        if len(self.codes) > bound:
            raise ValueError(
                f"normalized flags in a {m}x{n} space have length <= {bound}")


def flag_polymatroid(flag: Flag,
                     lattice: SubspaceLattice | None = None) -> PolymatroidTable:
    """Alternating sum of the members' rank tables, one pass per member."""
    m, n = flag.shape
    lat = lattice if lattice is not None else enumerate_subspaces(flag.field, n)
    vals = to_polymatroid(flag.codes[0], lat).values
    for i, code in enumerate(flag.codes[1:], 1):
        vals = list(map(operator.sub if i % 2 else operator.add, vals,
                        to_polymatroid(code, lat).values))
    return PolymatroidTable._of(lat, m, vals)


def flag_weights(flag: Flag,
                 lattice: SubspaceLattice | None = None) -> WeightProfile:
    """d_r = min { dim X : alternating subcode dimension at X >= r }."""
    if flag.rank == 0:
        raise ValueError("rank-zero flag has no weights")
    return generalized_weights(flag_polymatroid(flag, lattice))


def dual_flag(flag: Flag) -> Flag:
    """Trace-dualize every member and reverse the chain."""
    return Flag(tuple(trace_dual(c) for c in reversed(flag.codes)))


def normalize_flag(flag: Flag) -> NormalizedFlag:
    """Append a zero code to an even-length strict flag; odd-length
    strict flags pass through.  Even-length flags already ending in the
    zero code are rejected rather than padded twice."""
    if not flag.is_strict():
        raise ValueError("normalization needs strictly decreasing codes")
    codes = flag.codes
    if len(codes) % 2 == 0:
        if codes[-1].dim == 0:
            raise ValueError(
                "even-length flag already ends in the zero code; "
                "drop it instead of normalizing")
        m, n = flag.shape
        codes = codes + (DelsarteCode.zero(flag.field, m, n),)
    return NormalizedFlag(codes)


class FlagDualityReport(NamedTuple):
    """Result of comparing the dual flag's table against the expected
    identity: the dual table when the length is odd, the conullity
    table when it is even."""
    length: int
    expected: str
    ok: bool
    first_mismatch: int | None


def verify_flag_duality(flag: Flag,
                        table: PolymatroidTable | None = None) -> FlagDualityReport:
    """Check the flag-duality identity.  `table` is the flag's own
    table, built here when not given; the dual flag's table is built on
    its lattice."""
    if table is None:
        table = flag_polymatroid(flag)
    dual_table = flag_polymatroid(dual_flag(flag), table.lattice)
    if flag.length % 2 == 1:
        expected_name = "dual"
        expected = table.dual().values
    else:
        expected_name = "conullity"
        expected = conullity_table(table).values
    mismatch = next((j for j, (a, b) in enumerate(zip(dual_table.values, expected))
                     if a != b), None)
    return FlagDualityReport(length=flag.length, expected=expected_name,
                             ok=mismatch is None, first_mismatch=mismatch)


class RelativeWeights(NamedTuple):
    weights: WeightProfile
    dual_weights: WeightProfile


def relative_weights(outer: DelsarteCode,
                     inner: DelsarteCode,
                     lattice: SubspaceLattice | None = None) -> RelativeWeights:
    """Weights of the pair flag (outer, inner) and of its dual side.

    The dual side reads min { dim X : m*dim X - dim inner_dual(X)
    + dim outer_dual(X) >= r } for r up to m*n - (dim outer - dim inner).
    Since dim C_dual(X) = m*dim X - dim C + dim C(X_perp), that is the
    conullity of the pair table's dual, which is read off the table's
    nullity profile h, as in the Wei report: both profiles come from
    one table, and its dual is not built.  The pair satisfies the
    m-fold partition with rank K = dim outer - dim inner.
    """
    if not (inner.is_subcode_of(outer) and inner.dim < outer.dim):
        raise ValueError("containment must be strict")
    table = flag_polymatroid(Flag((outer, inner)), lattice)
    return RelativeWeights(*_weights_and_dual_weights(table))


def random_flag(f: GF, m: int, n: int, length: int,
                rng: random.Random) -> Flag:
    """Strictly decreasing random flag of the given length."""
    if not 1 <= length <= m * n + 1:
        raise ValueError(f"flag length {length} outside 1..{m * n + 1}")
    dims = sorted(rng.sample(range(m * n + 1), length), reverse=True)
    codes = [random_code(f, m, n, dims[0], rng)]
    for d in dims[1:]:
        codes.append(random_subcode(codes[-1], d, rng))
    return Flag(codes)
