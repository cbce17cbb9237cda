"""Rank tables on a subspace lattice: (q,m)-polymatroids and their
demi-polymatroid relaxation.

A table assigns an integer rank to every member of a SubspaceLattice.
The classical axioms are

  R1: 0 <= rho(X) <= m * dim X
  R2: X <= Y implies rho(X) <= rho(Y)
  R3: rho(X + Y) + rho(X & Y) <= rho(X) + rho(Y)
  R4: the dual table rho*(X) = rho(X_perp) + m*dim X - rho(E)
      again satisfies R1 and R2

with a polymatroid requiring R1-R3 and a demi-polymatroid R1, R2, R4.
The r-th generalized weight of a table of rank K is the least dimension
of a subspace whose conullity rho(E) - rho(X_perp) reaches r, and the
m-fold Wei duality machinery below verifies how the weights of a table
and of its dual partition {1..n} residue class by residue class.  Every
weight is read by one helper off a per-dimension profile: the table's
conullity profile, or rho(0) plus its nullity profile for the dual, so
no weight needs the dual table.  This module is table algebra only;
tables of codes come from `delsarte`.

Result records are named tuples, except `WeightProfile`, whose `len`
and iteration run over its values; none of them needs `dataclasses`,
which would add its imports to every cold start of the command.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

from .errors import check_guard
from .field import GF
from .lattice import Subspace, SubspaceLattice, enumerate_subspaces

DEFAULT_PAIR_GUARD = 10 ** 6


class Verdict(str, enum.Enum):
    POLYMATROID = "POLYMATROID"
    DEMI_POLYMATROID = "DEMI_POLYMATROID"
    NEITHER = "NEITHER"


class AxiomCheck(NamedTuple):
    """Outcome of one axiom scan; witness holds lattice indices of the
    first counterexample in lattice order, or None on a pass."""
    ok: bool
    witness: tuple[int, ...] | None = None
    note: str | None = None


class AxiomReport(NamedTuple):
    r1: AxiomCheck
    r2: AxiomCheck
    r3: AxiomCheck
    r4: AxiomCheck
    verdict: Verdict


class WeightProfile:
    """Generalized weights d_1 .. d_K of a rank-K structure.

    Immutable, and compared and hashed by (rank, values).  `len` and
    iteration run over the values, so it is not a tuple of its fields.
    """

    __slots__ = ("rank", "values")
    __match_args__ = ("rank", "values")

    def __init__(self, rank: int, values: tuple[int, ...]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __reduce__(self):
        return WeightProfile, (self.rank, self.values)

    def weight(self, r: int) -> int:
        if not 1 <= r <= self.rank:
            raise IndexError(f"weight index {r} outside 1..{self.rank}")
        return self.values[r - 1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.values) == (other.rank, other.values)

    def __hash__(self) -> int:
        return hash((self.rank, self.values))

    def __repr__(self) -> str:
        return f"WeightProfile(rank={self.rank!r}, values={self.values!r})"


class NullityProfiles(NamedTuple):
    """Per-dimension maxima of nullity and conullity.

    nullity[x] is the largest m*dim X - rho(X) over dim-x subspaces,
    conullity[x] the largest rho(E) - rho(X_perp).  x is a generalized
    weight exactly where conullity jumps, and nullity plays the same
    role for the dual table.
    """
    nullity: tuple[int, ...]
    conullity: tuple[int, ...]


class ResidueDuality(NamedTuple):
    """Weight sets for one residue class r mod m.

    dual_side:   {d_r(dual) : r in the class}
    primal_side: {n + 1 - d_r(primal) : r in the shifted class}
    """
    residue: int
    dual_side: frozenset[int]
    primal_side: frozenset[int]
    partition_ok: bool


class WeiReport(NamedTuple):
    n: int
    m: int
    rank: int
    dual_rank: int
    weights: WeightProfile
    dual_weights: WeightProfile
    witnesses: tuple[int, ...]
    residues: tuple[ResidueDuality, ...]
    partition_ok: bool
    disjoint_ok: bool
    monotone_gaps_ok: bool


class PolymatroidTable:
    """A total rank function on a subspace lattice, stored as a tuple.

    Tables are complete, never lazy: the axiom scans and Wei reports
    need every value, and lattices are guarded small.  Values must be
    integers (anything `operator.index` accepts, so bools but not floats
    or strings): a table is exact, and nothing is rounded on the way in.
    """

    __slots__ = ("lattice", "m", "values", "_dual", "_profiles")

    def __init__(self, lattice: SubspaceLattice, m: int, values: Sequence[int]):
        values = tuple(map(operator.index, values))
        if len(values) != len(lattice):
            raise ValueError(
                f"table has {len(values)} values for {len(lattice)} subspaces")
        if m < 1:
            raise ValueError("multiplier m must be >= 1")
        self.lattice = lattice
        self.m = m
        self.values = values
        self._dual = None
        self._profiles = None

    @classmethod
    def _of(cls, lattice: SubspaceLattice, m: int,
            values: Sequence[int]) -> PolymatroidTable:
        # Trusted path for one int per member, computed by the library;
        # a code's row count is not bounded below, so m is still checked.
        if m < 1:
            raise ValueError("multiplier m must be >= 1")
        table = object.__new__(cls)
        table.lattice = lattice
        table.m = m
        table.values = tuple(values)
        table._dual = None
        table._profiles = None
        return table

    @property
    def rank(self) -> int:
        return self.values[-1]  # the full space is the last member

    def rho(self, x: Subspace) -> int:
        return self.values[self.lattice.index(x)]

    def nullity_at(self, i: int) -> int:
        return self.m * self.lattice.dims[i] - self.values[i]

    def conullity_at(self, i: int) -> int:
        return self.rank - self.values[self.lattice.complements[i]]

    def nullity(self, x: Subspace) -> int:
        return self.nullity_at(self.lattice.index(x))

    def conullity(self, x: Subspace) -> int:
        return self.conullity_at(self.lattice.index(x))

    def dual(self) -> PolymatroidTable:
        """Pointwise rho*(X) = rho(X_perp) + m*dim X - rho(E).

        Built on the first call and kept, since the table never changes
        and both the axiom scan (R4) and flag duality read it.  The dual's
        weights need no dual table: see `wei_duality_report`.
        """
        if self._dual is None:
            lat, m, k, vals = self.lattice, self.m, self.rank, self.values
            self._dual = PolymatroidTable._of(
                lat, m, [vals[c] + m * d - k
                         for d, c in zip(lat.dims, lat.complements)])
        return self._dual

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolymatroidTable)
                and self.lattice.field == other.lattice.field
                and self.lattice.n == other.lattice.n
                and self.m == other.m
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.lattice.field, self.lattice.n, self.m, self.values))

    def __repr__(self) -> str:
        return (f"PolymatroidTable(GF({self.lattice.field.q})^{self.lattice.n}, "
                f"m={self.m}, rank={self.rank})")


def uniform(r: int, n: int, m: int, field: GF) -> PolymatroidTable:
    """The uniform table rho(X) = m * min(dim X, r)."""
    if not 0 <= r <= n:
        raise ValueError(f"uniform parameter r={r} outside 0..{n}")
    lat = enumerate_subspaces(field, n)
    return PolymatroidTable(lat, m, [m * min(d, r) for d in lat.dims])


def nullity_table(table: PolymatroidTable) -> PolymatroidTable:
    """The table X -> m*dim X - rho(X)."""
    lat, m = table.lattice, table.m
    return PolymatroidTable._of(
        lat, m, [m * d - v for d, v in zip(lat.dims, table.values)])


def conullity_table(table: PolymatroidTable) -> PolymatroidTable:
    """The table X -> rho(E) - rho(X_perp)."""
    lat, k, vals = table.lattice, table.rank, table.values
    return PolymatroidTable._of(lat, table.m,
                                [k - vals[c] for c in lat.complements])


def _upper_covers(lat: SubspaceLattice) -> list[list[int]]:
    """Per member X, the members covering it.

    These are the sums X + p over the points p outside X.  Each is
    found with one `sum_index` call; the points of a cover found are
    then skipped, since they give the same cover again.  A cover has one
    dimension more, hence a larger index, than the member it covers.
    """
    masks, sum_index = lat.masks, lat.sum_index
    full = masks[-1]
    covers = []
    for i, mask in enumerate(masks):
        up = []
        rest = full & ~mask
        while rest:
            j = sum_index(i, (rest & -rest).bit_length())  # point l is bit l-1
            up.append(j)
            rest &= ~masks[j]
        covers.append(up)
    return covers


def _scan_r1(table: PolymatroidTable) -> AxiomCheck:
    m = table.m
    for i, (v, d) in enumerate(zip(table.values, table.lattice.dims)):
        if not 0 <= v <= m * d:
            return AxiomCheck(False, (i,))
    return AxiomCheck(True)


def _scan_r2(lat: SubspaceLattice, vals: tuple[int, ...],
             covers: list[list[int]]) -> AxiomCheck:
    """R2 with its first witness (i, j) in lattice order.

    low[i], the least value on the members containing X_i, is the min
    of vals[i] and of low over the covers of X_i, filled from the top
    down.  Every Y above X_i is reached from it by a chain of covers,
    so the first i with low[i] < vals[i] is the first member that
    witnesses R2; its partner is then found by one walk over the
    members after it."""
    low = list(vals)
    get = low.__getitem__
    for i in reversed(range(len(vals))):
        if covers[i]:
            low[i] = min(low[i], min(map(get, covers[i])))
    i = next((i for i, (v, lo) in enumerate(zip(vals, low)) if lo < v), None)
    if i is None:
        return AxiomCheck(True)
    v = vals[i]
    j = next(j for j in range(i + 1, len(vals)) if vals[j] < v and lat.leq(i, j))
    return AxiomCheck(False, (i, j))


def _failing_diamond(vals: tuple[int, ...],
                     covers: list[list[int]]) -> tuple[int, int] | None:
    """R3 on every length-2 interval [X, Z]: None when all hold, else
    the two middles y1 < y2 of the first failing interval found.

    The middles of [X, Z] are the covers of X below Z, and any two of
    them meet in X and sum to Z.  Let a <= b be the two smallest values
    on all covers of X and M the largest on the members two above X.
    The two smallest middles of [X, Z] are at least a and b, so all of
    X's intervals hold when a + b >= rho(X) + M.  Otherwise a failing
    interval has both of its two smallest middles below
    bound = rho(X) + M - a, and one with fewer than two middles below
    it holds; so only those covers are walked, in order of value, and
    the second one to reach Z is its second smallest middle.
    """
    get = vals.__getitem__
    top = [max(map(get, up)) if up else 0 for up in covers]
    for x, up in enumerate(covers):
        if len(up) < 2:
            continue
        vx = vals[x]
        a, b = sorted(map(get, up))[:2]
        bound = vx + max(map(top.__getitem__, up)) - a
        if b >= bound:
            continue
        smallest: dict[int, int] = {}  # Z -> its smallest middle
        for y in sorted([y for y in up if vals[y] < bound], key=get):
            for z in covers[y]:
                low = smallest.get(z)
                if low is None:
                    smallest[z] = y
                elif vals[low] + vals[y] < vx + vals[z]:
                    return min(low, y), max(low, y)
    return None


def _scan_r3(lat: SubspaceLattice, vals: tuple[int, ...],
             covers: list[list[int]]) -> AxiomCheck:
    """R3 on the length-2 intervals; the first witness in lattice order
    comes from the ordered pair scan, run only when one fails, since
    that pair can span a longer interval.  The middles y1 < y2 of a
    failing interval are a failing pair, so the scan ends by row y1:
    it makes at most (y1 + 1) N pair tests for N members, and that
    bound is what the axiom-pair guard checks before it starts."""
    middles = _failing_diamond(vals, covers)
    if middles is None:
        return AxiomCheck(True)
    n_members, n_rows = len(vals), middles[0] + 1
    check_guard("axiom pairs", n_rows * n_members, DEFAULT_PAIR_GUARD)
    sum_index, meet_index = lat.sum_index, lat.meet_index
    return AxiomCheck(False, next(
        (i, j) for i in range(n_rows) for j in range(i + 1, n_members)
        if vals[sum_index(i, j)] + vals[meet_index(i, j)] > vals[i] + vals[j]))


def check_axioms(table: PolymatroidTable) -> AxiomReport:
    """Scan R1 over members, R2 and R4 over cover pairs, and R3 over
    length-2 intervals; witnesses are the first in lattice order.

    R2 (and R4, which is R1 and R2 on the dual table): X <= Y is joined
    by a chain of covers X = X_0 < X_1 < ... < X_t = Y, so rho rises
    along every cover exactly when it rises along every containment.

    R3: the subspace lattice is modular, and on a modular lattice
    submodularity follows from its diamonds, the pairs A, B that both
    cover A & B (then A + B covers both).  Induct on
    dim A + dim B - 2 dim(A & B): if A does not cover A & B, pick A'
    strictly between them; then A' & B = A & B and, by modularity,
    A & (A' + B) = A'.  So the pairs (A', B) and (A, A' + B) are both
    nearer a diamond, and their inequalities add up to the one for
    (A, B).  A pair of middles of the length-2 interval [X, Z] meets in
    X and sums to Z, so R3 holds exactly when on every such interval
    the two smallest middle values sum to at least rho(X) + rho(Z).

    Only a table that fails R3 needs the ordered pair scan for its
    witness; the axiom-pair guard bounds that scan alone, by
    (y1 + 1) N for N members and the smaller middle y1 of a failing
    length-2 interval.
    """
    lat = table.lattice
    covers = _upper_covers(lat)
    r1 = _scan_r1(table)
    r2 = _scan_r2(lat, table.values, covers)
    r3 = _scan_r3(lat, table.values, covers)

    dual = table.dual()
    d1 = _scan_r1(dual)
    if not d1.ok:
        r4 = AxiomCheck(False, d1.witness, note="dual table violates R1")
    else:
        d2 = _scan_r2(lat, dual.values, covers)
        r4 = (AxiomCheck(True) if d2.ok else
              AxiomCheck(False, d2.witness, note="dual table violates R2"))

    if r1.ok and r2.ok and r3.ok:
        verdict = Verdict.POLYMATROID
    elif r1.ok and r2.ok and r4.ok:
        verdict = Verdict.DEMI_POLYMATROID
    else:
        verdict = Verdict.NEITHER
    return AxiomReport(r1, r2, r3, r4, verdict)


def nullity_profiles(table: PolymatroidTable) -> NullityProfiles:
    """Members are ordered by dimension, and X -> X_perp maps the
    dimension-x members onto the dimension-(n-x) ones.  So with low[x]
    the least value on dimension x, nullity[x] = m*x - low[x] and
    conullity[x] = rho(E) - low[n-x]: one min per block of values.

    Computed on the first call and kept on the table, which never
    changes, so a report's weights, Wei report and profiles share one
    pass over the values."""
    if table._profiles is None:
        lat, m, k, vals = table.lattice, table.m, table.rank, table.values
        dims, n = lat.dims, lat.n
        low = [min(vals[bisect_left(dims, x):bisect_right(dims, x)])
               for x in range(n + 1)]
        table._profiles = NullityProfiles(
            tuple([m * x - low[x] for x in range(n + 1)]),
            tuple([k - low[n - x] for x in range(n + 1)]))
    return table._profiles


def _first_reaching(*sides: tuple[Sequence[int], int]) -> list[tuple[int, ...]]:
    """Per side (profile, count), d_r = min { x : profile[x] >= r } for
    r = 1 .. count.

    The profiles here are per-dimension maxima of a conullity, so a
    weight is the first dimension where one reaches r.  Every side is
    checked before any is listed, since a count is unbounded on a table
    that breaks the axioms: a negative count, or one above the profile's
    largest value, fails the call.  On such a table a profile may also
    fall back as x grows; d_r is still the first x that reaches r.
    """
    for profile, count in sides:
        if count < 0:
            raise ValueError("negative rank; table violates the axioms")
        top = max(profile)
        if count > top:
            raise ValueError(f"conullity never reaches {top + 1}; "
                             "table violates the axioms")
    out = []
    for profile, count in sides:
        values: list[int] = []
        for x, reach in enumerate(profile):
            if reach > len(values):
                values += [x] * (min(reach, count) - len(values))
                if len(values) == count:
                    break
        out.append(tuple(values))
    return out


def generalized_weights(table: PolymatroidTable) -> WeightProfile:
    """d_r = min { dim X : conullity(X) >= r } for r = 1 .. rank, read
    off the conullity profile (see `nullity_profiles`).

    A rank-0 table yields the empty profile.  If some r <= rank is
    never reached the table breaks the rank axioms and the call fails.
    """
    k = table.rank
    (values,) = _first_reaching((nullity_profiles(table).conullity, k))
    return WeightProfile(k, values)


def _weights_and_dual_weights(
        table: PolymatroidTable) -> tuple[WeightProfile, WeightProfile]:
    """The weights of the table and of its dual, off one
    `nullity_profiles` call and without building the dual table.

    The dual's conullity at X is rho*(E) - rho*(X_perp)
    = rho(0) + m*dim X - rho(X), that is rho(0) plus the nullity at X,
    so its profile is rho(0) + h[x]; its rank is
    rho*(E) = rho(0) + m*n - rho(E).  The primal side fails first.
    """
    prof = nullity_profiles(table)
    lat, vals = table.lattice, table.values
    k, rho0 = vals[-1], vals[0]
    dual_rank = rho0 + table.m * lat.n - k
    values, dual_values = _first_reaching(
        (prof.conullity, k), ([rho0 + h for h in prof.nullity], dual_rank))
    return WeightProfile(k, values), WeightProfile(dual_rank, dual_values)


def weight_witnesses(table: PolymatroidTable) -> tuple[int, ...]:
    """For each r = 1 .. rank, the first lattice index whose conullity
    reaches r.

    Members are ordered by dimension, so that index lies in the block
    of dimension d_r, and it never decreases in r.  So only the block of
    d_r is scanned, from the previous witness when it lies in the same
    block; a member whose conullity c reaches r is the witness of every
    r up to c (capped at the rank), and each member costs one
    subtraction and one compare.
    """
    weights = generalized_weights(table).values
    lat, vals = table.lattice, table.values
    dims, comp, k = lat.dims, lat.complements, vals[-1]
    out: list[int] = []
    i = 0
    while len(out) < k:
        r = len(out) + 1
        i = max(i, bisect_left(dims, weights[r - 1]))
        while k - vals[comp[i]] < r:
            i += 1
        out += [i] * (min(k - vals[comp[i]], k) - r + 1)
    return tuple(out)


def residue_partition(n: int, m: int, rank: int,
                      weights: WeightProfile,
                      dual_weights: WeightProfile) -> tuple[tuple[ResidueDuality, ...], bool]:
    """Per residue s in 0..m-1, the dual-side weight set and the
    reflected primal-side set for the class shifted by the rank; each
    record carries whether the two sets partition {1..n}.

    Each profile is bucketed by r mod m in one pass, so the cost is
    O(K + m) for profiles of rank K."""
    dual_by = [set() for _ in range(m)]
    for r in range(1, dual_weights.rank + 1):
        dual_by[r % m].add(dual_weights.values[r - 1])
    primal_by = [set() for _ in range(m)]
    for r in range(1, weights.rank + 1):
        primal_by[r % m].add(n + 1 - weights.values[r - 1])
    full = frozenset(range(1, n + 1))
    records = []
    all_ok = True
    for s in range(m):
        dual_side = frozenset(dual_by[s])
        primal_side = frozenset(primal_by[(s + rank) % m])
        ok = dual_side.isdisjoint(primal_side) and dual_side | primal_side == full
        all_ok = all_ok and ok
        records.append(ResidueDuality(s, dual_side, primal_side, ok))
    return tuple(records), all_ok


def _monotone_gaps_ok(profile: WeightProfile, m: int) -> bool:
    vals = profile.values
    return all(vals[r - 1] < vals[r + m - 1]
               for r in range(1, profile.rank - m + 1))


def wei_duality_report(table: PolymatroidTable) -> WeiReport:
    """Compute the weights of the table and of its dual and check the
    m-fold duality: per-residue partitions of {1..n}, the pairwise
    non-collision of dual weights with reflected primal weights, and
    the strict d_r < d_{r+m} gaps on both sides.  Both profiles come
    off the table's nullity profiles; the dual table is not built.  The
    report carries the primal weights' witnesses (see weight_witnesses).
    """
    n = table.lattice.n
    m = table.m
    k = table.rank
    weights, dual_weights = _weights_and_dual_weights(table)
    witnesses = weight_witnesses(table)

    residues, partition_ok = residue_partition(n, m, k, weights, dual_weights)

    disjoint_ok = all(r.dual_side.isdisjoint(r.primal_side) for r in residues)
    gaps_ok = _monotone_gaps_ok(weights, m) and _monotone_gaps_ok(dual_weights, m)

    return WeiReport(n=n, m=m, rank=k, dual_rank=dual_weights.rank,
                     weights=weights, dual_weights=dual_weights,
                     witnesses=witnesses, residues=residues,
                     partition_ok=partition_ok, disjoint_ok=disjoint_ok,
                     monotone_gaps_ok=gaps_ok)
