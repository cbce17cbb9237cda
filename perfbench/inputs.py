"""Seeded inputs for the qmpoly benchmark.

Nothing here imports qmpoly: inputs are made by the benchmark alone, so
a change to the program cannot change them.  Each input class owns a
fixed pool of POOL_SIZE codes (or flags), entry `i` drawn from a random
stream named after the class and `i`; `record.py` stores the program's
output for every pool entry, and a workload seed picks the pool entry
of every request.  So any seed runs on inputs whose outputs are on
record.

A code is given by k generator matrices with k distinct pivot
coordinates (1 at its own pivot, 0 at the other pivots, random
elsewhere), so the generators are linearly independent by construction.
A flag's members are spans of leading runs of one generator list, so
they nest by construction.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

POOL_SIZE = 32

# q -> (p, e)
PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


@dataclass(frozen=True)
class InputClass:
    name: str
    q: int
    m: int
    n: int
    dims: tuple[int, ...]   # one entry: a code; several: a flag, outermost first


def _classes(*specs) -> dict[str, InputClass]:
    return {s[0]: InputClass(*s) for s in specs}


# report: cold `qmpoly weights` child processes.  A cold report costs
# about 0.2 s on GF(3)^3 and GF(4)^3 (band A), about 0.3 s on GF(5)^3
# and GF(2)^4 (band B) and 1-3 s on the middle classes.
REPORT = _classes(
    ("gf3-3x3", 3, 3, 3, (3,)),
    ("gf4-3x3", 4, 3, 3, (3,)),
    ("gf5-3x3", 5, 3, 3, (3,)),
    ("gf2-3x4", 2, 3, 4, (4,)),
    ("gf8-3x3", 8, 3, 3, (3,)),
    ("gf9-3x3", 9, 3, 3, (3,)),
    ("gf3-3x4", 3, 3, 4, (4,)),
)
REPORT_MIDDLE = ("gf8-3x3", "gf9-3x3", "gf3-3x4")

# tables: in-process table builds on the GF(2)^6 (2,825 members) and
# GF(3)^5 (2,664 members) lattices, about 0.25-0.35 s per code and
# 0.45-0.55 s per flag.
TABLES = _classes(
    ("gf2-2x6", 2, 2, 6, (2,)),
    ("gf3-2x5", 3, 2, 5, (2,)),
    ("gf2-2x6-flag", 2, 2, 6, (2, 1)),
    ("gf3-2x5-flag", 3, 2, 5, (2, 1)),
)

# suite: in-process `qmpoly verify` on small lattices, 4-55 ms each.
SUITE = _classes(*[
    (f"gf{q}-{m}x{n}{suffix}", q, m, n, dims)
    for (q, m, n, k) in [(2, 2, 4, 3), (2, 3, 3, 4), (2, 4, 3, 5),
                         (3, 2, 3, 3), (4, 2, 3, 3), (9, 2, 2, 3)]
    for suffix, dims in [("", (k,)), ("-flag2", (k, 1)), ("-flag3", (k, k - 1, 1))]
])

CLASSES = {"report": REPORT, "tables": TABLES, "suite": SUITE}

# One cycle of each workload's closed loop, as class names.  The shares
# put the median and the 90th percentile inside a dense band of costs,
# not on the edge between two, which keeps them steady across seeds.
# report: 88% band B, 8% band A and one middle request per cycle of 25,
# placed first and rotating over the three middle classes, so the
# median is the centre of band B.  tables: 80% codes, 20% flags.
CYCLES = {
    "report": (["middle"] + ["gf5-3x3", "gf2-3x4"] * 5 + ["gf3-3x3"]
               + ["gf5-3x3", "gf2-3x4"] * 5 + ["gf4-3x3"] + ["gf5-3x3", "gf2-3x4"]),
    "tables": ["gf2-2x6", "gf3-2x5", "gf2-2x6", "gf3-2x5", "gf2-2x6-flag",
               "gf2-2x6", "gf3-2x5", "gf2-2x6", "gf3-2x5", "gf3-2x5-flag"],
    "suite": list(SUITE),
}


def code_generators(q: int, m: int, n: int, k: int,
                    rng: random.Random) -> list[list[list[int]]]:
    """k linearly independent m-by-n matrices over GF(q)."""
    width = m * n
    pivots = rng.sample(range(width), k)
    gens = []
    for i in range(k):
        vec = [rng.randrange(q) for _ in range(width)]
        for j, piv in enumerate(pivots):
            vec[piv] = 1 if j == i else 0
        gens.append([vec[r * n:(r + 1) * n] for r in range(m)])
    return gens


def pool_entry(cls: InputClass, index: int) -> list[dict]:
    """JSON objects of one pool input, outermost code first."""
    rng = random.Random(f"qmpoly-bench/{cls.name}/{index}")
    gens = code_generators(cls.q, cls.m, cls.n, cls.dims[0], rng)
    p, e = PRIME_POWER[cls.q]
    return [{"p": p, "e": e, "q": cls.q, "m": cls.m, "n": cls.n,
             "generators": gens[:d], "label": f"{cls.name}-{index}-{j}"}
            for j, d in enumerate(cls.dims)]


def entry_text(cls: InputClass, index: int) -> str:
    return "".join(json.dumps(o) + "\n" for o in pool_entry(cls, index))


def input_id(cls_name: str, index: int, anticode: bool = False) -> str:
    return f"{cls_name}/{index}" + ("+anticode" if anticode else "")


def schedule(workload: str, seed: int, count: int) -> list[list]:
    """The first `count` requests of a workload, as [input id, class
    name, pool index, anticode flag].  The same seed gives the same
    list.  Every other report request adds --anticode."""
    rng = random.Random(f"qmpoly-bench/{workload}/{seed}")
    out = []
    for c in itertools.count():
        for name in CYCLES[workload]:
            if len(out) == count:
                return out
            if name == "middle":
                name = REPORT_MIDDLE[c % len(REPORT_MIDDLE)]
            anticode = workload == "report" and len(out) % 2 == 1
            index = rng.randrange(POOL_SIZE)
            out.append([input_id(name, index, anticode), name, index, anticode])


def warmup_entries() -> list[tuple[InputClass, int]]:
    """One suite input per lattice, outside the pool's index range."""
    seen = {}
    for cls in SUITE.values():
        seen.setdefault((cls.q, cls.n), cls)
    return [(cls, POOL_SIZE + 1000) for cls in seen.values()]
