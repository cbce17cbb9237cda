"""Command-line interface.

Input files are JSON lines.  Each line describes one code:

    {"p": 2, "e": 1, "q": 2, "m": 3, "n": 2,
     "generators": [[[row], ...], ...], "label": "optional"}

A file with several code lines is a flag, outermost code first.  A line
with "kind": "table" instead carries a rank table in lattice order:

    {"kind": "table", "p": 2, "e": 1, "n": 2, "m": 2, "values": [...]}

Exit codes: 0 all good, 1 a checked property is violated, 2 input
error, 3 a resource guard was exceeded, 4 an internal error: any other
exception, reported as one "internal error:" line on stderr, since a
bug must not read as a violated theorem.  Run as a command, the
process is ended by SIGPIPE when its output pipe closes early, so its
status lies outside 0-4.

A resource guard exits 3 with one "guard exceeded:" line naming the
resource, the size needed and the limit; the README lists the guards.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import signal
import sys
from typing import NamedTuple

from .delsarte import (DelsarteCode, anticode_weights, gabidulin,
                       random_code, support_space, to_polymatroid)
from .errors import GuardExceeded, check_guard
from .field import GF, _prime_divisors, check_order, field, is_prime
from .flags import Flag, flag_polymatroid, random_flag, verify_flag_duality
from .lattice import (DEFAULT_SUBSPACE_GUARD, LATTICE_MEMBERS, Subspace,
                      check_mask_bits, checked_lattice_size,
                      enumerate_subspaces)
from .polymatroid import (PolymatroidTable, check_axioms, nullity_profiles,
                          wei_duality_report)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4

SCHEMA = "qmpoly.report/1"
GUARD_ENV = "QMPOLY_MAX_LATTICE"
# m*n bounds every matrix built from a shape read from outside; the
# trace dual's kernel alone is an (mn - K) x mn matrix.  On a table line
# it bounds m even at n = 0, as m*max(n, 1): the Wei report has one
# record per residue s < m and costs O(m^2 n).
MAX_MATRIX_SPACE = 1 << 10
MATRIX_SPACE = "matrix space dimension m*n"


class InputError(ValueError):
    """Malformed input file or parameters; maps to exit code 2."""


# -- file format -------------------------------------------------------


def _factor_prime_power(q: int) -> tuple[int, int]:
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise InputError(f"field order {q} is not a prime power")
    p, e = primes[0], 1
    while p ** e < q:
        e += 1
    return p, e


def code_to_obj(code: DelsarteCode, label: str | None = None) -> dict:
    obj = {
        "p": code.field.p,
        "e": code.field.e,
        "q": code.field.q,
        "m": code.nrows,
        "n": code.ncols,
        "generators": [[list(row) for row in g.rows] for g in code.generators],
    }
    if label is not None:
        obj["label"] = label
    return obj


def dump_code_lines(codes, labels=None) -> str:
    labels = labels or [None] * len(codes)
    return "".join(json.dumps(code_to_obj(c, l)) + "\n"
                   for c, l in zip(codes, labels))


def _require(obj: dict, key: str, kind) -> object:
    if key not in obj:
        raise InputError(f"missing field '{key}'")
    val = obj[key]
    if kind is int and (not isinstance(val, int) or isinstance(val, bool)):
        raise InputError(f"field '{key}' must be an integer")
    if kind is list and not isinstance(val, list):
        raise InputError(f"field '{key}' must be a list")
    return val


def parse_field(obj: dict) -> GF:
    p = _require(obj, "p", int)
    e = _require(obj, "e", int)
    if e < 1:
        raise InputError(f"field 'e': {e} must be >= 1")
    check_order(p, e)
    if not is_prime(p):
        raise InputError(f"field 'p': {p} is not prime")
    f = field(p, e)
    if "q" in obj and _require(obj, "q", int) != f.q:
        raise InputError(f"field 'q': {obj['q']} does not equal p^e = {f.q}")
    return f


def parse_code_obj(obj: dict) -> tuple[DelsarteCode, str | None]:
    f = parse_field(obj)
    m = _require(obj, "m", int)
    n = _require(obj, "n", int)
    if m < 1 or n < 1:
        raise InputError("fields 'm' and 'n' must be >= 1")
    check_guard(MATRIX_SPACE, m * n, MAX_MATRIX_SPACE)
    gens_raw = _require(obj, "generators", list)
    if len(gens_raw) > m * n:
        raise InputError(
            f"field 'generators': {len(gens_raw)} generators exceed m*n = {m * n}")
    vectors = []
    for gi, g in enumerate(gens_raw):
        if not (isinstance(g, list) and len(g) == m
                and all(isinstance(r, list) and len(r) == n for r in g)):
            raise InputError(f"field 'generators[{gi}]': expected a {m}x{n} matrix")
        for row in g:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < f.q:
                    raise InputError(
                        f"field 'generators[{gi}]': entry {v!r} outside GF({f.q})")
        vectors.append([v for row in g for v in row])
    try:  # every entry is checked above: one construction, one reduction
        code = DelsarteCode.from_generators(f, m, n, vectors)
    except ValueError as exc:
        raise InputError(f"field 'generators': {exc}") from None
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("field 'label' must be a string")
    return code, label


class TableLine(NamedTuple):
    """A parsed table line; `_table_of` enumerates its lattice, as it
    does a code's or a flag's."""
    field: GF
    shape: tuple[int, int]  # (m, n), as a code's
    values: list[int]


def parse_table_obj(obj: dict, guard: int) -> TableLine:
    f = parse_field(obj)
    n = _require(obj, "n", int)
    m = _require(obj, "m", int)
    if n < 0:
        raise InputError("field 'n' must be >= 0")
    if m < 1:
        raise InputError("field 'm' must be >= 1")
    check_guard(MATRIX_SPACE, m * max(n, 1), MAX_MATRIX_SPACE)
    values = _require(obj, "values", list)
    size = checked_lattice_size(f, n, guard)
    if len(values) != size:
        raise InputError(
            f"field 'values': {len(values)} entries for a lattice of {size}")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise InputError("field 'values' must hold integers")
    return TableLine(f, (m, n), values)


def load_input(path: str, guard: int):
    """Returns ("code", code, label), ("flag", flag, labels) or
    ("table", table line, None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), 1)
                     if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text ({exc})") from None
    if not lines:
        raise InputError(f"{path} is empty")
    objs = []
    for i, ln in lines:
        try:
            objs.append(json.loads(ln))
        except (ValueError, RecursionError) as exc:  # huge ints, deep nesting
            raise InputError(f"{path}:{i}: invalid JSON ({exc})") from None
        if not isinstance(objs[-1], dict):
            raise InputError(f"{path}:{i}: expected a JSON object")
        if objs[-1].get("kind", "table") != "table":
            raise InputError(
                f"field 'kind': {objs[-1]['kind']!r} must be 'table' or absent")
    if any(o.get("kind") == "table" for o in objs):
        if len(objs) != 1:
            raise InputError("a table file holds exactly one line")
        return "table", parse_table_obj(objs[0], guard), None
    parsed = []
    for (i, _), o in zip(lines, objs):
        try:
            parsed.append(parse_code_obj(o))
        except InputError as exc:  # a flag file names the line
            raise InputError(f"{path}:{i}: {exc}" if len(objs) > 1 else str(exc)) from None
    if len(parsed) == 1:
        code, label = parsed[0]
        return "code", code, label
    try:
        flag = Flag([c for c, _ in parsed])
    except ValueError as exc:  # NestingError included
        raise InputError(str(exc)) from None
    return "flag", flag, [l for _, l in parsed]


# -- reports -----------------------------------------------------------


def _subspace_rows(lat, idx: int) -> list[list[int]]:
    return [list(r) for r in lat[idx].basis]


def _wei_obj(report) -> dict:
    return {
        "residues": [
            {
                "s": r.residue,
                "dual_side": sorted(r.dual_side),
                "primal_side": sorted(r.primal_side),
                "partition_ok": r.partition_ok,
            }
            for r in report.residues
        ],
        "partition_ok": report.partition_ok,
        "disjoint_ok": report.disjoint_ok,
        "monotone_gaps_ok": report.monotone_gaps_ok,
    }


def _axiom_obj(report, lat) -> dict:
    def check(c):
        out = {"ok": c.ok}
        if c.witness is not None:
            out["witness"] = [_subspace_rows(lat, i) for i in c.witness]
        if c.note:
            out["note"] = c.note
        return out

    return {
        "r1": check(report.r1),
        "r2": check(report.r2),
        "r3": check(report.r3),
        "r4": check(report.r4),
        "verdict": report.verdict.value,
    }


def build_report(kind: str, obj, label, table: PolymatroidTable,
                 want_anticode: bool) -> dict:
    lat = table.lattice
    profiles = nullity_profiles(table)
    axioms = check_axioms(table)
    wei = wei_duality_report(table)
    report = {
        "schema": SCHEMA,
        "input": {
            "kind": kind,
            "q": lat.field.q,
            "p": lat.field.p,
            "e": lat.field.e,
            "m": table.m,
            "n": lat.n,
            "label": label,
        },
        "K": table.rank,
        "weights": list(wei.weights.values),
        "dual_weights": list(wei.dual_weights.values),
    }
    if want_anticode:
        report["a_weights"] = list(anticode_weights(obj, table).values)
    report["h"] = list(profiles.nullity)
    report["hstar"] = list(profiles.conullity)
    report["axioms"] = _axiom_obj(axioms, lat)
    report["wei"] = _wei_obj(wei)
    report["witnesses"] = [_subspace_rows(lat, i) for i in wei.witnesses]
    return report


def _print_text_report(rep: dict, out) -> None:
    info = rep["input"]
    print(f"{info['kind']} over GF({info['q']}), shape {info['m']}x{info['n']}"
          + (f", label {info['label']}" if info.get("label") else ""), file=out)
    print(f"K = {rep['K']}", file=out)
    print("weights:      " + " ".join(map(str, rep["weights"])), file=out)
    print("dual weights: " + " ".join(map(str, rep["dual_weights"])), file=out)
    if "a_weights" in rep:
        print("anticode weights: " + " ".join(map(str, rep["a_weights"])), file=out)
    print("h:     " + " ".join(map(str, rep["h"])), file=out)
    print("hstar: " + " ".join(map(str, rep["hstar"])), file=out)
    print(f"axioms: {rep['axioms']['verdict']}"
          f" (r1={rep['axioms']['r1']['ok']} r2={rep['axioms']['r2']['ok']}"
          f" r3={rep['axioms']['r3']['ok']} r4={rep['axioms']['r4']['ok']})",
          file=out)
    for r in rep["wei"]["residues"]:
        print(f"wei s={r['s']}: dual {r['dual_side']} | primal {r['primal_side']}"
              f" partition_ok={r['partition_ok']}", file=out)
    print(f"wei: partition_ok={rep['wei']['partition_ok']}"
          f" disjoint_ok={rep['wei']['disjoint_ok']}"
          f" monotone_gaps_ok={rep['wei']['monotone_gaps_ok']}", file=out)


# -- commands ----------------------------------------------------------


def _table_of(kind: str, obj, guard: int, axioms: bool) -> PolymatroidTable:
    """The rank table of a parsed input, on its lattice.  When its axioms
    will be scanned, the point-mask guard is checked before enumeration,
    after the member guard, where the scan's first pair query would
    check it only after the lattice and the table are built."""
    f, n = obj.field, obj.shape[1]
    if axioms:
        check_mask_bits(f, n, checked_lattice_size(f, n, guard))
    lat = enumerate_subspaces(f, n, guard)
    if kind == "table":
        return PolymatroidTable(lat, obj.shape[0], obj.values)
    return (to_polymatroid if kind == "code" else flag_polymatroid)(obj, lat)


def cmd_weights(args) -> int:
    guard = _lattice_guard(args)
    kind, obj, label = load_input(args.input, guard)
    if args.anticode and kind != "code":
        raise InputError(f"--anticode applies to codes, not {kind}s")
    if kind == "code" and obj.dim == 0:
        raise InputError("empty code has no weights")
    if kind == "flag" and obj.rank == 0:
        raise InputError("rank-zero flag has no weights")
    table = _table_of(kind, obj, guard, True)
    if isinstance(label, list):
        label = ", ".join(l for l in label if l) or None
    try:
        rep = build_report(kind, obj, label, table, args.anticode)
    except ValueError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.format == "json":
        print(json.dumps(rep))
    else:
        _print_text_report(rep, sys.stdout)
    return EXIT_OK


def _verify_one(kind: str, obj, table, checks: list[str],
                failures: list[dict], infos: list[str]) -> None:
    lat = table.lattice
    if "axioms" in checks:
        rep = check_axioms(table)
        # a code's table must be a polymatroid; R3 only informs otherwise
        required = ("r1", "r2", "r4") + (("r3",) if kind == "code" else ())
        bad = next((name for name in required if not getattr(rep, name).ok), None)
        if bad is not None:
            failures.append({
                "check": "axioms",
                "axiom": bad,
                "verdict": rep.verdict.value,
                "witness": [_subspace_rows(lat, i)
                            for i in getattr(rep, bad).witness],
            })
        else:
            infos.append(f"axioms: {rep.verdict.value}")
            if not rep.r3.ok:
                infos.append(
                    "axioms: R3 fails (informational), witness indices "
                    f"{rep.r3.witness}")
    if "wei" in checks:
        try:
            wei = wei_duality_report(table)
        except ValueError as exc:
            failures.append({"check": "wei", "error": str(exc)})
        else:
            if wei.partition_ok and wei.disjoint_ok and wei.monotone_gaps_ok:
                infos.append("wei: partition, disjointness and gaps hold")
            else:
                failures.append({"check": "wei", **_wei_obj(wei)})
        # The dual table's nullity at X is rho(E) - rho(X_perp), the
        # conullity at X, so the two profiles agree; the dual table is
        # built from the values by its own route.
        prof = nullity_profiles(table)
        if nullity_profiles(table.dual()).nullity == prof.conullity:
            infos.append("wei: nullity/conullity profile identity holds")
        else:
            failures.append({"check": "wei",
                             "error": "profile identity violated",
                             "h": list(prof.nullity),
                             "hstar": list(prof.conullity)})
    if "flag-duality" in checks:
        flag = obj if kind == "flag" else (Flag((obj,)) if kind == "code" else None)
        if flag is None:
            infos.append("flag-duality: not applicable to tables")
        else:
            fd = verify_flag_duality(flag, table)
            if fd.ok:
                infos.append(
                    f"flag-duality: {fd.expected} identity holds (length {fd.length})")
            else:
                failures.append({
                    "check": "flag-duality",
                    "expected": fd.expected,
                    "first_mismatch": _subspace_rows(lat, fd.first_mismatch),
                })


def cmd_verify(args) -> int:
    guard = _lattice_guard(args)
    if args.trials < 0:
        raise InputError(f"--trials: {args.trials} must be >= 0")
    wanted = {"axioms": args.axioms, "wei": args.wei,
              "flag-duality": args.flag_duality}
    checks = [name for name, on in wanted.items() if on] or list(wanted)
    failures: list[dict] = []
    infos: list[str] = []

    axioms = "axioms" in checks
    if args.input is not None:
        kind, obj, _ = load_input(args.input, guard)
        _verify_one(kind, obj, _table_of(kind, obj, guard, axioms),
                    checks, failures, infos)
    else:
        rng = random.Random(args.seed)
        shapes = [(2, 2), (3, 2), (2, 3)]
        f = field(2)
        for t in range(args.trials):
            m, n = shapes[t % len(shapes)]
            k = rng.randrange(1, m * n)
            code = random_code(f, m, n, k, rng)
            _verify_one("code", code, _table_of("code", code, guard, axioms),
                        [c for c in checks if c != "flag-duality"],
                        failures, infos)
            if "flag-duality" in checks or "wei" in checks:
                flag = random_flag(f, m, n, 2 + t % 2, rng)
                _verify_one("flag", flag, _table_of("flag", flag, guard, axioms),
                            checks, failures, infos)
        infos.append(f"suite: {args.trials} trials, seed {args.seed}")

    out = {"schema": SCHEMA, "checks": checks,
           "ok": not failures, "failures": failures, "info": infos}
    if args.format == "json":
        print(json.dumps(out))
    else:
        for line in infos:
            print(line)
        for fail in failures:
            print("VIOLATION: " + json.dumps(fail))
        print("ok" if not failures else "FAILED")
    return EXIT_OK if not failures else EXIT_VIOLATION


def _parse_row(text: str, n: int, q: int) -> list[int]:
    try:
        row = [int(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"cannot parse basis row {text!r}") from None
    if len(row) != n:
        raise InputError(f"basis row {text!r} does not have {n} entries")
    if any(not 0 <= v < q for v in row):
        raise InputError(f"basis row {text!r} has entries outside GF({q})")
    return row


# The integer parameters of each `gen` kind; uniform-support reads the
# rest as basis rows.
GEN_PARAMS = {"gabidulin": ("q", "m", "n", "k"),
              "uniform-support": ("q", "m", "n"),
              "random": ("q", "m", "n", "K")}


def cmd_gen(args) -> int:
    params, names = args.params, GEN_PARAMS[args.kind]
    takes_rows = args.kind == "uniform-support"
    if not (len(params) > len(names) if takes_rows
            else len(params) == len(names)):
        raise InputError(
            f"{args.kind} takes {len(names)} parameters: {' '.join(names)}"
            + (" and at least one basis row" if takes_rows else ""))
    try:
        vals = [int(v) for v in params[:len(names)]]
    except ValueError:
        raise InputError(f"{args.kind} parameters must be integers") from None
    q, m, n = vals[:3]
    for name, val in (("m", m), ("n", n)):
        if val < 1:  # the file parser rejects m or n < 1
            raise InputError(f"parameter '{name}': {val} must be >= 1")
    check_guard(MATRIX_SPACE, m * n, MAX_MATRIX_SPACE)
    check_order(q, 1)
    f = field(*_factor_prime_power(q))
    label = f"{args.kind}-q{q}-m{m}-n{n}"

    if args.kind == "gabidulin":
        try:
            code = gabidulin(f, m, n, vals[3])
        except ValueError as exc:
            raise InputError(str(exc)) from None
        label += f"-k{vals[3]}"
    elif takes_rows:
        x = Subspace(f, n, [_parse_row(t, n, q) for t in params[3:]])
        code = support_space(x, m)
        label += f"-dim{x.dim}"
    else:
        if not 0 <= vals[3] <= m * n:
            raise InputError(f"dimension K={vals[3]} outside 0..{m * n}")
        code = random_code(f, m, n, vals[3], random.Random(args.seed))
        label += f"-K{vals[3]}-seed{args.seed}"

    text = dump_code_lines([code], [label])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- entry point -------------------------------------------------------


def _lattice_guard(args) -> int:
    """--max-lattice, else QMPOLY_MAX_LATTICE, else the library default."""
    if args.max_lattice is not None:
        if args.max_lattice < 0:
            raise InputError(f"--max-lattice: {args.max_lattice} must be >= 0")
        return args.max_lattice
    raw = os.environ.get(GUARD_ENV, str(DEFAULT_SUBSPACE_GUARD))
    try:
        guard = int(raw)
    except ValueError:
        raise InputError(f"{GUARD_ENV}={raw!r} is not an integer") from None
    if guard < 0:
        raise InputError(f"{GUARD_ENV}={raw!r} must be >= 0")
    return guard


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process, since building it
    took about a quarter of a small in-process `verify`; parsing reads
    it and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="qmpoly",
        description="Generalized weights and duality checks for rank-metric "
                    "codes, flags of codes, and subspace rank tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("weights", help="weight profile and duality report")
    pw.add_argument("input", help="code, flag or table file (JSON lines)")
    pw.add_argument("--anticode", action="store_true",
                    help="also report anticode-based weights")
    pw.set_defaults(fn=cmd_weights)

    pv = sub.add_parser("verify", help="check axioms and duality theorems")
    pv.add_argument("input", nargs="?", default=None,
                    help="input file; omit to run a random suite")
    pv.add_argument("--axioms", action="store_true")
    pv.add_argument("--wei", action="store_true")
    pv.add_argument("--flag-duality", action="store_true")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trials", type=int, default=20)
    pv.set_defaults(fn=cmd_verify)

    for p in (pw, pv):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--max-lattice", type=int, default=None,
                       help=f"subspace lattice guard (default: {GUARD_ENV} "
                            f"or {DEFAULT_SUBSPACE_GUARD})")

    pg = sub.add_parser("gen", help="generate a code file")
    pg.add_argument("kind", choices=list(GEN_PARAMS))
    pg.add_argument("params", nargs="*",
                    help="gabidulin: q m n k | uniform-support: q m n row... "
                         "| random: q m n K")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardExceeded as exc:
        knob = (f"raise it with --max-lattice or {GUARD_ENV}"
                if exc.resource == LATTICE_MEMBERS else "this limit is fixed")
        print(f"guard exceeded: {exc}; {knob}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:  # the repr keeps the message on one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:  # console-script entry point
    # Die quietly on a closed stdout pipe, as cat and seq do.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
