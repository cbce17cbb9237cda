"""Record the golden corpus of the qmpoly command.

    PYTHONPATH=src python tests/golden/record.py

Every case is one `qmpoly` command run in process through `cli.main`,
in a fresh directory holding copies of the input files it names.
`inputs/` holds those files; `expected.json` holds each case's argv,
environment, exit code, stdout and stderr.  A `gen` case writes the file
after `--out`, and its expected content is the input file of that name,
which later cases read.

Recording rewrites `inputs/` and `expected.json` from the program as it
stands, so record only from a tree whose outputs are known good, and
name every case whose output a change rewrites.  `tests/test_golden.py`
runs the corpus.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"
GUARD_ENV = "QMPOLY_MAX_LATTICE"


def table_line(p: int, e: int, n: int, m: int, values) -> str:
    return json.dumps({"kind": "table", "p": p, "e": e, "n": n, "m": m,
                       "values": list(values)}) + "\n"


def code_line(p: int, e: int, m: int, n: int, generators) -> str:
    return json.dumps({"p": p, "e": e, "m": m, "n": n,
                       "generators": generators}) + "\n"


def write_inputs(directory: Path) -> None:
    """The input files that no `gen` case writes."""
    from qmpoly import enumerate_subspaces, field, random_flag
    from qmpoly.cli import dump_code_lines

    files = {
        "w16.json": code_line(2, 16, 1, 2, [[[1, 5]]]),
        "p65521.json": code_line(65521, 1, 1, 2, [[[1, 5]]]),
        "p65521-2x1.json": code_line(65521, 1, 2, 1, [[[3], [65520]]]),
        "wide.json": code_line(2, 1, 100000, 1, []),
        "long.json": code_line(65521, 1, 1, 1024, []),
        "dep.json": code_line(2, 1, 1, 2, [[[1, 0]], [[1, 0]]]),
        "g36.json": code_line(3, 1, 1, 6, [[[1, 0, 0, 0, 0, 0]]]),
        "order.json": code_line(2, 17, 1, 1, []),
        "f4.json": dump_code_lines(
            random_flag(field(2, 2), 2, 3, 3, random.Random(3)).codes),
        "f26.json": dump_code_lines(
            random_flag(field(2), 2, 6, 3, random.Random(2)).codes),
        # The three GF(2)^1 tables without weights: the conullity never
        # reaches 1, the dual rank is negative, and again never 1.
        "nw-1-1.json": table_line(2, 1, 1, 1, [1, 1]),
        "nw-m5-0.json": table_line(2, 1, 1, 1, [-5, 0]),
        "nw-3-1.json": table_line(2, 1, 1, 1, [3, 1]),
        # Tables on GF(2)^2 (members 0, three points, E), each failing
        # an axiom: R1 (a point above m), R2 (E below a point), R3 and
        # R4 on the dual's R1 (two points at 0, one at 1, E at 2), and a
        # table whose rank is far above the top of R1: it has weights,
        # but its dual rank is negative.
        "r1fail.json": table_line(2, 1, 2, 1, [0, 2, 1, 1, 2]),
        "r2fail.json": table_line(2, 1, 2, 1, [0, 1, 1, 1, 0]),
        "r3fail-small.json": table_line(2, 1, 2, 1, [0, 0, 0, 1, 2]),
        "bigrank.json": table_line(2, 1, 2, 1, [0, 0, 0, 0, 10 ** 12]),
        # On GF(2)^3 (1, 7, 7 and 1 members by dimension): points at 0
        # and planes at 2 fail R3 and R4 on the dual's R2.
        "r4fail.json": table_line(2, 1, 3, 1, [0] + [0] * 7 + [2] * 7 + [2]),
        # On GF(3)^2 (members 0, four points, E), m = 2: a negative value,
        # and the uniform table of rank 1.
        "negative.json": table_line(3, 1, 2, 2, [0, -3, 1, 2, 0, 4]),
        "uniform.json": table_line(3, 1, 2, 2, [0, 2, 2, 2, 2, 2]),
        "matrix-guard.json": table_line(2, 1, 0, 2000, [0]),
    }
    dims = enumerate_subspaces(field(2), 6).dims
    vals = list(dims)
    vals[dims.index(4)] += 1  # the intervals from planes up to it fail R3
    files["r3fail.json"] = table_line(2, 1, 6, 1, vals)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "latin1.json").write_bytes(b"\377\376{}\n")


def gen(*args: str) -> list[str]:
    return ["gen", *args]


# (name, argv, environment); the CI workflow's commands first, in order.
CASES: list[tuple[str, list[str], dict[str, str]]] = [
    ("ci-gen-gabidulin-2-3-2-1", gen("gabidulin", "2", "3", "2", "1", "--out", "g.json"), {}),
    ("ci-gen-gabidulin-3-10-10-5", gen("gabidulin", "3", "10", "10", "5", "--out", "g310.json"), {}),
    ("ci-gen-gabidulin-9-5-5-2", gen("gabidulin", "9", "5", "5", "2", "--out", "g95.json"), {}),
    ("ci-verify-w16-wei", ["verify", "w16.json", "--wei"], {}),
    ("ci-weights-g", ["weights", "g.json"], {}),
    ("ci-gen-gabidulin-4-3-2-1", gen("gabidulin", "4", "3", "2", "1", "--out", "gq-4-3-2-1.json"), {}),
    ("ci-weights-gq-4-3-2-1-anticode", ["weights", "gq-4-3-2-1.json", "--anticode"], {}),
    ("ci-gen-gabidulin-8-3-3-2", gen("gabidulin", "8", "3", "3", "2", "--out", "gq-8-3-3-2.json"), {}),
    ("ci-weights-gq-8-3-3-2-anticode", ["weights", "gq-8-3-3-2.json", "--anticode"], {}),
    ("ci-gen-gabidulin-9-2-2-1", gen("gabidulin", "9", "2", "2", "1", "--out", "gq-9-2-2-1.json"), {}),
    ("ci-weights-gq-9-2-2-1-anticode", ["weights", "gq-9-2-2-1.json", "--anticode"], {}),
    ("ci-verify-trials-5", ["verify", "--trials", "5"], {}),
    ("ci-gen-random-2-3-5-4", gen("random", "2", "3", "5", "4", "--seed", "1", "--out", "r5.json"), {}),
    ("ci-weights-r5", ["weights", "r5.json"], {}),
    ("ci-gen-random-4-3-3-4", gen("random", "4", "3", "3", "4", "--seed", "2", "--out", "sq.json"), {}),
    ("ci-weights-sq-anticode", ["weights", "sq.json", "--anticode"], {}),
    ("ci-gen-random-3-2-3-3", gen("random", "3", "2", "3", "3", "--out", "w23.json"), {}),
    ("ci-weights-w23-anticode", ["weights", "w23.json", "--anticode"], {}),
    ("ci-weights-latin1", ["weights", "latin1.json"], {}),
    ("ci-verify-wide", ["verify", "wide.json"], {}),
    ("ci-verify-long", ["verify", "long.json"], {}),
    ("ci-verify-f4", ["verify", "f4.json"], {}),
    ("ci-weights-dep", ["weights", "dep.json"], {}),
    ("ci-weights-nw-1-1", ["weights", "nw-1-1.json"], {}),
    ("ci-weights-nw-m5-0", ["weights", "nw-m5-0.json"], {}),
    ("ci-weights-nw-3-1", ["weights", "nw-3-1.json"], {}),
    ("ci-gen-random-2-3-6-6", gen("random", "2", "3", "6", "6", "--seed", "1", "--out", "r36.json"), {}),
    ("ci-weights-r36", ["weights", "r36.json"], {}),
    ("ci-gen-random-2-3-7-7", gen("random", "2", "3", "7", "7", "--seed", "1", "--out", "r37.json"), {}),
    ("ci-weights-r37", ["weights", "r37.json"], {}),
    ("ci-gen-random-4-2-5-5", gen("random", "4", "2", "5", "5", "--seed", "1", "--out", "r25q4.json"), {}),
    ("ci-weights-r25q4", ["weights", "r25q4.json"], {}),
    ("ci-verify-f26-axioms", ["verify", "f26.json", "--axioms"], {}),
    ("ci-weights-r3fail", ["weights", "r3fail.json"], {}),
    ("ci-weights-g36", ["weights", "g36.json"], {}),
    # The seeded random suite and the gen line CI runs unseeded.
    ("verify-trials-20-seed-0-json", ["verify", "--trials", "20", "--seed", "0", "--format", "json"], {}),
    ("gen-random-3-2-3-3-seed-7", gen("random", "3", "2", "3", "3", "--seed", "7", "--out", "w23s7.json"), {}),
    ("gen-random-2-4-2-3-seed-3", gen("random", "2", "4", "2", "3", "--seed", "3", "--out", "t42.json"), {}),
    ("gen-random-5-2-3-2-seed-4", gen("random", "5", "2", "3", "2", "--seed", "4", "--out", "w23q5.json"), {}),
    ("gen-gabidulin-to-stdout", gen("gabidulin", "4", "2", "2", "1"), {}),
]

# JSON reports with and without --anticode on tall, square and wide codes.
for _name in ["g", "t42", "gq-4-3-2-1", "gq-8-3-3-2", "gq-9-2-2-1", "sq",
              "w23", "w23s7", "w23q5", "r5"]:
    CASES.append((f"weights-json-{_name}",
                  ["weights", f"{_name}.json", "--format", "json"], {}))
    CASES.append((f"weights-json-anticode-{_name}",
                  ["weights", f"{_name}.json", "--format", "json", "--anticode"], {}))

# Tables that fail the axioms or have no weights, as reports and checks.
for _name in ["r1fail", "r2fail", "r3fail-small", "r4fail", "bigrank",
              "negative", "uniform", "nw-1-1", "nw-m5-0", "nw-3-1"]:
    CASES.append((f"weights-json-{_name}",
                  ["weights", f"{_name}.json", "--format", "json"], {}))
    CASES.append((f"verify-json-{_name}",
                  ["verify", f"{_name}.json", "--format", "json"], {}))
for _name in ["r1fail", "r4fail", "nw-m5-0"]:
    CASES.append((f"weights-text-{_name}", ["weights", f"{_name}.json"], {}))
    CASES.append((f"verify-text-{_name}", ["verify", f"{_name}.json"], {}))

CASES += [
    # The 2x6 GF(2) flag, the 1x2 codes over GF(2^16) and GF(65521)
    # (verify --wei on the GF(2^16) one is a CI case; a report on either
    # stops at the point-mask guard), and a 2x1 code over GF(65521).
    ("weights-json-f26", ["weights", "f26.json", "--format", "json"], {}),
    # JSON reports on GF(2)^6 and GF(2)^7 codes, whose witness rows
    # come off the largest lattices the corpus builds.
    ("weights-json-r36", ["weights", "r36.json", "--format", "json"], {}),
    ("weights-json-r37", ["weights", "r37.json", "--format", "json"], {}),
    # A report and a check on a GF(3)^4 code, whose witness rows and
    # complements come off an odd-characteristic lattice past n = 3.
    ("gen-random-3-2-4-3-seed-5", gen("random", "3", "2", "4", "3", "--seed", "5", "--out", "r43q3.json"), {}),
    ("weights-json-r43q3", ["weights", "r43q3.json", "--format", "json"], {}),
    ("verify-json-r43q3", ["verify", "r43q3.json", "--format", "json"], {}),
    ("verify-json-f26", ["verify", "f26.json", "--format", "json"], {}),
    ("weights-w16", ["weights", "w16.json"], {}),
    ("weights-p65521", ["weights", "p65521.json"], {}),
    ("verify-p65521-axioms", ["verify", "p65521.json", "--axioms"], {}),
    ("weights-json-p65521-2x1", ["weights", "p65521-2x1.json", "--format", "json"], {}),
    ("verify-json-p65521-2x1", ["verify", "p65521-2x1.json", "--format", "json"], {}),
    # Guard messages.
    ("guard-max-lattice", ["weights", "r5.json", "--max-lattice", "10"], {}),
    ("guard-env", ["verify", "r5.json"], {GUARD_ENV: "10"}),
    ("guard-max-lattice-negative", ["weights", "r5.json", "--max-lattice", "-1"], {}),
    ("guard-env-not-an-integer", ["weights", "r5.json"], {GUARD_ENV: "ten"}),
    ("guard-env-negative", ["weights", "r5.json"], {GUARD_ENV: "-3"}),
    ("guard-field-order", ["weights", "order.json"], {}),
    ("guard-field-order-gen", gen("random", "131072", "1", "1", "1"), {}),
    ("guard-matrix-space-table", ["weights", "matrix-guard.json"], {}),
    ("guard-matrix-space-gen", gen("random", "2", "64", "64", "1"), {}),
]


def out_file(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_case(argv: list[str], env: dict[str, str], workdir: Path,
             inputs: Path = INPUTS) -> dict:
    """Run one command in `workdir`, with copies of the input files it
    names, and return its exit code, stdout, stderr and the text of the
    file it writes, if any."""
    from qmpoly.cli import main

    written = out_file(argv)
    for arg in argv:
        if arg != written and (inputs / arg).is_file():
            shutil.copy(inputs / arg, workdir / arg)
    saved_env = os.environ.get(GUARD_ENV)
    saved_cwd = os.getcwd()
    os.environ.pop(GUARD_ENV, None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(saved_cwd)
        os.environ.pop(GUARD_ENV, None)
        if saved_env is not None:
            os.environ[GUARD_ENV] = saved_env
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if written is not None:
        result["written"] = (workdir / written).read_text(encoding="utf-8")
    return result


def main() -> None:
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir()
    write_inputs(INPUTS)
    records = []
    for name, argv, env in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(argv, env, Path(tmp))
        written = result.pop("written", None)
        if written is not None:  # later cases read it
            (INPUTS / out_file(argv)).write_text(written, encoding="utf-8")
        records.append({"name": name, "argv": argv, "env": env, **result})
        print(f"{result['exit']} {name}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
