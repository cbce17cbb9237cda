import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import qmpoly
from qmpoly import nullity_table, random_flag, uniform
from qmpoly.cli import (EXIT_GUARD, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK,
                        EXIT_VIOLATION, dump_code_lines, load_input, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_gabidulin(tmp_path, capsys):
    path = tmp_path / "gab.json"
    code, _, _ = run(capsys, "gen", "gabidulin", "2", "3", "2", "1",
                     "--out", str(path))
    assert code == EXIT_OK
    return path


def test_gen_roundtrip_is_byte_identical(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    original = path.read_text()
    kind, parsed, label = load_input(str(path), 10 ** 6)
    assert kind == "code" and parsed.dim == 3
    from qmpoly.cli import dump_code_lines
    assert dump_code_lines([parsed], [label]) == original


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(capsys, "gen", "random", "2", "2", "2", "2",
                         "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
    assert a.read_text() == b.read_text()
    c = tmp_path / "c.json"
    run(capsys, "gen", "random", "2", "2", "2", "2", "--seed", "8",
        "--out", str(c))
    assert a.read_text() != c.read_text()


def test_gen_uniform_support(tmp_path, capsys):
    path = tmp_path / "sup.json"
    code, _, _ = run(capsys, "gen", "uniform-support", "2", "5", "3",
                     "1,0,0", "--out", str(path))
    assert code == EXIT_OK
    _, parsed, _ = load_input(str(path), 10 ** 6)
    assert parsed.dim == 5 and parsed.shape == (5, 3)


def test_gen_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "gabidulin", "6", "3", "2", "1")
    assert code == EXIT_INPUT and "prime power" in err
    code, _, err = run(capsys, "gen", "random", "2", "2", "2", "9")
    assert code == EXIT_INPUT
    code, _, err = run(capsys, "gen", "gabidulin", "2", "2")
    assert code == EXIT_INPUT and "parameters" in err


@pytest.mark.parametrize("argv, expected", [
    (["gabidulin", "2", "3", "2", "1", "7"], "gabidulin takes 4 parameters: q m n k"),
    (["random", "2", "2", "2", "2", "9", "9"], "random takes 4 parameters: q m n K"),
    (["random", "2", "2"], "random takes 4 parameters: q m n K"),
    (["uniform-support", "2", "5", "3"],
     "uniform-support takes 3 parameters: q m n and at least one basis row"),
])
def test_gen_rejects_a_wrong_parameter_count(tmp_path, capsys, argv, expected):
    # Trailing parameters used to be dropped without a word, with exit 0.
    out = tmp_path / "code.json"
    code, stdout, err = run(capsys, "gen", *argv, "--out", str(out))
    assert code == EXIT_INPUT and stdout == "" and not out.exists()
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize("argv, name, value", [
    (["random", "2", "0", "5", "0"], "m", 0),
    (["random", "2", "3", "0", "0"], "n", 0),
    (["random", "2", "-1", "-1", "0"], "m", -1),
    (["uniform-support", "2", "0", "3", "1,0,0"], "m", 0),
])
def test_gen_rejects_shapes_the_parser_rejects(tmp_path, capsys, argv, name,
                                               value):
    # These used to exit 0 and write a code line that weights and verify
    # then refused with exit 2.
    out = tmp_path / "code.json"
    code, stdout, err = run(capsys, "gen", *argv, "--out", str(out))
    assert code == EXIT_INPUT and stdout == "" and not out.exists()
    assert err == f"error: parameter '{name}': {value} must be >= 1\n"


@pytest.mark.parametrize("target", ["missing/code.json", "."])
def test_gen_to_an_unwritable_path_is_an_input_error(tmp_path, capsys,
                                                      target):
    # A missing directory and a directory path used to end in an
    # internal error (exit 4) from the unhandled OSError.
    out = tmp_path / target
    code, stdout, err = run(capsys, "gen", "random", "2", "2", "2", "1",
                            "--out", str(out))
    assert code == EXIT_INPUT and stdout == ""
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and "internal error" not in err
    assert not (tmp_path / "missing").exists()


def test_weights_gabidulin(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    code, out, _ = run(capsys, "weights", str(path), "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["K"] == 3
    assert rep["weights"] == [2, 2, 2]
    assert rep["dual_weights"] == [2, 2, 2]
    assert rep["axioms"]["verdict"] == "POLYMATROID"
    assert rep["wei"]["partition_ok"]
    assert len(rep["witnesses"]) == 3


def test_weights_report_builds_the_dual_and_scans_weights_once(
        tmp_path, capsys, monkeypatch, on_table_built):
    # one table and the dual table that R4 reads; one weight scan, on the
    # table itself; the Wei report builds no table
    path = gen_gabidulin(tmp_path, capsys)
    tables, scans, in_wei = [], [], []
    scan = qmpoly.polymatroid.weight_witnesses
    wei = qmpoly.cli.wei_duality_report

    def counting_scan(table):
        scans.append(table.rank)
        return scan(table)

    def marked_wei(table):
        in_wei.append(True)
        try:
            return wei(table)
        finally:
            in_wei.pop()
    on_table_built(lambda m: tables.append(bool(in_wei)))
    monkeypatch.setattr(qmpoly.polymatroid, "weight_witnesses", counting_scan)
    # counted also if the CLI binds the scan by name and calls it again
    monkeypatch.setattr(qmpoly.cli, "weight_witnesses", counting_scan,
                        raising=False)
    monkeypatch.setattr(qmpoly.cli, "wei_duality_report", marked_wei)
    code, _, _ = run(capsys, "weights", str(path), "--format", "json")
    assert code == EXIT_OK
    assert tables == [False, False] and scans == [3]


@pytest.mark.parametrize("command", ["weights", "verify"])
def test_internal_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch,
                                              command):
    path = gen_gabidulin(tmp_path, capsys)

    def broken(table):
        raise RuntimeError("broken\nscan")
    monkeypatch.setattr(qmpoly.cli, "check_axioms", broken)
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError('broken\\nscan')\n"


def test_weights_report_is_deterministic(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    _, out1, _ = run(capsys, "weights", str(path), "--format", "json")
    _, out2, _ = run(capsys, "weights", str(path), "--format", "json")
    assert out1 == out2


def test_weights_anticode_flag(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    code, out, _ = run(capsys, "weights", str(path), "--format", "json",
                       "--anticode")
    assert code == EXIT_OK
    assert json.loads(out)["a_weights"] == [2, 2, 2]


def test_weights_empty_code(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(
        {"p": 2, "e": 1, "m": 2, "n": 2, "generators": []}) + "\n")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT
    assert "empty code has no weights" in err


def test_weights_flag_file(tmp_path, capsys):
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    run(capsys, "gen", "uniform-support", "2", "5", "3", "1,0,0", "0,1,0",
        "--out", str(c1))
    run(capsys, "gen", "uniform-support", "2", "5", "3", "1,0,0",
        "--out", str(c2))
    flag = tmp_path / "flag.json"
    flag.write_text(c1.read_text() + c2.read_text())
    code, out, _ = run(capsys, "weights", str(flag), "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["input"]["kind"] == "flag"
    assert rep["K"] == 5
    assert rep["weights"] == [1, 1, 1, 1, 1]
    assert rep["dual_weights"] == [1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
    assert rep["axioms"]["verdict"] == "DEMI_POLYMATROID"
    code, _, err = run(capsys, "weights", str(flag), "--anticode")
    assert code == EXIT_INPUT

    bad = tmp_path / "bad.json"
    bad.write_text(c2.read_text() + c1.read_text())  # wrong nesting order
    code, _, err = run(capsys, "weights", str(bad))
    assert code == EXIT_INPUT and "subcode" in err


def guard_line(err, resource, needed, limit):
    """The one stderr line of a guard exit, checked for its resource,
    size needed and limit."""
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith(f"guard exceeded: {resource}: {needed} needed, "
                          f"limit {limit}; ")
    return err


LATTICE_KNOBS = "raise it with --max-lattice or QMPOLY_MAX_LATTICE\n"


def test_weights_lattice_guard(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    code, _, err = run(capsys, "weights", str(path), "--max-lattice", "2")
    assert code == EXIT_GUARD
    assert "guard" in err
    assert guard_line(err, "subspace lattice members", 5, 2).endswith(LATTICE_KNOBS)

    # a member count too long for str() is reported by a power of two
    # below it
    path = tmp_path / "wide_table.json"
    path.write_text('{"kind": "table", "p": 2, "e": 1, "n": 300, "m": 1, '
                    '"values": []}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_GUARD
    assert guard_line(err, "subspace lattice members", "at least 2^22500",
                      10 ** 6).endswith(LATTICE_KNOBS)
    assert qmpoly.lattice_size(qmpoly.field(2), 300).bit_length() > 22500

    # A count past the guard by its lower bound q^(floor(n/2) ceil(n/2))
    # is reported by that bound, a true lower bound of the exact count,
    # which is never computed: it took seconds at q = 65521, n = 1024.
    for p, n, bits in [(2, 1024, 262144), (65521, 1024, 15 * 512 * 512)]:
        path = tmp_path / "long_code.json"
        path.write_text(json.dumps(
            {"p": p, "e": 1, "m": 1, "n": n, "generators": []}) + "\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        assert guard_line(err, "subspace lattice members", f"at least 2^{bits}",
                          10 ** 6).endswith(LATTICE_KNOBS)
        if p == 2:
            assert qmpoly.lattice_size(qmpoly.field(p), n).bit_length() > bits


def r3_failing_gf2_6_table():
    """rho = dim on GF(2)^6 plus 1 at the first 4-dim member (index
    2,110): each length-2 interval from a plane below it up to it fails
    R3.  The first one found has middles 715 < 716, so the ordered pair
    scan is bounded by 716 rows of 2,825 pairs, past the guard."""
    dims = qmpoly.enumerate_subspaces(qmpoly.field(2), 6).dims
    vals = list(dims)
    vals[dims.index(4)] += 1
    return {"kind": "table", "p": 2, "e": 1, "n": 6, "m": 1, "values": vals}


def test_fixed_guards_name_resource_and_limit(tmp_path, capsys):
    path = tmp_path / "code.json"
    cases = [
        ({"p": 65537, "e": 1, "m": 1, "n": 1, "generators": []},
         "field order", 65537, 65536),
        # the ordered pair scan for the first R3 witness
        (r3_failing_gf2_6_table(), "axiom pairs", 716 * 2825, 10 ** 6),
    ]
    for obj, resource, needed, limit in cases:
        path.write_text(json.dumps(obj) + "\n")
        code, out, err = run(capsys, "weights", str(path))
        assert code == EXIT_GUARD and out == ""
        assert guard_line(err, resource, needed, limit).endswith(
            "this limit is fixed\n")

    # the guard comes before the trial division of a large prime p or q
    # and before a p^e of 47 million bits
    big_p = tmp_path / "big_p.json"
    big_p.write_text('{"p": 10000000000000061, "e": 1, "m": 1, "n": 1, '
                     '"generators": []}\n')
    big_e = tmp_path / "big_e.json"
    big_e.write_text('{"p": 3, "e": 30000000, "m": 1, "n": 1, '
                     '"generators": []}\n')
    for argv, needed in [
            (["weights", str(big_p)], 10000000000000061),
            (["weights", str(big_e)], "at least 2^1048576"),
            (["gen", "random", "10000000000000061", "1", "1", "1"],
             10000000000000061)]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == EXIT_GUARD and out == ""
        assert guard_line(err, "field order", needed, 65536).endswith(
            "this limit is fixed\n")


def first_failing_pair(table):
    """The ordered pair scan with no guard: the first pair in lattice
    order that fails R3."""
    lat, vals = table.lattice, table.values
    return next((i, j) for i in range(len(lat)) for j in range(i + 1, len(lat))
                if vals[lat.sum_index(i, j)] + vals[lat.meet_index(i, j)]
                > vals[i] + vals[j])


def test_verify_axioms_on_2x6_flags_reports_the_first_r3_witness(
        tmp_path, capsys, gf2):
    # N^2 = 2825^2 axiom pairs is past the guard, but the ordered scan
    # stops by the smaller middle of a failing length-2 interval.
    path = tmp_path / "flag.json"
    rng = random.Random(2)
    witnesses = []
    for length in (2, 3, 2, 3, 2, 3):
        flag = random_flag(gf2, 2, 6, length, rng)
        path.write_text(dump_code_lines(flag.codes))
        code, out, err = run(capsys, "verify", str(path), "--axioms")
        assert code == EXIT_OK and err == ""
        if "axioms: POLYMATROID" in out:
            witnesses.append(None)
            continue
        witness = first_failing_pair(qmpoly.flag_polymatroid(flag))
        assert ("axioms: R3 fails (informational), witness indices "
                f"{witness}\n") in out
        witnesses.append(witness)
    assert witnesses == [None, (1, 2), (1, 106), (5, 112), (1, 17), (1, 4)]


def test_point_mask_guard_trips_before_the_lattice_is_built(
        tmp_path, capsys, monkeypatch):
    # GF(3)^6: N = 56,632 members and L = 364 points, past 2^22 bits.
    built = []
    init = qmpoly.SubspaceLattice.__init__

    def counting(self, f, n):
        built.append((f.q, n))
        init(self, f, n)
    monkeypatch.setattr(qmpoly.SubspaceLattice, "__init__", counting)
    code_line = {"p": 3, "e": 1, "m": 1, "n": 6,
                 "generators": [[[1, 0, 0, 0, 0, 0]]]}
    table_line = {"kind": "table", "p": 3, "e": 1, "n": 6, "m": 1,
                  "values": [0] * 56632}
    path = tmp_path / "in.json"
    for obj, argv in [(code_line, ["weights"]), (table_line, ["weights"]),
                      (code_line, ["verify", "--axioms"]),
                      (code_line, ["verify"])]:
        path.write_text(json.dumps(obj) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, str(path))
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD and out == ""
        assert guard_line(err, "lattice point-mask bits", 56632 * 364,
                          2 ** 22).endswith("this limit is fixed\n")
    # the member guard is checked, and reported, first
    path.write_text(json.dumps(code_line) + "\n")
    code, _, err = run(capsys, "weights", str(path), "--max-lattice", "1000")
    assert code == EXIT_GUARD
    guard_line(err, "subspace lattice members", 56632, 1000)
    assert built == []


def test_codes_past_the_pair_guard_get_exact_reports(tmp_path, capsys):
    # N^2 axiom pairs is past 10^6 on both lattices (2,825 and 1,120
    # members); the local scans need no pair scan for a polymatroid.
    path = tmp_path / "code.json"
    for obj, dual_weights, h in [
            ({"p": 2, "e": 1, "m": 1, "n": 6,
              "generators": [[[1, 0, 0, 0, 0, 0]]]},
             [1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5, 5]),
            ({"p": 5, "e": 1, "m": 1, "n": 4, "generators": [[[1, 0, 0, 0]]]},
             [1, 2, 3], [0, 1, 2, 3, 3])]:
        path.write_text(json.dumps(obj) + "\n")
        code, out, err = run(capsys, "weights", str(path), "--format", "json")
        assert code == EXIT_OK and err == ""
        rep = json.loads(out)
        assert rep["K"] == 1 and rep["weights"] == [1]
        assert rep["dual_weights"] == dual_weights
        assert rep["h"] == h and rep["hstar"] == [0] + [1] * obj["n"]
        assert rep["axioms"]["verdict"] == "POLYMATROID"
        assert rep["wei"]["partition_ok"]


def test_matrix_space_guard_stops_tiny_inputs(tmp_path, capsys):
    # Unguarded, the code line and `gen` allocate matrices of about
    # (m*n)^2 cells and run for minutes; the table lines' Wei reports
    # cost O(m^2 n) and print one record per residue s < m.
    path = tmp_path / "wide.json"
    path.write_text('{"p": 2, "e": 1, "m": 100000, "n": 1, "generators": []}\n')
    tall = tmp_path / "tall_table.json"
    tall.write_text('{"kind": "table", "p": 2, "e": 1, "n": 1, "m": 100000, '
                    '"values": [0, 1]}\n')
    flat = tmp_path / "flat_table.json"
    flat.write_text('{"kind": "table", "p": 2, "e": 1, "n": 0, "m": 1000000, '
                    '"values": [0]}\n')
    for argv, needed in [(["verify", str(path)], 100000),
                         (["gen", "random", "2", "100000", "1", "50000"], 100000),
                         (["weights", str(tall), "--format", "json"], 100000),
                         (["weights", str(flat), "--format", "json"], 1000000)]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == EXIT_GUARD and out == ""
        assert guard_line(err, "matrix space dimension m*n", needed,
                          1024).endswith("this limit is fixed\n")


def write_table(tmp_path, table, name="table.json"):
    path = tmp_path / name
    f = table.lattice.field
    path.write_text(json.dumps({
        "kind": "table", "p": f.p, "e": f.e, "n": table.lattice.n,
        "m": table.m, "values": list(table.values)}) + "\n")
    return path


def test_weights_table_with_negative_dual_rank(tmp_path, capsys):
    # rank 5 > m*n = 1, so the dual table has negative rank
    path = tmp_path / "neg.json"
    path.write_text('{"kind": "table", "p": 2, "e": 1, "n": 1, "m": 1, '
                    '"values": [0, 5]}\n')
    code, out, err = run(capsys, "weights", str(path), "--format", "json")
    assert code == EXIT_VIOLATION
    assert out == ""
    assert err == "violation: negative rank; table violates the axioms\n"

    # fails before the primal profile, with 10^7 entries, is listed
    path.write_text('{"kind": "table", "p": 2, "e": 1, "n": 1, "m": 1, '
                    '"values": [0, 10000000]}\n')
    start = time.perf_counter()
    code, out, err = run(capsys, "weights", str(path), "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == EXIT_VIOLATION
    assert out == ""
    assert err == "violation: negative rank; table violates the axioms\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_weights_into_closed_pipe_ends_quietly(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    src = os.path.dirname(os.path.dirname(qmpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qmpoly.cli", "weights", str(path),
             "--format", "json"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode not in (EXIT_OK, EXIT_VIOLATION, EXIT_INPUT,
                                   EXIT_GUARD, EXIT_INTERNAL)
    assert proc.stderr == b""


def test_verify_nullity_table_is_demi(tmp_path, capsys, gf2):
    nt = nullity_table(uniform(1, 2, 2, gf2))
    path = write_table(tmp_path, nt)
    code, out, _ = run(capsys, "verify", str(path), "--axioms",
                       "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["ok"]
    assert any("DEMI_POLYMATROID" in line for line in rep["info"])
    assert any("R3 fails" in line for line in rep["info"])


def test_verify_corrupted_table(tmp_path, capsys, gf2):
    table = uniform(1, 2, 2, gf2)
    values = list(table.values)
    values[-1] -= 1  # rank drops below a line's value
    from qmpoly import PolymatroidTable
    bad = PolymatroidTable(table.lattice, table.m, values)
    path = write_table(tmp_path, bad)
    code, out, _ = run(capsys, "verify", str(path), "--axioms",
                       "--format", "json")
    assert code == EXIT_VIOLATION
    rep = json.loads(out)
    fail = rep["failures"][0]
    assert fail["axiom"] == "r2"
    assert fail["witness"]  # canonical subspaces serialized


def test_verify_profile_identity_fails_on_a_wrong_dual_table(
        tmp_path, capsys, monkeypatch, gf2):
    # The check compares the table's conullity profile with the nullity
    # profile of its dual table; lowering one block minimum of the dual
    # breaks it at that dimension.
    from qmpoly import PolymatroidTable
    table = uniform(2, 4, 2, gf2)
    path = write_table(tmp_path, table)
    code, out, _ = run(capsys, "verify", str(path), "--wei")
    assert code == EXIT_OK and "profile identity holds" in out
    lat, dual = table.lattice, table.dual()
    vals = list(dual.values)
    vals[lat.dims.index(2)] = min(v for v, d in zip(vals, lat.dims) if d == 2) - 1
    wrong = PolymatroidTable(lat, dual.m, vals)
    monkeypatch.setattr(PolymatroidTable, "dual", lambda self: wrong)
    code, out, _ = run(capsys, "verify", str(path), "--wei", "--format", "json")
    assert code == EXIT_VIOLATION
    (fail,) = json.loads(out)["failures"]
    assert fail == {"check": "wei", "error": "profile identity violated",
                    "h": [0, 0, 0, 2, 4], "hstar": [0, 0, 0, 2, 4]}


def test_verify_code_file(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    code, _, _ = run(capsys, "verify", str(path), "--axioms", "--wei",
                     "--flag-duality")
    assert code == EXIT_OK


def test_verify_flag_duality_builds_each_table_once(tmp_path, capsys,
                                                    monkeypatch, gf2):
    # the flag's own table is built once and reused for the duality
    # check, so only the dual flag's s member tables are added
    calls = []
    dims = qmpoly.delsarte.subcode_dims

    def counting(code, lattice):
        calls.append(code.dim)
        return dims(code, lattice)
    monkeypatch.setattr(qmpoly.delsarte, "subcode_dims", counting)
    rng = random.Random(5)
    for s in (1, 2, 3):
        flag = random_flag(gf2, 2, 3, s, rng)
        path = tmp_path / f"flag{s}.json"
        path.write_text(dump_code_lines(flag.codes))
        calls.clear()
        code, out, _ = run(capsys, "verify", str(path), "--flag-duality")
        assert code == EXIT_OK and out.endswith("ok\n")
        assert len(calls) == 2 * s


@pytest.mark.parametrize("m, n, tables", [(3, 3, 2), (3, 2, 1), (2, 3, 2)])
def test_weights_anticode_reuses_the_report_table(tmp_path, capsys,
                                                  monkeypatch, on_table_built,
                                                  gf2, m, n, tables):
    # the code's table is built once for the report; --anticode adds
    # only the transpose's subcode dimensions where the shape needs them,
    # and no rank table: the report builds the code's table and the dual
    # that R4 reads
    calls, built = [], []
    dims = qmpoly.delsarte.subcode_dims

    def counting(code, lattice):
        calls.append(code.shape)
        return dims(code, lattice)
    monkeypatch.setattr(qmpoly.delsarte, "subcode_dims", counting)
    on_table_built(built.append)
    code = qmpoly.random_code(gf2, m, n, 4, random.Random(m * n))
    path = tmp_path / "code.json"
    path.write_text(dump_code_lines([code]))
    status, out, _ = run(capsys, "weights", str(path), "--format", "json",
                         "--anticode")
    assert status == EXIT_OK
    assert len(calls) == tables and len(built) == 2
    assert json.loads(out)["a_weights"] == list(
        qmpoly.anticode_weights(code).values)


def test_weights_of_a_high_rank_table_are_linear_in_the_rank(tmp_path, capsys):
    # rank K = 200000 in m = 512 residue classes: the Wei report buckets
    # each weight profile once, where a scan per class costs m*K steps
    path = tmp_path / "high_rank.json"
    k = 200000
    path.write_text('{"kind": "table", "p": 2, "e": 1, "n": 2, "m": 512, '
                    '"values": [%d, 0, 0, 0, %d]}\n' % (k, k))
    start = time.perf_counter()
    code, out, _ = run(capsys, "weights", str(path), "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["weights"]) == k


def test_verify_zero_code_at_matrix_space_limit(tmp_path, capsys):
    # the dual flag's member is the full 1024-dimensional code
    path = tmp_path / "zero.json"
    path.write_text('{"p": 2, "e": 1, "m": 256, "n": 4, "generators": []}\n')
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--flag-duality")
    assert time.perf_counter() - start < 10
    assert code == EXIT_OK
    assert "flag-duality: dual identity holds (length 1)" in out


def test_verify_random_suite(capsys):
    code, out, _ = run(capsys, "verify", "--wei", "--trials", "6",
                       "--seed", "3")
    assert code == EXIT_OK
    assert "suite: 6 trials" in out


def test_verify_table_values_length(tmp_path, capsys, gf2):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"kind": "table", "p": 2, "e": 1, "n": 2,
                                "m": 1, "values": [0, 1]}) + "\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == EXIT_INPUT and "values" in err


def test_input_error_messages_name_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 4, "e": 1, "m": 2, "n": 2, "generators": []}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "'p'" in err

    path.write_text('{"p": 2, "e": 1, "q": 3, "m": 2, "n": 2, "generators": []}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "'q'" in err

    path.write_text('{"p": 2, "e": 1, "m": 2, "n": 2, '
                    '"generators": [[[2, 0], [0, 0]]]}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "generators[0]" in err

    path.write_text("not json\n")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "JSON" in err

    path.write_text('{"p": 2, "e": 1, "m": 2, "n": 2, '
                    '"generators": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "dependent" in err

    five = json.dumps([[[1, 0], [0, 0]]])[1:-1]
    path.write_text('{"p": 2, "e": 1, "m": 2, "n": 2, "generators": [%s]}\n'
                    % ", ".join([five] * 5))
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "exceed" in err

    path.write_text('{"kind": "table", "p": 2, "e": 1, "n": 1, "m": 0, '
                    '"values": [0, 0]}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "'m'" in err

    path.write_text('{"kind": "table", "p": 2, "e": 1, "n": -1, "m": 1, '
                    '"values": [0]}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "'n'" in err

    path.write_text("[1,2,3]\n")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "JSON object" in err

    code, _, err = run(capsys, "verify", "--trials", "-5")
    assert code == EXIT_INPUT and "--trials" in err

    path.write_text('{"p": 2, "e": 1, "q": "2", "m": 2, "n": 2, "generators": []}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "field 'q' must be an integer" in err

    path.write_text('{"p": %s, "e": 1, "m": 1, "n": 1, "generators": []}\n'
                    % ("1" * 5000))
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "JSON" in err

    path.write_text('{"kind": "weird", "p": 2, "e": 1, "m": 2, "n": 2, '
                    '"generators": [[[1, 0], [0, 0]]]}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and "'kind'" in err

    path.write_bytes(b'\xff\xfe{"p": 2}\n')
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and str(path) in err and "UTF-8" in err

    path.write_text("[" * 100000 + "\n")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and f"{path}:1: invalid JSON" in err

    # e is checked before the trial division of a large prime p
    path.write_text('{"p": 10000000000000061, "e": 0, "m": 1, "n": 1, '
                    '"generators": []}\n')
    start = time.perf_counter()
    code, _, err = run(capsys, "weights", str(path))
    assert time.perf_counter() - start < 2
    assert code == EXIT_INPUT and "'e'" in err


def test_guard_env_override(tmp_path, capsys, monkeypatch):
    path = gen_gabidulin(tmp_path, capsys)
    monkeypatch.setenv("QMPOLY_MAX_LATTICE", "2")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_GUARD
    assert guard_line(err, "subspace lattice members", 5, 2).endswith(LATTICE_KNOBS)
    code, _, _ = run(capsys, "weights", str(path), "--max-lattice", "100")
    assert code == EXIT_OK


def test_negative_lattice_guard_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = gen_gabidulin(tmp_path, capsys)
    for command in ("weights", "verify"):
        code, out, err = run(capsys, command, str(path), "--max-lattice", "-1")
        assert code == EXIT_INPUT and out == ""
        assert err == "error: --max-lattice: -1 must be >= 0\n"
    monkeypatch.setenv("QMPOLY_MAX_LATTICE", "-1")
    code, out, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: QMPOLY_MAX_LATTICE='-1' must be >= 0\n"
    # the flag still wins over the variable
    code, _, _ = run(capsys, "weights", str(path), "--max-lattice", "100")
    assert code == EXIT_OK


def test_one_parser_per_process(tmp_path, capsys, monkeypatch):
    path = gen_gabidulin(tmp_path, capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    qmpoly.cli.build_parser.cache_clear()
    argv = ["verify", str(path), "--format", "json"]
    first = run(capsys, *argv)
    assert built.count("qmpoly") == 1
    # a call that argparse rejects leaves the parser as it was
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--trials", "many"])
    assert exc.value.code == EXIT_INPUT
    assert "--trials" in capsys.readouterr().err
    second = run(capsys, *argv)
    assert built.count("qmpoly") == 1
    assert first == second and first[0] == EXIT_OK


def test_weights_text_format(tmp_path, capsys):
    path = gen_gabidulin(tmp_path, capsys)
    code, out, _ = run(capsys, "weights", str(path))
    assert code == EXIT_OK
    assert "K = 3" in out
    assert "weights:      2 2 2" in out


def test_flag_file_errors_name_the_line_and_the_field(tmp_path, capsys):
    path = tmp_path / "flag.json"
    first = {"p": 2, "e": 1, "m": 2, "n": 2, "generators": [[[1, 0], [0, 0]]]}
    short = dict(first, generators=[[[1, 0]]])
    # a code line of a flag file is named by its line, blank lines counted
    path.write_text(json.dumps(first) + "\n\n" + json.dumps(short) + "\n")
    code, out, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {path}:3: field 'generators[0]': expected a 2x2 matrix\n"
    path.write_text(json.dumps(first) + "\n\n[1]\n")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT and err == f"error: {path}:3: expected a JSON object\n"
    # a one-line file keeps the bare message
    path.write_text(json.dumps(short) + "\n")
    code, _, err = run(capsys, "weights", str(path))
    assert code == EXIT_INPUT
    assert err == "error: field 'generators[0]': expected a 2x2 matrix\n"
    # members in different matrix spaces: the differing field is named
    for key, value, gens in [("p", 3, [[[1, 0], [0, 0]]]), ("e", 2, [[[1, 0], [0, 0]]]),
                             ("m", 3, [[[1, 0], [0, 0], [0, 0]]]),
                             ("n", 3, [[[1, 0, 0], [0, 0, 0]]])]:
        other = dict(first, generators=gens, **{key: value})
        path.write_text(json.dumps(first) + "\n" + json.dumps(other) + "\n")
        for command in ("weights", "verify"):
            code, _, err = run(capsys, command, str(path))
            assert code == EXIT_INPUT
            assert err == ("error: flag members live in different matrix spaces: "
                           f"{key} = {value} in member 1, {key} = {first[key]} in member 0\n")
