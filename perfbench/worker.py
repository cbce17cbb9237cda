"""One benchmark process: set-up, then a closed loop with one client.

    python3 perfbench/worker.py <workload> <mode> <request file>

`mode` is `setup` (set up, report the time, exit), `run` (set up, then
time requests until `--seconds` have passed and at least MIN_REQUESTS
are done) or `trace` (a fixed list of requests, traced, then again
untraced).  run.py starts a fresh worker for every set-up sample and
every run, so no lattice or pair cache outlives one of them.  The last
line of standard output is a JSON object for run.py.

Caches warm when timing starts:
  report  none: every request is a fresh interpreter;
  tables  lattices enumerated, pair caches empty and never used;
  suite   lattices enumerated and pair caches filled by a warm-up pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
OUT = HERE / "out"
REPORT_RAW = OUT / "trace-report-raw.jsonl"      # written by launch.py
REPORT_SPANS = OUT / "trace-report.tsv"

MIN_REQUESTS = 100      # ten requests beyond the 90th percentile
HARD_CAP_S = 150.0      # stop a run here whatever the floor says
TRACE_CYCLES = {"report": 1, "tables": 2, "suite": 4}

perf = time.perf_counter


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def input_path(cls_name: str, index: int) -> Path:
    return INPUTS / f"{cls_name}-{index}.json"


def warmup_path(cls_name: str) -> Path:
    return INPUTS / f"warmup-{cls_name}.json"


def write_inputs(workload: str, requests) -> None:
    """Write the input files `requests` name, and the suite warm-up."""
    INPUTS.mkdir(exist_ok=True)
    classes = inputs.CLASSES[workload]
    for cls_name, index in sorted({(r[1], r[2]) for r in requests}):
        input_path(cls_name, index).write_text(
            inputs.entry_text(classes[cls_name], index), encoding="utf-8")
    if workload == "suite":
        for cls, index in inputs.warmup_entries():
            warmup_path(cls.name).write_text(inputs.entry_text(cls, index),
                                             encoding="utf-8")


def program_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# -- the program, in process -----------------------------------------


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{
        name: importlib.import_module("qmpoly." + name)
        for name in ("field", "matrix", "lattice", "delsarte", "flags",
                     "polymatroid", "cli")})


def build_input(qm, path: Path):
    """The code or flag of an input file, built by the library."""
    with open(path, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh]
    f = qm.field.field(objs[0]["p"], objs[0]["e"])
    m, n = objs[0]["m"], objs[0]["n"]
    codes = [qm.delsarte.DelsarteCode.from_generators(
        f, m, n, [qm.matrix.Matrix(f, g, n) for g in obj["generators"]])
        for obj in objs]
    return codes[0] if len(codes) == 1 else qm.flags.Flag(codes)


def tables_request(qm, lattices, obj):
    # Functions are looked up at call time so tracer wrappers apply.
    lat = lattices[(obj.field.q, obj.shape[1])]
    if isinstance(obj, qm.flags.Flag):
        table = qm.flags.flag_polymatroid(obj, lat)
    else:
        table = qm.delsarte.to_polymatroid(obj, lat)
    pm = qm.polymatroid
    return (table, pm.generalized_weights(table), pm.wei_duality_report(table),
            pm.nullity_profiles(table))


def tables_summary(result) -> str:
    table, weights, wei, prof = result
    return digest({"values": list(table.values),
                   "weights": list(weights.values),
                   "dual_weights": list(wei.dual_weights.values),
                   "wei": [wei.partition_ok, wei.disjoint_ok, wei.monotone_gaps_ok],
                   "h": list(prof.nullity), "hstar": list(prof.conullity)})


def cli_request(qm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qm.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_summary(result) -> str:
    rc, out, err = result
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {err.strip()[-300:]}")
    return digest(json.loads(out))


def report_argv(path: Path, anticode: bool) -> list[str]:
    return ["weights", str(path), "--format", "json"] + (["--anticode"] if anticode else [])


class InProcess:
    """tables and suite: the program runs in this process."""

    def __init__(self, workload: str, tracer=None):
        self.workload = workload
        t0 = perf()
        self.qm = import_program()
        if tracer is not None:
            tracer.install()
        if workload == "tables":
            self.lattices = {
                (p ** e, n): self.qm.lattice.enumerate_subspaces(self.qm.field.field(p, e), n)
                for (p, e, n) in ((2, 1, 6), (3, 1, 5))}
        else:
            for cls, _ in inputs.warmup_entries():
                cli_summary(cli_request(
                    self.qm, ["verify", str(warmup_path(cls.name)), "--format", "json"]))
        self.setup_s = perf() - t0

    def prepare(self, req):
        path = input_path(req[1], req[2])
        if self.workload == "tables":
            return build_input(self.qm, path)
        return ["verify", str(path), "--format", "json"]

    def execute(self, prepared):
        if self.workload == "tables":
            return tables_request(self.qm, self.lattices, prepared)
        return cli_request(self.qm, prepared)

    def summarize(self, result) -> str:
        if self.workload == "tables":
            return tables_summary(result)
        return cli_summary(result)

    def cache_state(self) -> str:
        lats = getattr(self.qm.lattice, "_lattice_cache", {}).values()
        pairs = sum(len(getattr(lat, attr, ())) for lat in lats
                    for attr in ("_sum", "_meet", "_leq"))
        return (f"{len(lats)} lattices enumerated "
                f"({sum(len(lat) for lat in lats)} members), "
                f"{pairs} pair-cache entries")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Report:
    """report: every request is a cold `qmpoly weights` child process."""

    setup_s = None

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.env = program_env(**({
            "PERFBENCH_TRACE_RAW": str(REPORT_RAW),
            "PERFBENCH_TRACE_SPANS": str(REPORT_SPANS),
        } if traced else {}))

    def prepare(self, req):
        _, cls_name, index, anticode = req
        argv = report_argv(input_path(cls_name, index), anticode)
        if self.traced:
            return [sys.executable, str(HERE / "launch.py")] + argv
        return [sys.executable, "-m", "qmpoly.cli"] + argv

    def execute(self, cmd):
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env, cwd=ROOT, text=True)

    def summarize(self, proc) -> str:
        return cli_summary((proc.returncode, proc.stdout, proc.stderr))

    def cache_state(self) -> str:
        return "none: a fresh interpreter per request"

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_requests(bench, requests, reference, *, seconds=None, tracer=None):
    """Closed loop over `requests`; with `seconds`, a time box that also
    requires MIN_REQUESTS, otherwise the whole list once."""
    latencies, classes, digests = [], [], []
    failures = 0
    start = perf()
    i = 0
    while True:
        elapsed = perf() - start
        if seconds is None:
            if i == len(requests):
                break
        elif (elapsed >= seconds and i >= MIN_REQUESTS) or elapsed >= HARD_CAP_S:
            break
        req = requests[i % len(requests)]
        rid = req[0]
        got = None
        t0 = perf()
        try:
            prepared = bench.prepare(req)
            t0 = perf()
            if tracer is not None:
                tracer.begin_request(i)
            try:
                result = bench.execute(prepared)
            finally:
                dt = perf() - t0
                if tracer is not None:
                    tracer.end_request()
            got = bench.summarize(result)
            if got != reference.get(rid):
                raise RuntimeError(f"output {got} differs from reference "
                                   f"{reference.get(rid)}")
        except Exception:  # one failed request must not end the run
            dt = perf() - t0
            failures += 1
            if failures <= 5:
                print(f"request {i} ({rid}) failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
        latencies.append(dt)
        classes.append(req[1])
        digests.append(got)
        i += 1
    return {"latencies": latencies, "classes": classes, "digests": digests,
            "failures": failures, "wall_s": perf() - start}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(inputs.CLASSES))
    ap.add_argument("mode", choices=["setup", "run", "trace"])
    ap.add_argument("requests", help="request list written by run.py")
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    with open(args.requests, encoding="utf-8") as fh:
        requests = json.load(fh)
    with open(HERE / "reference" / f"{args.workload}.json", encoding="utf-8") as fh:
        reference = json.load(fh)["outputs"]
    in_process = args.workload != "report"

    if args.mode == "setup":
        print(json.dumps({"setup_s": InProcess(args.workload).setup_s}))
        return 0

    if args.mode == "run":
        bench = InProcess(args.workload) if in_process else Report()
        state = bench.cache_state()
        res = run_requests(bench, requests, reference, seconds=args.seconds)
        res.update(setup_s=bench.setup_s, cache_state=state,
                   peak_rss_mb=bench.peak_rss_mb())
        print(json.dumps(res))
        return 0

    # trace: the traced pass first, so that it meets the caches a timed
    # run meets; then the same requests untraced.
    from tracer import Tracer
    OUT.mkdir(exist_ok=True)
    cycle = len(inputs.CYCLES[args.workload])
    requests = requests[:TRACE_CYCLES[args.workload] * cycle]
    if in_process:
        tr = Tracer()
        bench = InProcess(args.workload, tracer=tr)
        traced = run_requests(bench, requests, reference, tracer=tr)
        tr.uninstall()
        untraced = run_requests(bench, requests, reference)
        tr.dump(OUT / f"trace-{args.workload}.tsv")
        raws = [tr.raw()]
    else:
        for path in (REPORT_RAW, REPORT_SPANS):
            path.unlink(missing_ok=True)
        traced = run_requests(Report(traced=True), requests, reference)
        untraced = run_requests(Report(), requests, reference)
        with open(REPORT_RAW, encoding="utf-8") as fh:
            raws = [json.loads(line) for line in fh]
    print(json.dumps({
        "raws": raws,
        "requests": len(requests),
        "failures": traced["failures"] + untraced["failures"],
        "outputs_equal": traced["digests"] == untraced["digests"],
        "traced_s": sum(traced["latencies"]),
        "untraced_s": sum(untraced["latencies"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
