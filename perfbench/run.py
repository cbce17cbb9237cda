"""The qmpoly benchmark.

    python3 perfbench/run.py --workload {report,tables,suite} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  The seed makes the request list (perfbench/inputs/), every
output is checked against perfbench/reference/, and the last line of
standard output is one JSON object:

  --trace 0  end-to-end metrics of a timed closed loop (see README.md);
  --trace 1  per-layer metrics of a traced pass over a fixed request
             list, and the zero/non-zero self-check of the tracer.

The exit code is 0 only when every output matched.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

import inputs
import tracer
import worker

REQUEST_LIST = {"report": 1000, "tables": 1000, "suite": 5000}
SETUP_SAMPLES = 5        # fresh processes timed for setup_s
WORKER_TIMEOUT_S = 170

# Per-layer metrics the traced pass must leave at zero; every other
# metric must be non-zero, except those in MAY_BE_ZERO (see README.md).
ZERO = {
    "report": {"flags.table_s", "flags.duality_s"},
    "tables": {"lattice.pair_calls", "lattice.pair_computed",
               "lattice.pair_hit_ratio", "lattice.pair_s",
               "delsarte.code_weights_s", "flags.duality_s",
               "polymatroid.axioms_s", "polymatroid.axiom_pairs",
               "cli.startup_s", "cli.load_input_s", "cli.self_s"},
    "suite": {"delsarte.code_weights_s"},
}
MAY_BE_ZERO = {"suite": {"lattice.pair_computed"}}


def spawn_worker(workload: str, mode: str, request_file, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(worker.HERE / "worker.py"), workload, mode,
         str(request_file), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True, cwd=worker.ROOT,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, request_file) -> list[float]:
    """Set-up time of fresh processes: for report, an interpreter that
    only imports qmpoly.cli; otherwise a worker that only sets up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        if workload == "report":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import qmpoly.cli"],
                           env=worker.program_env(), cwd=worker.ROOT, check=True)
            samples.append(time.perf_counter() - t0)
        else:
            samples.append(spawn_worker(workload, "setup", request_file, 0)["setup_s"])
    return samples


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(args, request_file) -> tuple[dict, int, int]:
    samples = setup_samples(args.workload, request_file)
    res = spawn_worker(args.workload, "run", request_file, args.seconds)
    if res["setup_s"] is not None:
        samples.append(res["setup_s"])
    lat = res["latencies"]
    n = len(lat)
    print(f"workload {args.workload}, seed {args.seed}: {n} requests in "
          f"{res['wall_s']:.1f} s, closed loop, one client; "
          f"{n - math.ceil(0.9 * n)} samples beyond the 90th percentile")
    print(f"caches warm at timing start: {res['cache_state']}")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in samples)}")
    for cls in dict.fromkeys(res["classes"]):
        mine = [t for t, c in zip(lat, res["classes"]) if c == cls]
        print(f"  class {cls:16s} n={len(mine):4d} median {statistics.median(mine):.4f} s")
    print(f"fail_ratio {res['failures']}/{n}")
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (nearest_rank(lat, 0.9), "s"),
        "throughput_rps": (n / res["wall_s"], "1/s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return metrics, n, res["failures"]


def traced_run(args, request_file) -> tuple[dict, int, int]:
    res = spawn_worker(args.workload, "trace", request_file, args.seconds)
    raw = {}
    for one in res["raws"]:
        for key, val in one.items():
            raw[key] = raw.get(key, 0) + val
    values = tracer.metrics(raw)
    values["trace.overhead_ratio"] = res["traced_s"] / res["untraced_s"]
    failures = res["failures"]
    if not res["outputs_equal"]:
        print("self-check: traced and untraced outputs differ", file=sys.stderr)
        failures += 1
    zero = ZERO[args.workload]
    either = MAY_BE_ZERO.get(args.workload, set())
    for name, val in values.items():
        if name in either or (val == 0) == (name in zero):
            continue
        print(f"self-check: {name} = {val}, predicted "
              f"{'zero' if name in zero else 'non-zero'}", file=sys.stderr)
        failures += 1
    print(f"workload {args.workload}, seed {args.seed}: {res['requests']} requests "
          f"traced, then untraced ({res['traced_s']:.2f} s vs {res['untraced_s']:.2f} s)")
    for name, val in values.items():
        print(f"  {name:30s} {val}")
    metrics = {name: (val, unit(name)) for name, val in values.items()}
    return metrics, 2 * res["requests"], failures


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (worker.SRC / "qmpoly" / "__init__.py").is_file():
        print(f"error: no qmpoly sources under {worker.SRC}; run from the root "
              "of a qmpoly checkout", file=sys.stderr)
        return 2
    requests = inputs.schedule(args.workload, args.seed, REQUEST_LIST[args.workload])
    worker.write_inputs(args.workload, requests)
    request_file = worker.INPUTS / f"{args.workload}-seed{args.seed}.json"
    request_file.write_text(json.dumps(requests), encoding="utf-8")

    run = traced_run if args.trace else timed_run
    metrics, attempted, failed = run(args, request_file)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": u} for name, (val, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
