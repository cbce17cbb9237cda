"""Record the program's output for every pool input as the reference.

    python3 perfbench/record.py [workload ...]

Writes perfbench/reference/<workload>.json: a digest of the canonical
JSON of each output (report: the whole `qmpoly weights --format json`
report, with and without --anticode; suite: the whole `qmpoly verify
--format json` output; tables: table values, weights, dual weights, Wei
flags and nullity profiles).  Outputs are computed in process, which the
benchmark then checks against the cold command line.  Run it only when
the program's outputs are meant to change.
"""

import json
import sys

import inputs
import worker


def record(workload: str) -> dict[str, str]:
    qm = worker.import_program()
    pool = [(cls.name, index) for cls in inputs.CLASSES[workload].values()
            for index in range(inputs.POOL_SIZE)]
    worker.write_inputs(workload, [[None, name, index] for name, index in pool])
    lattices = {}
    outputs = {}
    for name, index in pool:
        path = worker.input_path(name, index)
        if workload == "tables":
            obj = worker.build_input(qm, path)
            key = (obj.field.q, obj.shape[1])
            if key not in lattices:
                lattices[key] = qm.lattice.enumerate_subspaces(obj.field, key[1])
            outputs[inputs.input_id(name, index)] = worker.tables_summary(
                worker.tables_request(qm, lattices, obj))
        elif workload == "report":
            for anticode in (False, True):
                outputs[inputs.input_id(name, index, anticode)] = worker.cli_summary(
                    worker.cli_request(qm, worker.report_argv(path, anticode)))
        else:
            outputs[inputs.input_id(name, index)] = worker.cli_summary(
                worker.cli_request(qm, ["verify", str(path), "--format", "json"]))
    return outputs


def main() -> int:
    for workload in sys.argv[1:] or sorted(inputs.CLASSES):
        outputs = record(workload)
        path = worker.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"pool_size": inputs.POOL_SIZE,
                                    "outputs": outputs}, indent=0, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"{workload}: {len(outputs)} outputs recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
