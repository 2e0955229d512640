"""Record the reference CSVs that the Monte Carlo workloads are checked against.

Run from the root of a source checkout, at the commit whose output is to be
the reference:

    python3 perfbench/record_references.py

For each Monte Carlo workload it runs the workload call once per program
seed at workers=nproc and writes every CSV, with provenance, to
``perfbench/references.json``.  The benchmark seed picks program seed
``seed % len(program_seeds)``.
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets the thread caps before numpy is imported

import numpy as np

PROGRAM_SEEDS = [int(s) for s in np.random.SeedSequence(20261017).generate_state(16, np.uint32)]


def main() -> int:
    logigof = run.import_program()
    import workloads

    stub = {name: {"program_seeds": PROGRAM_SEEDS, "csv": {}}
            for name in ("null-n50-moments", "null-n20-ml", "power-n20-table2")}
    catalogue = workloads.build(stub)
    workdir = os.path.join(run.RESULTS, "work")
    os.makedirs(workdir, exist_ok=True)
    refs = {"provenance": run.provenance(logigof, None, {"program_seeds": PROGRAM_SEEDS}, run.NPROC)}
    for name, entry in stub.items():
        workload = catalogue[name]
        for seed in PROGRAM_SEEDS:
            inputs = {"program_seed": seed}
            rec = run.timed_call(workload, workload.prepare(inputs, run.NPROC, workdir))
            if rec["error"]:
                print(f"{name} seed {seed}: {rec['error']}", file=sys.stderr)
                return 1
            entry["csv"][str(seed)] = rec["output"]
            print(f"{name} seed {seed}: {rec['seconds']:.2f} s", file=sys.stderr)
        refs[name] = entry
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
