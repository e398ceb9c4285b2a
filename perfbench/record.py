"""Record the reference stdout digests of every catalog operation.

    python3 perfbench/record.py

Runs each operation of every workload catalog, and the traced run's probe,
through the same launcher as the benchmark, and writes the sha256
of each stdout to reference.json. An operation whose exit code or oracle
disagrees is reported and recorded all the same, unless it is not a known
defect, in which case nothing is written: the reference must describe a
program that passes its oracles.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.prepare()
    sections = {name: fn() for name, fn in workloads.CATALOGS.items()}
    sections["probe"] = list(run.PROBE)
    reference, bad = {}, []
    with run.Launcher(run.child_env(run.WORK / "pycache")) as launcher:
        for section, ops in sections.items():
            digests = reference[section] = {}
            for op in ops:
                r = launcher.run(["-c", run.CLI, *op.argv])
                digests[op.id] = workloads.sha256(r.out)
                problems = workloads.check(op, r.exit, r.out, r.err, digests)
                if problems:
                    print(f"{section}: {op.id}: {problems}", file=sys.stderr)
                    if not op.known_defect:
                        bad.append(op.id)
            print(f"{section}: {len(ops)} operations", file=sys.stderr)
    if bad:
        print(f"{len(bad)} operations fail their oracles; not written",
              file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
