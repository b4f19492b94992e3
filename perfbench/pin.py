"""Regenerate ``pins.json``: the digests every run op is checked against.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/pin.py

It writes both pins: the reference kernel's sha256 and the run digests.
Digests are computed serially (``jobs=1``) for every input variant.
``parallel-sweep`` is checked against the ``mc-sweep`` digests, so the
pool path is never used to produce its own reference.  Re-pinning is a
re-baseline: a change that alters a digest changes a result byte, and the
kernel pin changes the unit of every ``op_ref`` figure.
"""

import json
import os
import sys
import tempfile

import refkernel
import workloads


def main() -> int:
    pins = {"kernel_sha256": refkernel.source_sha256(),
            "variants": workloads.VARIANTS, "digests": {}}
    scratch = os.path.join(workloads.REPO_ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for name in ("gap-sweep", "mc-sweep"):
            pins["digests"][name] = {}
            for variant in range(workloads.VARIANTS):
                workload = workloads.make(name, variant, workdir)
                runs_dir = workload.prepare()
                pins["digests"][name][str(variant)] = \
                    workload.digests(workload.op(runs_dir))
                workload.finish(runs_dir)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
