"""Write pinned.json: the answer of every benchmark task, from the current code.

    PYTHONPATH=src python3 benchmarks/pin.py

Run it only when a change alters CLI output on purpose, and say so in the
change: the benchmark counts any difference from pinned.json as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads


def main() -> int:
    u = workloads.loaded_udpp()
    workdir = workloads.ROOT / ".bench_work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pinned = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            state = workload.setup(u, workdir)
            pinned[name] = {
                str(task_input): workloads.answer(workload.task(u, state, task_input))
                for task_input in workload.pinned_inputs()
            }
        graph = u.exploration.explore(
            u.formats.parse_protocol((workdir / "count4.pp").read_text(encoding="utf-8")),
            u.formats.parse_configuration((workdir / "count4-5x5.cfg").read_text(encoding="utf-8")),
            u.exploration.ExplorationLimits(),
        )
        pinned["classify-count4"]["0"]["nodes"] = len(graph)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
