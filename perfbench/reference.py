"""Regenerate ``reference.json``: the simulated outputs of one rep of
every workload at the default seed.

    python3 perfbench/reference.py

The paging references are Figures 7 and 8 as ``repro.exp.fig7.run`` and
``repro.exp.fig8.run`` produce them at the scaled configuration; the
missions reference is the committed missions' reports. Regenerate only
when a change is meant to alter simulated outputs, and say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from perfbench import layers, workloads  # noqa: E402


def main():
    probe = layers.Probe()
    probe.install()
    reference = {}
    try:
        for name, workload in sorted(workloads.WORKLOADS.items()):
            probe.reset()
            prepared = workload.prepare(workloads.DEFAULT_SEED)
            reference[name] = workload.rep(prepared, probe).outputs
    finally:
        probe.uninstall()
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
