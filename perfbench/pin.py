"""Regenerate perfbench/pins.json: the input pools and output digests.

Runs every job that any seed can draw, with its in-job checks, and records
the SHA-256 of each canonical output.  Table CSVs must stay byte-identical
across performance changes, so run this only for a change that is meant to
alter outputs, and say so in its description:

    python3 perfbench/pin.py
"""

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from nilorbit import orbits as ob  # noqa: E402

POOL = {"p": 5, "count": 48, "seed": 2024, "max_dim": 4}


def oracle_strata(pool):
    """Per dimension 3 and 4, the pool members of the most common class count."""
    kinds = [(r.dim, ob.conjugacy_class_data(r).num_classes) for r in pool]
    strata = {}
    for dim in (3, 4):
        (_, t), _ = Counter(k for k in kinds if k[0] == dim).most_common(1)[0]
        strata["dim%d" % dim] = [i for i, k in enumerate(kinds) if k == (dim, t)]
    return strata


def main():
    pool = workloads.oracle_pool(POOL)
    strata = oracle_strata(pool)
    pins = {
        "oracle_tables": {
            "pool": POOL,
            "strata": strata,
            "inputs": {
                "zoo%02d" % i: workloads.ring_digest(pool[i])
                for idxs in strata.values()
                for i in idxs
            },
        },
        "convolution": {"rows": {}},
        "outputs": {},
    }
    for name, ring in workloads._criterion2_rings():
        table, _ = ob.orbit_method_table(ring)
        pins["convolution"]["rows"][name] = {
            "classes": len(table.rows),
            "linear": table.degrees.count(1),
        }
    for w in workloads.WORKLOADS:
        for job in workloads.build_all(w, pins):
            for key, text in job.run().items():
                pins["outputs"][key] = workloads.digest(text)
                print(key, pins["outputs"][key][:16], flush=True)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
