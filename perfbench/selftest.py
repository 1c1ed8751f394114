"""Negative test: the benchmark's output check can fail.

Usage (from the root of a checkout; takes about half a minute)::

    python3 perfbench/selftest.py

Runs one block of each workload twice: against the committed references,
where every operation must pass, and against a perturbed copy (one
``pal_decoder`` capacity off by one; one flipped sink digest of a Fig. 4
grid point and of the long PAL run), where the workload the perturbation
belongs to must report failed operations.  Exits non-zero otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def failed_fraction(name: str, references: dict) -> float:
    """The failed share of one block of workload *name*."""
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](references, 1, workdir)
    try:
        ops = workload.block()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return sum(op.error is not None for op in ops) / len(ops)


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def perturbed(references: dict) -> dict:
    """A copy with one capacity off by one and two flipped sink digests."""
    references = copy.deepcopy(references)
    capacities = references["analyze"]["pal_decoder()"]["capacities"]
    buffer = sorted(capacities)[0]
    capacities[buffer] += 1
    for entry in (references["fig4-sweep"]["BoundedProcessors(2)"], references["pal-long"]):
        sink = sorted(entry["sinks"])[0]
        entry["sinks"][sink] = _flip(entry["sinks"][sink])
    return references


def main() -> int:
    with open(HERE / "references.json", encoding="utf-8") as handle:
        references = json.load(handle)
    wrong = perturbed(references)
    ok = True
    for name in workloads.WORKLOADS:
        clean = failed_fraction(name, references)
        broken = failed_fraction(name, wrong)
        passed = clean == 0 and broken > 0
        ok &= passed
        print(
            f"{name:12s} failed_frac: committed references {clean:.3f}, "
            f"perturbed {broken:.3f} -> {'ok' if passed else 'CHECK DID NOT BEHAVE'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
