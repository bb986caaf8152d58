"""Regenerate perfbench/reference.json, the stored sampler reference.

For every (system, length, count, seed) the sampler jobs can draw, the file
holds a digest of the words the exact sampler returns.  Each entry is
cross-checked against the float sampler before it is stored, so the
reference does not rest on one backend alone.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kusuoka import gasket, matsys, measure  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    systems = {"sg": matsys.sg_system(), "sg3": gasket.generate_system(3)}
    ref = {}
    for name, length, count in workloads.REFERENCE_SPECS:
        exact = systems[name]
        flt = matsys.to_float_system(exact)
        for seed in workloads.SAMPLER_SEEDS:
            words = measure.sample_many(measure.kusuoka_measure(exact), length, count, seed)
            float_words = measure.sample_many(measure.kusuoka_measure(flt), length, count, seed)
            if words != float_words:
                print(f"exact and float samplers disagree on {name} {length}x{count} seed {seed}",
                      file=sys.stderr)
                return 1
            ref[workloads.reference_key(name, length, count, seed)] = workloads.word_digest(words)
        print(f"{name} {length}x{count}: {len(workloads.SAMPLER_SEEDS)} seeds", flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
