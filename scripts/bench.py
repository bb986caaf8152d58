#!/usr/bin/env python3
"""Time each layer of kusuoka and write the timings to BENCH_<label>.json.

The layers, from the host up:

  calibration  a fixed pure-Python integer loop and a fixed 128x128 float64
               numpy product, which no change to kusuoka moves: dividing a
               row by them takes out most of the host's own drift between
               two files (backend "host")
  scalar     2x2 matrix product (Radical entries on exact, float64 on float)
  tables     level_nu(sg3, 5): every depth-5 cylinder mass, and
             level_nu(sg3, 3) (the shape of the benchmark's level-nu job)
  operation  generate_system(3), generate_system(6) and renormalize(RAW),
             the raw maps RAW below; harmonic_extension(build_graph(n)) for
             n = 6, 10, the Dirichlet solve of generate_system, and
             cell_restrictions(build_graph(6)) (exact only);
             correlation_gap(sg, 01, 2, 50), on a fresh measure;
             mixing_bound_check(sg, k, nmax=12) for k = 2, 3, and
             mixing_bound_check(sg3, k=1, nmax=8);
             kusuoka correlate --builtin sg --alpha 01 --beta 2 --nmax 50 and
             kusuoka gfun --builtin sg --depth 7, in process with their
             output discarded;
             nu and h_state of the length-8 word WORD below on sg, on one
             measure made before the row: the warm-up call builds its
             kernel, and the queries cache nothing else;
             sample_many(sg): 1000 words of length 16 and 10000 words of
             length 20, seed 0;
             dilation_check(sg, f, k=3) for a seeded depth-6 f with values
             in -3 .. 3, dilation_check(sg, f, k=1) for a seeded depth-3 f
             (the shape of the benchmark's k < depth dilation job),
             dilation_check(sg, f, k=2) for a seeded depth-1 f (the shape of
             its k >= depth dilation job),
             martingale_decompose(sg, f) for a seeded depth-4 f (the
             benchmark's martingale job), and
             q_decay_check(sg, 1, 6, 100 trials, seed 0);
             validate(sg), validate(sg3) and validate(sg4);
             kusuoka_measure(sg3) and its kernel: validation on the kernel
             the measure keeps, the fixed cost of every measure job;
             theta1(sg5), theta1(sg6), c_k(sg, 2) (n = 3, the fewest
             symbols), c_k(sg5, 1) (the median job class of the certify
             benchmark), c_k(sg5, 2), c_k(sg6, 1), c_k(sg6, 2), c_k(sg6, 3),
             theta2(sg5, 2) and theta2(sg6, 3); theta1 and c_k(., 1) of the
             renormalized raw maps RAW below
  cli        kusuoka mixing-bound --builtin sg4 --k 2 --nmax 6 and
             kusuoka report --builtin sg3 | sg4 | sg5, as subprocesses;
             theta2(sg6, 2) on the exact backend, alone in a fresh process

Each layer runs on both backends.  An in-process row first finds how many
back-to-back calls take at least MIN_REPEAT_S of CPU time (``inner``; one
untimed call first warms the call up, so a cold first call such as theta2's
first square root of a large radicand does not size the batch), then times
``--repeats`` runs of that many calls.  A record keeps the minimum over the runs of the wall time
(perf_counter) and of the process CPU time (process_time) per call, and
``inner``; a CLI row runs one child per repeat and keeps the child's CPU
time.  Every call but those of the nu and h_state rows builds a fresh
measure, so no level table or sampler node is reused between calls; c_k and theta2 build their kernel per call.
Square roots factor their radicands once per process, so an in-process row
is the warm time; the fresh-process theta2(sg6, 2) row is the cold time.  A
row whose call raises ValueError records the message instead of a time.
Seeds are fixed, so two files differ only in the code they timed.
``--only SUBSTRING`` times only the rows whose name contains it.

    python3 scripts/bench.py --label mine
    python3 scripts/bench.py --label base --src ../base/src   # another checkout
    python3 scripts/bench.py --label quick --only "theta1(sg6)" --repeats 1
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Integer raw maps whose renormalized weight is not diagonal (the second raw
# base of the certify benchmark); exact theta1 6/13*sqrt(2).
RAW = (((1, -3), (0, -1)), ((1, 3), (-2, 1)), ((0, -2), (1, 1)))

# The word of the nu and h_state rows: every symbol of sg, length 8.
WORD = (0, 1, 2, 2, 1, 0, 0, 2)

MIN_REPEAT_S = 0.2  # CPU seconds of one repeat of an in-process row

COLD_THETA2 = "from kusuoka import gasket, spectral; spectral.theta2(gasket.generate_system(6), 2)"


def _integer_loop() -> int:
    """The calibration loop: 10^4 steps of Python integer arithmetic."""
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) % 1_000_003
    return x


def _inner(fn) -> int:
    """The number of back-to-back calls of ``fn`` that take at least ``MIN_REPEAT_S`` of CPU time.

    Found by timing growing batches after one untimed call that warms ``fn`` up.
    """
    fn()
    inner = 1
    while True:
        c0 = time.process_time()
        for _ in range(inner):
            fn()
        spent = time.process_time() - c0
        if spent >= MIN_REPEAT_S:
            return inner
        inner = max(2 * inner, math.ceil(1.2 * inner * MIN_REPEAT_S / max(spent, 1e-6)))


def _timed(fn, repeats: int) -> dict:
    try:
        inner = _inner(fn)
    except ValueError as exc:
        return {"error": str(exc), "repeats": repeats, "inner": 1}
    wall, cpu = [], []
    for _ in range(repeats):
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(inner):
            fn()
        cpu.append((time.process_time() - c0) / inner)
        wall.append((time.perf_counter() - w0) / inner)
    return {"wall_s": min(wall), "cpu_s": min(cpu), "repeats": repeats, "inner": inner}


def _quiet(fn, *args):
    """fn(*args) with its standard output discarded."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        return fn(*args)


def _cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def _child_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def _timed_child(args: list[str], src: Path, repeats: int) -> dict:
    """A fresh ``python ARGS`` process per run, timed by the child's CPU time."""
    env = dict(os.environ, PYTHONPATH=str(src))
    wall, cpu = [], []
    for _ in range(repeats):
        w0, c0 = time.perf_counter(), _child_cpu()
        subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
        cpu.append(_child_cpu() - c0)
        wall.append(time.perf_counter() - w0)
    return {"wall_s": min(wall), "cpu_s": min(cpu), "repeats": repeats, "inner": 1}


def run(src: Path, repeats: int, only: str = "") -> list[dict]:
    sys.path.insert(0, str(src))
    import numpy as np

    from kusuoka import cli, gasket, matsys, measure, procspace, spectral, symbolic
    from kusuoka.linalg import EXACT, FLOAT

    records = []

    def record(layer: str, name: str, backend: str, timing: dict) -> None:
        records.append({"layer": layer, "name": name, "backend": backend, **timing})
        cost = f"{timing['cpu_s']:10.4f} s cpu" if "cpu_s" in timing else f"error: {timing['error']}"
        print(f"{layer:9s} {backend:5s} {cost}  {name}", flush=True)

    def add(layer: str, name: str, backend: str, fn) -> None:
        if only in name:
            record(layer, name, backend, _timed(fn, repeats))

    def add_child(name: str, backend: str, args: list[str]) -> None:
        if only in name:
            record("cli", name, backend, _timed_child(args, src, repeats))

    product = np.random.default_rng(0).standard_normal((128, 128))
    raw_maps = [[list(row) for row in a] for a in RAW]
    add("calibration", "pure-Python integer loop, 10^4 steps", "host", _integer_loop)
    add("calibration", "numpy 128x128 float64 product", "host", lambda: product @ product)
    for backend in (EXACT, FLOAT):
        sg = matsys.sg_system(backend)
        sg3 = gasket.generate_system(3, backend)
        sg5 = gasket.generate_system(5, backend)
        sg6 = gasket.generate_system(6, backend)
        a, b = sg.maps[0], sg.maps[1]
        sg4 = gasket.generate_system(4, backend)
        f1, f3, f4, f6 = (symbolic.cylinder_from_values(
            sg, depth, [int(x) for x in np.random.default_rng(0).integers(-3, 4, 3**depth)]) for depth in (1, 3, 4, 6))
        add("scalar", "2x2 matmul", backend, lambda: a @ b)
        for depth in (5, 3):
            add("tables", f"level_nu(sg3, {depth})", backend, lambda: measure.kusuoka_measure(sg3).level_nu(depth))
        for n in (3, 6):
            add("operation", f"generate_system({n})", backend, lambda: gasket.generate_system(n, backend))
        add("operation", "renormalize(RAW)", backend, lambda: spectral.renormalize(raw_maps, backend))
        add("operation", "correlation_gap(sg, (0, 1), (2,), 50)", backend,
            lambda: measure.correlation_gap(measure.kusuoka_measure(sg), (0, 1), (2,), 50))
        for k in (2, 3):
            add("operation", f"mixing_bound_check(sg, k={k}, nmax=12)", backend,
                lambda: measure.mixing_bound_check(measure.kusuoka_measure(sg), k, 12))
        add("operation", "mixing_bound_check(sg3, k=1, nmax=8)", backend,
            lambda: measure.mixing_bound_check(measure.kusuoka_measure(sg3), 1, 8))
        correlate = ["correlate", "--builtin", "sg", "--alpha", "01", "--beta", "2", "--nmax", "50",
                     "--backend", backend]
        add("operation", "kusuoka " + " ".join(correlate), backend, lambda: _quiet(cli.main, correlate))
        gfun = ["gfun", "--builtin", "sg", "--depth", "7", "--backend", backend]
        add("operation", "kusuoka " + " ".join(gfun), backend, lambda: _quiet(cli.main, gfun))
        sg_measure = measure.kusuoka_measure(sg)
        add("operation", "nu(sg, length-8 word)", backend, lambda: measure.nu(sg_measure, WORD))
        add("operation", "h_state(sg, length-8 word)", backend, lambda: measure.h_state(sg_measure, WORD))
        for length, count in ((16, 1000), (20, 10000)):
            add("operation", f"sample_many(sg, {length}, {count}, seed=0)", backend,
                lambda: measure.sample_many(measure.kusuoka_measure(sg), length, count, 0))
        add("operation", "dilation_check(sg, depth-6 f, k=3)", backend,
            lambda: procspace.dilation_check(measure.kusuoka_measure(sg), f6, 3))
        add("operation", "dilation_check(sg, depth-3 f, k=1)", backend,
            lambda: procspace.dilation_check(measure.kusuoka_measure(sg), f3, 1))
        add("operation", "dilation_check(sg, depth-1 f, k=2)", backend,
            lambda: procspace.dilation_check(measure.kusuoka_measure(sg), f1, 2))
        add("operation", "martingale_decompose(sg, depth-4 f)", backend,
            lambda: procspace.martingale_decompose(measure.kusuoka_measure(sg), f4))
        add("operation", "q_decay_check(sg, 1, 6, 100, seed=0)", backend,
            lambda: procspace.q_decay_check(sg, 1, 6, 100, 0))
        for name, system in (("sg", sg), ("sg3", sg3), ("sg4", sg4)):
            add("operation", f"validate({name})", backend, lambda: matsys.validate(system))
        # the kernel too: a measure of an older tree may build it on first use
        add("operation", "kusuoka_measure(sg3)", backend, lambda: measure.kusuoka_measure(sg3)._quad)
        for name, system in (("sg5", sg5), ("sg6", sg6)):
            add("operation", f"theta1({name})", backend, lambda: spectral.theta1(system))
        for name, system, k in (("sg", sg, 2), ("sg5", sg5, 1), ("sg5", sg5, 2), ("sg6", sg6, 1), ("sg6", sg6, 2),
                                ("sg6", sg6, 3)):
            add("operation", f"c_k({name}, {k})", backend, lambda: spectral.c_k(system, k))
        for name, system, k in (("sg5", sg5, 2), ("sg6", sg6, 3)):
            add("operation", f"theta2({name}, {k})", backend, lambda: spectral.theta2(system, k))
        raw = spectral.renormalize(raw_maps, backend)
        add("operation", "theta1(raw)", backend, lambda: spectral.theta1(raw))
        add("operation", "c_k(raw, 1)", backend, lambda: spectral.c_k(raw, 1))
        for argv in (["mixing-bound", "--builtin", "sg4", "--k", "2", "--nmax", "6"],
                     ["report", "--builtin", "sg3"], ["report", "--builtin", "sg4"],
                     ["report", "--builtin", "sg5"]):
            argv = argv + ["--backend", backend]
            add_child("kusuoka " + " ".join(argv), backend, ["-m", "kusuoka.cli", *argv])
    for n in (6, 10):
        graph = gasket.build_graph(n)
        add("operation", f"harmonic_extension(build_graph({n}))", EXACT, lambda: gasket.harmonic_extension(graph))
    graph = gasket.build_graph(6)
    basis = gasket.harmonic_basis()
    add("operation", "cell_restrictions(build_graph(6))", EXACT, lambda: gasket.cell_restrictions(graph, basis))
    add_child("theta2(sg6, 2), fresh process", EXACT, ["-c", COLD_THETA2])
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to time")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--only", default="", metavar="SUBSTRING",
                    help="time only the rows whose name contains SUBSTRING")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    records = run(args.src.resolve(), args.repeats, args.only)
    import numpy

    body = {
        "label": args.label,
        "context": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "processor": _cpu_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "records": records,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
