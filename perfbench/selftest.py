"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs at tiny size, untraced and traced, and prints each
   metric that BENCHMARK.json names, with its unit, in a well-formed result.
2. A deliberately wrong expected constant is reported as a failure, and so
   is a library function that raises, unless the job expects that known
   defect.
3. Without the library sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(result: dict, metric_specs: list, label: str) -> None:
    require(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"{label}: attempted {result['attempted']}")
    require(isinstance(result["failed"], int), f"{label}: failed {result['failed']}")
    require(result["correct"] is True, f"{label}: outputs were not all correct")
    names = {m["name"] for m in metric_specs}
    require(set(result["metrics"]) == names,
            f"{label}: metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ names)}")
    for spec in metric_specs:
        got = result["metrics"][spec["name"]]
        require(got["unit"] == spec["unit"], f"{label}: {spec['name']} unit {got['unit']}")
        require(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                f"{label}: {spec['name']} value {got['value']}")


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0.5",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_metrics_printed() -> None:
    for wl in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl['name']} trace {trace}"
            proc = run_tiny(wl["name"], trace)
            require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            check_result(last_json(proc.stdout), SPEC[key], label)
            print(f"ok: {label}")


def sources_on_path() -> None:
    for path in (HERE, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def run_in_process(workload: str) -> tuple[dict, str]:
    """Run a tiny workload in this process, so a test can patch what it uses."""
    sources_on_path()
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--tiny"])
    return last_json(out.getvalue()), out.getvalue()


@contextlib.contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def test_wrong_constant_fails() -> None:
    sources_on_path()
    import workloads

    with patched(workloads, "THETA1", {**workloads.THETA1, "sg": "3/4"}):  # the true value is 4/5
        result, text = run_in_process("certify")
    require(result["correct"] is False, "a wrong theta1 expectation passed verification")
    require("theta1/sg: " in text and "expected 3/4" in text, "the theta1 mismatch is not reported")
    print("ok: wrong expected constant is reported as a failure")


def test_library_raise_fails() -> None:
    """Only the raw-map jobs may raise, and only their known defect."""
    sources_on_path()
    from kusuoka import procspace, spectral
    import workloads

    def defect(*args, **kwargs):
        raise ValueError(workloads.RAW_DEFECT)

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    cases = ((spectral, "theta1", defect, "certify"),   # the known message, from sg's jobs
             (spectral, "c_k", broken, "certify"),
             (procspace, "dilation_check", broken, "measure"))
    for module, name, fake, workload in cases:
        with patched(module, name, fake):
            result, _ = run_in_process(workload)
        require(result["correct"] is False,
                f"{module.__name__}.{name} raising {fake.__name__} left {workload} correct")
    result, _ = run_in_process("certify")
    require(result["correct"] is True and result["failed"] > 0,
            "the raw-map known defect is not both counted and allowed")
    print("ok: a raise other than the expected known defect is reported as a failure")


def test_without_sources_fails() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_tiny("certify", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "benchmark succeeded without the library sources")
    require(not proc.stdout.strip(), f"benchmark printed output without sources: {proc.stdout!r}")
    print("ok: no sources, no result")


def main() -> int:
    test_metrics_printed()
    test_wrong_constant_fails()
    test_library_raise_fails()
    test_without_sources_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
