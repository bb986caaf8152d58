"""The layer-timing harness scripts/bench.py, run on one row."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_only_times_the_named_row(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--label", "t", "--only", "theta1(sg6)",
         "--repeats", "1", "--out-dir", str(tmp_path)],
        check=True, stdout=subprocess.DEVNULL,
    )
    records = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))["records"]
    assert {(r["name"], r["backend"]) for r in records} == {("theta1(sg6)", "exact"), ("theta1(sg6)", "float")}
    for r in records:
        assert r["cpu_s"] > 0 and r["repeats"] == 1
        assert r["inner"] >= 1 and r["inner"] * r["cpu_s"] >= 0.1


def test_bench_records_the_host_calibration_rows(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--label", "t", "--only", "integer loop",
         "--repeats", "1", "--out-dir", str(tmp_path)],
        check=True, stdout=subprocess.DEVNULL,
    )
    records = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))["records"]
    assert [(r["layer"], r["backend"]) for r in records] == [("calibration", "host")]
    assert records[0]["cpu_s"] > 0
