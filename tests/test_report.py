"""`kusuoka report`: pinned output, and one kernel per run."""

import json
from pathlib import Path

import pytest

from kusuoka import cli, matsys
from test_spectral import _two_symbol_swap_system

GOLDEN = Path(__file__).parent / "golden"

# case -> report arguments; the swap system is read from swap.json in the working directory
REPORT_CASES = {
    "sg": ["--builtin", "sg"],
    "sg3": ["--builtin", "sg3"],
    "sg4": ["--builtin", "sg4"],
    "bernoulli": ["--builtin", "bernoulli:1/4,3/4", "--seed", "5"],
    "sg-float": ["--builtin", "sg", "--backend", "float"],
    # the only cases whose Schatten probes (64 of them, seeded) set the printed factors
    "swap-seed5": ["--in", "swap.json", "--backend", "float", "--seed", "5"],
    "swap-seed6": ["--in", "swap.json", "--backend", "float", "--seed", "6"],
}


@pytest.mark.parametrize("case", REPORT_CASES)
def test_report_stdout_is_pinned(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.json").write_text(json.dumps(matsys.system_to_json(_two_symbol_swap_system())))
    assert cli.main(["report", *REPORT_CASES[case]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"report-{case}.txt").read_bytes().decode()


def test_report_runs_one_kernel(capsys, monkeypatch):
    """One validation, one Psi formation, one kernel and one theta1 (a certified radius per part) per report."""
    from kusuoka import linalg, quadform

    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    load = cli._load_system

    def loaded(cfg):
        system = load(cfg)  # generate_system renormalizes, which forms Psi of the raw maps
        calls.clear()
        return system

    monkeypatch.setattr(cli, "_load_system", loaded)
    # kusuoka_measure validates on the kernel it keeps, through validate's own helper
    for owner, name in ((matsys, "_validate_kernel"), (quadform, "_psi"), (quadform._Quad, "__init__"),
                        (linalg, "certified_spectral_radius")):
        counted(owner, name)
    assert cli.main(["report", "--builtin", "sg3"]) == 0
    assert json.loads(capsys.readouterr().out)["theta1"] == "5/7"
    assert sorted(calls) == sorted(["_validate_kernel", "_psi", "__init__"] + ["certified_spectral_radius"] * 2)
