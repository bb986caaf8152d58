"""End-to-end runs of the command-line front end, in process."""

import argparse
import json
from pathlib import Path

import pytest

from kusuoka import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "unknown subcommand" in err
    code, _, _ = run(capsys)
    assert code == 64


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "theta1", "--help")
    assert code == 0
    assert "--builtin" in out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ("top",) + cli.SUBCOMMANDS)
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, *([] if command == "top" else [command]), "--help")
    assert code == 0
    assert out == (GOLDEN / f"help-{command}.txt").read_text(encoding="utf-8")


def test_parser_adds_only_the_named_arguments():
    sub = next(a for a in cli._build_parser("ck")._actions if a.dest == "command")
    assert tuple(sub.choices) == cli.SUBCOMMANDS
    flags = {name: [o for a in p._actions for o in a.option_strings] for name, p in sub.choices.items()}
    assert flags.pop("ck") == ["-h", "--help", "--builtin", "--in", "--backend", "--out", "--seed", "--budget-k", "--k"]
    assert not any(flags.values())


def test_a_run_builds_only_its_subcommand_parser(capsys, monkeypatch):
    """A subcommand run builds one parser, prog "kusuoka <command>"; the whole tree is left unbuilt."""
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))
    assert run(capsys, "theta1", "--builtin", "sg")[:2] == (0, "4/5 (exact)\n")
    assert built == ["kusuoka theta1"]


@pytest.mark.parametrize("argv", [
    ["theta1", "--builtin", "sg", "extra"], ["ck", "--builtin", "sg"], ["ck", "--k", "x"], ["validate", "--nope"],
    ["sample", "--b", "sg"], ["report", "-h"], ["-h"], ["--nope", "ck", "--k", "1"], ["--", "ck", "-h"],
])
def test_parse_output_matches_the_whole_tree(argv, capsys, monkeypatch):
    """Help, usage, error text and exit code of a parse are those of the whole tree holding the subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        cli._build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    assert (out, err) == tuple(capsys.readouterr())
    assert code == (0 if exc.value.code == 0 else 65)


def test_bad_flag_is_config_error(capsys):
    code, _, _ = run(capsys, "theta1", "--no-such-flag")
    assert code == 65
    code, _, err = run(capsys, "theta1")  # no system source
    assert code == 65
    assert "no system given" in err
    code, _, _ = run(capsys, "theta1", "--builtin", "sg", "--in", "also.json")
    assert code == 65
    code, _, _ = run(capsys, "theta1", "--builtin", "no-such-system")
    assert code == 65


def test_theta1_stdout(capsys):
    code, out, _ = run(capsys, "theta1", "--builtin", "sg")
    assert code == 0
    assert out.strip() == "4/5 (exact)"
    code, out, _ = run(capsys, "theta1", "--builtin", "sg3")
    assert code == 0
    assert out.strip() == "5/7 (exact)"


def test_theta1_json_out(capsys, tmp_path):
    dest = tmp_path / "t1.json"
    code, _, _ = run(capsys, "theta1", "--builtin", "sg", "--out", str(dest))
    assert code == 0
    body = json.loads(dest.read_text())
    assert body["exact"] == "4/5"
    assert body["irreducible"] is True


def test_validate_pass_and_fail(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "bernoulli:1/4,3/4")
    assert code == 0
    assert "overall: pass" in out
    code, out, _ = run(capsys, "validate", "--builtin", "bernoulli:1/4,1/4")
    assert code == 2
    assert "FAIL" in out


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "sg", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_format_is_validate_only(capsys):
    code, _, _ = run(capsys, "theta1", "--builtin", "sg", "--format", "json")
    assert code == 65


def test_ck_and_theta2(capsys):
    code, out, _ = run(capsys, "ck", "--builtin", "sg", "--k", "1")
    assert code == 0
    assert out.strip() == "c_1 = 8/75"
    code, out, _ = run(capsys, "theta2", "--builtin", "sg")
    assert code == 0
    assert "theta2_theorem = 67/75" in out
    # dimension-one systems have no trace-free directions: config error
    code, _, _ = run(capsys, "ck", "--builtin", "bernoulli:1/2,1/2", "--k", "1")
    assert code == 65


def test_measure_csv(capsys):
    code, out, _ = run(capsys, "measure", "--builtin", "sg", "--depth", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,nu"
    assert lines[1] == "0,1/3"
    assert len(lines) == 4


def test_measure_budget_exit(capsys):
    code, _, err = run(
        capsys, "measure", "--builtin", "sg", "--depth", "4", "--budget-k", "2"
    )
    assert code == 3
    assert "budget exceeded" in err
    code, _, _ = run(capsys, "measure", "--builtin", "sg", "--depth", "4", "--budget-k", "-1")
    assert code == 65


def test_measure_negative_depth_is_config_error(capsys):
    code, out, err = run(capsys, "measure", "--builtin", "sg", "--depth", "-1")
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gfun_csv(capsys):
    code, out, _ = run(capsys, "gfun", "--builtin", "sg", "--depth", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prefix,g"
    assert "00,41/75" in lines
    code, _, _ = run(capsys, "gfun", "--builtin", "sg", "--depth", "0")
    assert code == 65


def test_sample_deterministic(capsys):
    code, out1, _ = run(capsys, "sample", "--builtin", "sg", "--length", "5",
                        "--count", "3", "--seed", "9")
    assert code == 0
    _, out2, _ = run(capsys, "sample", "--builtin", "sg", "--length", "5",
                     "--count", "3", "--seed", "9")
    assert out1 == out2
    words = out1.strip().splitlines()
    assert len(words) == 3
    assert all(len(w) == 5 and set(w) <= set("012") for w in words)


def test_correlate_csv(capsys):
    code, out, _ = run(capsys, "correlate", "--builtin", "sg",
                       "--alpha", "0", "--beta", "0", "--nmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,alpha,beta,gap,bound"
    assert lines[1] == "0,0,0,16/225,2"
    assert lines[2].startswith("1,0,0,64/1125,8/5")


def test_correlate_negative_nmax_is_config_error(capsys):
    code, out, err = run(capsys, "correlate", "--builtin", "sg",
                         "--alpha", "0", "--beta", "0", "--nmax", "-1")
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mixing_bound_csv(capsys):
    code, out, _ = run(capsys, "mixing-bound", "--builtin", "sg", "--k", "1", "--nmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.split(",")[3] == "True" for line in lines[1:])


def test_mixing_bound_uncertified_theta1_prints_float_bounds(capsys, tmp_path):
    # maps diag(sqrt3/3, sqrt5/5), diag(sqrt6/3, 2 sqrt5/5), E = I/2: valid, theta1 not certified
    src = tmp_path / "f.json"
    src.write_text(json.dumps({
        "alphabet": ["a", "b"],
        "dim": 2,
        "maps": {"a": [["1/3*sqrt(3)", "0"], ["0", "1/5*sqrt(5)"]],
                 "b": [["1/3*sqrt(6)", "0"], ["0", "2/5*sqrt(5)"]]},
        "energy": [["1/2", "0"], ["0", "1/2"]],
        "backend": "exact",
    }))
    code, out, err = run(capsys, "mixing-bound", "--in", str(src), "--k", "1", "--nmax", "2")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[1:] == [f"{n},1/225,2,True,1/15,1.4666666666666666,True" for n in range(3)]


def test_gasket_roundtrip(capsys, tmp_path):
    dest = tmp_path / "sg3.json"
    code, _, _ = run(capsys, "gasket", "--n", "3", "--out", str(dest))
    assert code == 0
    data = json.loads(dest.read_text())
    assert data["dim"] == 2
    assert len(data["maps"]) == 6
    code, out, _ = run(capsys, "theta1", "--in", str(dest))
    assert code == 0
    assert out.strip() == "5/7 (exact)"


def test_gasket_bad_n(capsys):
    code, _, _ = run(capsys, "gasket", "--n", "9")
    assert code == 65


def test_float_backend_flag(capsys):
    code, out, _ = run(capsys, "theta1", "--builtin", "sg", "--backend", "float")
    assert code == 0
    assert "(float)" in out
    assert out.lstrip().startswith("0.8")


def test_float_file_cannot_promote(capsys, tmp_path):
    dest = tmp_path / "sgf.json"
    code, _, _ = run(capsys, "gasket", "--n", "2", "--backend", "float", "--out", str(dest))
    assert code == 0
    code, _, err = run(capsys, "theta1", "--in", str(dest), "--backend", "exact")
    assert code == 65
    assert "cannot be promoted" in err


def test_renormalize_from_file(capsys, tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"maps": {
        "a": [["3/5", "0"], ["0", "1/5"]],
        "b": [["3/10", "-1/10*sqrt(3)"], ["-1/10*sqrt(3)", "1/2"]],
        "c": [["3/10", "1/10*sqrt(3)"], ["1/10*sqrt(3)", "1/2"]],
    }}))
    code, out, _ = run(capsys, "renormalize", "--in", str(raw))
    assert code == 0
    data = json.loads(out)
    assert data["alphabet"] == ["a", "b", "c"]
    assert data["backend"] == "exact"
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(out)
    code, out, _ = run(capsys, "theta1", "--in", str(sysfile))
    assert code == 0
    assert out.strip() == "4/5 (exact)"


def test_theta1_of_renormalized_raw_maps_is_a_surd(capsys, tmp_path):
    # integer raw maps whose renormalized weight is not diagonal
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps([[[2, -2], [-2, 3]], [[2, 2], [0, 3]], [[-3, -2], [0, -3]]]))
    code, out, _ = run(capsys, "renormalize", "--in", str(raw))
    assert code == 0
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(out)
    assert json.loads(out)["energy"][0][1] != "0"
    code, out, err = run(capsys, "theta1", "--in", str(sysfile))
    assert (code, out.strip(), err) == (0, "1/29*sqrt(471) (exact)", "")


def test_renormalize_reads_decimals_and_integers(capsys, tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps([[[0.6, 0], [0, 0.2]],
                               [[0.3, "-1/10*sqrt(3)"], ["-1/10*sqrt(3)", 0.5]],
                               [[0.3, "1/10*sqrt(3)"], ["1/10*sqrt(3)", 0.5]]]))
    for backend in ("exact", "float"):
        code, out, _ = run(capsys, "renormalize", "--in", str(raw), "--backend", backend)
        assert code == 0
        sysfile = tmp_path / f"sys-{backend}.json"
        sysfile.write_text(out)
        code, out, _ = run(capsys, "theta1", "--in", str(sysfile), "--backend", backend)
        assert code == 0
        if backend == "exact":
            assert out.strip() == "4/5 (exact)"
        else:
            assert float(out.split()[0]) == pytest.approx(0.8, abs=1e-12)


def test_renormalize_float_accepts_ill_conditioned_raw(capsys, tmp_path):
    # the certify raw whose float Perron roots of the two operators differ in the seventh digit
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps([[[-333, 461], [-242, 335]], [[153, -209], [112, -153]],
                               [[267, -368], [193, -266]]]))
    code, out, err = run(capsys, "renormalize", "--in", str(raw), "--backend", "float")
    assert (code, err) == (0, "")
    assert json.loads(out)["backend"] == "float"


@pytest.mark.parametrize("content", ["5", '{"maps": [[[1, 2], [3]]]}'])
def test_renormalize_malformed_file_is_config_error(capsys, tmp_path, content):
    raw = tmp_path / "raw.json"
    raw.write_text(content)
    code, out, err = run(capsys, "renormalize", "--in", str(raw))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1/0", "sqrt(2)/0", "1/2*sqrt(3)/00"])
def test_zero_denominator_is_config_error(capsys, tmp_path, entry):
    """An exact scalar with a zero denominator leaves through exit 65, from every reader of exact scalars."""
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": ["a", "b"], "dim": 1, "maps": {"a": [[entry]], "b": [["1/2"]]},
        "energy": [["1"]], "backend": "exact",
    }))
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"maps": [[[entry, "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]}))
    ffile = tmp_path / "f.json"
    ffile.write_text(json.dumps({"depth": 1, "values": {"0": entry, "1": "1", "2": "0"}}))
    for argv in (["validate", "--in", str(system)], ["renormalize", "--in", str(raw)],
                 ["dilation", "--builtin", "sg", "--k", "1", "--f", str(ffile)]):
        code, out, err = run(capsys, *argv)
        assert code == 65, argv
        assert out == ""
        assert err.startswith("error: malformed exact scalar") and err.count("\n") == 1


def test_renormalize_needs_file(capsys):
    code, _, err = run(capsys, "renormalize", "--builtin", "sg")
    assert code == 65
    assert "--in" in err


def test_dilation_residual(capsys):
    code, out, _ = run(capsys, "dilation", "--builtin", "sg", "--k", "2")
    assert code == 0
    assert out.strip() == "residual = 0"


@pytest.mark.parametrize("argv, residual", [
    (["--builtin", "sg", "--k", "2"], "5.5511151231257827e-17"),
    (["--builtin", "sg3", "--k", "1", "--level", "2"], "0"),
])
def test_dilation_residual_float(capsys, argv, residual):
    """The float gap, unpacked and maxed, prints to the bit: a rounding residual and an exact float zero."""
    code, out, _ = run(capsys, "dilation", *argv, "--backend", "float")
    assert code == 0
    assert out == f"residual = {residual}\n"


def test_dilation_custom_function(capsys, tmp_path):
    ffile = tmp_path / "f.json"
    ffile.write_text(json.dumps({"depth": 2, "values": {"01": "1", "20": "-1/2"}}))
    code, out, _ = run(capsys, "dilation", "--builtin", "sg", "--k", "1",
                       "--f", str(ffile), "--level", "2")
    assert code == 0
    assert out.strip() == "residual = 0"


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("body", [{"depth": 1, "values": {"0": None, "1": 1, "2": 0}},
                                  {"depth": -1, "values": {}}])
def test_dilation_bad_function_is_config_error(capsys, tmp_path, backend, body):
    ffile = tmp_path / "c.json"
    ffile.write_text(json.dumps(body))
    code, out, err = run(capsys, "dilation", "--builtin", "sg", "--k", "1",
                         "--backend", backend, "--f", str(ffile))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dilation_negative_level_is_config_error(capsys):
    code, out, err = run(capsys, "dilation", "--builtin", "sg", "--k", "1", "--level", "-1")
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dilation_past_the_budget_exits_3(capsys):
    code, out, err = run(capsys, "dilation", "--builtin", "sg", "--k", "1",
                         "--level", "4", "--budget-k", "3")
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


def test_qdecay_csv(capsys):
    code, out, _ = run(capsys, "qdecay", "--builtin", "sg", "--k", "1",
                       "--jmax", "3", "--trials", "5", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,max_ratio,bound,ok"
    assert len(lines) == 4
    assert all(line.endswith("True") for line in lines[1:])


def test_qdecay_trials_past_the_budget_exit_3(capsys):
    # 10 trials x 3^2 words = 90 > 3^3: refused before any trial is seeded
    code, out, err = run(capsys, "qdecay", "--builtin", "sg", "--k", "1",
                         "--jmax", "2", "--trials", "10", "--budget-k", "3")
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


def test_report_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code, _, _ = run(capsys, "report", "--builtin", "sg", "--seed", "5", "--out", str(a))
    assert code == 0
    code, _, _ = run(capsys, "report", "--builtin", "sg", "--seed", "5", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    body = json.loads(a.read_text())
    assert body["theta1"] == "4/5"
    assert body["c"]["1"] == "8/75"
    assert body["theta2_theorem"] == "67/75"
    assert body["nu_depth1"]["0"] == "1/3"
    assert body["nu_depth2"]["00"] == "41/225"
    assert all(row["ok"] for row in body["mixing_k1"])
    assert len(body["samples_len5"]) == 5


def test_report_rejects_invalid_system(capsys):
    code, _, err = run(capsys, "report", "--builtin", "bernoulli:1/4,1/4")
    assert code == 2
    assert "validation failure" in err


def test_missing_file_is_config_error(capsys, tmp_path):
    code, _, _ = run(capsys, "theta1", "--in", str(tmp_path / "absent.json"))
    assert code == 65
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, _ = run(capsys, "theta1", "--in", str(garbled))
    assert code == 65
    garbled.write_text("[1]")
    code, out, err = run(capsys, "theta1", "--in", str(garbled))
    assert code == 65
    assert out == ""
    assert err.startswith("error: malformed system description") and err.count("\n") == 1
