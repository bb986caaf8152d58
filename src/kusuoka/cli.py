"""Command-line front end.

One subcommand per capability, each one ``_COMMANDS`` entry; shared flags
for system source, backend, budget, seed, and output.  Exit codes: 0 success, 2 validation failure,
3 budget exceeded, 64 unknown subcommand, 65 malformed configuration or
unreadable input.  Every number printed from the exact backend is a
radical string; floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gasket, linalg, matsys, measure, procspace, spectral, symbolic, systems
from .exactnum import Radical, format_exact
from .linalg import EXACT, FLOAT
from .measure import SystemInvalidError
from .symbolic import BudgetError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_UNKNOWN = 64
EXIT_CONFIG = 65


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_scalar(x) -> str:
    if isinstance(x, Radical):
        return format_exact(x)
    return _fmt_float(x)


def _fmt_certified(exact, value) -> str:
    """The exact value when one was certified, else the float."""
    return format_exact(exact) if exact is not None else _fmt_float(value)


def _load_system(args) -> matsys.MatrixSystem:
    if args.builtin is not None and args.infile is not None:
        raise ValueError("give either --builtin or --in, not both")
    if args.builtin is not None:
        return systems.get_builtin(args.builtin, args.backend)
    if args.infile is not None:
        with open(args.infile, encoding="utf-8") as fh:
            data = json.load(fh)
        sys_ = matsys.system_from_json(data)
        if args.backend == FLOAT and sys_.backend == EXACT:
            sys_ = matsys.to_float_system(sys_)
        elif args.backend == EXACT and sys_.backend == FLOAT:
            raise ValueError("file holds a float system; it cannot be promoted to exact")
        return sys_
    raise ValueError("no system given; pass --builtin NAME or --in FILE")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _budget_for(args, system: matsys.MatrixSystem) -> int:
    if args.budget_k:
        return system.n_symbols ** args.budget_k
    return symbolic.DEFAULT_BUDGET


# -- subcommand bodies --------------------------------------------------------


def _cmd_validate(args) -> int:
    sys_ = _load_system(args)
    report = matsys.validate(sys_, args.tol)
    if args.fmt == "json":
        _emit(args, _json_dump({"ok": report.ok, "checks": report.lines()}))
    else:
        _emit(args, "\n".join(report.lines() + [f"overall: {'pass' if report.ok else 'FAIL'}"]))
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_theta1(args) -> int:
    sys_ = _load_system(args)
    res = spectral.theta1(sys_)
    print(res.describe())
    if args.out:
        body = {
            "value": _fmt_float(res.value),
            "exact": format_exact(res.exact) if res.exact is not None else None,
            "irreducible": res.irreducible,
            "parts": {p: _fmt_float(v) for p, v in res.part_radius.items()},
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_dump(body) + "\n")
    return EXIT_OK


def _cmd_ck(args) -> int:
    sys_ = _load_system(args)
    res = spectral.c_k(sys_, args.k, _budget_for(args, sys_))
    if not res.applicable:
        raise ValueError("c_k is undefined: no trace-free symmetric directions (dim 1)")
    _emit(args, f"c_{args.k} = {_fmt_certified(res.exact, res.value)}")
    return EXIT_OK


def _cmd_theta2(args) -> int:
    sys_ = _load_system(args)
    res = spectral.theta2(sys_, args.kmax, _budget_for(args, sys_))
    if not res.applicable:
        raise ValueError("theta2 is undefined: c_1 = 0 for this system")
    lines = [
        f"theta2_lemma = {_fmt_certified(res.lemma_exact, res.lemma_value)}",
        f"theta2_theorem = {_fmt_certified(res.thm_exact, res.thm_value)}",
    ]
    if not res.irreducibility_ok:
        lines.append("warning: some c_k vanished; rates may be vacuous")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def _level_items(sys_: matsys.MatrixSystem, depth: int, values) -> list:
    """(word, formatted value) for every word of one level, in word-index order."""
    return [(symbolic.format_word(w, sys_.alphabet), _fmt_scalar(x))
            for w, x in zip(symbolic.all_words(sys_.n_symbols, depth), values)]


def _cmd_measure(args) -> int:
    sys_ = _load_system(args)
    masses = measure.kusuoka_measure(sys_).level_nu(args.depth, _budget_for(args, sys_))
    _emit(args, "\n".join(["word,nu"] + [",".join(item) for item in _level_items(sys_, args.depth, masses)]))
    return EXIT_OK


def _cmd_gfun(args) -> int:
    if args.depth < 1:
        raise ValueError("gfun needs --depth >= 1")
    sys_ = _load_system(args)
    ratios = measure.kusuoka_measure(sys_).level_g(args.depth, _budget_for(args, sys_))
    _emit(args, "\n".join(["prefix,g"] + [",".join(item) for item in _level_items(sys_, args.depth, ratios)]))
    return EXIT_OK


def _cmd_sample(args) -> int:
    sys_ = _load_system(args)
    m = measure.kusuoka_measure(sys_)
    words = measure.sample_many(m, args.length, args.count, args.seed, _budget_for(args, sys_))
    _emit(args, "\n".join(symbolic.format_word(w, sys_.alphabet) for w in words))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    sys_ = _load_system(args)
    m = measure.kusuoka_measure(sys_)
    alpha = symbolic.parse_word(args.alpha, sys_.alphabet)
    beta = symbolic.parse_word(args.beta, sys_.alphabet)
    if args.nmax < 0:
        raise ValueError("separation --nmax must be >= 0")
    t1 = m._quad.theta1
    rate = t1.exact if t1.exact is not None else t1.value
    rows = ["n,alpha,beta,gap,bound"]
    for n, gap in enumerate(measure._correlation_gaps(m, alpha, beta, args.nmax)):
        rows.append(f"{n},{args.alpha},{args.beta},{_fmt_scalar(gap)},{_fmt_scalar(2 * rate**n)}")
    _emit(args, "\n".join(rows))
    return EXIT_OK


def _cmd_mixing_bound(args) -> int:
    sys_ = _load_system(args)
    m = measure.kusuoka_measure(sys_)
    table = measure.mixing_bound_check(m, args.k, args.nmax, _budget_for(args, sys_))
    rows = ["n,max_gap,bound,gap_ok,pointwise_max,pointwise_bound,pointwise_ok"]
    for r in table:
        rows.append(
            f"{r.n},{_fmt_scalar(r.max_gap)},{_fmt_scalar(r.gap_bound)},{r.gap_ok},"
            f"{_fmt_scalar(r.pointwise_max)},{_fmt_scalar(r.pointwise_bound)},{r.pointwise_ok}"
        )
    _emit(args, "\n".join(rows))
    return EXIT_OK


def _cmd_gasket(args) -> int:
    sys_ = gasket.generate_system(args.n, args.backend)
    body = _json_dump(matsys.system_to_json(sys_))
    _emit(args, body)
    return EXIT_OK


def _cmd_renormalize(args) -> int:
    if args.infile is None:
        raise ValueError("renormalize needs --in FILE with raw maps")
    with open(args.infile, encoding="utf-8") as fh:
        data = json.load(fh)
    raw = data["maps"] if isinstance(data, dict) else data
    alphabet = sorted(raw) if isinstance(raw, dict) else None
    try:
        mats = [raw[k] for k in alphabet] if alphabet is not None else list(raw)
        parsed = [matsys.matrix_from_json(mat, linalg.FIELDS[args.backend]) for mat in mats]
    except TypeError as exc:
        raise ValueError(f"malformed raw maps: {exc}") from exc
    sys_ = spectral.renormalize(parsed, backend=args.backend, alphabet=alphabet)
    _emit(args, _json_dump(matsys.system_to_json(sys_)))
    return EXIT_OK


def _cmd_dilation(args) -> int:
    sys_ = _load_system(args)
    m = measure.kusuoka_measure(sys_)
    if args.f:
        with open(args.f, encoding="utf-8") as fh:
            f = symbolic.cylinder_from_json(json.load(fh), sys_)
    else:
        f = symbolic.indicator(sys_, (0,))
    res = procspace.dilation_check(m, f, args.k, args.level, _budget_for(args, sys_))
    _emit(args, f"residual = {_fmt_scalar(res)}")
    return EXIT_OK


def _cmd_qdecay(args) -> int:
    sys_ = _load_system(args)
    table = procspace.q_decay_check(sys_, args.k, args.jmax, args.trials, args.seed, _budget_for(args, sys_))
    rows = ["j,max_ratio,bound,ok"]
    for r in table:
        rows.append(f"{r.j},{_fmt_float(r.max_ratio)},{_fmt_float(r.bound)},{r.ok}")
    _emit(args, "\n".join(rows))
    return EXIT_OK


def _cmd_report(args) -> int:
    sys_ = _load_system(args)
    budget = _budget_for(args, sys_)
    m = measure.kusuoka_measure(sys_)
    rep = spectral.spectral_report(m._quad, 2, budget=budget, seed=args.seed)
    t1, t2 = rep.theta1, rep.theta2
    body: dict = {
        "system": args.builtin or args.infile,
        "backend": sys_.backend,
        "seed": args.seed,
        "valid": True,
        "theta1": _fmt_certified(t1.exact, t1.value),
        "theta1_float": _fmt_float(t1.value),
        "theta1_irreducible": t1.irreducible,
        "theta1_parts": {p: _fmt_float(v) for p, v in t1.part_radius.items()},
    }
    if rep.theta1_p:
        body["theta1_schatten"] = {p: _fmt_scalar(v) for p, v in rep.theta1_p.items()}
    if t2.applicable:
        body["c"] = {str(k): _fmt_certified(r.exact, r.value) for k, r in t2.c_values.items()}
        body["theta2_lemma"] = _fmt_certified(t2.lemma_exact, t2.lemma_value)
        body["theta2_theorem"] = _fmt_certified(t2.thm_exact, t2.thm_value)

    for depth in (1, 2):
        body[f"nu_depth{depth}"] = dict(_level_items(sys_, depth, m.level_nu(depth, budget)))
    mix = measure.mixing_bound_check(m, 1, 4, budget)
    body["mixing_k1"] = [
        {
            "n": r.n,
            "max_gap": _fmt_scalar(r.max_gap),
            "bound": _fmt_scalar(r.gap_bound),
            "ok": bool(r.gap_ok and r.pointwise_ok),
        }
        for r in mix
    ]
    body["samples_len5"] = [
        symbolic.format_word(w, sys_.alphabet) for w in measure.sample_many(m, 5, 5, args.seed, budget)
    ]
    _emit(args, _json_dump(body))
    return EXIT_OK


# name: (handler, help, reads a system, its own arguments as (flag, options) after the common ones)
_COMMANDS = {
    "validate": (_cmd_validate, "check the two fixed-point identities", True,
                 (("--format", {"dest": "fmt", "choices": ("json", "csv"), "default": "csv"}),
                  ("--tol", {"type": float, "default": 1e-12}))),
    "theta1": (_cmd_theta1, "certified contraction rate of the averaging map", True, ()),
    "ck": (_cmd_ck, "level-k irreducibility constant", True, (("--k", {"type": int, "required": True}),)),
    "theta2": (_cmd_theta2, "projection decay rates", True, (("--kmax", {"type": int, "default": 2}),)),
    "measure": (_cmd_measure, "cylinder masses at one depth (CSV)", True, (("--depth", {"type": int, "default": 2}),)),
    "gfun": (_cmd_gfun, "finite backward-density approximants (CSV)", True,
             (("--depth", {"type": int, "default": 2}),)),
    "sample": (_cmd_sample, "draw words from the measure", True,
               (("--length", {"type": int, "default": 8}), ("--count", {"type": int, "default": 10}))),
    "correlate": (_cmd_correlate, "correlation gaps for one cylinder pair (CSV)", True,
                  (("--alpha", {"required": True}), ("--beta", {"required": True}),
                   ("--nmax", {"type": int, "default": 8}))),
    "mixing-bound": (_cmd_mixing_bound, "worst-case gap table vs geometric bound (CSV)", True,
                     (("--k", {"type": int, "default": 1}), ("--nmax", {"type": int, "default": 6}))),
    "gasket": (_cmd_gasket, "generate a subdivision-gasket system (JSON)", False,
               (("--n", {"type": int, "required": True}),)),
    "renormalize": (_cmd_renormalize, "normalize raw restriction maps into a system (JSON)", True, ()),
    "dilation": (_cmd_dilation, "dual-path transfer/projection residual", True,
                 (("--k", {"type": int, "required": True}), ("--f", {"help": "cylinder function JSON file"}),
                  ("--level", {"type": int, "default": None}))),
    "qdecay": (_cmd_qdecay, "Monte Carlo martingale decay table (CSV)", True,
               (("--k", {"type": int, "required": True}), ("--jmax", {"type": int, "required": True}),
                ("--trials", {"type": int, "default": 100}))),
    "report": (_cmd_report, "single-system reproduction summary (JSON)", True, ()),
}
SUBCOMMANDS = tuple(_COMMANDS)


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """The common flags, then ``command``'s own arguments."""
    _, _, system_source, own = _COMMANDS[command]
    if system_source:
        p.add_argument("--builtin", help=f"builtin system name ({', '.join(systems.BUILTIN_NAMES)})")
        p.add_argument("--in", dest="infile", help="system JSON file")
    p.add_argument("--backend", choices=(EXACT, FLOAT), default=EXACT)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-k", dest="budget_k", type=int, default=0,
                   help="cap word enumeration at |S|^K words")
    for flag, options in own:
        p.add_argument(flag, **options)


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand alone, as the whole tree would build it: prog ``kusuoka <command>``."""
    p = argparse.ArgumentParser(prog=f"kusuoka {command}")
    _add_arguments(p, command)
    return p


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help, and the arguments of ``command`` alone.

    The top-level help lists only names and help strings.  ``main`` builds
    this tree only for top-level flags and to report arguments that the
    subcommand's own parser leaves over.
    """
    top = argparse.ArgumentParser(prog="kusuoka", description="Kusuoka measure toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            _add_arguments(p, command)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or (not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS):
        given = argv[0] if argv else "(none)"
        print(f"unknown subcommand {given}; expected one of: {', '.join(SUBCOMMANDS)}", file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        if argv[0].startswith("-"):
            # top-level flags: the whole tree, with the arguments of the first word that is no flag
            args = _build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
        else:
            args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
            args.command = argv[0]
            if extra:  # argparse reports them against the top level, with its usage
                args = _build_parser(argv[0]).parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    if args.budget_k < 0:
        print("--budget-k must be positive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command][0](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SystemInvalidError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
