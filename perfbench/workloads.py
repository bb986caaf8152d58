"""The two job-mix workloads of the kusuoka benchmark.

A workload is a closed loop with one client: the next job starts when the
previous one has returned.  A job is one call into a public entry point of
the library (or an in-process ``cli.main``), and every job's output is
checked against an exact expectation.  Jobs that compute on a measure build
a fresh ``KusuokaMeasure`` each time, because every command-line run pays
for its own level tables; the systems themselves are built once, in set-up.

Jobs come in rounds.  Every round holds the same multiset of job classes in
a seeded order with seeded parameters, so a run's job mix does not depend on
the seed and the latency percentiles of two seeds are comparable.

The job bodies look library functions up on their module at call time
(``measure.sample_many``, not a bound reference), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from kusuoka import cli, gasket, matsys, measure, procspace, spectral, symbolic
from kusuoka.exactnum import Radical

# -- expectations --------------------------------------------------------------

# Certified contraction rates (the paper's values) and the irreducibility
# constants c_1, c_2 of the gasket family, all exact.
THETA1 = {
    "sg": "4/5",
    "sg3": "5/7",
    "sg4": "2822/4223",
    "sg5": "209527/327611",
    "sg6": "93876848/151451975",
}
C1 = {
    "sg": "8/75",
    "sg3": "102/1225",
    "sg4": "3514924/53501187",
    "sg5": "17477622230/321986901963",
    "sg6": "3200621079104144/68813102194201875",
}
C2 = {
    "sg": "112/1875",
    "sg3": "38896/1500625",
    "sg4": "4606146215496/318041890045441",
    "sg5": "326399361013190165320/34558521678576857751123",
    "sg6": "10697329523827037516977544946016/1578414344529890301215622751171875",
}

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Sampler jobs draw their seeds from this pool; reference.json stores a
# digest of the exact sampler's words for every (system, length, count,
# seed) below, made by make_reference.py and cross-checked there against the
# float sampler.
SAMPLER_SEEDS = tuple(range(32))
SAMPLE_SPECS = (
    ("sg", 6, 30),    # short words, many at a time: shared prefixes
    ("sg3", 5, 20),
    ("sg", 40, 2),    # long words, few at a time: deep, mostly uncached
    ("sg3", 30, 1),
)
REPORT_SAMPLE_SPECS = (("sg", 5, 5), ("sg3", 5, 5))  # `report` draws 5 words of length 5
REFERENCE_SPECS = SAMPLE_SPECS + REPORT_SAMPLE_SPECS

# Integer raw maps that exact ``renormalize`` accepts with a rational Perron
# eigenvalue, and whose renormalized weight is not diagonal, found by a
# random search.  Any integer unimodular conjugate, rescaling or relabelling
# of a base renormalizes to an orthogonally equivalent system, so its theta1
# and c_1 equal the base's; they are given here from the float backend.
RAW_BASES = (
    (((2, -2), (-2, 3)), ((2, 2), (0, 3)), ((-3, -2), (0, -3))),
    (((1, -3), (0, -1)), ((1, 3), (-2, 1)), ((0, -2), (1, 1))),
    (((0, 3), (1, -2)), ((2, -1), (0, -3)), ((-2, -1), (1, 2))),
)
RAW_THETA1 = (0.7483632556624379, 0.6527139518645048, 0.6315789473684211)
RAW_C1 = (0.003952927702605841, 0.029316672798672297, 0.00985338922990005)
RAW_TOL = 1e-9
# The known defect the raw-map theta1 and c_k jobs hit on the exact backend
# (ROADMAP item 3).  Only those jobs may raise it; any other raise, or this
# one from any other job, makes the run incorrect.
RAW_DEFECT = "closed-form orthonormal bases need a diagonal weight"


def word_digest(words) -> str:
    text = ";".join(",".join(str(s) for s in w) for w in words)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_key(name: str, length: int, count: int, seed: int) -> str:
    return f"{name}|{length}|{count}|{seed}"


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- jobs ----------------------------------------------------------------------


@dataclass
class Job:
    """One call into the library and the check of its output.

    ``check`` returns None when the output is verified, else a description
    of the mismatch.  ``symbols`` counts sampled symbols, for sampler jobs.
    ``expect_raise`` is the message of a known defect: a ValueError holding
    it is a counted failure that leaves the run correct.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    symbols: int = 0
    expect_raise: str | None = None

    def known_defect(self, exc: Exception) -> bool:
        return (self.expect_raise is not None and isinstance(exc, ValueError)
                and self.expect_raise in str(exc))


def _expect(ok: bool, what: str) -> str | None:
    return None if ok else what


def _exact_is(x, text: str) -> bool:
    return isinstance(x, Radical) and x == Fraction(text)


def _matches(res, expected) -> bool:
    """Exact equality for a string expectation, else agreement within RAW_TOL."""
    if isinstance(expected, str):
        return _exact_is(res.exact, expected)
    return res.value is not None and abs(res.value - expected) <= RAW_TOL


def _rows_ok(rows, n_rows: int, flags) -> str | None:
    if len(rows) != n_rows:
        return f"{len(rows)} rows, expected {n_rows}"
    bad = [r for r in rows if not all(getattr(r, f) for f in flags)]
    return _expect(not bad, f"rows with a failed bound: {bad[:2]}")


def _cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _sample_check(ref: dict, name: str, length: int, count: int, seed: int):
    want = ref[reference_key(name, length, count, seed)]

    def check(words):
        got = word_digest(words)
        return _expect(got == want, f"sampled words digest {got}, reference {want}")

    return check


def theta1_job(name: str, system, expected, expect_raise=None) -> Job:
    def check(res):
        return _expect(_matches(res, expected), f"theta1 {res.describe()}, expected {expected}")

    return Job(f"theta1/{name}", lambda: spectral.theta1(system), check,
               expect_raise=expect_raise)


def ck_job(name: str, system, k: int, expected, expect_raise=None) -> Job:
    """c_k; ``expected`` None means the constant is not applicable (dim 1)."""

    def check(res):
        if expected is None:
            return _expect(not res.applicable, "c_k reported for a 1-dimensional system")
        return _expect(_matches(res, expected), f"c_{k} {res.exact or res.value}, expected {expected}")

    return Job(f"c{k}/{name}", lambda: spectral.c_k(system, k), check,
               expect_raise=expect_raise)


def theta2_job(name: str, system) -> Job:
    def check(res):
        if name not in C1:
            return _expect(not res.applicable, "theta2 reported for a 1-dimensional system")
        c1, c2 = res.c_values[1].exact, res.c_values[2].exact
        if not (_exact_is(c1, C1[name]) and _exact_is(c2, C2[name])):
            return f"theta2 used c_1 = {c1}, c_2 = {c2}"
        lemma = res.lemma_exact
        ok = res.irreducibility_ok and lemma is not None and lemma * lemma == 1 - Fraction(C1[name])
        return _expect(ok, f"theta2 lemma rate {lemma} is not sqrt(1 - c_1)")

    return Job(f"theta2/{name}", lambda: spectral.theta2(system, 2), check)


def report_job(name: str, seed: int, ref: dict) -> Job:
    want = ref[reference_key(name, 5, 5, seed)]

    def check(out):
        code, text = out
        if code != 0:
            return f"report exited {code}"
        body = json.loads(text)
        if body["theta1"] != THETA1[name] or body["c"]["1"] != C1[name]:
            return f"report theta1 {body['theta1']}, c_1 {body['c']['1']}"
        if sum(Fraction(v) for v in body["nu_depth1"].values()) != 1:
            return "report depth-1 masses do not sum to 1"
        if not all(row["ok"] for row in body["mixing_k1"]):
            return "report mixing table has a failed bound"
        words = [tuple(int(ch) for ch in w) for w in body["samples_len5"]]
        return _expect(word_digest(words) == want, "report samples differ from the reference")

    argv = ["report", "--builtin", name, "--seed", str(seed)]
    return Job(f"cli-report/{name}", lambda: _cli(argv), check)


def mixing_job(name: str, system, k: int, n_max: int) -> Job:
    def call():
        return measure.mixing_bound_check(measure.kusuoka_measure(system), k, n_max)

    return Job(
        f"mixing/{name}/k{k}", call,
        lambda rows: _rows_ok(rows, n_max + 1, ("gap_ok", "pointwise_ok")),
    )


def cli_mixing_job(name: str, k: int, n_max: int) -> Job:
    def check(out):
        code, text = out
        if code != 0:
            return f"mixing-bound exited {code}"
        rows = text.strip().splitlines()[1:]
        if len(rows) != n_max + 1:
            return f"mixing-bound printed {len(rows)} rows"
        cols = [r.split(",") for r in rows]
        return _expect(all(c[3] == "True" and c[6] == "True" for c in cols),
                       "mixing-bound printed a failed bound")

    argv = ["mixing-bound", "--builtin", name, "--k", str(k), "--nmax", str(n_max)]
    return Job(f"cli-mixing/{name}", lambda: _cli(argv), check)


def level_nu_job(name: str, system, depth: int) -> Job:
    def check(masses):
        if len(masses) != system.n_symbols**depth:
            return f"{len(masses)} masses at depth {depth}"
        return _expect(sum(masses, Radical(0)) == 1, "level masses do not sum to exactly 1")

    return Job(f"level-nu/{name}/d{depth}",
               lambda: measure.kusuoka_measure(system).level_nu(depth), check)


def dilation_job(name: str, system, values, depth: int, k: int) -> Job:
    f = symbolic.cylinder_from_values(system, depth, values)
    branch = "k>=depth" if k >= depth else "k<depth"

    def check(res):
        return _expect(isinstance(res, Radical) and res.is_zero(), f"dilation residual {res}")

    return Job(f"dilation/{name}/{branch}",
               lambda: procspace.dilation_check(measure.kusuoka_measure(system), f, k), check)


def martingale_job(name: str, system, values, depth: int) -> Job:
    f = symbolic.cylinder_from_values(system, depth, values)

    def check(rep):
        back = rep.function().values
        if not all(a == b for a, b in zip(back, f.values)):
            return "martingale components do not sum back to f"
        masses = rep.measure.level_nu(depth)
        energy = sum((v * v * w for v, w in zip(f.values, masses)), Radical(0))
        return _expect(rep.norm_sq() == energy, "martingale components break Parseval")

    return Job(f"martingale/{name}/d{depth}",
               lambda: procspace.martingale_decompose(measure.kusuoka_measure(system), f), check)


def sample_job(name: str, system, length: int, count: int, seed: int, ref: dict) -> Job:
    def call():
        return measure.sample_many(measure.kusuoka_measure(system), length, count, seed)

    return Job(f"sample-{system.backend}/{name}/{length}x{count}", call,
               _sample_check(ref, name, length, count, seed), symbols=length * count)


def qdecay_job(name: str, system, k: int, j_max: int, trials: int, seed: int) -> Job:
    return Job(
        f"qdecay/{name}",
        lambda: procspace.q_decay_check(system, k, j_max, trials, seed),
        lambda rows: _rows_ok(rows, j_max - k + 1, ("ok",)),
    )


# -- seeded inputs -------------------------------------------------------------


def _unimodular(rng: np.random.Generator) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer 2x2 matrix of determinant 1 and its inverse."""
    u = np.eye(2, dtype=np.int64)
    for _ in range(2):
        a, b = (int(x) for x in rng.choice([-2, -1, 1, 2], 2))
        u = u @ np.array([[1, a], [0, 1]]) @ np.array([[1, 0], [b, 1]])
    inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
    return u.tolist(), inv.tolist()


def raw_map_inputs(rng: np.random.Generator, count: int) -> list[tuple[int, list]]:
    """Random members of the raw-map class: (base index, integer raw maps)."""
    out = []
    for _ in range(count):
        base = int(rng.integers(len(RAW_BASES)))
        u, inv = _unimodular(rng)
        scale = int(rng.integers(1, 4))
        maps = [scale * np.array(u) @ np.array(RAW_BASES[base][s]) @ np.array(inv)
                for s in rng.permutation(len(RAW_BASES[base]))]
        out.append((base, [m.tolist() for m in maps]))
    return out


def bernoulli_inputs(rng: np.random.Generator, count: int) -> list[list[Fraction]]:
    out = []
    for _ in range(count):
        weights = rng.integers(1, 10, int(rng.integers(2, 5)))
        out.append([Fraction(int(w), int(weights.sum())) for w in weights])
    return out


def _values(rng: np.random.Generator, n: int) -> list[int]:
    return [int(x) for x in rng.integers(-3, 4, n)]


# -- workloads -----------------------------------------------------------------


class Workload:
    """Seeded inputs, timed set-up, and the job rounds of one workload."""

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.ref = load_reference()
        self.inputs = self.make_inputs()

    def make_inputs(self) -> dict:
        return {}

    def setup(self) -> dict:
        """Build and validate the systems; this is what ``setup_s`` times."""
        raise NotImplementedError

    def round_jobs(self, systems: dict) -> list[Job]:
        raise NotImplementedError

    def next_round(self, systems: dict) -> list[Job]:
        jobs = self.round_jobs(systems)
        return [jobs[i] for i in self.rng.permutation(len(jobs))]

    def pick_seed(self) -> int:
        return int(self.rng.choice(SAMPLER_SEEDS))


def _validated(systems: dict) -> dict:
    for name, s in systems.items():
        if not matsys.validate(s).ok:
            raise RuntimeError(f"set-up system {name} failed validation")
    return systems


def _gasket_family(tiny: bool) -> dict:
    out = {"sg": matsys.sg_system()}
    for n in (3,) if tiny else (3, 4, 5, 6):
        out[f"sg{n}"] = gasket.generate_system(n)
    return out


class Certify(Workload):
    """Exact theta1, c_k, theta2 and ``report`` runs over the gasket family,
    Bernoulli systems and random raw maps.  ``gasket``, ``spectral`` and
    ``linalg`` do the work and level tables are small.  The raw-map jobs fail
    today (theta1 and c_k need a diagonal weight on the exact backend), so
    this workload carries that defect in its failure count; those jobs alone
    may raise it.

    theta2 on sg6 is left out: its first call in a process spends about 6 s
    factoring one radicand by trial division, then finds it cached, so one
    job would swamp a run.
    """

    name = "certify"

    def make_inputs(self):
        return {
            "raw": raw_map_inputs(self.rng, 3),
            "bernoulli": bernoulli_inputs(self.rng, 2),
        }

    def setup(self):
        systems = _gasket_family(self.tiny)
        for i, probs in enumerate(self.inputs["bernoulli"]):
            systems[f"bernoulli{i}"] = matsys.bernoulli_system(probs)
        for i, (_, raw) in enumerate(self.inputs["raw"]):
            systems[f"raw{i}"] = spectral.renormalize(raw)
        return _validated(systems)

    def round_jobs(self, systems):
        jobs = []
        for name, s in systems.items():
            if name in THETA1:
                jobs += [theta1_job(name, s, THETA1[name]), ck_job(name, s, 1, C1[name]),
                         ck_job(name, s, 2, C2[name])]
                if name != "sg6":
                    jobs.append(theta2_job(name, s))
            elif name.startswith("bernoulli"):
                jobs += [theta1_job(name, s, "0"), ck_job(name, s, 1, None), theta2_job(name, s)]
            else:
                base = self.inputs["raw"][int(name[3:])][0]
                jobs += [theta1_job(name, s, RAW_THETA1[base], RAW_DEFECT),
                         ck_job(name, s, 1, RAW_C1[base], RAW_DEFECT)]
        for name, _, _ in REPORT_SAMPLE_SPECS:
            jobs.append(report_job(name, self.pick_seed(), self.ref))
        if "sg5" in systems:
            # Extra copies put the median inside the c_1(sg5) jobs and the
            # 90th percentile inside the c_2(sg5) jobs, away from the gaps
            # between job classes where a percentile jumps.
            sg5 = systems["sg5"]
            jobs += [ck_job("sg5", sg5, 1, C1["sg5"]) for _ in range(3)]
            jobs += [ck_job("sg5", sg5, 2, C2["sg5"]) for _ in range(2)]
        return jobs


class Measure(Workload):
    """Mixing tables, level masses, dilation checks on both branches,
    martingale decompositions, the decay Monte Carlo and the exact sampler.
    Level tables, ``apply_M``/``apply_M_star``, ``procspace`` and the sampler
    node cache dominate; ``spectral`` runs once per mixing and decay job.
    Short sampled words share prefixes in the node cache, long ones mostly
    miss it and grow the bit size of the conditionals.  The decay trials run
    on float64, the one float path this benchmark keeps."""

    name = "measure"

    def setup(self):
        return _validated({"sg": matsys.sg_system(), "sg3": gasket.generate_system(3)})

    def round_jobs(self, systems):
        sg, sg3 = systems["sg"], systems["sg3"]
        rng = self.rng
        if self.tiny:
            jobs = [
                mixing_job("sg", sg, 1, 6), mixing_job("sg3", sg3, 1, 4),
                level_nu_job("sg3", sg3, 2), cli_mixing_job("sg", 1, 6),
                dilation_job("sg", sg, _values(rng, 3), 1, 2),
                dilation_job("sg", sg, _values(rng, 27), 3, 1),
                martingale_job("sg", sg, _values(rng, 81), 4),
            ]
            specs = SAMPLE_SPECS[2:]
        else:
            # Class counts put the median inside the block of 60-150 ms jobs
            # and the 90th percentile inside the sg3 mixing tables, away from
            # the gaps between job classes where a percentile jumps.
            jobs = [mixing_job("sg", sg, 2, 12)]
            jobs += [mixing_job("sg3", sg3, 1, 8) for _ in range(3)]
            jobs += [level_nu_job("sg3", sg3, 3) for _ in range(2)]
            jobs += [cli_mixing_job("sg", 1, 6) for _ in range(2)]
            jobs += [dilation_job("sg", sg, _values(rng, 3), 1, 2) for _ in range(3)]
            jobs += [dilation_job("sg", sg, _values(rng, 27), 3, 1) for _ in range(5)]
            jobs += [martingale_job("sg", sg, _values(rng, 81), 4) for _ in range(3)]
            specs = SAMPLE_SPECS
        seed = int(rng.integers(2**31))
        jobs += [qdecay_job("sg", sg, 1, 4, 20, seed), qdecay_job("sg3", sg3, 1, 3, 10, seed + 1)]
        jobs += [sample_job(name, systems[name], length, count, self.pick_seed(), self.ref)
                 for name, length, count in specs]
        return jobs


WORKLOADS = {w.name: w for w in (Certify, Measure)}
