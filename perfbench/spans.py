"""Spans and counters around the kusuoka layers, recorded from outside.

``Tracer.install`` replaces every public function named in a layer
module's ``__all__``, and every public method of a class named there, with a
wrapper that records a span: name, start, end, parent span and job id.  The
``cli`` module has no ``__all__``; its entry point ``main`` is its public
function.  Generator functions are left alone, since their work runs in the
caller.  ``exactnum`` is counted, not spanned: a span per scalar operation
would cost more than the operation.

Counters sit at the same boundaries: scalar operations and the bit size of
their results, level-table and sampler-node cache hits, words checked
against the enumeration budget, certified spectral results, Monte Carlo
trials and command exit codes.  Wrappers record only while ``active`` is set,
that is, while a job runs, so set-up and output checks stay out of the trace.
``Tracer.uninstall`` puts the library back as it was, so that traced and
untraced rounds can alternate in one process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

from kusuoka import cli, exactnum, gasket, linalg, matsys, measure, procspace, spectral, symbolic

SPANNED = {
    "linalg": linalg,
    "matsys": matsys,
    "symbolic": symbolic,
    "measure": measure,
    "spectral": spectral,
    "procspace": procspace,
    "gasket": gasket,
    "cli": cli,
}

_RADICAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


_MISSING = object()


def _public(module) -> list[str]:
    return list(getattr(module, "__all__", ["main"]))


class Tracer:
    """In-memory span record plus counters for one traced run."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list = []  # (name, module, start, end, parent index, job id)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: defaultdict = defaultdict(float)
        self._patched: list = []  # (owner, attribute, original or _MISSING)

    def _patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` by ``wrap(owner.attr)``, remembering the original."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _span(self, module: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, module, start, end, parent, tracer.job)

        return wrapper

    @contextlib.contextmanager
    def job_span(self, job_id: int, kind: str):
        """Trace one job under a root span of its own."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.job = job_id
        self.active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[index] = (f"job:{kind}", "job", start, end, None, job_id)

    def self_seconds(self) -> dict[str, float]:
        """Per module: span time minus the time of its direct child spans."""
        child = defaultdict(float)
        for name, module, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (name, module, start, end, parent, job) in enumerate(self.spans):
            out[module] += (end - start) - child[i]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(module for _, module, *_ in self.spans)

    # -- counters ---------------------------------------------------------

    def _counted(self, fn, before=None, after=None):
        """Wrap ``fn`` with hooks that run only while a job is traced."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(*args, **kwargs) if before else None
            result = fn(*args, **kwargs)
            if after:
                after(result, state, *args, **kwargs)
            return result

        return wrapper

    def _install_exactnum(self) -> None:
        radical = exactnum.Radical
        counts, peaks = self.counts, self.peaks

        def op_done(result, state, *args, **kwargs):
            if isinstance(result, radical):  # not NotImplemented
                counts["exactnum.ops"] += 1
                counts["exactnum.terms"] += len(result._t)
                for _, c in result._t:
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if bits > peaks["exactnum.peak_bits"]:
                        peaks["exactnum.peak_bits"] = bits

        def inverse(self_, *args):
            counts["exactnum.inverses"] += 1

        def sign(self_, *args):
            signs = {c < 0 for _, c in self_._t}
            if len(signs) == 2:  # mixed signs: decided by rational enclosures
                counts["exactnum.sign_refinements"] += 1

        for name in _RADICAL_OPS:
            self._patch(radical, name, lambda fn: self._counted(fn, after=op_done))
        self._patch(radical, "_inverse", lambda fn: self._counted(fn, before=inverse))
        self._patch(radical, "sign", lambda fn: self._counted(fn, before=sign))

    def _install_counters(self) -> None:
        counts, peaks = self.counts, self.peaks

        def budget(result, state, n_symbols, k, budget=symbolic.DEFAULT_BUDGET):
            counts["symbolic.words_enumerated"] += result
            peaks["symbolic.budget_peak_share"] = max(
                peaks["symbolic.budget_peak_share"], result / budget)

        self._patch(symbolic, "check_budget", lambda fn: self._counted(fn, after=budget))

        def level_cache(attr):
            def before(m, k, *args, **kwargs):
                counts["measure.level_lookups"] += 1
                counts["measure.level_hits"] += k in getattr(m, attr)
            return before

        km = measure.KusuokaMeasure
        self._patch(km, "level_matrices",
                    lambda fn: self._counted(fn, before=level_cache("_level_mats")))
        self._patch(km, "level_nu", lambda fn: self._counted(fn, before=level_cache("_level_mass")))

        def node_before(m, word, *args):
            counts["measure.sampler_lookups"] += 1
            counts["measure.sampler_hits"] += word in m._sampler_nodes

        def node_after(result, state, m, *args):
            fill = len(m._sampler_nodes)
            if fill > peaks["measure.sampler_cache_fill"]:
                peaks["measure.sampler_cache_fill"] = fill

        self._patch(measure, "_sampler_node",
                    lambda fn: self._counted(fn, node_before, node_after))

        def certified(result, state, system, *args, **kwargs):
            if system.backend != linalg.EXACT:
                return
            if getattr(result, "applicable", True):
                counts["spectral.certified"] += result.exact is not None
            else:  # c_k of a 1-dimensional system: nothing to certify
                counts["spectral.attempts"] -= 1

        def attempt(system, *args, **kwargs):
            if system.backend == linalg.EXACT:
                counts["spectral.attempts"] += 1

        for name in ("theta1", "c_k"):
            self._patch(spectral, name, lambda fn: self._counted(fn, attempt, certified))

        def trial(*args, **kwargs):
            counts["procspace.trials"] += 1

        self._patch(procspace, "random_innovation_process",
                    lambda fn: self._counted(fn, before=trial))

        def exit_code(code, state, *args, **kwargs):
            counts["cli.nonzero_exits"] += code != 0

        self._patch(cli, "main", lambda fn: self._counted(fn, after=exit_code))

    def install(self) -> None:
        """Patch the library in place; counters first, spans around them."""
        self._install_exactnum()
        self._install_counters()
        for module_name, module in SPANNED.items():
            for name in _public(module):
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, functools.partial(
                                self._span, module_name, f"{name}.{attr}"))
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    self._patch(module, name, functools.partial(self._span, module_name, name))
