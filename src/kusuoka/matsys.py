"""Matrix families defining self-similar product measures.

A system is a finite alphabet S, a dimension d, one injective d x d map
A_s per symbol, and a symmetric positive definite weight E with unit
trace, subject to the two fundamental identities

    sum_s A_s^T E A_s = E        (weight is invariant),
    sum_s A_s A_s^T   = I        (dual normalization).

The weighted inner product on d x d matrices is <A, B> = Tr(B^T E A).
Two completely positive operators act on matrix space:

    M(B)  = sum_s A_s B A_s^T,   M(I) = I,
    M*(B) = sum_s A_s^T B A_s,   M*(E) = E,

mutual adjoints under the Hilbert-Schmidt pairing.  Their spectra away
from the fixed points control every decay rate computed in
:mod:`kusuoka.spectral`.  This module applies them to whole matrices; their
matrices on packed symmetric or antisymmetric coordinates, and the
trace-free basis for any weight E, come from :mod:`kusuoka.quadform`.

Both numeric backends share this interface: "exact" stores
:class:`~kusuoka.exactnum.Radical` entries in object arrays, "float"
stores float64.  Backends never mix silently; converting is explicit
via :func:`to_float_system`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .exactnum import Radical
from .linalg import EXACT, FLOAT
from .quadform import _Quad

__all__ = [
    "MatrixSystem",
    "ValidationReport",
    "make_system",
    "validate",
    "inner_e",
    "apply_M",
    "apply_M_star",
    "schatten_norm",
    "sg_system",
    "bernoulli_system",
    "to_float_system",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
]

@dataclass(frozen=True, eq=False)
class MatrixSystem:
    alphabet: tuple[str, ...]
    dim: int
    maps: tuple[np.ndarray, ...]
    energy: np.ndarray
    backend: str
    symmetric: bool

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    @property
    def field(self) -> linalg.Field:
        return linalg.FIELDS[self.backend]


def _is_sym(a: np.ndarray) -> bool:
    return bool(np.array_equal(a, a.T))


def make_system(alphabet, maps, energy, backend: str) -> MatrixSystem:
    """Assemble and shape-check a system (no semantic validation here).

    The maps and the weight are read-only copies, on both backends, so no
    caller can edit a system under the tables and kernels built from it.
    """
    if backend not in linalg.FIELDS:
        raise ValueError(f"unknown backend {backend!r}")
    alphabet = tuple(str(a) for a in alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    if len(maps) != len(alphabet):
        raise ValueError("one map per symbol required")

    def frozen(rows):
        if isinstance(rows, np.ndarray):
            out = np.array(rows, dtype=linalg.FIELDS[backend].dtype)
        else:
            out = linalg.as_matrix(rows, backend)
        out.setflags(write=False)
        return out

    mats = tuple(frozen(m) for m in maps)
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("all maps must be square with equal dimension")
    e = frozen(energy)
    if e.shape != (d, d):
        raise ValueError("weight matrix dimension mismatch")
    sym = all(_is_sym(m) for m in mats)
    return MatrixSystem(alphabet, d, mats, e, backend, sym)


# -- fundamental operations ----------------------------------------------


def inner_e(system: MatrixSystem, a: np.ndarray, b: np.ndarray):
    """Weighted inner product <a, b> = Tr(b^T E a)."""
    return np.trace(b.T @ system.energy @ a)


def apply_M(system: MatrixSystem, b: np.ndarray) -> np.ndarray:
    out = system.maps[0] @ b @ system.maps[0].T
    for m in system.maps[1:]:
        out = out + m @ b @ m.T
    return out


def apply_M_star(system: MatrixSystem, b: np.ndarray) -> np.ndarray:
    out = system.maps[0].T @ b @ system.maps[0]
    for m in system.maps[1:]:
        out = out + m.T @ b @ m
    return out


@dataclass(frozen=True)
class ValidationReport:
    backend: str
    dim: int
    invariance_residual: float
    normalization_residual: float
    invariance_ok: bool
    normalization_ok: bool
    trace_ok: bool
    positive_definite: bool
    offending_eigenvalue: float | None
    injective: tuple[bool, ...]
    symmetric: bool
    tol: float
    weight_symmetric: bool = True

    @property
    def ok(self) -> bool:
        return (
            self.invariance_ok
            and self.normalization_ok
            and self.trace_ok
            and self.positive_definite
            and all(self.injective)
        )

    def lines(self) -> list[str]:
        mark = lambda b: "ok" if b else "FAIL"
        if not self.weight_symmetric:
            why = " (weight not symmetric)"
        elif self.offending_eigenvalue is not None:
            why = f" (offending eigenvalue {self.offending_eigenvalue:.3e})"
        else:
            why = ""
        return [
            f"weight invariance residual {self.invariance_residual:.3e} [{mark(self.invariance_ok)}]",
            f"dual normalization residual {self.normalization_residual:.3e} [{mark(self.normalization_ok)}]",
            f"weight trace one [{mark(self.trace_ok)}]",
            f"weight positive definite [{mark(self.positive_definite)}]" + why,
            f"maps injective [{mark(all(self.injective))}]",
        ]


def validate(system: MatrixSystem, tol: float = 1e-12) -> ValidationReport:
    """Check both fundamental identities, weight properties, injectivity.

    The checks run on the system's quadratic-form kernel
    (:class:`~kusuoka.quadform._Quad`), built here; ``kusuoka_measure``
    builds the same kernel, validates on it and keeps it for the measure.
    Exact backend: every check is decided on the kernel's packed integer
    coordinates with no ``Radical`` arithmetic
    (:meth:`~kusuoka.quadform._Quad.validation`): the residuals must vanish
    identically, and the trace, positive definiteness and the maps'
    determinants are closed forms for d <= 2 and one fraction-free
    elimination for d >= 3.  A residual that does not vanish is formed
    from the full matrices, for its printed norm.  Float backend: the
    residuals of ``apply_M_star`` and ``apply_M`` and the trace are
    compared against ``tol``.  A symmetric weight that is not positive
    definite reports its least eigenvalue, computed in floats, on both; a
    weight that is not symmetric says so.
    """
    return _validate_kernel(system, _Quad(system) if system.field.exact else None, tol)


def _validate_kernel(system: MatrixSystem, q: _Quad | None, tol: float = 1e-12) -> ValidationReport:
    """:func:`validate` of ``system``: exact checks run on its kernel ``q``, which the caller may keep.

    The float backend reads no kernel, so ``q`` may be None there.
    """
    energy, ident = system.energy, system.field.identity(system.dim)
    sym = _is_sym(energy)
    invariance = lambda: apply_M_star(system, energy) - energy
    normalization = lambda: apply_M(system, ident) - ident
    if system.field.exact:
        inv_ok, norm_ok, trace_ok, pd, inj = q.validation()
        if not sym:  # the kernel reads E's upper triangle
            inv_ok = not invariance().any()
        res1 = 0.0 if inv_ok else _frobenius(invariance())
        res2 = 0.0 if norm_ok else _frobenius(normalization())
        pd = sym and pd
    else:
        res1, res2 = _frobenius(invariance()), _frobenius(normalization())
        inv_ok, norm_ok = res1 <= tol, res2 <= tol
        trace_ok = abs(np.trace(energy) - 1.0) <= tol
        pd = sym and bool(np.linalg.eigvalsh(energy).min() > 0)
        inj = tuple(
            bool(np.linalg.svd(m, compute_uv=False).min() > tol * max(1.0, float(np.abs(m).max())))
            for m in system.maps
        )
    offending = None if pd or not sym else float(np.linalg.eigvalsh(linalg.to_float_matrix(energy)).min())
    return ValidationReport(
        backend=system.backend,
        dim=system.dim,
        invariance_residual=res1,
        normalization_residual=res2,
        invariance_ok=inv_ok,
        normalization_ok=norm_ok,
        trace_ok=trace_ok,
        positive_definite=pd,
        offending_eigenvalue=offending,
        injective=inj,
        symmetric=system.symmetric,
        tol=tol,
        weight_symmetric=sym,
    )


def _frobenius(a: np.ndarray) -> float:
    return math.sqrt(linalg.frobenius_sq(a))


# -- Schatten norms --------------------------------------------------------


def schatten_norm(b: np.ndarray, p):
    """Schatten p-norm: l^p norm of the singular value sequence.

    p may be a number >= 1 or ``float('inf')`` / ``'inf'``.  Exact
    matrices take the exact eigenvalue route when symmetric (p in
    {1, 2, inf}); p = 2 works for any exact matrix via the Frobenius
    identity, a float when the root leaves the field; other exact cases
    fall back to float singular values.
    """
    if p == "inf":
        p = float("inf")
    if not (p == float("inf") or p >= 1):
        raise ValueError("Schatten norms need p >= 1")
    fld = linalg.array_field(b)
    if fld.exact:
        if p == 2:
            sq = linalg.frobenius_sq(b)
            root = fld.sqrt(sq)
            return root if root is not None else math.sqrt(float(sq))
        eigs = linalg.exact_eigenvalues_symmetric(b) if _is_sym(b) else None
        if eigs is not None:
            mags = [abs(x) for x in eigs]
            if p == float("inf"):
                return max(mags)
            if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
                total = Radical(0)
                for m in mags:
                    total = total + m ** int(p)
                if p == 1:
                    return total
                return float(total) ** (1.0 / float(p))
            return float(sum(float(m) ** float(p) for m in mags)) ** (1.0 / float(p))
    sv = np.linalg.svd(linalg.to_float_matrix(b), compute_uv=False)
    if p == float("inf"):
        return float(sv.max(initial=0.0))
    return float((sv**p).sum() ** (1.0 / p))


# -- built-in systems ------------------------------------------------------


def sg_system(backend: str = EXACT) -> MatrixSystem:
    """The standard 3-map, 2-dimensional gasket system.

    A_0 is diagonal with entries 3/sqrt(15) and 1/sqrt(15); A_1 and A_2
    are its conjugates under rotation by 2*pi/3; the weight is I/2.
    """
    half = Fraction(1, 2)
    d0 = linalg.as_matrix(
        [[Radical.root(Fraction(3, 5)), 0], [0, Radical.root(Fraction(1, 15))]], EXACT
    )
    rot = linalg.as_matrix(
        [[Radical(-half), -Radical.root(Fraction(3, 4))],
         [Radical.root(Fraction(3, 4)), Radical(-half)]],
        EXACT,
    )
    maps = [d0, rot.T @ d0 @ rot, rot @ d0 @ rot.T]
    energy = linalg.as_matrix([[half, 0], [0, half]], EXACT)
    system = make_system(("0", "1", "2"), maps, energy, EXACT)
    return system if linalg.FIELDS[backend].exact else to_float_system(system)


def bernoulli_system(probs, backend: str = EXACT) -> MatrixSystem:
    """One-dimensional system with maps (sqrt(p_s)): the product measure.

    ``probs`` are the symbol probabilities; they should sum to one for
    the fundamental identities to hold (validation will report if not).
    """
    probs = [Fraction(p) if not isinstance(p, float) else Fraction(p).limit_denominator(10**9)
             for p in probs]
    if any(p < 0 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    maps = [[[Radical.root(p)]] for p in probs]
    system = make_system(
        tuple(str(i) for i in range(len(probs))),
        [linalg.as_matrix(m, EXACT) for m in maps],
        linalg.as_matrix([[1]], EXACT),
        EXACT,
    )
    return system if linalg.FIELDS[backend].exact else to_float_system(system)


def to_float_system(system: MatrixSystem) -> MatrixSystem:
    if not system.field.exact:
        return system
    return make_system(
        system.alphabet,
        [linalg.to_float_matrix(m) for m in system.maps],
        linalg.to_float_matrix(system.energy),
        FLOAT,
    )


# -- JSON interchange ------------------------------------------------------


def matrix_from_json(rows, field: linalg.Field) -> np.ndarray:
    """A matrix from JSON rows, each entry read by ``field.from_json``."""
    return field.array([[field.from_json(x) for x in row] for row in rows])


def system_to_json(system: MatrixSystem) -> dict:
    out = system.field.to_json
    return {
        "alphabet": list(system.alphabet),
        "dim": system.dim,
        "maps": {
            sym: [[out(x) for x in row] for row in map_]
            for sym, map_ in zip(system.alphabet, system.maps)
        },
        "energy": [[out(x) for x in row] for row in system.energy],
        "backend": system.backend,
    }


def system_from_json(data: dict) -> MatrixSystem:
    try:
        backend = data.get("backend", FLOAT)
        fld = linalg.FIELDS[backend]
        alphabet = [str(a) for a in data["alphabet"]]
        dim = int(data["dim"])
        maps = [matrix_from_json(data["maps"][sym], fld) for sym in alphabet]
        energy = matrix_from_json(data["energy"], fld)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed system description: {exc}") from exc
    system = make_system(alphabet, maps, energy, backend)
    if system.dim != dim:
        raise ValueError("declared dim does not match map shapes")
    return system
