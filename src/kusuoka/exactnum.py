"""Exact arithmetic over real multiquadratic fields.

A :class:`Radical` is a finite rational combination of square roots of
positive squarefree integers,

    x = sum_r  c_r * sqrt(r),    c_r in Q,  r squarefree,

closed under +, -, *, / and therefore a field.  Everything the exact
backend produces lives here: map entries such as sqrt(15)/10, cylinder
masses (plain rationals), renormalization factors sqrt(5/3), and decay
constants like sqrt(201)/15.

Zero testing is trivial because square roots of distinct squarefree
integers are linearly independent over Q: an element is zero iff it has
no terms.  Sign testing for nonzero elements uses adaptive rational
enclosures of each sqrt(r) via integer square roots, which terminates
because the enclosure width can be made arbitrarily small.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain

__all__ = ["Radical", "sqrt_fraction", "parse_exact", "format_exact"]


_TRIAL_LIMIT = 10**7  # largest trial divisor of _squarefree


@lru_cache(maxsize=None)
def _squarefree(n: int) -> tuple[int, int] | None:
    """Decompose n = s*s*r with r squarefree; return (s, r), or None.

    Trial division stops at ``_TRIAL_LIMIT``.  Every prime factor of the
    cofactor left then lies above the limit, so the cofactor is settled as a
    perfect square, or as squarefree when it is below the cube of the limit
    (at most two prime factors, not equal).  Any other cofactor gives None.
    """
    assert n > 0
    s, r = 1, 1
    for d in chain((2,), range(3, _TRIAL_LIMIT + 1, 2)):
        if d * d > n:
            return s, r * n
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
    root = math.isqrt(n)
    if root * root == n:
        return s * root, r
    return (s, r * n) if n < _TRIAL_LIMIT**3 else None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The rational square root of q >= 0, or None when it is irrational."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _coerce_fraction(x) -> Fraction | None:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, numbers.Rational):
        return Fraction(x.numerator, x.denominator)
    return None


class Radical:
    """Element of Q(sqrt(r) : r squarefree), immutable and hashable.

    Use ``Radical(q)`` for rationals, :meth:`Radical.root` for square
    roots of nonnegative rationals, and ordinary operators for
    arithmetic.  Mixing with floats raises ``TypeError``: the exact
    backend never silently degrades to floating point.
    """

    __slots__ = ("_t",)

    def __init__(self, value=0):
        if isinstance(value, Radical):
            self._t = value._t
            return
        q = _coerce_fraction(value)
        if q is None:
            raise TypeError(f"cannot build exact scalar from {type(value).__name__}")
        self._t = ((1, q),) if q else ()

    @classmethod
    def from_terms(cls, terms: dict[int, Fraction]) -> "Radical":
        """The element sum_r terms[r] * sqrt(r); radicands must be squarefree."""
        obj = object.__new__(cls)
        obj._t = tuple(sorted((r, c) for r, c in terms.items() if c))
        return obj

    @classmethod
    def _from_sorted(cls, terms: list) -> "Radical":
        """The element of (radicand, coefficient) terms already in canonical form, taken as they are.

        The caller guarantees what :meth:`from_terms` establishes: squarefree,
        distinct radicands in increasing order and nonzero ``Fraction``
        coefficients.
        """
        obj = object.__new__(cls)
        obj._t = tuple(terms)
        return obj

    @classmethod
    def _from_int(cls, n: int) -> "Radical":
        obj = object.__new__(cls)
        obj._t = ((1, Fraction(n)),) if n else ()
        return obj

    @classmethod
    def root(cls, q) -> "Radical":
        """Exact square root of a nonnegative rational.

        Raises ``ValueError`` when the radicand cannot be made squarefree
        by bounded trial division (see ``_squarefree``).
        """
        q = _coerce_fraction(q)
        if q is None:
            raise TypeError("root() takes a rational argument")
        if q < 0:
            raise ValueError("root() of a negative rational")
        if q == 0:
            return cls(0)
        split = _squarefree(q.numerator * q.denominator)
        if split is None:
            raise ValueError(f"cannot split the square root of {q}: its radicand has large prime factors")
        s, r = split
        return cls.from_terms({r: Fraction(s, q.denominator)})

    # -- queries ---------------------------------------------------------

    def terms(self) -> tuple:
        """The (squarefree radicand, nonzero rational coefficient) pairs, by radicand."""
        return self._t

    def is_zero(self) -> bool:
        return not self._t

    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self._t)

    def as_fraction(self) -> Fraction:
        if not self._t:
            return Fraction(0)
        if len(self._t) == 1 and self._t[0][0] == 1:
            return self._t[0][1]
        raise ValueError(f"not a rational number: {self}")

    def sign(self) -> int:
        if not self._t:
            return 0
        negs = [c < 0 for _, c in self._t]
        if not any(negs):
            return 1
        if all(negs):
            return -1
        prec = 64
        while True:
            lo = hi = Fraction(0)
            scale = 1 << prec
            for r, c in self._t:
                s = math.isqrt(r * scale * scale)
                if c >= 0:
                    lo += c * Fraction(s, scale)
                    hi += c * Fraction(s + 1, scale)
                else:
                    lo += c * Fraction(s + 1, scale)
                    hi += c * Fraction(s, scale)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    # -- arithmetic ------------------------------------------------------

    def _terms_dict(self) -> dict[int, Fraction]:
        return dict(self._t)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = self._terms_dict()
        for r, c in o._t:
            terms[r] = terms.get(r, 0) + c
        return Radical.from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return Radical.from_terms({r: -c for r, c in self._t})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is int:
            obj = object.__new__(Radical)
            obj._t = tuple((r, c * other) for r, c in self._t) if other else ()
            return obj
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for r1, c1 in self._t:
            for r2, c2 in o._t:
                g = math.gcd(r1, r2)
                r3 = (r1 // g) * (r2 // g)
                c3 = c1 * c2 if g == 1 else c1 * c2 * g
                terms[r3] = terms.get(r3, 0) + c3
        return Radical.from_terms(terms)

    __rmul__ = __mul__

    def _inverse(self) -> "Radical":
        if not self._t:
            raise ZeroDivisionError("division by exact zero")
        if self.is_rational():
            return Radical(1 / self._t[0][1])
        if len(self._t) == 1:
            r, c = self._t[0]
            return Radical.from_terms({r: 1 / (c * r)})
        # Refine d > 1 by gcds until it divides or is coprime to each radicand.
        # Then d | r iff p | r for every prime p | d: flipping those terms is
        # sqrt(p) -> -sqrt(p), and the norm below is free of p.
        d = self._t[-1][0]
        for r, _ in self._t:
            g = math.gcd(d, r)
            if g > 1:
                d = g
        conj = Radical.from_terms({r: (-c if r % d == 0 else c) for r, c in self._t})
        norm = self * conj
        return conj * norm._inverse()

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        n = int(n)
        if n < 0:
            return self._inverse() ** (-n)
        result = Radical(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sqrt(self) -> "Radical":
        """Exact square root, when one exists in the field.

        Handles nonnegative rationals and two-term elements that happen
        to be perfect squares, e.g. 8 - 2*sqrt(15) = (sqrt(5)-sqrt(3))^2.
        Raises ``ValueError`` otherwise.
        """
        if not self._t:
            return Radical(0)
        if self.sign() < 0:
            raise ValueError(f"sqrt of negative value {self}")
        if self.is_rational():
            return Radical.root(self.as_fraction())
        if len(self._t) == 2 and self._t[0][0] == 1:
            # (a + b sqrt(r))^2 = self with a, b rational: a^2 is a root of
            # t^2 - u t + r v^2 / 4, so only rational square roots qualify
            u = self._t[0][1]
            r, v = self._t[1]
            sd = _rational_sqrt(u * u - r * v * v) if u * u >= r * v * v else None
            if sd is not None:
                for tt in ((u + sd) / 2, (u - sd) / 2):
                    a = _rational_sqrt(tt) if tt > 0 else None
                    if a is None:
                        continue
                    cand = Radical(a) + Radical.from_terms({r: v / (2 * a)})
                    if cand * cand == self:
                        return cand if cand.sign() > 0 else -cand
        raise ValueError(f"sqrt of {self} is not representable in this field")

    # -- comparisons -----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Radical):
            return other
        if type(other) is int:
            return Radical._from_int(other)
        q = _coerce_fraction(other)
        if q is not None:
            return Radical(q)
        if isinstance(other, numbers.Real):
            raise TypeError(
                "exact scalar mixed with float operand; convert the system "
                "to one backend first"
            )
        return None

    def __eq__(self, other):
        if type(other) is int:
            return self._t == ((1, other),) if other else not self._t
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __ne__(self, other):
        if type(other) is int:
            return self._t != ((1, other),) if other else bool(self._t)
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self._t)

    def __bool__(self):
        return bool(self._t)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(sum(c * math.sqrt(r) for r, c in self._t))

    # -- formatting ------------------------------------------------------

    def __str__(self):
        return format_exact(self)

    def __repr__(self):
        return f"Radical({format_exact(self)!r})"


def sqrt_fraction(q) -> Radical:
    """Convenience alias for :meth:`Radical.root`."""
    return Radical.root(q)


def format_exact(x: Radical) -> str:
    """Canonical string form: '0', '4/5', '-1/2*sqrt(3) + 2'.

    The rational term comes first, then radical terms by increasing
    radicand; coefficients render as p or p/q.
    """
    if isinstance(x, (int, Fraction)):
        x = Radical(x)
    if not x._t:
        return "0"
    parts = []
    for r, c in x._t:
        mag = abs(c)
        if r == 1:
            body = str(mag)
        elif mag == 1:
            body = f"sqrt({r})"
        else:
            body = f"{mag}*sqrt({r})"
        parts.append(("-" if c < 0 else "+", body))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sgn, body in parts[1:]:
        out += f" {sgn} {body}"
    return out


_TERM_RE = re.compile(
    r"""^
    (?:(?P<coeff>[0-9]+(?:/[0-9]*[1-9][0-9]*)?|[0-9]*\.[0-9]+)\*?)?
    (?:sqrt\((?P<rad>[0-9]+)\))?
    (?:/(?P<div>[0-9]*[1-9][0-9]*))?
    $""",
    re.VERBOSE,
)


def parse_exact(text: str) -> Radical:
    """Parse 'p/q', 'p/q*sqrt(r)', 'sqrt(r)/q' (q > 0), decimals, and sums thereof."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty exact scalar")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    total = Radical(0)
    for chunk in s.split("+"):
        if not chunk:
            raise ValueError(f"malformed exact scalar {text!r}")
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("rad") is None):
            raise ValueError(f"malformed exact scalar term {chunk!r} in {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("div"):
            coeff /= int(m.group("div"))
        term = Radical(coeff)
        if m.group("rad"):
            term = term * Radical.root(int(m.group("rad")))
        total = total - term if neg else total + term
    return total
