"""Words over the symbol alphabet and scalar cylinder functions.

A word is a tuple of symbol indices read left to right in time order;
it names the initial cylinder of sequences starting with those symbols.
Words of length k are enumerated lexicographically and indexed by their
base-``n_symbols`` big-endian value, so appending a symbol s to a word
with index i gives index ``i * n + s``.

Matrix products follow one global convention: appending a symbol on the
right of the word multiplies on the LEFT of the product,

    mat(word + (s,)) = A_s @ mat(word),

so ``mat(u + v) = mat(v) @ mat(u)``.  This is the order under which the
shift embedding and the conditioning identities in :mod:`kusuoka.measure`
hold with no transposes.

A :class:`CylinderFunction` of depth k is a scalar table on all words of
length k, stored as a flat array in word-index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .matsys import MatrixSystem
from .multiquad import MapField

__all__ = [
    "BudgetError",
    "Word",
    "all_words",
    "enumerate_words",
    "word_index",
    "index_word",
    "word_matrix",
    "concat",
    "format_word",
    "parse_word",
    "CylinderFunction",
    "indicator",
    "cylinder_to_json",
    "cylinder_from_json",
]

Word = tuple[int, ...]

DEFAULT_BUDGET = 10**7


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the word budget."""


def check_budget(n_symbols: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    if k < 0:
        raise ValueError(f"word length must be >= 0, got {k}")
    count = n_symbols**k
    if count > budget:
        raise BudgetError(
            f"enumerating {n_symbols}^{k} = {count} words exceeds budget {budget}"
        )
    return count


def all_words(n_symbols: int, k: int):
    """Lexicographic generator of all words of length k."""
    if k == 0:
        yield ()
        return
    word = [0] * k
    while True:
        yield tuple(word)
        i = k - 1
        while i >= 0 and word[i] == n_symbols - 1:
            word[i] = 0
            i -= 1
        if i < 0:
            return
        word[i] += 1


def enumerate_words(system: MatrixSystem, k: int, budget: int = DEFAULT_BUDGET):
    check_budget(system.n_symbols, k, budget)
    return list(all_words(system.n_symbols, k))


def _checked(word: Word, n_symbols: int) -> Word:
    """The word, after a ValueError if a symbol lies outside 0 .. n_symbols - 1."""
    for s in word:
        if not 0 <= s < n_symbols:
            raise ValueError(f"symbol {s} is outside the alphabet of {n_symbols} symbols")
    return word


def word_index(word: Word, n_symbols: int) -> int:
    i = 0
    for s in _checked(word, n_symbols):
        i = i * n_symbols + s
    return i


def index_word(i: int, k: int, n_symbols: int) -> Word:
    out = [0] * k
    for pos in range(k - 1, -1, -1):
        i, out[pos] = divmod(i, n_symbols)
    return tuple(out)


def word_matrix(system: MatrixSystem, word: Word) -> np.ndarray:
    """Product matrix of a word: later symbols multiply on the left."""
    out = linalg.identity(system.dim, system.backend)
    for s in _checked(word, system.n_symbols):
        out = system.maps[s] @ out
    return out


def next_level(table, maps: MapField):
    """One level deeper: entry ``i * n + s`` is ``A_s @ table[i]``.

    The step every word-indexed matrix table is built by: ``table`` is a
    packed ``(words, d, d, m)`` stack in the field of ``maps`` and the
    result, one stacked product with the packed maps, is the
    ``(words * n, d, d, m)`` stack of the child words.
    """
    (num, den), (a, a_den) = table, maps.maps
    out, den = maps.fld.matmul((a[None], a_den), (num[:, None], den))
    return out.reshape(-1, *out.shape[2:]), den


def concat(u: Word, v: Word) -> Word:
    return tuple(u) + tuple(v)


def format_word(word: Word, alphabet) -> str:
    names = [alphabet[s] for s in word]
    if all(len(n) == 1 for n in alphabet):
        return "".join(names)
    return ".".join(names)


def parse_word(text: str, alphabet) -> Word:
    text = text.strip()
    lookup = {name: i for i, name in enumerate(alphabet)}
    if text == "":
        return ()
    if all(len(n) == 1 for n in alphabet) and "." not in text:
        parts = list(text)
    else:
        parts = text.split(".")
    try:
        return tuple(lookup[p] for p in parts)
    except KeyError as exc:
        raise ValueError(f"symbol {exc.args[0]!r} not in alphabet {list(alphabet)}") from exc


# -- cylinder functions ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class CylinderFunction:
    """Scalar function of the first ``depth`` symbols.

    ``values[i]`` is the value on the word with index i.  The backend
    mirrors the matrix backends: object arrays of Radical, or float64.
    """

    depth: int
    n_symbols: int
    values: np.ndarray
    backend: str

    def __post_init__(self):
        expected = self.n_symbols**self.depth
        if len(self.values) != expected:
            raise ValueError(
                f"depth {self.depth} over {self.n_symbols} symbols needs "
                f"{expected} values, got {len(self.values)}"
            )

    def value(self, word: Word):
        if len(word) != self.depth:
            raise ValueError(f"expected a word of length {self.depth}")
        return self.values[word_index(word, self.n_symbols)]

    def refine(self, depth: int) -> "CylinderFunction":
        """The same function written as a table on longer words."""
        if depth < self.depth:
            raise ValueError("refine only increases depth")
        reps = self.n_symbols ** (depth - self.depth)
        vals = np.repeat(self.values, reps)
        return CylinderFunction(depth, self.n_symbols, vals, self.backend)

    def __add__(self, other):
        if isinstance(other, CylinderFunction):
            if other.depth != self.depth:
                raise ValueError("depth mismatch")
            return CylinderFunction(
                self.depth, self.n_symbols, self.values + other.values, self.backend
            )
        return CylinderFunction(self.depth, self.n_symbols, self.values + other, self.backend)

    def __sub__(self, other):
        if isinstance(other, CylinderFunction):
            if other.depth != self.depth:
                raise ValueError("depth mismatch")
            return CylinderFunction(
                self.depth, self.n_symbols, self.values - other.values, self.backend
            )
        return CylinderFunction(self.depth, self.n_symbols, self.values - other, self.backend)

    def __mul__(self, scalar):
        return CylinderFunction(self.depth, self.n_symbols, self.values * scalar, self.backend)

    __rmul__ = __mul__


def cylinder_from_values(system: MatrixSystem, depth: int, values) -> CylinderFunction:
    return CylinderFunction(depth, system.n_symbols, system.field.array(values), system.backend)


def indicator(system: MatrixSystem, word: Word) -> CylinderFunction:
    """Indicator of the initial cylinder named by ``word``."""
    k = len(word)
    vals = system.field.zeros(system.n_symbols**k)
    vals[word_index(word, system.n_symbols)] = system.field.one
    return CylinderFunction(k, system.n_symbols, vals, system.backend)


def cylinder_to_json(f: CylinderFunction, alphabet) -> dict:
    out = linalg.FIELDS[f.backend].to_json
    vals = {}
    for i in range(len(f.values)):
        w = index_word(i, f.depth, f.n_symbols)
        vals[format_word(w, alphabet)] = out(f.values[i])
    return {"depth": f.depth, "values": vals}


def cylinder_from_json(data: dict, system: MatrixSystem) -> CylinderFunction:
    try:
        depth = int(data["depth"])
        raw = data["values"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed cylinder function: {exc}") from exc
    n = system.n_symbols
    vals = system.field.zeros(check_budget(n, depth))
    for key, x in raw:
        w = parse_word(key, system.alphabet)
        if len(w) != depth:
            raise ValueError(f"word {key!r} does not have declared depth {depth}")
        vals[word_index(w, n)] = system.field.from_json(x)
    return CylinderFunction(depth, n, vals, system.backend)
