"""Group words over the half-twist alphabet and the symmetric-group shadow.

A :class:`Word` is a freely reduced sequence of signed letters ``+i``/``-i``
standing for ``sigma_i^{+1}`` / ``sigma_i^{-1}`` with ``1 <= i <= 2n+1``.
Every letter is range-checked before free reduction, so an out-of-range
letter raises even where it would cancel.  Everything in this module is an
immutable value; the single global composition convention is *rightmost
letter acts first*, i.e. a word ``u v`` acts as the function ``u o v``.

Words have one text form, generator tokens: :meth:`Word.to_text` writes
``s<i>``/``s<i>^-1`` tokens, and :func:`generators.expand_token_text`
reads them back along with every named generator.  :func:`read_token` is
the one reader of a token, for word, lift and curve text alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, lt, neg

from . import _kernels as K
from .errors import ContextMismatchError, WordSyntaxError


@dataclass(frozen=True)
class Context:
    """Size parameters: ``2n+2`` marked points, cover degree ``k``."""

    n: int
    k: int = 3

    def __post_init__(self):
        for name, least in (("n", 1), ("k", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    @property
    def num_points(self) -> int:
        return 2 * self.n + 2

    @property
    def num_arcs(self) -> int:
        return 2 * self.n + 1

    @property
    def genus(self) -> int:
        return self.n * (self.k - 1)


@lru_cache(maxsize=8)
def _valid_letters(top: int) -> frozenset[int]:
    return frozenset(range(-top, top + 1)) - {0}


def first_out_of_range(letters: tuple[int, ...], top: int) -> int | None:
    """The first letter that is 0 or beyond ``+-top``, or None if there is none.

    One subset test against the valid letters (a C loop that hashes each
    letter once) clears a good tuple; the per-letter loop runs only when it
    fails.  On CPython 3.11 this beats scanning with ``in``, ``max`` and
    ``min``, three rich-comparison passes that are slower than the loop.
    """
    if _valid_letters(top).issuperset(letters):
        return None
    return next((a for a in letters if a == 0 or abs(a) > top), None)


def _check_letters(ctx: Context, letters: tuple[int, ...]) -> None:
    top = ctx.num_arcs
    bad = first_out_of_range(letters, top)
    if bad is not None:
        raise WordSyntaxError(f"letter {bad} out of range 1..{top}")


# A token: a name (``r1`` with no index, or ASCII letters and underscores), up
# to two comma-separated indices, and an optional exponent, either an integer
# or a linear expression in n and k in parentheses.  Digits are ASCII only.
_TOKEN_RE = re.compile(r"(r1(?![\d,])|[A-Za-z_]+)(?:(\d+)(?:,(\d+))?)?(?:\^(?:([+-]?\d+)|\((.*)\)))?", re.ASCII)
_TERM_RE = re.compile(r"[+-]?(?:\d+[nk]?|[nk])", re.ASCII)


def _eval_linexpr(text: str, ctx: Context) -> int:
    """The value of a sum of terms such as ``2n``, ``-k`` or ``+3``."""
    terms = [m[0] for m in _TERM_RE.finditer(text)]
    if not text or "".join(terms) != text:
        raise WordSyntaxError(f"malformed exponent expression {text!r}")
    var = {"n": ctx.n, "k": ctx.k}
    return sum((-1 if t[0] == "-" else 1) * int(t.lstrip("+-").rstrip("nk") or 1) * var.get(t[-1], 1)
               for t in terms)


def read_token(tok: str, ctx: Context) -> tuple[str, tuple[int, ...], int]:
    """A token as ``(name, indices, exponent)``: ``t2,3^(k-1)`` is
    ``("t", (2, 3), k - 1)``, and an absent exponent is 1.

    The one reader of a token, for word, lift and curve text; each caller
    checks the name and the number of indices against its own table.  A
    token of another shape raises :class:`WordSyntaxError`.
    """
    m = _TOKEN_RE.fullmatch(tok)
    if not m:
        raise WordSyntaxError(f"malformed token {tok!r}")
    name, i, j, e, expr = m.groups()
    indices = tuple(int(x) for x in (i, j) if x is not None)
    if expr is not None:
        return name, indices, _eval_linexpr(expr, ctx)
    return name, indices, int(e or 1)


@dataclass(frozen=True)
class Word:
    """A freely reduced word over ``sigma_1 .. sigma_{2n+1}``."""

    ctx: Context
    letters: tuple[int, ...]

    def __post_init__(self):
        _check_letters(self.ctx, self.letters)
        if 0 in map(add, self.letters, self.letters[1:]):
            raise WordSyntaxError("a letter is followed by its inverse; Word.from_letters reduces")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, ctx: Context) -> "Word":
        return cls(ctx, ())

    @classmethod
    def from_letters(cls, ctx: Context, letters) -> "Word":
        """The reduced word; every letter is range-checked once, before reduction."""
        letters = tuple(letters)
        _check_letters(ctx, letters)
        return cls._trusted(ctx, K.reduce_word(letters))

    @classmethod
    def _trusted(cls, ctx: Context, letters: tuple[int, ...]) -> "Word":
        """A word over letters already known to be in range, built without a second check."""
        w = object.__new__(cls)
        object.__setattr__(w, "ctx", ctx)
        object.__setattr__(w, "letters", letters)
        return w

    # -- views -------------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word(n={self.ctx.n}, {self.to_text()!r})"

    def to_text(self) -> str:
        return " ".join(f"s{a}" if a > 0 else f"s{-a}^-1" for a in self.letters)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"cannot concatenate words over {self.ctx} and {other.ctx}"
            )
        return Word._trusted(self.ctx, K.concat(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word._trusted(self.ctx, tuple(map(neg, reversed(self.letters))))

    def __pow__(self, e: int) -> "Word":
        base = self if e >= 0 else self.inverse()
        return Word._trusted(self.ctx, K.reduce_word(base.letters * abs(e)))


def exponent_sum(w: Word) -> int:
    """Positive letters minus negative ones; the negatives are counted in one C loop."""
    return len(w.letters) - 2 * sum(map(lt, w.letters, repeat(0)))


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1..size}``; ``images[i-1]`` is the image of ``i``."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(1, size + 1)))

    @classmethod
    def transposition(cls, size: int, i: int, j: int) -> "Permutation":
        im = list(range(1, size + 1))
        im[i - 1], im[j - 1] = j, i
        return cls(tuple(im))

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """``self o other``: apply ``other`` first."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[y - 1] for y in other.images))

    def inverse(self) -> "Permutation":
        im = [0] * self.size
        for x, y in enumerate(self.images, start=1):
            im[y - 1] = x
        return Permutation(tuple(im))

    def to_text(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"


def psi(w: Word, ctx: Context) -> Permutation:
    """The marked-point permutation of a word: ``sigma_i`` maps to ``(i i+1)``.

    Homomorphic for the rightmost-first convention:
    ``psi(u v) = psi(u) o psi(v)``.
    """
    im = list(range(1, ctx.num_points + 1))
    for a in w.letters:  # p o (i i+1) swaps entries i and i+1 of p's images
        i = abs(a)
        im[i - 1], im[i] = im[i], im[i - 1]
    return Permutation(tuple(im))
