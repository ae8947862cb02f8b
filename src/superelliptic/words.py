"""Group words over the half-twist alphabet and the symmetric-group shadow.

A :class:`Word` is a freely reduced sequence of signed letters ``+i``/``-i``
standing for ``sigma_i^{+1}`` / ``sigma_i^{-1}`` with ``1 <= i <= 2n+1``.
Every letter is range-checked before free reduction, so an out-of-range
letter raises even where it would cancel.  Everything in this module is an
immutable value; the single global composition convention is *rightmost
letter acts first*, i.e. a word ``u v`` acts as the function ``u o v``.

Words have one text form, generator tokens: :meth:`Word.to_text` writes
``s<i>``/``s<i>^-1`` tokens, and :func:`generators.expand_token_text`
reads them back along with every named generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .errors import ContextMismatchError, WordSyntaxError


@dataclass(frozen=True)
class Context:
    """Size parameters: ``2n+2`` marked points, cover degree ``k``."""

    n: int
    k: int = 3

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.k, int) and self.k >= 2):
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")

    @property
    def num_points(self) -> int:
        return 2 * self.n + 2

    @property
    def num_arcs(self) -> int:
        return 2 * self.n + 1

    @property
    def genus(self) -> int:
        return self.n * (self.k - 1)


@dataclass(frozen=True)
class Word:
    """A freely reduced word over ``sigma_1 .. sigma_{2n+1}``."""

    ctx: Context
    letters: tuple[int, ...]

    def __post_init__(self):
        top = self.ctx.num_arcs
        for a in self.letters:
            if a == 0 or abs(a) > top:
                raise WordSyntaxError(f"letter {a} out of range 1..{top}")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, ctx: Context) -> "Word":
        return cls(ctx, ())

    @classmethod
    def from_letters(cls, ctx: Context, letters) -> "Word":
        """The reduced word; every letter is range-checked before reduction."""
        return cls(ctx, K.reduce_word(cls(ctx, tuple(letters)).letters))

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
        return Word(self.ctx, K.concat(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word(self.ctx, tuple(-a for a in reversed(self.letters)))

    def __pow__(self, e: int) -> "Word":
        base = self if e >= 0 else self.inverse()
        return Word.from_letters(self.ctx, base.letters * abs(e))


def exponent_sum(w: Word) -> int:
    return sum(1 if a > 0 else -1 for a in w.letters)


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

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise WordSyntaxError(f"malformed permutation {text!r}")
        return cls(tuple(int(p) for p in body[1:-1].split(",")))


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
