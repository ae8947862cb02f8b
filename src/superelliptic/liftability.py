"""Parity classes, the liftability predicate, and the curve monodromy test.

A permutation of the ``2n+2`` marked points is *parity-preserving* when it
maps the odd positions ``{1,3,..,2n+1}`` onto themselves and
*parity-reversing* when it maps them onto the even positions.  A mapping
class lifts through the degree-``k`` cover (``k >= 3``) iff its point
permutation is one of the two.

A simple closed curve in the complement of the marked points, written as a
cyclic word in the puncture loops ``x_1..x_{2n+2}``, lifts iff its signed
crossing count with the odd arcs vanishes mod ``k``; the functional is
``sum_j eps_j * (exponent sum of x_j)`` with ``eps_j = +1`` for odd ``j``
and ``-1`` for even ``j``.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from math import factorial

from . import _kernels as K
from .errors import WordSyntaxError
from .words import Context, Permutation, Word, psi


class ParityClass(enum.Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


def parity(perm: Permutation, ctx: Context) -> ParityClass:
    odds = frozenset(range(1, ctx.num_points + 1, 2))
    evens = frozenset(range(2, ctx.num_points + 1, 2))
    image = frozenset(perm(x) for x in odds)
    if image == odds:
        return ParityClass.PRESERVING
    if image == evens:
        return ParityClass.REVERSING
    return ParityClass.NEITHER


def in_W(perm: Permutation, ctx: Context) -> bool:
    return parity(perm, ctx) is not ParityClass.NEITHER


def is_liftable_word(w: Word, ctx: Context) -> bool:
    return in_W(psi(w, ctx), ctx)


def w_parity_map(perm: Permutation, ctx: Context) -> int:
    """0 for parity-preserving, 1 for parity-reversing; a mod-2 homomorphism."""
    cls = parity(perm, ctx)
    if cls is ParityClass.NEITHER:
        raise ValueError("permutation is not parity-preserving or -reversing")
    return 0 if cls is ParityClass.PRESERVING else 1


def w_size(ctx: Context) -> int:
    """The order ``2 ((n+1)!)^2`` of the parity subgroup of ``S_{2n+2}``."""
    return 2 * factorial(ctx.n + 1) ** 2


def enumerate_W(ctx: Context):
    """Exhaustive iterator over the parity subgroup (desk scale: n <= 3)."""
    if ctx.n > 3:
        raise ValueError("exhaustive enumeration is limited to n <= 3")
    for images in itertools.permutations(range(1, ctx.num_points + 1)):
        perm = Permutation(images)
        if in_W(perm, ctx):
            yield perm


_CURVE_TOKEN_RE = re.compile(r"^x(\d+)(\^-1)?$")


@dataclass(frozen=True)
class CurveClass:
    """A free-homotopy class of a curve, as a cyclically reduced word.

    Letters are signed indices over the puncture loops ``x_1..x_{2n+2}``.
    """

    ctx: Context
    letters: tuple[int, ...]

    def __post_init__(self):
        top = self.ctx.num_points
        for a in self.letters:
            if a == 0 or abs(a) > top:
                raise WordSyntaxError(f"curve letter {a} out of range 1..{top}")

    @classmethod
    def from_letters(cls, ctx: Context, letters) -> "CurveClass":
        reduced = K.reduce_word(letters)
        while len(reduced) >= 2 and reduced[0] == -reduced[-1]:
            reduced = reduced[1:-1]
        return cls(ctx, reduced)

    def inverse(self) -> "CurveClass":
        return CurveClass(self.ctx, tuple(-a for a in reversed(self.letters)))

    def cycled(self, shift: int) -> "CurveClass":
        if not self.letters:
            return self
        s = shift % len(self.letters)
        return CurveClass(self.ctx, self.letters[s:] + self.letters[:s])

    def to_text(self) -> str:
        return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in self.letters)


def curve_parse(text: str, ctx: Context) -> CurveClass:
    letters = []
    for tok in text.split():
        m = _CURVE_TOKEN_RE.match(tok)
        if not m:
            raise WordSyntaxError(f"malformed curve token {tok!r}")
        j = int(m.group(1))
        if not (1 <= j <= ctx.num_points):
            raise WordSyntaxError(f"index {j} out of range 1..{ctx.num_points}")
        letters.append(-j if m.group(2) else j)
    return CurveClass.from_letters(ctx, letters)


def gamma_curve(i: int, j: int, ctx: Context) -> CurveClass:
    """The nested curve enclosing points ``i..j``: the word ``x_i ... x_j``."""
    if not (1 <= i < j <= ctx.num_points):
        raise ValueError(f"curve pair ({i},{j}) out of range")
    return CurveClass(ctx, tuple(range(i, j + 1)))


def curve_monodromy(c: CurveClass, ctx: Context) -> int:
    """The mod-``k`` crossing residue; the curve lifts iff it is zero."""
    total = 0
    for a in c.letters:
        j = abs(a)
        eps = 1 if j % 2 == 1 else -1
        total += eps * (1 if a > 0 else -1)
    return total % ctx.k
