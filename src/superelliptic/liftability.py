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
from dataclasses import dataclass
from math import factorial, prod
from operator import neg

from . import _kernels as K
from .errors import WordSyntaxError
from .words import Context, Permutation, Word, first_out_of_range, psi, read_token


class ParityClass(enum.Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


def _parity_of(images) -> ParityClass:
    """The class of the permutation ``x -> images[x-1]``, read off the
    parities of ``p(x) - x``: all even preserves, all odd reverses."""
    shifts = {(y - x) % 2 for x, y in enumerate(images, start=1)}
    if shifts == {0}:
        return ParityClass.PRESERVING
    if shifts == {1}:
        return ParityClass.REVERSING
    return ParityClass.NEITHER


def parity(perm: Permutation, ctx: Context) -> ParityClass:
    return _parity_of([perm(x) for x in range(1, ctx.num_points + 1)])


def is_liftable_word(w: Word, ctx: Context) -> bool:
    return parity(psi(w, ctx), ctx) is not ParityClass.NEITHER


def w_size(ctx: Context) -> int:
    """The order ``2 ((n+1)!)^2`` of the parity subgroup of ``S_{2n+2}``."""
    return 2 * factorial(ctx.n + 1) ** 2


def _closure(start, neighbours) -> set:
    """Everything reachable from ``start`` by repeated ``neighbours`` steps."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        for y in neighbours(frontier.pop()) - seen:
            seen.add(y)
            frontier.append(y)
    return seen


def generated_group(perms, ctx: Context) -> tuple[int, list[frozenset[int]]]:
    """Order and blocks of the group ``G`` generated by point permutations.

    The transpositions among ``perms``, closed under conjugation by
    ``perms``, join the points into blocks, and ``G`` contains the
    symmetric group of each block.  Each generator permutes the blocks
    (checked), so those groups are the kernel of ``G``'s action on the
    blocks: ``|G|`` = (induced block permutations) x prod(``|block|!``).
    """
    points = range(1, ctx.num_points + 1)
    moved = [frozenset(x for x in points if p(x) != x) for p in perms]
    swaps = _closure(
        [m for m in moved if len(m) == 2],
        lambda pair: {frozenset(map(p, pair)) for p in perms},
    )
    adjacent = {x: {z for pair in swaps if x in pair for z in pair} for x in points}
    blocks = sorted({frozenset(_closure([x], adjacent.get)) for x in points}, key=min)
    index = {x: t for t, block in enumerate(blocks) for x in block}
    induced = [tuple(index[p(min(block))] for block in blocks) for p in perms]
    if any(frozenset(map(p, blocks[t])) != blocks[u]
           for p, images in zip(perms, induced) for t, u in enumerate(images)):
        raise ValueError("a generator does not permute the blocks")
    quotient = _closure(
        [tuple(range(len(blocks)))],
        lambda q: {tuple(images[t] for t in q) for images in induced},
    )
    return len(quotient) * prod(factorial(len(block)) for block in blocks), blocks


# The largest n at which enumerate_W runs: |W| = 2((n+1)!)^2 is 1,152 at n = 3.
ENUMERATE_W_MAX_N = 3


def enumerate_W(ctx: Context):
    """Exhaustive iterator over the parity subgroup (desk scale: ``n <= ENUMERATE_W_MAX_N``).

    A depth-first search over ``S_{2n+2}`` assigns ``p(1), p(2), ..`` in
    turn, trying values in increasing order.  A permutation is in W iff
    every shift ``p(x) - x`` has the parity of ``p(1) - 1``
    (:func:`_parity_of`), and every extension of a prefix whose shifts mix
    parities mixes them too, so the search never extends such a prefix: it
    builds every member of W and nothing else, in the lexicographic order of
    ``itertools.permutations``, in ``O(|W| n)`` steps instead of
    ``(2n+2)!``.
    """
    if ctx.n > ENUMERATE_W_MAX_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {ENUMERATE_W_MAX_N}")
    top = ctx.num_points
    images, used = [0] * top, [False] * (top + 1)

    def extend(x, shift):
        if x > top:
            yield Permutation(tuple(images))
            return
        # p(1) may be any point; p(x) for x > 1 keeps the parity of p(1) - 1
        values = range(1, top + 1) if x == 1 else range(2 - (x + shift) % 2, top + 1, 2)
        for y in values:
            if not used[y]:
                used[y], images[x - 1] = True, y
                yield from extend(x + 1, (y - x) % 2)
                used[y] = False

    yield from extend(1, 0)


@dataclass(frozen=True)
class CurveClass:
    """A free-homotopy class of a curve, as a cyclically reduced word.

    Letters are signed indices over the puncture loops ``x_1..x_{2n+2}``.
    """

    ctx: Context
    letters: tuple[int, ...]

    def __post_init__(self):
        top = self.ctx.num_points
        bad = first_out_of_range(self.letters, top)
        if bad is not None:
            raise WordSyntaxError(f"curve letter {bad} out of range 1..{top}")

    @classmethod
    def from_letters(cls, ctx: Context, letters) -> "CurveClass":
        """The cyclically reduced class; every letter is range-checked once, first."""
        return cls._trusted(ctx, K.cyclic_core(K.reduce_word(cls(ctx, tuple(letters)).letters)))

    @classmethod
    def _trusted(cls, ctx: Context, letters: tuple[int, ...]) -> "CurveClass":
        """A class over letters already known to be in range, built without a second check."""
        c = object.__new__(cls)
        object.__setattr__(c, "ctx", ctx)
        object.__setattr__(c, "letters", letters)
        return c

    def inverse(self) -> "CurveClass":
        return CurveClass._trusted(self.ctx, tuple(map(neg, reversed(self.letters))))

    def cycled(self, shift: int) -> "CurveClass":
        if not self.letters:
            return self
        s = shift % len(self.letters)
        return CurveClass._trusted(self.ctx, self.letters[s:] + self.letters[:s])

    def to_text(self) -> str:
        return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in self.letters)


def curve_parse(text: str, ctx: Context) -> CurveClass:
    """Curve text: tokens ``x<j>`` with an optional exponent of 1 or -1
    (:func:`words.read_token`)."""
    letters = []
    for tok in text.split():
        name, indices, e = read_token(tok, ctx)
        if name != "x" or len(indices) != 1 or e not in (1, -1):
            raise WordSyntaxError(f"malformed curve token {tok!r}")
        letters.append(e * indices[0])
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
