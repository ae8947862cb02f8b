"""Faithful word-problem backends for the three base groups.

* ``eq_disk``: the group of the disk with ``2n+1`` marked points, i.e. the
  braid group on ``2n+1`` strands.  Equality is decided through the
  classical (faithful) action on a free group of rank ``2n+1`` where
  ``sigma_i`` maps ``x_i -> x_i x_{i+1} x_i^{-1}``, ``x_{i+1} -> x_i``.
* ``eq_star``: the disk group modulo its center (the full twist); the
  quotient of the disk group obtained by capping the boundary with a
  marked disk.
* ``eq_sphere``: the marked-sphere group.  A word is trivial iff its point
  permutation is trivial and its outer action on the rank ``2n+1`` free
  group (last puncture loop eliminated through the relation
  ``x_1 ... x_{2n+2} = 1``) is an inner automorphism.

The sphere criterion is an adopted computational model, not a quoted
definition; the classical-presentation cross-check in the theorem suite
guards it and its verdict is embedded in every report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels as K
from .words import Context, Word, exponent_sum, psi

DEFAULT_BUDGET = 10_000_000


def resolve_budget(budget: int | None = None) -> int:
    """The free-word letter budget to use for ``budget``.

    ``None`` means ``SUPERELLIPTIC_BUDGET_LETTERS`` if it is set, else
    ``DEFAULT_BUDGET``.  A budget below 1, or an environment value that is
    not an integer, raises ``ValueError``.
    """
    source = "letter budget"
    if budget is None:
        raw = os.environ.get("SUPERELLIPTIC_BUDGET_LETTERS", "").strip()
        if not raw:
            return DEFAULT_BUDGET
        source = "SUPERELLIPTIC_BUDGET_LETTERS"
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be a positive integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"{source} must be a positive integer, got {budget}")
    return budget


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in a free group of the given rank."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        for a in self.letters:
            if a == 0 or abs(a) > self.rank:
                raise ValueError(f"letter {a} out of range for rank {self.rank}")

    @classmethod
    def identity(cls, rank: int) -> "FreeWord":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, j: int) -> "FreeWord":
        return cls(rank, (j,))

    @classmethod
    def from_letters(cls, rank: int, letters) -> "FreeWord":
        return cls(rank, K.reduce_word(letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, K.concat(self.letters, other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple(-a for a in reversed(self.letters)))

    def conjugated_by(self, w: "FreeWord") -> "FreeWord":
        """``w * self * w^{-1}``."""
        return w * self * w.inverse()

    def cyclic_split(self) -> tuple["FreeWord", "FreeWord"]:
        """Return ``(u, core)`` with ``self = u core u^{-1}``, core cyclically reduced."""
        w = self.letters
        i, j = 0, len(w) - 1
        while i < j and w[i] == -w[j]:
            i += 1
            j -= 1
        return FreeWord(self.rank, w[:i]), FreeWord(self.rank, w[i : j + 1])

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism given by the images of the generators."""

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")

    @classmethod
    def identity(cls, rank: int) -> "FreeAutomorphism":
        return cls(rank, tuple(FreeWord.generator(rank, j) for j in range(1, rank + 1)))

    @property
    def is_identity(self) -> bool:
        return all(im.letters == (j,) for j, im in enumerate(self.images, start=1))

    def apply(self, w: FreeWord, budget: int | None = None) -> FreeWord:
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        images = tuple(im.letters for im in self.images)
        return FreeWord(self.rank, K.apply_subst(w.letters, images, resolve_budget(budget)))

    def compose(self, other: "FreeAutomorphism", budget: int | None = None) -> "FreeAutomorphism":
        """``self o other`` (apply ``other`` first)."""
        return FreeAutomorphism(
            self.rank, tuple(self.apply(im, budget) for im in other.images)
        )


# -- evaluation of braid words as free-group automorphisms ------------------

@lru_cache(maxsize=4096)
def _action_images(letters: tuple[int, ...], m: int, sphere_m: int, budget: int):
    # the budget is part of the key: a word that fits a large budget must
    # still raise BudgetError under a small one
    return K.act_word(letters, m, sphere_m, budget)


def _wrap(m: int, images) -> FreeAutomorphism:
    return FreeAutomorphism(m, tuple(FreeWord(m, im) for im in images))


def artin_action(w: Word, m: int, *, budget: int | None = None) -> FreeAutomorphism:
    """The braid action of ``w`` on the free group of rank ``m`` (disk model)."""
    for a in w.letters:
        if abs(a) > m - 1:
            raise ValueError(f"letter sigma_{abs(a)} needs more than {m} strands")
    return _wrap(m, _action_images(w.letters, m, 0, resolve_budget(budget)))


def sphere_action(w: Word, ctx: Context, *, budget: int | None = None) -> FreeAutomorphism:
    """The marked-sphere action on the rank ``2n+1`` free group."""
    m = ctx.num_arcs
    return _wrap(m, _action_images(w.letters, m, m, resolve_budget(budget)))


def is_inner(phi: FreeAutomorphism) -> FreeWord | None:
    """Return ``w`` with ``phi = conj_w`` (``x -> w x w^{-1}``), or ``None``.

    Procedure: cyclically reduce ``phi(x_1)``; unless the core is literally
    ``x_1`` the map is not inner.  Writing ``phi(x_1) = u x_1 u^{-1}``, any
    conjugator has the shape ``u x_1^c``; the unique feasible ``c`` is read
    off ``u^{-1} phi(x_2) u`` which must equal ``x_1^c x_2 x_1^{-c}``.
    Every generator is then verified against the candidate.
    """
    m = phi.rank
    u, core = phi.images[0].cyclic_split()
    if core.letters != (1,):
        return None
    if m == 1:
        return FreeWord.identity(1)
    v = phi.images[1].conjugated_by(u.inverse())
    run = 0
    for a in v.letters:
        if a == v.letters[0] and abs(a) == 1:
            run += 1
        else:
            break
    c = 0
    if v.letters and abs(v.letters[0]) == 1:
        c = run if v.letters[0] > 0 else -run
    expected = tuple([1 if c > 0 else -1] * abs(c) + [2] + [-1 if c > 0 else 1] * abs(c))
    if v.letters != expected:
        return None
    w = u * FreeWord(m, tuple([1 if c > 0 else -1] * abs(c)))
    for j in range(1, m + 1):
        if phi.images[j - 1] != FreeWord.generator(m, j).conjugated_by(w):
            return None
    return w


# -- the three equality backends ---------------------------------------------


def _require_disk_letters(w: Word, ctx: Context) -> None:
    top = 2 * ctx.n
    for a in w.letters:
        if abs(a) > top:
            raise ValueError(
                f"letter sigma_{abs(a)} is outside the disk alphabet sigma_1..sigma_{top}"
            )


def eq_disk(u: Word, v: Word, ctx: Context, *, budget: int | None = None) -> bool:
    """Equality in the disk group (braid group on ``2n+1`` strands)."""
    _require_disk_letters(u, ctx)
    _require_disk_letters(v, ctx)
    d = u * v.inverse()
    m = ctx.num_arcs
    images = _action_images(d.letters, m, 0, resolve_budget(budget))
    return all(im == (j,) for j, im in enumerate(images, start=1))


def _disk_half_twist(ctx: Context) -> Word:
    letters = []
    for a in range(1, 2 * ctx.n + 1):
        letters.extend(range(a, 0, -1))
    return Word(ctx, tuple(letters))


def eq_star(u: Word, v: Word, ctx: Context, *, budget: int | None = None) -> bool:
    """Equality in the disk group modulo its center (capped boundary).

    ``u = v`` iff ``u v^{-1}`` is a power of the full twist: the exponent
    sum forces the only candidate power, which is then checked with
    ``eq_disk``.
    """
    _require_disk_letters(u, ctx)
    _require_disk_letters(v, ctx)
    d = u * v.inverse()
    e = exponent_sum(d)
    full = 2 * ctx.n * (2 * ctx.n + 1)  # exponent sum of the full twist
    if e % full:
        return False
    p = e // full
    return eq_disk(d, _disk_half_twist(ctx) ** (2 * p), ctx, budget=budget)


def eq_sphere(u: Word, v: Word, ctx: Context, *, budget: int | None = None) -> bool:
    """Equality in the marked-sphere group.

    Trivial point permutation plus inner outer-action: the word acts on
    ``x_1..x_{2n+1}`` with the last puncture loop eliminated through
    ``x_1 ... x_{2n+2} = 1``.
    """
    d = u * v.inverse()
    if not psi(d, ctx).is_identity:
        return False
    m = ctx.num_arcs
    images = _action_images(d.letters, m, m, resolve_budget(budget))
    return is_inner(_wrap(m, images)) is not None


_EQ = {"disk": eq_disk, "star": eq_star, "sphere": eq_sphere}


def order_of(
    w: Word,
    group: str,
    ctx: Context,
    max_order: int | None = None,
    *,
    budget: int | None = None,
) -> int | None:
    """Least ``1 <= d <= max_order`` with ``w^d = 1`` in the group, else None."""
    if group not in _EQ:
        raise ValueError(f"group must be one of {sorted(_EQ)}, got {group!r}")
    eq = _EQ[group]
    if max_order is None:
        max_order = 2 * ctx.num_points + 2
    empty = Word.identity(ctx)
    cur = w
    for d in range(1, max_order + 1):
        if eq(cur, empty, ctx, budget=budget):
            return d
        if d < max_order:
            cur = cur * w
    return None


def boundary_word_is_fixed(phi: FreeAutomorphism, budget: int | None = None) -> bool:
    """Whether the automorphism fixes ``x_1 x_2 ... x_m`` exactly (disk case)."""
    m = phi.rank
    boundary = FreeWord(m, tuple(range(1, m + 1)))
    return phi.apply(boundary, budget) == boundary
