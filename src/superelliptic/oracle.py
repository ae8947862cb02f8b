"""Word problems for the three base groups.

* ``eq_disk``: the group of the disk with ``2n+1`` marked points, i.e. the
  braid group on ``2n+1`` strands.  ``u = v`` iff ``u v^{-1}`` fixes the
  Dynnikov coordinates ``(0, 1, ..., 0, 1)``: the coordinate action of the
  braid group is faithful (Dynnikov 2002; Dehornoy 2008) and costs O(1)
  integer operations per letter (:func:`_kernels.act_dynnikov`).
* ``eq_star``: the disk group modulo its center (the full twist); the
  quotient of the disk group obtained by capping the boundary with a
  marked disk.  The exponent sum fixes the only full-twist power
  ``Delta^{2p}`` that ``u v^{-1}`` can be, and the coordinate action checks
  it (through ``eq_disk`` when ``p = 0``).
* ``eq_sphere``: the marked-sphere group.  A word is trivial only if its
  point permutation is; a pure word fixes point ``N = 2n+2``, and capping
  identifies the stabilizer of ``N`` with the star group on
  ``sigma_1 .. sigma_2n`` (the capping homomorphism, Farb–Margalit §3.6,
  whose kernel is the boundary twist).  :func:`cap_to_star` rewrites the
  pure word into that alphabet by Reidemeister–Schreier, and the star
  check behind ``eq_star`` decides it; those letters are in range by
  construction, and only a check that goes through ``eq_disk`` range-checks
  them.

The coordinate action runs on the cyclic core of ``d = u v^{-1}`` only and
is compared with the image of ``Delta^{2p}`` (``p = 0`` in the disk group),
which is cached per ``(n, p)``, so no letter of the full twist is built or
acted on per query.  The letter budget counts exactly the letters acted
on: the cyclic core of ``u v^{-1}`` (in the sphere group, that of the
rewrite of that core), and a longer core raises :class:`BudgetError`.

The free-group action stays as the independent reference: ``artin_action``
(``sigma_i`` maps ``x_i -> x_i x_{i+1} x_i^{-1}``, ``x_{i+1} -> x_i``),
``sphere_action`` (last puncture loop eliminated through the relation
``x_1 ... x_{2n+2} = 1``) and ``is_inner``; a word is trivial in the sphere
group iff it is pure and its sphere action is inner.  There the budget
bounds every intermediate free word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _kernels as K
from .errors import BudgetError
from .words import Context, Word, exponent_sum, first_out_of_range, psi

DEFAULT_BUDGET = 10_000_000


def resolve_budget(budget: int | None = None) -> int:
    """The letter budget to use: ``DEFAULT_BUDGET`` for ``None``; anything but
    an integer >= 1 (a bool or a float too) raises ``ValueError``."""
    if budget is None:
        return DEFAULT_BUDGET
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"letter budget must be a positive integer, got {budget!r}")
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
        """The reduced word; every letter is range-checked before reduction."""
        return cls(rank, K.reduce_word(cls(rank, tuple(letters)).letters))

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
        core = K.cyclic_core(self.letters)
        i = (len(self.letters) - len(core)) // 2
        return FreeWord(self.rank, self.letters[:i]), FreeWord(self.rank, core)

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


# -- the free-group reference action ------------------------------------------

def _wrap(m: int, images) -> FreeAutomorphism:
    return FreeAutomorphism(m, tuple(FreeWord(m, im) for im in images))


def artin_action(w: Word, m: int, *, budget: int | None = None) -> FreeAutomorphism:
    """The braid action of ``w`` on the free group of rank ``m`` (disk model)."""
    for a in w.letters:
        if abs(a) > m - 1:
            raise ValueError(f"letter sigma_{abs(a)} needs more than {m} strands")
    return _wrap(m, K.act_word(w.letters, m, 0, resolve_budget(budget)))


def sphere_action(w: Word, ctx: Context, *, budget: int | None = None) -> FreeAutomorphism:
    """The marked-sphere action on the rank ``2n+1`` free group."""
    m = ctx.num_arcs
    return _wrap(m, K.act_word(w.letters, m, m, resolve_budget(budget)))


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
    bad = first_out_of_range(w.letters, top)
    if bad is not None:
        raise ValueError(
            f"letter sigma_{abs(bad)} is outside the disk alphabet sigma_1..sigma_{top}"
        )


def eq_disk(u: Word, v: Word, ctx: Context, *, budget: int | None = None) -> bool:
    """Equality in the disk group (braid group on ``2n+1`` strands)."""
    budget = resolve_budget(budget)
    _require_disk_letters(u, ctx)
    _require_disk_letters(v, ctx)
    return _is_twist_power((u * v.inverse()).letters, 0, ctx.n, budget)


def eq_star(u: Word, v: Word, ctx: Context, *, budget: int | None = None) -> bool:
    """Equality in the disk group modulo its center (capped boundary).

    ``u = v`` iff ``d = u v^{-1}`` is a power ``Delta^{2p}`` of the full
    twist: the exponent sum forces the only candidate ``p``.  The coordinate
    action runs on the cyclic core of ``d`` only, which the budget counts,
    against the cached image of ``Delta^{2p}`` (see :func:`_is_twist_power`).
    """
    budget = resolve_budget(budget)
    _require_disk_letters(u, ctx)
    _require_disk_letters(v, ctx)
    return _is_central_braid(u * v.inverse(), ctx, budget)


def _is_central_braid(d: Word, ctx: Context, budget: int) -> bool:
    """Whether ``d``, over ``sigma_1 .. sigma_2n`` already, is trivial in the star group."""
    e = exponent_sum(d)
    full = 2 * ctx.n * (2 * ctx.n + 1)  # exponent sum of the full twist
    if e % full:
        return False
    p = e // full
    if p == 0:
        return eq_disk(d, Word.identity(ctx), ctx, budget=budget)
    return _is_twist_power(d.letters, p, ctx.n, budget)


@lru_cache(maxsize=64)
def _twist_image(n: int, p: int) -> tuple[int, ...]:
    """The image of ``(0, 1, ..., 0, 1)`` under ``Delta^{2p}`` on ``2n+1`` strands.

    Computed once per ``(n, p)`` by acting on the letters of
    ``(Delta^{+-2})^{|p|}``, with the half twist ``Delta`` spelled
    ``(1)(2 1)(3 2 1) ... (2n .. 1)``; only the ``2(2n+1)`` coordinates are
    kept.
    """
    half = tuple(x for top in range(1, 2 * n + 1) for x in range(top, 0, -1))
    square = half * 2 if p > 0 else tuple(-x for x in reversed(half)) * 2
    image = (0, 1) * (2 * n + 1)
    for _ in range(abs(p)):
        image = K.act_dynnikov(square, image)
    return image


def _is_twist_power(d: tuple[int, ...], p: int, n: int, budget: int) -> bool:
    """Whether the reduced disk word ``d`` equals ``Delta^{2p}`` in the disk group.

    ``Delta^{2p}`` is central, so ``d`` may be replaced by its cyclic core,
    which drops a prefix that ``u`` and ``v`` share; the budget counts that
    core.  The action is a right action, so ``d Delta^{-2p} = 1`` iff ``x d
    = x Delta^{2p}`` for ``x = (0, 1, ..., 0, 1)``, and no letter of
    ``Delta^{2p}`` is built per query.  Filling its cached image acts on
    ``|p| 2n(2n+1)`` letters, the exponent sum of the core, so the budget
    check bounds that too.
    """
    core = K.cyclic_core(d)
    if len(core) > budget:
        raise BudgetError(f"word of {len(core)} letters exceeds budget {budget}")
    return K.act_dynnikov(core, (0, 1) * (2 * n + 1)) == _twist_image(n, p)


def _point_push(q: int, top: int) -> tuple[int, ...]:
    """Point ``q`` pushed once around all other points of the disk on
    ``sigma_1 .. sigma_top``: ``sigma_{q-1} .. sigma_1 sigma_1 .. sigma_top
    sigma_top .. sigma_q`` (reduced)."""
    return (*range(q - 1, 0, -1), *range(1, top + 1), *range(top, q - 1, -1))


def cap_to_star(w: Word, ctx: Context) -> Word:
    """Rewrite a word that fixes point ``N = 2n+2`` over ``sigma_1 .. sigma_2n``.

    Reidemeister–Schreier over the stabilizer of ``N``, with coset
    representatives ``tau_p = sigma_{N-1} ... sigma_p`` (``tau_N`` empty),
    which carry point ``p`` to ``N``.  Reading left to right, ``p`` is the
    point that the prefix read so far carries to ``N``; ``sigma_i`` swaps
    ``p`` between ``i`` and ``i+1``.  Each letter contributes
    ``tau_p sigma_i^{+/-1} tau_p'^{-1}``, which is ``sigma_i^{+/-1}`` for
    ``i < p-1``, ``sigma_{i-1}^{+/-1}`` for ``i > p``, trivial for
    ``sigma_p^-1`` and ``sigma_{p-1}``, ``A_p`` for ``sigma_p`` and
    ``A_{p-1}^-1`` for ``sigma_{p-1}^-1``, where ``A_q = tau_{q+1}
    sigma_q^2 tau_{q+1}^{-1}`` is the twist about a curve around ``q`` and
    ``N``.  Capped, that curve bounds the other ``2n`` points, so ``A_q``
    is the inverse of the push of ``q`` around all of them.  The result
    equals ``w`` in the sphere group when ``w`` fixes ``N``.
    """
    top = 2 * ctx.n
    p = top + 2
    out: list[int] = []
    for a in w.letters:
        i = abs(a)
        if i == p:
            if a > 0:
                out.extend(-x for x in reversed(_point_push(p, top)))
            p += 1
        elif i == p - 1:
            if a < 0:
                out.extend(_point_push(p - 1, top))
            p -= 1
        elif i < p - 1:
            out.append(a)
        else:
            out.append(a - 1 if a > 0 else a + 1)
    if p != top + 2:
        raise ValueError("the word does not fix point 2n+2")
    return Word._trusted(ctx, K.reduce_word(out))  # in range by construction


def eq_sphere(u: Word, v: Word, ctx: Context, *, budget: int | None = None) -> bool:
    """Equality in the marked-sphere group.

    The cyclic core of ``u v^{-1}``, a conjugate, must have trivial point
    permutation; it then fixes point ``2n+2`` and is decided in the star
    group after :func:`cap_to_star`.
    """
    budget = resolve_budget(budget)
    d = Word._trusted(ctx, K.cyclic_core((u * v.inverse()).letters))
    if not psi(d, ctx).is_identity:
        return False
    return _is_central_braid(cap_to_star(d, ctx), ctx, budget)


_EQ = {"disk": eq_disk, "star": eq_star, "sphere": eq_sphere}
