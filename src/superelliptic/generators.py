"""Named mapping classes realized as words over the half-twist alphabet.

``sigma_i`` is the positive Artin generator.  The named elements:

* ``h_i = sigma_i sigma_{i+1} sigma_i`` (half-rotation swapping points
  ``i`` and ``i+2``),
* ``t_{i,j}`` the right twist about a curve enclosing points ``i..j``,
  realized as the chain word ``(sigma_i ... sigma_{j-1})^{j-i+1}``,
* ``r1`` the one-click rotation, realized as ``sigma_1 ... sigma_{2n+1}``,
* ``r`` the half-turn, realized as the half-twist word
  ``(sigma_1)(sigma_2 sigma_1) ... (sigma_{2n+1} ... sigma_1)``,
* ``F`` with ``r1 = r F``, built from ``h``- and ``t``-factors,
* ``hchain_t = h_{2n-1} ... h_2 h_1 t_{1,2}``.

The ``t``/``r``/``r1`` word realizations are conventions, not definitions.
The ``generators-validation`` claim (:func:`theorems._generator_validations`)
pins them as token-text instances that re-verify from a report file: ``h1``
and ``t1,2`` against their Artin letters, twist locality, ``r1`` of order
exactly ``2n+2`` shifting the arcs, ``r`` an involution reversing them, and
``F = h1^-1`` at ``n = 1``.  Their permutation shadows are unit tests.
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg

from . import oracle
from .errors import BudgetError, WordSyntaxError
from .words import Context, Word, psi, read_token  # noqa: F401  unused; perfbench traces generators.psi

# A product of named generators is a list of tokens, each a name with its
# indices and, unless it is 1, a nonzero exponent (h3^-1, t4,5^2, r1): the
# text that expand_token_text reads once the list is joined by spaces.


def gen_h(i: int, ctx: Context) -> Word:
    if not (1 <= i <= 2 * ctx.n):
        raise ValueError(f"h index {i} out of range 1..{2 * ctx.n}")
    return Word(ctx, (i, i + 1, i))


def gen_t(i: int, j: int, ctx: Context) -> Word:
    """Twist about a curve enclosing points ``i..j``.

    ``j = 2n+2`` is rewritten: the enclosing curve equals the one around
    ``1..i-1`` on the sphere, so the word avoids ``sigma_{2n+1}`` (and for
    ``i <= 2`` the twist is trivial there).
    """
    i, j = _twist_chain(i, j, ctx)
    return Word(ctx, tuple(range(i, j)) * (j - i + 1))


def _twist_chain(i: int, j: int, ctx: Context) -> tuple[int, int]:
    """The pair whose chain word realizes ``t_{i,j}``; ``(1, 1)`` (no letters) if trivial."""
    P = ctx.num_points
    if not (1 <= i < j <= P):
        raise ValueError(f"twist pair ({i},{j}) out of range 1 <= i < j <= {P}")
    if j < P:
        return i, j
    return (1, i - 1) if i > 2 else (1, 1)


def gen_r1(ctx: Context) -> Word:
    return Word(ctx, tuple(range(1, ctx.num_arcs + 1)))


def gen_r(ctx: Context) -> Word:
    letters = []
    for a in range(1, ctx.num_arcs + 1):
        letters.extend(range(a, 0, -1))
    return Word(ctx, tuple(letters))


def F_factors(n: int) -> list[str]:
    """Token list of the correction ``F`` with ``r1 = r F``."""
    tokens = [f"h{i}^-1" for top in range(2 * n - 2, 0, -2) for i in range(1, top + 1)]
    tokens += [f"h{i}^-1" for i in range(2 * n - 1, 0, -2)]
    twists = [(f"t{2 * m + 2},{2 * m + 3}", m) for m in range(n - 1, 0, -1)]
    return tokens + [name if m == 1 else f"{name}^{m}" for name, m in twists]


def t_chain_factors(i: int, j: int) -> list[str]:
    """Rewrite ``t_{i,j}`` (``j-i >= 2``) as a token list over adjacent twists and ``h``'s.

    ``j-i = 2`` gives ``h_i^2``; longer spans give the chain factorization
    with twist exponents ``-(j-i-3)/2`` (odd span) or ``-(j-i-2)/2`` (even
    span), which drop out when 0.
    """
    q = j - i
    if q < 2:
        raise ValueError("factorization needs j - i >= 2")
    if q == 2:
        return [f"h{i}^2"]
    if q % 2 == 1:
        e, twists = -((q - 3) // 2), range(j - 1, i - 1, -2)
        hs = [f"h{b}" for b in range(j - 2, i - 1, -1)] * ((q + 1) // 2)
    else:
        e, twists = -((q - 2) // 2), range(j - 2, i - 1, -2)
        hs = [f"h{b}" for b in [*range(j - 2, i - 1, -2), *range(i, j - 1, 2)]]
        hs += [f"h{b}" for b in range(j - 3, i - 1, -1)] * (q // 2)
    return [f"t{a},{a + 1}^{e}" for a in twists if e] + hs


def gen_F(ctx: Context) -> Word:
    """``F`` read from its token text under a budget of its letter count."""
    return expand_token_text(" ".join(F_factors(ctx.n)), ctx, _letter_count("F", (), ctx))


def gen_hchain_t(ctx: Context) -> Word:
    text = " ".join(f"h{i}" for i in range(2 * ctx.n - 1, 0, -1)) + " t1,2"
    return expand_token_text(text, ctx, _letter_count("hchain_t", (), ctx))


# -- rich word syntax --------------------------------------------------------
#
# CLI and certificate syntax: whitespace-separated generator tokens with
# optional exponents, e.g.  "r1^2 h1 r1^-2"  or  "r1^(2n+2)", each read by
# :func:`words.read_token`.  A name takes _ARITY[name] indices.

_WORDS = {"r1": gen_r1, "r": gen_r, "F": gen_F, "hchain_t": gen_hchain_t}
_ARITY = {"s": 1, "h": 1, "t": 2, **dict.fromkeys(_WORDS, 0)}


def _letter_count(name: str, indices: tuple[int, ...], ctx: Context) -> int:
    """Letters in the word of a generator name with its indices, unbuilt."""
    if name == "t":
        i, j = _twist_chain(*indices, ctx)
        return (j - i) * (j - i + 1)
    n, A = ctx.n, ctx.num_arcs
    # F_factors(n): n^2 tokens h^-1 (3 letters each) and t_{a,a+1}^m, m < n (2m letters)
    return {"s": 1, "h": 3, "r1": A, "r": A * (A + 1) // 2, "F": 4 * n * n - n,
            "hchain_t": 6 * n - 1}[name]


def _check_budget(tok: str, size: int, budget: int) -> None:
    if size > budget:
        raise BudgetError(f"token {tok!r} takes word text to {size} letters, over budget {budget}")


def _parse_token(tok: str, ctx: Context, size: int, budget: int) -> tuple[int, tuple[int, ...], int]:
    """One token as ``(letter count, unit letters, repeats)``; its letters are
    ``unit * repeats``, not reduced across the exponent.

    ``size`` letters come before it.  Before any letters are built, the
    token's letter count (from its name and exponent) must keep the total
    within ``budget``.  ``s<i>`` letters are range-checked later, with the
    whole text, by :meth:`Word.from_letters`.
    """
    name, indices, e = read_token(tok, ctx)
    if _ARITY.get(name) != len(indices):
        raise WordSyntaxError(f"unknown generator token {tok!r}")
    count = _letter_count(name, indices, ctx) * (abs(e) or 2)
    _check_budget(tok, size + count, budget)
    if name == "s":
        base = indices
    elif indices:
        base = (gen_h if name == "h" else gen_t)(*indices, ctx).letters
    else:
        base = _WORDS[name](ctx).letters
    if e == 1:
        return count, base, 1
    inverse = tuple(map(neg, reversed(base)))
    if e == 0:  # keep the letters so that they are range-checked; they cancel
        return count, base + inverse, 1
    return count, base if e > 0 else inverse, abs(e)


class _TokenMemo(dict):
    """Token -> ``(letter count, unit letters, repeats)`` for one context value;
    ``forms`` maps a token to its shift form (:func:`shift_forms`)."""

    size = 0  # one per token plus one per unit letter; bounded by _MEMO_SIZE

    def __init__(self):
        super().__init__()
        self.forms: dict = {}  # at most _MEMO_SIZE tokens


# Memory bounds: a pass of the oracle-queries benchmark uses 6 contexts, and
# verify-all at (8,3) fills one memo to size 3381 (145 tokens).  A base-side
# run at n = 32 overfills it: it is cleared 13 times, and 2427 tokens are
# parsed in all.  A full memo of 1-letter tokens holds about 3.4 MB, and
# full shift forms about 4.2 MB more (n = 32 reads 4364), so at most about
# 61 MB are held over 8 contexts.
_MEMO_CONTEXTS = 8
_MEMO_SIZE = 16384


@lru_cache(maxsize=_MEMO_CONTEXTS)
def _token_memo(ctx: Context) -> _TokenMemo:
    """The token memo of one context value, shared by every caller with an equal context."""
    return _TokenMemo()


def expand_token_text(text: str, ctx: Context, budget: int | None = None) -> Word:
    """Expand generator tokens (``h3 t1,2^-1 r1^(2n+2)`` ...) to a word.

    The one reader of word text: CLI arguments, report certificates and
    :meth:`Word.to_text` output.  Every letter is range-checked before free
    reduction, so ``s0 s0`` or ``s4 s4^-1`` at ``n = 1`` raises.  The letter
    budget (:func:`oracle.resolve_budget`) bounds the unreduced letters: every
    token, its exponent included, is counted before its letters are built, and
    one that would pass the budget raises :class:`BudgetError`.

    A memo per :class:`Context` maps each token that was read without error
    (``s3``, ``s5^-1``, ``t2,4^-3``, ``h1^(2n)``, ``r1``) to ``(letter count,
    unit letters, repeats)``, which are pure functions of the token, ``n``
    and ``k``.  A token that would take the memo past :data:`_MEMO_SIZE`
    clears it first; one that raises, or one larger than the whole memo, is
    never stored and is parsed at each occurrence.
    The budget check runs on every occurrence of a token, memoized or not,
    with the same count and before any of its letters are added.
    """
    budget = oracle.resolve_budget(budget)
    memo = _token_memo(ctx)
    letters: list[int] = []
    for tok in text.split():
        entry = memo.get(tok)
        if entry is None:
            entry = _parse_token(tok, ctx, len(letters), budget)
            size = 1 + len(entry[1])
            if size <= _MEMO_SIZE:
                if memo.size + size > _MEMO_SIZE:  # full: start again
                    memo.clear()
                    memo.size = 0
                memo[tok] = entry
                memo.size += size
        elif len(letters) + entry[0] > budget:  # the call only raises; skip it otherwise
            _check_budget(tok, len(letters) + entry[0], budget)
        letters += entry[1] * entry[2]
    return Word.from_letters(ctx, letters)


def _shift_form(tok: str, ctx: Context) -> tuple | bool:
    """The shift form of one token (:func:`shift_forms`), or False if it never shifts."""
    try:
        name, indices, e = read_token(tok, ctx)
    except WordSyntaxError:
        return False
    if name not in ("s", "h", "t") or _ARITY[name] != len(indices) or indices[0] < 1:
        return False
    if name == "t" and not indices[0] < indices[1] <= ctx.num_arcs:
        return False  # t<i>,<2n+2> is rewritten to t_{1,i-1}, and a bad pair raises
    high = indices[-1] - (name == "t") + (name == "h")
    shape = (name, indices[-1] - indices[0], e)
    return shape, indices[0], high, _letter_count(name, indices, ctx) * (abs(e) or 2)


def shift_forms(tokens: list[str], ctx: Context) -> tuple | None:
    """``(shapes, lows, high, letters)`` of a token list, or None if a token never shifts.

    A token shifts if it is ``s<i>``, ``h<i>`` or ``t<i>,<j>`` with ``1 <= i``
    and ``i < j <= 2n+1``: adding ``c`` to its indices adds ``c`` to each
    letter of its word.  ``t<i>,<2n+2>`` (rewritten to ``t_{1,i-1}``), the
    named words and a token that does not read never shift.  A token's shape
    is ``(name, j - i, exponent)`` (``j - i`` is 0 for ``s`` and ``h``) and its
    low is its least letter; ``high`` is the greatest letter of all (0 for
    none), and ``letters`` the unreduced count that :func:`expand_token_text`
    checks against the budget.  Forms are kept in the context's token memo,
    up to :data:`_MEMO_SIZE` of them; a form that finds them full clears them.
    """
    memo = _token_memo(ctx).forms
    forms = list(map(memo.get, tokens))
    if None in forms:
        for at, tok in enumerate(tokens):
            if forms[at] is None:
                forms[at] = _shift_form(tok, ctx)
                if len(memo) >= _MEMO_SIZE:  # full: start again
                    memo.clear()
                if len(memo) < _MEMO_SIZE:
                    memo[tok] = forms[at]
    if False in forms:
        return None
    if not forms:
        return (), (), 0, 0
    shapes, lows, highs, counts = zip(*forms)
    return shapes, lows, max(highs), sum(counts)
