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

The ``t``/``r``/``r1`` word realizations are conventions, not definitions;
each carries a validation suite (:func:`validate_named_generators`) so a
wrong convention fails loudly.
"""

from __future__ import annotations

import re

from . import oracle
from .errors import BudgetError, WordSyntaxError
from .words import Context, Permutation, Word, psi

# A product of named generators is a sequence of factors (kind, params,
# exponent).  Kinds: "h" with params (i,), "t" with params (i, j), "r1" and
# "hchain_t" with params ().  A factor's token is its kind followed by its
# params joined by commas (h3, t1,2, r1, hchain_t): the names that
# expand_token_text reads.  factors_to_tokens renders a product as text.
Factor = tuple[str, tuple[int, ...], int]


def gen_sigma(i: int, ctx: Context) -> Word:
    return Word(ctx, (i,))


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
    P = ctx.num_points
    if not (1 <= i < j <= P):
        raise ValueError(f"twist pair ({i},{j}) out of range 1 <= i < j <= {P}")
    if j == P:
        if i <= 2:
            return Word.identity(ctx)
        return gen_t(1, i - 1, ctx)
    block = tuple(range(i, j))
    return Word(ctx, block * (j - i + 1))


def gen_r1(ctx: Context) -> Word:
    return Word(ctx, tuple(range(1, ctx.num_arcs + 1)))


def gen_r(ctx: Context) -> Word:
    letters = []
    for a in range(1, ctx.num_arcs + 1):
        letters.extend(range(a, 0, -1))
    return Word(ctx, tuple(letters))


def F_factors(n: int) -> tuple[Factor, ...]:
    """Factor list of the correction ``F`` with ``r1 = r F``."""
    if n == 1:
        return (("h", (1,), -1),)
    fs: list[Factor] = []
    for top in range(2 * n - 2, 0, -2):
        for i in range(1, top + 1):
            fs.append(("h", (i,), -1))
    for i in range(2 * n - 1, 0, -2):
        fs.append(("h", (i,), -1))
    for m in range(n - 1, 0, -1):
        fs.append(("t", (2 * m + 2, 2 * m + 3), m))
    return tuple(fs)


def t_chain_factors(i: int, j: int) -> tuple[Factor, ...]:
    """Rewrite ``t_{i,j}`` (``j-i >= 2``) over adjacent twists and ``h``'s.

    ``j-i = 2`` gives ``h_i^2``; longer spans give the chain factorization
    with twist exponents ``-(j-i-3)/2`` (odd span) or ``-(j-i-2)/2`` (even
    span).
    """
    q = j - i
    if q < 2:
        raise ValueError("factorization needs j - i >= 2")
    if q == 2:
        return (("h", (i,), 2),)
    fs: list[Factor] = []
    if q % 2 == 1:
        e = -((q - 3) // 2)
        if e:
            for a in range(j - 1, i - 1, -2):
                fs.append(("t", (a, a + 1), e))
        for _ in range((q + 1) // 2):
            for b in range(j - 2, i - 1, -1):
                fs.append(("h", (b,), 1))
    else:
        e = -((q - 2) // 2)
        if e:
            for a in range(j - 2, i - 1, -2):
                fs.append(("t", (a, a + 1), e))
        for b in range(j - 2, i - 1, -2):
            fs.append(("h", (b,), 1))
        for b in range(i, j - 1, 2):
            fs.append(("h", (b,), 1))
        for _ in range(q // 2):
            for b in range(j - 3, i - 1, -1):
                fs.append(("h", (b,), 1))
    return tuple(fs)


def factors_to_tokens(factors) -> str:
    """Token text of a factor list, e.g. ``h1^-1 t4,5 r1^2``; zero powers drop out."""
    toks = []
    for kind, params, e in factors:
        if e == 0:
            continue
        name = kind + ",".join(map(str, params))
        toks.append(name if e == 1 else f"{name}^{e}")
    return " ".join(toks)


def gen_F(ctx: Context) -> Word:
    return expand_token_text(factors_to_tokens(F_factors(ctx.n)), ctx)


def gen_hchain_t(ctx: Context) -> Word:
    out = Word.identity(ctx)
    for i in range(2 * ctx.n - 1, 0, -1):
        out = out * gen_h(i, ctx)
    return out * gen_t(1, 2, ctx)


# -- rich word syntax --------------------------------------------------------
#
# CLI and certificate syntax: whitespace-separated generator tokens with
# optional integer exponents, e.g.  "r1^2 h1 r1^-2"  or  "r1^(2n+2)".
# Exponents in parentheses may be linear expressions in n and k.

_NAME_RE = re.compile(r"^(s(\d+)|h(\d+)|t(\d+),(\d+)|r1|r|F|hchain_t)$")
_WORDS = {"r1": gen_r1, "r": gen_r, "F": gen_F, "hchain_t": gen_hchain_t}
_TERM_RE = re.compile(r"([+-]?)(\d+[nk]?|[nk])")


def _eval_linexpr(text: str, ctx: Context) -> int:
    s = text.replace(" ", "")
    total = 0
    consumed = 0
    for m in _TERM_RE.finditer(s):
        if m.start() != consumed:
            raise WordSyntaxError(f"malformed exponent expression {text!r}")
        consumed = m.end()
        sign = -1 if m.group(1) == "-" else 1
        body = m.group(2)
        if body.endswith("n") or body.endswith("k"):
            var = ctx.n if body.endswith("n") else ctx.k
            coef = int(body[:-1]) if len(body) > 1 else 1
            total += sign * coef * var
        else:
            total += sign * int(body)
    if consumed != len(s) or not s:
        raise WordSyntaxError(f"malformed exponent expression {text!r}")
    return total


def _token_letters(tok: str, ctx: Context, letters: list[int], budget: int) -> tuple[int, ...]:
    """The letters of one token, not reduced across the exponent.

    ``letters`` holds the letters of the tokens before it.  Only an exponent
    other than +-1 multiplies letters, so only such a token checks that it
    keeps the total within ``budget``.  ``s<i>`` letters are range-checked
    later, with the whole text, by :meth:`Word.from_letters`.
    """
    name_part, caret, exp_part = tok.partition("^")
    m = _NAME_RE.match(name_part)
    if not m:
        raise WordSyntaxError(f"unknown generator token {tok!r}")
    if m.group(2) is not None:
        base = (int(m.group(2)),)
    elif m.group(3) is not None:
        base = gen_h(int(m.group(3)), ctx).letters
    elif m.group(4) is not None:
        base = gen_t(int(m.group(4)), int(m.group(5)), ctx).letters
    else:
        base = _WORDS[name_part](ctx).letters
    if not caret:
        return base
    if exp_part.startswith("(") and exp_part.endswith(")"):
        e = _eval_linexpr(exp_part[1:-1], ctx)
    else:
        try:
            e = int(exp_part)
        except ValueError:
            raise WordSyntaxError(f"malformed exponent in {tok!r}") from None
    if e not in (1, -1):
        size = len(letters) + len(base) * (abs(e) or 2)
        if size > budget:
            raise BudgetError(
                f"token {tok!r} takes word text to {size} letters, over budget {budget}"
            )
    inverse = tuple(-a for a in reversed(base))
    if e == 0:  # keep the letters so that they are range-checked; they cancel
        return base + inverse
    return (base if e > 0 else inverse) * abs(e)


def expand_token_text(text: str, ctx: Context, budget: int | None = None) -> Word:
    """Expand generator tokens (``h3 t1,2^-1 r1^(2n+2)`` ...) to a word.

    The one reader of word text: CLI arguments, report certificates and
    :meth:`Word.to_text` output.  Every letter is range-checked before free
    reduction, so ``s0 s0`` or ``s4 s4^-1`` at ``n = 1`` raises.  The letter
    budget (:func:`oracle.resolve_budget`) bounds the unreduced letters: a
    token that would pass it raises :class:`BudgetError` before it expands.
    """
    budget = oracle.resolve_budget(budget)
    letters: list[int] = []
    for tok in text.split():
        letters.extend(_token_letters(tok, ctx, letters, budget))
    return Word.from_letters(ctx, letters)


def validate_named_generators(ctx: Context, budget: int | None = None) -> list[tuple[str, bool]]:
    """Run the oracle-backed validation suite behind each adopted word.

    Covers: permutation shadows, purity of twists, locality commutations,
    the rotation conjugations of ``r1`` and ``r``, torsion orders, and the
    ``r1 = r F`` factorization.
    """
    n = ctx.n
    checks: list[tuple[str, bool]] = []
    empty = Word.identity(ctx)

    for i in range(1, 2 * n + 1):
        expected = Permutation.transposition(ctx.num_points, i, i + 2)
        checks.append((f"h{i}-psi", psi(gen_h(i, ctx), ctx) == expected))
    checks.append(
        ("h1-braid-relation",
         oracle.eq_disk(gen_h(1, ctx), Word(ctx, (2, 1, 2)), ctx, budget=budget))
    )

    for i in range(1, ctx.num_points):
        for j in range(i + 1, ctx.num_points + 1):
            checks.append(
                (f"t{i},{j}-pure", psi(gen_t(i, j, ctx), ctx).is_identity)
            )
    checks.append(("t1,2-is-sigma1-squared", gen_t(1, 2, ctx).letters == (1, 1)))
    lhs = gen_t(1, 3, ctx)
    rhs = gen_h(1, ctx) ** 2
    checks.append(("t1,3-equals-h1-squared", oracle.eq_disk(lhs, rhs, ctx, budget=budget)))
    for (i, j) in [(2, 3), (2, min(4, ctx.num_arcs))] if n >= 2 else [(1, 2)]:
        tw = gen_t(i, j, ctx)
        ok = True
        for mdx in range(1, 2 * n + 1):
            if mdx < i - 1 or mdx > j:
                s = gen_sigma(mdx, ctx)
                ok = ok and oracle.eq_disk(tw * s, s * tw, ctx, budget=budget)
        checks.append((f"t{i},{j}-locality", ok))

    r1 = gen_r1(ctx)
    cyc = list(range(2, ctx.num_points + 1)) + [1]
    checks.append(("r1-psi", psi(r1, ctx).images == tuple(cyc)))
    checks.append(
        ("r1-order", oracle.order_of(r1, "sphere", ctx, budget=budget) == ctx.num_points)
    )
    ok = True
    for i in range(1, 2 * n + 1):
        lhs = r1 * gen_sigma(i, ctx) * r1.inverse()
        ok = ok and oracle.eq_sphere(lhs, gen_sigma(i + 1, ctx), ctx, budget=budget)
    checks.append(("r1-rotates-arcs", ok))

    r = gen_r(ctx)
    rev = tuple(ctx.num_points + 1 - x for x in range(1, ctx.num_points + 1))
    checks.append(("r-psi", psi(r, ctx).images == rev))
    checks.append(("r-involution", oracle.eq_sphere(r * r, empty, ctx, budget=budget)))
    ok = True
    for i in range(1, ctx.num_arcs + 1):
        lhs = r * gen_sigma(i, ctx) * r.inverse()
        ok = ok and oracle.eq_sphere(
            lhs, gen_sigma(ctx.num_points - i, ctx), ctx, budget=budget
        )
    checks.append(("r-reverses-arcs", ok))

    if n == 1:
        checks.append(("F-n1-form", gen_F(ctx).letters == (-1, -2, -1)))
    checks.append(
        ("r1-equals-r-F",
         oracle.eq_sphere(r1, r * gen_F(ctx), ctx, budget=budget))
    )
    return checks
