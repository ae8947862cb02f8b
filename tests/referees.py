"""Independent slow versions of fast package code, kept as test referees.

Each function here computes what a package function computes, by the
direct method the package used before it was made fast: Python ints in
``object`` arrays, dense products, per-pair and per-entry loops, one
coordinate slice per braid letter, token text parsed with no memo, the
star check run on the full-twist power spelled out letter by letter and
lift text as one chained product of dense token matrices.
Tests compare the package's results with these entry for entry.
"""

from __future__ import annotations

import numpy as np

from superelliptic import cover, intmat
from superelliptic import generators as G
from superelliptic.errors import BudgetError, WordSyntaxError
from superelliptic.oracle import cap_to_star, resolve_budget
from superelliptic.words import Word, exponent_sum, psi


def symplectic_change_of_basis(J) -> np.ndarray:
    """Unimodular ``P`` with ``P^T J P`` in standard block form, in Python ints.

    The same pivot rule as :func:`superelliptic.intmat.symplectic_change_of_basis`
    (the first smallest nonzero pairing), one vector at a time on ``object``
    arrays, so no entry can overflow.
    """
    J = np.array(J, dtype=object)
    m = J.shape[0]
    basis = [np.array([int(i == t) for i in range(m)], dtype=object) for t in range(m)]

    out: list[np.ndarray] = []
    while basis:
        u = basis.pop(0)
        uJ = u @ J
        pairs = [int(uJ @ w) for w in basis]  # pairs[i] = u^T J basis[i]
        if not any(pairs):
            raise ValueError("form is degenerate on the remaining sublattice")
        while True:
            b = min((i for i, p in enumerate(pairs) if p), key=lambda i: abs(pairs[i]))
            best, d = basis[b], pairs[b]
            reduced = False
            for i, p in enumerate(pairs):
                if i != b and p:
                    q = p // d
                    basis[i] = basis[i] - q * best
                    pairs[i] = p - q * d
                    reduced = reduced or pairs[i] != 0
            if not reduced:
                break
        if abs(d) != 1:
            raise ValueError("could not reach a unimodular pairing; form not unimodular?")
        del basis[b]
        w = best if d == 1 else -best
        Jw = J @ w
        basis = [x - int(x @ Jw) * u for x in basis]
        out.append(u)
        out.append(w)
    P = np.zeros((m, m), dtype=object)
    for col, vec in enumerate(out):
        P[:, col] = vec
    return P


def smith_normal_form(A) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """``(D, U, Uinv, V, r)`` of :func:`superelliptic.intmat.smith_normal_form`,
    with the pivot search and the divisibility pass run one entry at a time.

    The same rule: the pivot is the first smallest nonzero |entry| of the
    trailing block in row-major order, and the divisibility pass adds the
    row of the first entry, in row-major order, that the pivot does not
    divide.
    """
    D = intmat.as_object_matrix(A).copy()
    m, n = D.shape
    U = intmat.identity_object(m)
    Uinv = intmat.identity_object(m)
    V = intmat.identity_object(n)

    def swap_rows(i, j):
        if i != j:
            D[[i, j], :] = D[[j, i], :]
            U[[i, j], :] = U[[j, i], :]
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def swap_cols(i, j):
        if i != j:
            D[:, [i, j]] = D[:, [j, i]]
            V[:, [i, j]] = V[:, [j, i]]

    def add_row(i, j, q):
        # row_i += q * row_j
        if q:
            D[i, :] += q * D[j, :]
            U[i, :] += q * U[j, :]
            Uinv[:, j] -= q * Uinv[:, i]

    def add_col(i, j, q):
        # col_i += q * col_j
        if q:
            D[:, i] += q * D[:, j]
            V[:, i] += q * V[:, j]

    def negate_row(i):
        D[i, :] = -D[i, :]
        U[i, :] = -U[i, :]
        Uinv[:, i] = -Uinv[:, i]

    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i, j] != 0 and (pivot is None or abs(D[i, j]) < pivot[2]):
                    pivot = (i, j, abs(D[i, j]))
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # A nonzero remainder is smaller than the pivot: search again, so
        # that column operations run only once column t is clear below the
        # pivot and cannot grow the trailing block.
        for i in range(t + 1, m):
            add_row(i, t, -(D[i, t] // D[t, t]))
        if any(D[t + 1:, t]):
            continue
        for j in range(t + 1, n):
            add_col(j, t, -(D[t, j] // D[t, t]))
        if any(D[t, t + 1:]):
            continue
        if D[t, t] < 0:
            negate_row(t)
        # enforce divisibility d_t | D[i, j]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i, j] % D[t, t]:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
            if t >= min(m, n):
                break
    r = sum(1 for i in range(min(m, n)) if D[i, i] != 0)
    return D, U, Uinv, V, r


def twist_lift(J: np.ndarray, curves) -> np.ndarray:
    """``T_{c_1} ... T_{c_r}`` as a dense product of the ``I + c (J c)^T``.

    Runs as int64 ``@``; each product asserts first that
    ``max|A| * max|B| * dim`` stays below ``2**62``, so it cannot wrap.
    """
    J = np.asarray(J, dtype=np.int64)
    m = J.shape[0]
    M = np.eye(m, dtype=np.int64)
    for c in curves:
        c = np.asarray(c, dtype=np.int64)
        T = np.eye(m, dtype=np.int64) + np.outer(c, J @ c)
        assert int(np.abs(M).max()) * int(np.abs(T).max()) * m < 2**62
        M = M @ T
    return M


def lift_token(surface, name: str) -> np.ndarray:
    """The dense ``2g x 2g`` matrix of one lift name (a token without exponent).

    ``t`` and ``h`` lifts are dense twist products (:func:`twist_lift`),
    ``r1`` and ``zeta_prime`` their factor texts read by :func:`lift_product`,
    and ``zeta`` and ``r`` the cover's edge-map matrices.
    """
    n = surface.ctx.n
    if name in ("zeta", "r"):
        return cover.lift_rep(surface, name)
    if name == "r1":
        return lift_product(surface, "r " + G.factors_to_tokens(G.F_factors(n)))
    if name == "zeta_prime":
        return lift_product(surface, G.factors_to_tokens(G.t_chain_factors(1, 2 * n + 1)))
    if name.startswith("h"):
        return twist_lift(surface.J, cover.h_chain(surface, int(name[1:])))
    i, j = map(int, name[1:].split(","))
    assert j == i + 1, name
    return twist_lift(surface.J, cover._gamma_lifts(surface, i))


def lift_product(surface, text: str) -> np.ndarray:
    """Lift text as the dense chain: each token a ``2g x 2g`` matrix, its power
    by :func:`cover.matrix_power`, and all of them one chained :func:`intmat.mul`."""
    factors = []
    for tok in text.split():
        name, _, e = tok.partition("^")
        factors.append(cover.matrix_power(surface, lift_token(surface, name), int(e or 1)))
    if not factors:
        return np.eye(surface.h1_rank, dtype=np.int64)
    return intmat.mul(*factors)


def _chord_sign(a_in: int, a_out: int, b_in: int, b_out: int, size: int) -> int:
    ra = (a_out - a_in) % size
    rb1 = (b_in - a_in) % size
    rb2 = (b_out - a_in) % size
    in1 = 0 < rb1 < ra
    in2 = 0 < rb2 < ra
    if in1 == in2:
        return 0
    return 1 if in1 else -1


def crossing_form(pos, orient: int = 1) -> np.ndarray:
    """The loop pairing from vertex-link positions, one ``_chord_sign`` per pair."""
    pos = [int(p) for p in pos]
    m = len(pos) // 2
    crossing = np.zeros((m, m), dtype=np.int64)
    for e in range(m):
        for f in range(e + 1, m):
            sgn = _chord_sign(pos[2 * e + 1], pos[2 * e], pos[2 * f + 1], pos[2 * f], 2 * m)
            crossing[e, f] = orient * sgn
            crossing[f, e] = -orient * sgn
    return crossing


def act_dynnikov(letters, coords) -> tuple[int, ...]:
    """Dynnikov coordinates after ``letters``, one slice of four per letter.

    The formulas of :func:`superelliptic._kernels.act_dynnikov` on one
    interleaved list ``(a_1, b_1, ..., a_m, b_m)``: each letter unpacks
    ``v[j:j+4]`` and assigns the four new values back to that slice.
    """
    v = list(coords)
    for x in letters:
        j = 2 * x - 2 if x > 0 else -2 * x - 2
        a1, b1, a2, b2 = v[j : j + 4]
        b1p = b1 if b1 > 0 else 0
        b1m = b1 - b1p
        b2p = b2 if b2 > 0 else 0
        b2m = b2 - b2p
        if x > 0:
            c = a1 - b1m - a2 + b2p
            cp = c if c > 0 else 0
            s = b2p - c
            t = b1m + c
            v[j : j + 4] = (
                a1 + b1p + (s if s > 0 else 0),
                b2 - cp,
                a2 + b2m + (t if t < 0 else 0),
                b1 + cp,
            )
        else:
            d = a1 + b1m - a2 - b2p
            dm = d if d < 0 else 0
            s = b2p + d
            t = b1m - d
            v[j : j + 4] = (
                a1 - b1p - (s if s > 0 else 0),
                b2 + dm,
                a2 - b2m - (t if t < 0 else 0),
                b1 - dm,
            )
    return tuple(v)


def half_twist(ctx) -> Word:
    """The half twist on ``sigma_1 .. sigma_2n`` as ``(1)(2 1)(3 2 1) ... (2n .. 1)``."""
    letters = []
    for a in range(1, 2 * ctx.n + 1):
        letters.extend(range(a, 0, -1))
    return Word(ctx, tuple(letters))


def _star_quotient(group: str, u: Word, v: Word, ctx) -> tuple[Word, int] | None:
    """``(d, p)``: ``d = u v^{-1}`` (in the sphere group, its cyclic core
    rewritten by :func:`superelliptic.oracle.cap_to_star`) and the one full-twist power
    ``Delta^{2p}`` that its exponent sum allows (``p = 0`` in the disk
    group); None when the point permutation or the exponent sum decides
    ``u = v`` first."""
    d = u * v.inverse()
    if group == "disk":
        return d, 0
    if group == "sphere":
        d = Word.from_letters(ctx, _core(d.letters))
        if not psi(d, ctx).is_identity:
            return None
        d = cap_to_star(d, ctx)
    full = 2 * ctx.n * (2 * ctx.n + 1)  # exponent sum of the full twist
    e = exponent_sum(d)
    if e % full:
        return None
    return d, e // full


def budget_count(group: str, u: Word, v: Word, ctx) -> int | None:
    """The letters the budget counts for ``u = v`` in ``group``, or None as in
    :func:`_star_quotient`: the cyclic core of its ``d``, before any letter
    of the full twist."""
    quotient = _star_quotient(group, u, v, ctx)
    return None if quotient is None else len(_core(quotient[0].letters))


def _core(letters) -> list[int]:
    """The cyclic core of a reduced word: its first and last letters dropped
    while they are inverse to each other."""
    core = list(letters)
    while len(core) > 1 and core[0] == -core[-1]:
        core = core[1:-1]
    return core


def eq(group: str, u: Word, v: Word, ctx, budget: int | None = None) -> bool:
    """``u = v`` in ``group`` once :func:`budget_count` is within the budget,
    by acting on every letter of the reduced ``d Delta^{-2p}`` of
    :func:`_star_quotient`, with ``Delta^{2p} = (half twist)^{2p}`` built
    letter by letter.

    Letters are not range-checked: the inputs must lie in the group's
    alphabet already.
    """
    budget = resolve_budget(budget)
    size = budget_count(group, u, v, ctx)
    if size is None:
        return False
    if size > budget:
        raise BudgetError(f"word of {size} letters exceeds budget {budget}")
    d, p = _star_quotient(group, u, v, ctx)
    w = d * (half_twist(ctx) ** (2 * p)).inverse()
    start = (0, 1) * ctx.num_arcs
    return act_dynnikov(w.letters, start) == start


def _token_letters(tok: str, ctx, letters: list[int], budget: int) -> tuple[int, ...]:
    """The letters of one token, parsed from its text, after the budget check."""
    name_part, caret, exp_part = tok.partition("^")
    m = G._NAME_RE.match(name_part)
    if not m:
        raise WordSyntaxError(f"unknown generator token {tok!r}")
    e = 1
    if caret:
        if exp_part.startswith("(") and exp_part.endswith(")"):
            e = G._eval_linexpr(exp_part[1:-1], ctx)
        else:
            try:
                e = int(exp_part)
            except ValueError:
                raise WordSyntaxError(f"malformed exponent in {tok!r}") from None
    count = 1 if m.group(2) else G._letter_count(m, ctx)
    G._check_budget(tok, len(letters) + count * (abs(e) or 2), budget)
    if m.group(2) is not None:
        base = (int(m.group(2)),)
    elif m.group(3) is not None:
        base = G.gen_h(int(m.group(3)), ctx).letters
    elif m.group(4) is not None:
        base = G.gen_t(int(m.group(4)), int(m.group(5)), ctx).letters
    else:
        base = G._WORDS[name_part](ctx).letters
    if e == 1:
        return base
    inverse = tuple(-a for a in reversed(base))
    if e == 0:
        return base + inverse
    return (base if e > 0 else inverse) * abs(e)


def expand_token_text(text: str, ctx, budget: int | None = None):
    """Token text to a ``Word`` with no memo: each distinct token of the text
    is parsed once, and every occurrence is counted against the budget."""
    budget = resolve_budget(budget)
    letters: list[int] = []
    built: dict[str, tuple[int, ...]] = {}
    for tok in text.split():
        if tok in built:
            G._check_budget(tok, len(letters) + len(built[tok]), budget)
        else:
            built[tok] = _token_letters(tok, ctx, letters, budget)
        letters.extend(built[tok])
    return Word.from_letters(ctx, letters)
