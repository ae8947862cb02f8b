"""Independent slow versions of fast package code, kept as test referees.

Each function here computes what a package function computes, by the
direct method the package used before it was made fast: Python ints in
``object`` arrays, dense products, per-pair and per-entry loops, one
coordinate slice per braid letter, token text parsed with no memo, the
star check run on the full-twist power spelled out letter by letter and
lift text as one chained product of dense token matrices, and the
parity subgroup W listed member by member.
Tests compare the package's results with these entry for entry.
"""

from __future__ import annotations

import numpy as np

from superelliptic import cover, intmat
from superelliptic import generators as G
from superelliptic.errors import BudgetError, WordSyntaxError
from superelliptic.oracle import cap_to_star, resolve_budget
from superelliptic.words import Permutation, Word, exponent_sum, psi


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


def gamma_lifts(surface, i: int) -> np.ndarray:
    """The ``k x 2g`` lifts of ``gamma_i``, one curve at a time: a Python list
    of loop coordinates per start sheet, crossing by crossing along the round
    curve, mapped to homology in one :func:`intmat.mul` per curve."""
    ctx, k = surface.ctx, surface.ctx.k
    cycles = []
    for label in range(1, k + 1):
        s, cycle = label, [0] * len(surface.loops)
        for arc, d in cover._round_sequence(ctx, i):
            c = arc % 2
            lab = (s + c - 1) % k + 1 if d > 0 else s
            if lab >= 2:
                cycle[surface.loop_index[(arc, lab)]] += d
            else:
                for l in range(2, k + 1):
                    cycle[surface.loop_index[(arc, l)]] -= d
            s = (s + d * c - 1) % k + 1
        assert s == label, "zero-monodromy lift failed to close"
        cycles.append(cycle)
    return intmat.mul(cycles, surface.basis, surface.Jinv.T)


def chain_pattern(surface, G=None) -> list[tuple[int, ...]]:
    """The violations of the unsigned lifted chain pattern, one h-chain and
    one pair of families at a time: ``(i, a, b, |pairing|)`` for positions
    ``a < b`` of the ``h_i`` chain that are not neighbours yet meet, or
    neighbours that do not meet once; then ``(i, j, l, m)`` for lifts of
    ``gamma_i`` and ``gamma_j``, ``j >= i + 2``, from sheets ``l`` and ``m``
    that meet.  ``cover.chain_pattern_violations`` checks the signs too.

    The pairings are read from ``G``, by default ``V J V^T`` over every lift
    ``V`` of every ``gamma_i`` computed curve by curve (:func:`gamma_lifts`).
    """
    n, k = surface.ctx.n, surface.ctx.k
    if G is None:
        V = np.concatenate([gamma_lifts(surface, i) for i in range(1, 2 * n + 2)])
        G = intmat.mul(V, surface.J, V.T)
    bad = []
    for i in range(1, 2 * n + 1):
        low, high = (i - 1) * k - 1, i * k - 1  # the rows of label l are low + l and high + l
        labels = range(1, k) if i % 2 == 1 else range(k, 1, -1)
        R = [row for l in labels for row in (low + l, high + l)] + [low + (k if i % 2 else 1)]
        got = np.abs(np.triu(G[np.ix_(R, R)], 1))
        wrong = got != np.eye(len(R), k=1, dtype=np.int64)
        bad += [(i, int(a), int(b), int(got[a, b])) for a, b in zip(*np.nonzero(wrong))]
    for i in range(1, 2 * n + 2):
        for j in range(i + 2, 2 * n + 2):
            block = G[(i - 1) * k : i * k, (j - 1) * k : j * k]
            bad += [(i, j, int(la) + 1, int(lb) + 1) for la, lb in zip(*np.nonzero(block))]
    return bad


def fixed_point_free_of_order(M: np.ndarray, k: int) -> bool:
    """Whether ``M`` has exact order ``k`` and no fixed vector: every power
    ``M^j`` for ``0 < j < k`` differs from ``I``, and the sum of the powers
    ``M^j`` for ``0 <= j < k``, taken one dense product at a time and summed
    in Python ints, is zero."""
    ident = np.eye(len(M), dtype=np.int64)
    power, total, ok = ident, ident.astype(object), True
    for _ in range(1, k):
        power = intmat.mul(power, M)
        total = total + power
        ok = ok and not np.array_equal(power, ident)
    return ok and not np.count_nonzero(total)


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
        return twist_lift(surface.J, cover._lift_rows(surface, "h", int(name[1:])).C)
    i, j = map(int, name[1:].split(","))
    assert j == i + 1, name
    return twist_lift(surface.J, cover._lift_rows(surface, "t", i).C)


def lift_product(surface, text: str) -> np.ndarray:
    """Lift text as the dense chain: each token a ``2g x 2g`` matrix, its
    inverse ``J^-1 M^T J`` and its power by squaring in ``object`` arrays,
    and all of them one chained :func:`intmat.mul`."""
    J, Jinv = surface.J.astype(object), surface.Jinv.astype(object)
    factors = []
    for tok in text.split():
        name, _, e = tok.partition("^")
        M, e = lift_token(surface, name).astype(object), int(e or 1)
        if e < 0:
            M, e = Jinv @ M.T @ J, -e
        power = intmat.identity_object(surface.h1_rank)
        while e:
            if e & 1:
                power = power @ M
            e >>= 1
            if e:
                M = M @ M
        factors.append(power)
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


_DIGITS = "0123456789"
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_ARITY = {"s": 1, "h": 1, "t": 2, "r1": 0, "r": 0, "F": 0, "hchain_t": 0}


def _number(text: str) -> int | None:
    """The value of a nonempty run of ASCII digits, else None."""
    return int(text) if text and not text.strip(_DIGITS) else None


def _linexpr(text: str, ctx) -> int:
    """A sum of terms ``[+-]? digits [n|k]`` or ``[+-]? (n|k)``, scanned one character at a time."""
    total, at = 0, 0
    while at < len(text):
        sign = -1 if text[at] == "-" else 1
        at += text[at] in "+-"
        end = at
        while end < len(text) and text[end] in _DIGITS:
            end += 1
        var = text[end] if end < len(text) and text[end] in "nk" else None
        if end == at and var is None:
            raise WordSyntaxError(f"malformed exponent expression {text!r}")
        coef = int(text[at:end]) if end > at else 1
        total += sign * coef * ({"n": ctx.n, "k": ctx.k}[var] if var else 1)
        at = end + (var is not None)
    if not text:
        raise WordSyntaxError(f"malformed exponent expression {text!r}")
    return total


def read_token(tok: str, ctx) -> tuple[str, tuple[int, ...], int]:
    """``(name, indices, exponent)`` of one token, read with string methods, no regex."""
    body, caret, exp = tok.partition("^")
    name = "r1" if body == "r1" else body[: len(body) - len(body.lstrip(_NAME_CHARS))]
    parts = body[len(name):].split(",") if body[len(name):] else []
    indices = tuple(map(_number, parts))
    signed = exp[1:] if exp[:1] in ("+", "-") else exp
    linear = len(exp) >= 2 and exp[0] == "(" and exp[-1] == ")"
    if not name or len(parts) > 2 or None in indices or caret and not linear and _number(signed) is None:
        raise WordSyntaxError(f"malformed token {tok!r}")
    if not caret:
        return name, indices, 1
    return name, indices, _linexpr(exp[1:-1], ctx) if linear else int(exp)


def _token_letters(tok: str, ctx, letters: list[int], budget: int) -> tuple[int, ...]:
    """The letters of one token, parsed from its text, after the budget check.

    A name's letter count is that of its built word, except that ``s`` and
    ``h`` count 1 and 3 unbuilt, so an ``h`` index out of range raises
    only after the budget check.
    """
    name, indices, e = read_token(tok, ctx)
    if _ARITY.get(name) != len(indices):
        raise WordSyntaxError(f"unknown generator token {tok!r}")
    if name == "s":
        base = indices
    elif name == "t":
        base = G.gen_t(*indices, ctx).letters
    elif name != "h":
        base = G._WORDS[name](ctx).letters
    count = {"s": 1, "h": 3}.get(name) or len(base)
    _over_budget(tok, len(letters) + count * (abs(e) or 2), budget)
    if name == "h":
        base = G.gen_h(*indices, ctx).letters
    if e == 1:
        return base
    inverse = tuple(-a for a in reversed(base))
    if e == 0:
        return base + inverse
    return (base if e > 0 else inverse) * abs(e)


def _over_budget(tok: str, size: int, budget: int) -> None:
    if size > budget:
        raise BudgetError(f"token {tok!r} takes word text to {size} letters, over budget {budget}")


def expand_token_text(text: str, ctx, budget: int | None = None):
    """Token text to a ``Word`` with no memo: each distinct token of the text
    is parsed once, and every occurrence is counted against the budget."""
    budget = resolve_budget(budget)
    letters: list[int] = []
    built: dict[str, tuple[int, ...]] = {}
    for tok in text.split():
        if tok in built:
            _over_budget(tok, len(letters) + len(built[tok]), budget)
        else:
            built[tok] = _token_letters(tok, ctx, letters, budget)
        letters.extend(built[tok])
    return Word.from_letters(ctx, letters)


def enumerate_W(ctx):
    """Exhaustive iterator over the parity subgroup W, for ``n <= 3``.

    A depth-first search over ``S_{2n+2}`` assigns ``p(1), p(2), ..`` in
    turn, trying values in increasing order.  A permutation is in W iff
    every shift ``p(x) - x`` has the parity of ``p(1) - 1``, and every
    extension of a prefix whose shifts mix parities mixes them too, so the
    search never extends such a prefix: it builds every member of W and
    nothing else, in the lexicographic order of ``itertools.permutations``,
    in ``O(|W| n)`` steps instead of ``(2n+2)!``.
    """
    if ctx.n > 3:
        raise ValueError("exhaustive enumeration is limited to n <= 3")
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
