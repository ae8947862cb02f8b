"""Seeded stream of ``eq`` queries with known verdicts.

Each query is a pair of words in generator-token text over the
sigma-letters of one group (disk, star or sphere) at one ``n``.  The first
word is a random freely reduced base word of 10 to 40 letters.  The second
is the first with three relator insertions, each trivial in the group:

* a braid relation ``s_i s_{i+1} s_i (s_{i+1} s_i s_{i+1})^-1``,
* a far commutation ``[s_i, s_j]`` with ``|i - j| >= 2``,
* a third relator: the sphere relator ``s_1..s_{2n+1} s_{2n+1}..s_1`` for
  the sphere group, a full-twist power for the star group (the center is
  killed there), and another braid relation for the disk group.

A false query also gets ``s_i^2 s_j^-2`` (``i != j``) inserted, before the
relators, among the first ``PERTURB_PREFIX`` letters of the base word.  That
element is nontrivial in all three groups for ``n >= 3``: it is pure and has
exponent sum zero in the braid group, and on the sphere with at least eight
points the twists about two distinct two-point curves differ.  Because it
is pure with zero exponent sum, neither the point permutation (``psi``) nor
the exponent sum can decide a false query early; the oracle must run.

The prefix bound keeps the stream's cost steady from seed to seed.  The
free-group oracle's cost for a false query grows exponentially with the
length of the word that conjugates the perturbation; with the perturbation
anywhere in a 40-letter word, one or two queries of a seed can take
seconds and set the whole pass.  Those exponential cases are therefore not
part of this stream.

The stream is stratified: every (group, n, verdict) cell gets the same
number of queries, with base lengths spread evenly over 10..40, in a
seeded order.

Inserting trivial elements and one element ``x`` into a word gives a word
equal to the original iff ``x`` is trivial, so each verdict is known by
construction.  The program under test receives only the token text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GROUPS = ("disk", "star", "sphere")
N_VALUES = range(3, 9)
BASE_LETTERS = (10, 40)
PERTURB_PREFIX = 12


@dataclass(frozen=True)
class Query:
    group: str
    n: int
    lhs: str
    rhs: str
    expect: bool


def _token(a: int, e: int = 1) -> str:
    e *= 1 if a > 0 else -1
    return f"s{abs(a)}" if e == 1 else f"s{abs(a)}^{e}"


def _inverse(tokens: list[str]) -> list[str]:
    out = []
    for tok in reversed(tokens):
        name, _, exp = tok.partition("^")
        e = -int(exp) if exp else -1
        out.append(name if e == 1 else f"{name}^{e}")
    return out


def _braid_relator(rng: random.Random, top: int) -> list[str]:
    i = rng.randrange(1, top)
    j = i + 1
    return [_token(i), _token(j), _token(i), _token(-j), _token(-i), _token(-j)]


def _far_commutator(rng: random.Random, top: int) -> list[str]:
    i = rng.randrange(1, top - 1)
    j = rng.randrange(i + 2, top + 1)
    return [_token(i), _token(j), _token(-i), _token(-j)]


def _third_relator(rng: random.Random, group: str, n: int) -> list[str]:
    if group == "sphere":
        arcs = 2 * n + 1
        up = [_token(i) for i in range(1, arcs + 1)]
        return up + up[::-1]
    if group == "star":
        # full twist of the 2n+1 strand disk: (s_1 .. s_2n)^(2n+1)
        return [_token(i) for i in range(1, 2 * n + 1)] * (2 * n + 1)
    return _braid_relator(rng, 2 * n)


def _perturbation(rng: random.Random, top: int) -> list[str]:
    i, j = rng.sample(range(1, top + 1), 2)
    return [_token(i, 2), _token(j, -2)]


def _base_word(rng: random.Random, top: int, length: int) -> list[str]:
    letters: list[int] = []
    while len(letters) < length:
        a = rng.choice((-1, 1)) * rng.randint(1, top)
        if not letters or letters[-1] != -a:
            letters.append(a)
    return [_token(a) for a in letters]


def make_query(rng: random.Random, group: str, n: int, expect: bool, length: int) -> Query:
    # the disk and star alphabets stop at s_2n; the sphere has s_2n+1
    top = 2 * n + 1 if group == "sphere" else 2 * n
    base = _base_word(rng, top, length)
    rhs = list(base)
    if not expect:
        at = rng.randint(0, PERTURB_PREFIX)
        rhs[at:at] = _perturbation(rng, top)
    for piece in (
        _braid_relator(rng, top),
        _far_commutator(rng, top),
        _third_relator(rng, group, n),
    ):
        if rng.random() < 0.5:
            piece = _inverse(piece)
        at = rng.randint(0, len(rhs))
        rhs[at:at] = piece
    return Query(group, n, " ".join(base), " ".join(rhs), expect)


def query_stream(seed: int, per_cell: int) -> list[Query]:
    """``per_cell`` queries for each (group, n, verdict), in seeded order."""
    low, high = BASE_LETTERS
    cells = [
        (group, n, expect, low + round((high - low) * (j + 0.5) / per_cell))
        for group in GROUPS
        for n in N_VALUES
        for expect in (True, False)
        for j in range(per_cell)
    ]
    rng = random.Random(seed)
    rng.shuffle(cells)
    return [make_query(rng, *cell) for cell in cells]
