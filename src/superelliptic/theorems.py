"""Executable verification of the generating-set and lifting claims.

Every check is packaged as a :class:`Claim` with a stable id, a pass /
fail / skipped status and, for word-level and lifted-homology claims, a
witness: a list of ``{group, lhs, rhs, expect, shifts}`` entries, in
generator-token syntax or, for group ``homology``, in lift text
(:func:`cover.lift_product`).  An entry stands for ``shifts`` instances: itself
with every ``s<i>``, ``h<i>`` and ``t<i>,<j>`` index raised by 0 through
``shifts - 1``.
Every claim is one row of the claim table (:data:`_TABLE`), and
:func:`verify` makes it from that row; :func:`run_all` makes the rows in
table order.  A certificate claim's row holds what it states, a function of
its context, and the run stores that statement as the witness.  One
function judges such a claim, in the run and in :func:`reverify_report`
alike (:func:`_certificate_verdict`), so it re-verifies from its witness
alone and reports double as certificates.  A computed claim's row
(``liftability-*``, ``cover-*``, ``smod-chain-pattern``) holds its check, and
the claim stores no witness; :func:`reverify_report` runs that check again
at its ``n``, ``k``.

The verdict first requires the entries to equal the statement, in order,
in ``group``, ``lhs``, ``rhs``, ``expect`` and ``shifts``, reading token names
alone: a file with fewer entries or shifts, a weaker group or a dropped
inequality does not re-verify.  Generation claims are straight-line
programs: one step per standard generator, in a fixed order, writes it over
the small generating set and the generators before it, and the group's
oracle confirms the step; a run of steps that are shifts of one another is
one entry.  A step's ``rhs`` is its proof, so it may differ from the run's,
but at each shift it may use only basis tokens and earlier targets, or an
oracle-true step such as ``h3 = h3`` would prove nothing.

Conjugation by ``delta = sigma_1 ... sigma_m`` raises each ``sigma_i``, ``i < m``,
by one, so an entry holds at every shift iff it holds at shift 0, as long as
every shift stays in the group's alphabet.  One rule (:func:`check_instance`)
checks that from token names and ``shifts`` alone, and then the oracle runs
once, on shift 0; the letter budget bounds that run.

Homology-level claims (the lifted conjugations, the deck-rotation
factorization, deck normalization) are necessary-condition checks only:
the homology representation is not faithful, and their details say so.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from functools import partial
from math import factorial
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__ as _pkg_version
from . import cover, liftability, oracle
from .errors import BudgetError, WordSyntaxError
from .generators import expand_token_text, t_chain_factors
from .words import Context, psi, read_token


@dataclass
class Claim:
    id: str
    group: str  # disk | star | sphere | homology
    status: str = "pass"  # pass | fail | skipped
    detail: str = ""
    witness: dict | None = None
    elapsed: float = 0.0
    n: int = 0
    k: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {**vars(self), "elapsed": round(self.elapsed, 6)}

    @classmethod
    def from_dict(cls, d: dict) -> "Claim":
        optional = {key: d[key] for key in ("detail", "witness", "elapsed", "n", "k") if key in d}
        return cls(d["id"], d["group"], d["status"], **optional)


@dataclass
class Bounds:
    """Desk-scale limits; claims beyond them are reported as skipped.

    Each bound is an integer >= 0 (``ValueError`` otherwise); 0 skips every
    claim it bounds.
    """

    base_n: int = 4
    homology_n: int = 10
    homology_k: int = 10

    def __post_init__(self):
        for name in ("base_n", "homology_n", "homology_k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"bound {name} must be an integer >= 0, got {value!r}")

    def skip(self, section: str, ctx: Context) -> str | None:
        """Why the claims of table ``section`` are skipped at ``ctx``; None runs them."""
        if section == "base" and ctx.n > self.base_n:
            return f"over desk-scale bound (n <= {self.base_n}); raise --bound-base-n"
        if section == "homology" and (ctx.n > self.homology_n or ctx.k > self.homology_k):
            return f"over homology bounds (n <= {self.homology_n}, k <= {self.homology_k})"
        return None


class _Row(NamedTuple):
    """One claim of the claim table, which exists for ``lo <= n`` (and ``n <= hi``).

    ``section`` names the bound that skips it (:meth:`Bounds.skip`).  A
    ``certificate`` or ``relation`` states the entries ``make(ctx)``; a
    ``generation`` claim states the steps of ``generation_words(program)``
    over ``_basis_tokens(basis)``; a ``computed`` claim runs ``make(ctx)``.
    """

    id: str
    group: str  # disk | star | sphere | homology
    section: str  # base | liftability | cover | homology
    kind: str  # certificate | relation | generation | computed
    make: Callable | None = None
    lo: int = 1
    hi: int | None = None
    basis: str | None = None
    program: str | None = None

    def exists(self, n: int) -> bool:
        return self.lo <= n and (self.hi is None or n <= self.hi)

    def statement(self, ctx: Context) -> list[dict]:
        """The entries that a certificate claim states at ``ctx``, in order."""
        if self.kind == "generation":
            return [
                _inst(self.group, target, " ".join(tokens), shifts=shifts)
                for target, tokens, shifts in generation_words(self.program, ctx)
            ]
        return self.make(ctx)


@dataclass
class Report:
    header: dict
    claims: list[Claim] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def to_dict(self) -> dict:
        return {"header": self.header, "claims": [c.to_dict() for c in self.claims]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(header=d["header"], claims=[Claim.from_dict(c) for c in d["claims"]])

    def render_text(self) -> str:
        lines = ["conventions:"]
        for key in sorted(self.header):
            lines.append(f"  {key}: {self.header[key]}")
        lines.append("")
        width = max((len(c.id) for c in self.claims), default=10) + 2
        for c in self.claims:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            lines.append(
                f"{mark}  {c.id:<{width}} [{c.group}] ({c.elapsed:.2f}s) {c.detail}"
            )
        counts = {
            s: sum(1 for c in self.claims if c.status == s)
            for s in ("pass", "fail", "skipped")
        }
        lines.append("")
        lines.append(
            f"claims: {counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skipped']} skipped"
        )
        return "\n".join(lines)


def convention_header(ctx: Context, budget: int) -> dict:
    return {
        "package": f"superelliptic {_pkg_version}",
        "composition": "rightmost letter acts first; [u][v] = [u o v]",
        "sigma": "sigma_i is the positive Artin half-twist along arc i",
        "twist_words": "t_{i,j} = (sigma_i ... sigma_{j-1})^{j-i+1}; t_{i,2n+2} rewritten to t_{1,i-1}",
        "rotation_words": "r1 = sigma_1 ... sigma_{2n+1}; r = half-twist word (adopted, validated, no inverse fallback needed)",
        "sheets": "crossing an odd arc upward increments the sheet; lifted arcs labeled by their upper face",
        "homology": "one-vertex contraction; J from vertex-link chord crossings; "
        "homology claims are necessary conditions only (the representation is not faithful)",
        "oracle": "disk and star: Dynnikov coordinates of (0,1,...,0,1); "
        "sphere: pure words capped to the star group; "
        "the budget counts the cyclic core of u v^-1 (sphere: of the rewrite of that core); "
        "an entry of m shifts is decided by one run, on shift 0",
        "budget_letters": budget,
        "numpy": np.__version__,
        "n": ctx.n,
        "k": ctx.k,
    }


# -- claim runner --------------------------------------------------------------


def _rows(n: int, **match) -> list[_Row]:
    """The table rows that exist at ``n`` and whose fields equal ``match``, in table order."""
    return [
        row for row in _TABLE.values()
        if row.exists(n) and all(getattr(row, key) == value for key, value in match.items())
    ]


def _table_row(cid: str, ctx: Context) -> _Row:
    """The row of claim ``cid`` at ``ctx``; ``ValueError`` unless it exists there.

    A base or liftability row needs k >= 3: at k = 2 every mapping class
    lifts, so the parity group W that those rows are about is not the
    liftable group."""
    row = _TABLE.get(cid)
    if row is None:
        raise ValueError(f"claim {cid!r} is not in the claim table")
    if not row.exists(ctx.n):
        span = f"n >= {row.lo}" if row.hi is None else f"{row.lo} <= n <= {row.hi}"
        raise ValueError(f"claim {cid!r} exists for {span}, not n = {ctx.n}")
    if ctx.k == 2 and row.section in ("base", "liftability"):
        raise ValueError(f"claim {cid!r} needs k >= 3; at k = 2 every mapping class lifts")
    return row


def verify(cid: str, ctx: Context, budget: int | None = None) -> Claim:
    """Make claim ``cid`` at ``ctx`` from its row of the claim table.

    ``cid`` must be a row that exists at ``ctx.n`` (``ValueError`` naming its
    n-range otherwise), and a base or liftability row needs ``ctx.k >= 3``
    (:func:`_table_row`).  A certificate claim stores its statement as the
    witness, which must hold (:func:`_certificate_verdict`); a computed claim
    runs its check.  ``ok`` True passes, False fails and None skips.  An
    oracle that runs over its letter budget skips the claim; a witness is
    kept either way.  ``elapsed`` covers the verdict or the check alone.
    A budget other than None or an integer >= 1 raises ``ValueError`` first
    (:func:`oracle.resolve_budget`), for a computed claim too.
    """
    budget = oracle.resolve_budget(budget)
    row = _table_row(cid, ctx)
    if row.kind == "computed":
        check, witness = partial(row.make, ctx), None
    else:
        instances = row.statement(ctx)
        note = _HOMOLOGY_NOTE if row.group == "homology" else ""
        if row.kind == "generation":
            note = f"basis {{{', '.join(_basis_tokens(row.basis, ctx))}}}, straight-line steps:"
        check = partial(_certificate_verdict, row, ctx, instances, instances, budget, note)
        witness = {"instances": instances}
    t0 = time.monotonic()
    try:
        ok, detail = check()
    except BudgetError as exc:
        ok, detail = None, f"oracle budget exceeded: {exc}"
    status = "skipped" if ok is None else "pass" if ok else "fail"
    return Claim(cid, row.group, status, detail, witness, time.monotonic() - t0, ctx.n, ctx.k)


_EQ_BY_GROUP = oracle._EQ


def check_instance(inst: dict, ctx: Context, budget: int | None = None) -> bool:
    """Re-verify one stored witness entry, at each of its ``shifts``.

    The entry must pass the shift rule (:func:`_check_shifts`), which
    raises :class:`WordSyntaxError` before any letter is built.  Then a
    ``homology`` entry compares the lift-text products of its sides
    (:func:`cover.lift_product`), and any other group's oracle decides the
    word text of shift 0 once.  A budget other than None or an integer >= 1
    raises ``ValueError`` first (:func:`oracle.resolve_budget`), for a
    ``homology`` entry too.
    """
    budget = oracle.resolve_budget(budget)
    _check_shifts(inst, ctx)
    if inst["group"] == "homology":
        surface = cover.build_cover(ctx)
        lhs, rhs = (cover.lift_product(surface, inst[side]) for side in ("lhs", "rhs"))
        return np.array_equal(lhs, rhs) == inst["expect"]
    eq = _EQ_BY_GROUP[inst["group"]]
    lhs, rhs = (expand_token_text(inst[side], ctx, budget) for side in ("lhs", "rhs"))
    return eq(lhs, rhs, ctx, budget=budget) == inst["expect"]


# A shifting token's name -> (its number of indices, its largest letter minus its last index)
_SHIFTING = {"s": (1, 0), "h": (1, 1), "t": (2, -1)}


def _check_shifts(inst: dict, ctx: Context) -> None:
    """Raise :class:`WordSyntaxError` unless shift 0 decides the entry ``inst``.

    ``shifts`` must be an integer >= 1, and 1 is the instance alone.  More
    shifts need a base group in which every token shifts: ``s<i>``, ``h<i>``
    or ``t<i>,<j>`` with ``j <= 2n+1`` at the last shift, and in the sphere
    group also a power of ``r1`` whose letters are ``delta = sigma_1 ...
    sigma_{2n+1}``, which conjugation by ``delta`` fixes.  The largest letter
    of the last shift must be in the group's alphabet (``sigma_2n``, or
    ``sigma_{2n+1}`` in the sphere group).  Conjugation by ``delta^c`` then
    takes shift 0 to shift ``c`` and keeps equality and inequality alike.
    """
    shifts, group = inst["shifts"], inst["group"]
    if type(shifts) is not int or shifts < 1:
        raise WordSyntaxError(f"shifts must be an integer >= 1, got {shifts!r}")
    if shifts == 1:
        return
    if group not in _EQ_BY_GROUP:
        raise WordSyntaxError(f"a {group} entry does not shift")
    top = 2 * ctx.n + (group == "sphere")
    high, rotates = 0, False
    for tok in f"{inst['lhs']} {inst['rhs']}".split():
        name, indices, _ = read_token(tok, ctx)
        arity, over = _SHIFTING.get(name, (None, 0))
        if name == "r1" and group == "sphere":
            rotates = True
        elif len(indices) != arity or (name == "t" and indices[1] + shifts - 1 > ctx.num_arcs):
            raise WordSyntaxError(
                f"token {tok!r} does not shift {shifts - 1} times in the {group} group"
            )
        else:
            high = max(high, indices[-1] + over)
    last = high + shifts - 1
    if last > top:
        lhs = inst["lhs"]
        raise WordSyntaxError(f"shift {shifts - 1} of {lhs!r} takes letter {last} past sigma_{top}")
    if rotates and expand_token_text("r1", ctx).letters != tuple(range(1, top + 1)):
        raise WordSyntaxError("r1 is not sigma_1 ... sigma_{2n+1}, so a shift does not fix it")


def _inst(group: str, lhs: str, rhs: str, expect: bool = True, shifts: int = 1) -> dict:
    """One witness entry: ``lhs`` and ``rhs``, with every index raised by each
    ``c < shifts``, are equal in ``group`` iff ``expect``."""
    return {"group": group, "lhs": lhs, "rhs": rhs, "expect": expect, "shifts": shifts}


_INDEXED = re.compile(r"([sht])(\d+)(?:,(\d+))?")


def _shifted(name: str, c: int) -> str:
    """A token name with its indices raised by ``c`` (``t2,3`` to ``t3,4`` for
    ``c = 1``); a name with no index, such as ``r1`` or ``hchain_t``, is kept."""
    m = _INDEXED.fullmatch(name)
    if not (m and c):
        return name
    return m[1] + ",".join(str(int(i) + c) for i in m.groups()[1:] if i)


def _certificate_verdict(
    row: _Row, ctx: Context, instances: list, statement: list, budget: int | None, note: str = ""
) -> tuple[bool, str]:
    """``(ok, detail)`` of a certificate claim: the one verdict path.

    The entries must state the claim: equal its ``statement`` in order, in
    ``group``, ``lhs``, ``rhs``, ``expect`` and ``shifts``.  A generation
    claim's step ``rhs`` is its proof instead, and at each shift it may use
    only basis tokens and earlier targets.  These checks read token names
    alone.  Then every entry must hold (:func:`check_instance`).  ``note``
    leads a passing detail.
    """
    proofs = row.kind == "generation"
    fields = ("group", "lhs", "rhs", "expect", "shifts")
    key = itemgetter(*(fields[:2] + fields[3:] if proofs else fields))
    if list(map(key, instances)) != list(map(key, statement)):
        return False, f"the {len(instances)} entries do not state the claim's {len(statement)}"
    known = set(_basis_tokens(row.basis, ctx)) if proofs else None
    for inst in (instances if proofs else ()):
        for c in range(inst["shifts"]):
            target = _shifted(inst["lhs"], c)
            unknown = {_shifted(tok.partition("^")[0], c) for tok in inst["rhs"].split()} - known
            if unknown:
                return False, f"step {target} uses {sorted(unknown)}: not in the basis or earlier"
            known.add(target)
    try:
        bad = [i for i in instances if not check_instance(i, ctx, budget)]
    except WordSyntaxError as exc:
        return False, f"malformed entry: {exc}"
    if bad:
        return False, f"{len(bad)}/{len(instances)} entries refuted; first: {bad[0]}"
    count = sum(i["shifts"] for i in instances)
    stored = f" ({len(instances)} stored)" if count > len(instances) else ""
    return True, f"{note} {count} instances{stored}".strip()


# -- statements ----------------------------------------------------------------
# What each certificate claim states at ``ctx``: its entries, in order, one
# per shift class.


def _presentation(ctx: Context) -> list[dict]:
    """Classical presentation cross-check guarding the sphere oracle."""
    arcs = ctx.num_arcs
    instances = [
        _inst("sphere", f"s1 s{1 + gap}", f"s{1 + gap} s1", shifts=arcs - gap)
        for gap in range(2, arcs)
    ]
    instances.append(_inst("sphere", "s1 s2 s1", "s2 s1 s2", shifts=arcs - 1))
    up = " ".join(f"s{i}" for i in range(1, arcs + 1))
    down = " ".join(f"s{i}" for i in range(arcs, 0, -1))
    return instances + [
        _inst("sphere", f"{up} {down}", ""),
        _inst("sphere", "r1^(2n+2)", ""),
        _inst("sphere", "s1", "", False),
        _inst("sphere", "s1^2", "", False),
    ]


def _generator_validations(ctx: Context) -> list[dict]:
    """The adopted words of ``h``, ``t``, ``r1``, ``r`` (and ``F`` at n = 1).

    Disk: ``h1 = s2 s1 s2``, ``t1,2 = s1^2`` and the locality of
    ``t2,3`` and ``t2,4``.  Sphere: ``r1^d != 1`` for ``d <= 2n+1`` (with
    ``r1^(2n+2) = 1`` from ``oracle-sphere-presentation``, ``r1`` has order
    ``2n+2``), ``r1`` shifts the arcs, and ``r`` is an involution that
    reverses them.  A true sphere equality forces equal point permutations,
    so these also pin ``psi(r1)`` and ``psi(r)``.
    """
    n, arcs = ctx.n, ctx.num_arcs
    instances = [_inst("disk", "h1", "s2 s1 s2"), _inst("disk", "t1,2", "s1^2")]
    for i, j in [(2, 3), (2, 4)] if n >= 2 else []:
        instances += [
            _inst("disk", f"t{i},{j} s{m}", f"s{m} t{i},{j}") for m in range(j + 1, 2 * n + 1)
        ]
    instances += [_inst("sphere", f"r1^{d}", "", False) for d in range(1, arcs + 1)]
    instances.append(_inst("sphere", "r1 s1 r1^-1", "s2", shifts=arcs - 1))
    instances.append(_inst("sphere", "r^2", ""))
    instances += [_inst("sphere", f"r s{i} r^-1", f"s{arcs + 1 - i}") for i in range(1, arcs + 1)]
    if n == 1:
        instances.append(_inst("disk", "F", "h1^-1"))
    return instances


def _twist_conjugation(ctx: Context) -> list[dict]:
    """``h_i t_{i,i+1} h_i^-1 = t_{i+1,i+2}``: in the disk group for ``i < 2n``, and
    in the sphere group for ``i = 2n``, where ``t_{2n+1,2n+2}`` is rewritten."""
    m = 2 * ctx.n
    return [
        _inst("disk", "h1 t1,2 h1^-1", "t2,3", shifts=m - 1),
        _inst("sphere", f"h{m} t{m},{m + 1} h{m}^-1", f"t{m + 1},{m + 2}"),
    ]


def _chain_twist_factorization(ctx: Context) -> list[dict]:
    """``t_{i,j}`` by :func:`t_chain_factors`, one entry per span ``j - i >= 2``."""
    arcs = ctx.num_arcs
    return [
        _inst("disk", f"t1,{1 + q}", " ".join(t_chain_factors(1, 1 + q)), shifts=arcs - q)
        for q in range(2, arcs)
    ]


def _h_triple_conjugation(ctx: Context) -> list[dict]:
    return [_inst("disk", "h1^-1 h2^-1 h3^-1 h1 h3 h2 h1", "h3", shifts=2 * ctx.n - 3)]


def _hchain_shift(ctx: Context) -> list[dict]:
    return [
        _inst("disk", f"hchain_t^-1 h{i} hchain_t", f"h{i + 2}") for i in range(1, 2 * ctx.n - 2)
    ]


def generation_words(group: str, ctx: Context) -> list[tuple[str, list[str], int]]:
    """``(target token, token list, shifts)``: straight-line steps, one per
    standard generator, with a run of ``shifts`` steps that are index shifts
    of one another as one entry.

    A step writes its target over the basis (:func:`_basis_tokens`) and the
    targets before it; a basis target is the trivial step ``x = x``.
    ``lmod_sphere``: ``h_i = r1 h_{i-1} r1^-1`` for ``2 <= i <= 2n``; then for
    each span ``q = j - i`` from 1 to ``2n - 1``, ``t_{1,1+q}`` and the run
    ``t_{i,j} = r1 t_{i-1,j-1} r1^-1`` for ``2 <= i <= 2n+1-q``; then ``r1``.
    A nested ``t_{1,j}`` is :func:`t_chain_factors` (it uses ``h``'s and
    ``t_{a,a+1}`` with ``a > 1``, so the adjacent twists come first); these
    2n-2 steps are the only ones that restate a ``relation-*`` instance.  The
    boundary-parallel ``t_{1,2n+1}`` is left out.  ``lmod_star`` and
    ``lmod_disk``: ``h_i = hchain_t^-1 h_{i-2} hchain_t``, then ``t1,2 = h1^-1
    ... h_{2n-1}^-1 hchain_t``; at n = 1, ``h1, t1,2``.
    """
    n = ctx.n
    if group == "lmod_sphere":
        words = [("h1", ["h1"], 1), ("h2", ["r1", "h1", "r1^-1"], 2 * n - 1)]
        for q in range(1, 2 * n):
            words.append((f"t1,{1 + q}", ["t1,2"] if q == 1 else t_chain_factors(1, 1 + q), 1))
            words.append((f"t2,{2 + q}", ["r1", f"t1,{1 + q}", "r1^-1"], 2 * n - q))
        words.append(("r1", ["r1"], 1))
    elif group in ("lmod_star", "lmod_disk"):
        if n == 1:
            return [("h1", ["h1"], 1), ("t1,2", ["t1,2"], 1)]
        words = [(f"h{i}", [f"h{i}"], 1) for i in (1, 2)]
        words += [(f"h{i}", ["hchain_t^-1", f"h{i - 2}", "hchain_t"], 1) for i in range(3, 2 * n)]
        words.append(("t1,2", [f"h{i}^-1" for i in range(1, 2 * n)] + ["hchain_t"], 1))
    else:
        raise ValueError(f"unknown group {group!r}")
    return words


def _basis_tokens(basis: str, ctx: Context) -> list[str]:
    """The small generating set of ``basis`` as tokens: the sphere's or the star's."""
    if basis == "sphere":
        return ["h1", "t1,2", "r1"]
    return ["h1", "t1,2"] if ctx.n == 1 else ["h1", "h2", "hchain_t"]


def _single(group: str, lhs: str, rhs: str):
    """The statement of a claim with one instance, ``lhs = rhs`` in ``group`` at every context."""
    return lambda ctx: [_inst(group, lhs, rhs)]


def _twists(ctx: Context) -> list[str]:
    return [f"t{i},{i + 1}" for i in range(1, ctx.num_arcs + 1)]


def _halves(ctx: Context) -> list[str]:
    return [f"h{i}" for i in range(1, 2 * ctx.n + 1)]


def _lift_conjugation(family, ctx: Context) -> list[dict]:
    """The rotation lift shifts each lift of ``family(ctx)`` to the next: ``r1 a = b r1``."""
    names = family(ctx)
    return [_inst("homology", f"r1 {a}", f"{b} r1") for a, b in zip(names, names[1:])]


def _deck_normalization(ctx: Context) -> list[dict]:
    """The parity-preserving lifts commute with ``zeta``; ``r`` and ``r1`` invert it."""
    commute = [_inst("homology", f"{a} zeta", f"zeta {a}") for a in _twists(ctx) + _halves(ctx)]
    return commute + [_inst("homology", f"zeta {a} zeta", a) for a in ("r", "r1")]


# -- certificate claims --------------------------------------------------------


def verify_relations(ctx: Context, budget: int | None = None) -> list[Claim]:
    """The relation claims that exist at ``ctx.n``."""
    return [verify(row.id, ctx, budget) for row in _rows(ctx.n, kind="relation")]


def verify_generation(group: str, ctx: Context, budget: int | None = None) -> Claim:
    """Constructive generation certificate for group ``group`` of :func:`generation_words`."""
    row = next((row for row in _TABLE.values() if row.program == group), None)
    if row is None:
        raise ValueError(f"no generation claim for group {group!r} in the claim table")
    return verify(row.id, ctx, budget)


# -- liftability --------------------------------------------------------------


def _w_size(ctx: Context) -> tuple[bool | None, str]:
    expected = liftability.w_size(ctx)
    if ctx.n > liftability.COUNT_W_MAX_N:
        limit = liftability.COUNT_W_MAX_N
        return None, f"count limited to n <= {limit}; formula gives {expected}"
    count = liftability.count_W(ctx)
    relation = "==" if count == expected else "!="
    return count == expected, f"|W| = {count} {relation} 2((n+1)!)^2 = {expected} (exact count)"


def _w_generation(ctx: Context) -> tuple[bool, str]:
    # The generated group permutes its blocks.  Blocks odd | even and order
    # |W| make psi(sphere basis) all of W; blocks odd | even < 2n+2 | {2n+2}
    # and order (n+1)! n! make psi(star basis) the stabilizer of 2n+2 in W.
    n, top = ctx.n, ctx.num_points
    odds, evens = frozenset(range(1, top, 2)), frozenset(range(2, top, 2))
    ok, found = True, []
    for basis, name, want in (
        ("sphere", "W", (liftability.w_size(ctx), [odds, evens | {top}])),
        ("star", "Stab_W(2n+2)", (factorial(n + 1) * factorial(n), [odds, evens, {top}])),
    ):
        tokens = _basis_tokens(basis, ctx)
        perms = [psi(expand_token_text(t, ctx), ctx) for t in tokens]
        got = liftability.generated_group(perms, ctx)
        ok = ok and got == want
        found.append(f"psi{{{', '.join(tokens)}}} {'=' if got == want else '!='} "
                     f"{name}: order {got[0]}, {len(got[1])} blocks")
    return ok, "; ".join(found) + " (exact)"


def _curve_lifts(ctx: Context) -> tuple[bool, str]:
    problems = [
        f"gamma_{i},{i + 1}"
        for i in range(1, ctx.num_points)
        if liftability.curve_monodromy(liftability.gamma_curve(i, i + 1, ctx), ctx) != 0
    ]
    if liftability.curve_monodromy(liftability.CurveClass(ctx, (1,)), ctx) == 0:
        problems.append("x1")
    return not problems, (
        f"adjacent curves lift, single-puncture loop does not (k = {ctx.k})"
        if not problems
        else f"failures at k = {ctx.k}: {problems}"
    )


def verify_liftability(ctx: Context) -> list[Claim]:
    return [verify(row.id, ctx) for row in _rows(ctx.n, section="liftability")]


# -- cover and homology --------------------------------------------------------


def _cover_build(ctx: Context) -> tuple[bool, str]:
    """The cover builds: :func:`cover.build_cover` sets V, E and F from their
    formulas and asserts ``chi = 2 - 2g``."""
    try:
        surf = cover.build_cover(ctx)
    except AssertionError as exc:
        return False, str(exc)
    return True, (
        f"V={surf.n_vertices} E={surf.n_edges} F={surf.n_faces} chi={surf.euler_characteristic} "
        f"= 2-2g (g={ctx.genus})"
    )


def _cover_homology(ctx: Context) -> tuple[bool | None, str]:
    """The certificate :func:`cover.build_cover` asserted and keeps read-only:
    ``J`` is skew of rank 2g, and its integer ``P`` gives ``P^T J P = J0``
    (:func:`intmat.symplectic_change_of_basis`), so ``det J = 1``."""
    if not _cover_build(ctx)[0]:
        return None, "cover-build did not pass"
    return True, f"rank {cover.build_cover(ctx).h1_rank} = 2g; J skew, det 1, standardizable"


def _deck_rotation(ctx: Context) -> tuple[bool | None, str]:
    if not _cover_build(ctx)[0]:
        return None, "cover-build did not pass"
    failed = cover.deck_rotation_failure(cover.build_cover(ctx))
    if failed:
        return False, f"deck rotation check failed: {failed}"
    return True, (
        f"deck rotation has exact order {ctx.k}; rank(M-I) = {2 * ctx.genus} "
        "(no invariant homology)"
    )


def verify_cover(ctx: Context) -> list[Claim]:
    return [verify(row.id, ctx) for row in _rows(ctx.n, section="cover")]


_HOMOLOGY_NOTE = "homology-level (necessary condition only):"


def verify_smod_homology(ctx: Context) -> list[Claim]:
    """Matrix identities of the lifted generators; necessary conditions only.

    Each claim stores ``{group: "homology", lhs, rhs, expect: true}``
    instances in lift text (:func:`cover.lift_product`): the rotation lift
    shifts the twist and half-rotation lifts (``r1 t1,2 = t2,3 r1``), the
    boundary-twist factorization is the deck rotation (``zeta_prime =
    zeta``), the parity-preserving lifts commute with it and ``r``, ``r1``
    invert it (``zeta r zeta = r``), and at n = 1 ``r1 h1 = r``.
    """
    return [verify(row.id, ctx) for row in _rows(ctx.n, section="homology", kind="certificate")]


def _chain_pattern(ctx: Context) -> tuple[bool, str]:
    """Intersection pattern of the lifted curve families: the lift table's
    Gram matrix equals its closed form, signs included, so the curves of each
    half-rotation lift form a (2k-1)-chain, and lifts of ``gamma_i`` and
    ``gamma_j`` with ``j >= i + 2`` are disjoint.  The detail lists the first
    four differing entries (:func:`cover.chain_pattern_violations`)."""
    bad = cover.chain_pattern_violations(cover.build_cover(ctx))
    detail = f"violations: {bad[:4]}" if bad else (
        f"alternating lifted families are (2k-1)-chains (k={ctx.k})"
    )
    return not bad, f"{_HOMOLOGY_NOTE} {detail}"


def verify_chain_pattern(ctx: Context) -> Claim:
    """Intersection pattern of the lifted curve families (:func:`_chain_pattern`)."""
    (row,) = _rows(ctx.n, make=_chain_pattern)
    return verify(row.id, ctx)


# The claim table: every claim, in report order.  A claim exists at an n by
# its row's range, runs unless its section's bound skips it, and is judged by
# its kind (:class:`_Row`).  run_all, verify, the verify_* slices and
# reverify_report read these rows alone, so a new claim is one row here.
_TABLE = {row.id: row for row in (
    _Row("oracle-sphere-presentation", "sphere", "base", "certificate", _presentation),
    _Row("generators-validation", "sphere", "base", "certificate", _generator_validations),
    _Row("relation-twist-conjugation", "disk", "base", "relation", _twist_conjugation),
    _Row("relation-chain-twist-factorization", "disk", "base", "relation",
         _chain_twist_factorization),
    _Row("relation-h-triple-conjugation", "disk", "base", "relation", _h_triple_conjugation, 2),
    _Row("relation-hchain-shift", "disk", "base", "relation", _hchain_shift, 2),
    _Row("lemma-r1-factorization", "sphere", "base", "certificate", _single("sphere", "r1", "r F")),
    _Row("generation-lmod-sphere", "sphere", "base", "generation",
         basis="sphere", program="lmod_sphere"),
    _Row("generation-lmod-star", "star", "base", "generation", basis="star", program="lmod_star"),
    _Row("generation-lmod-disk", "disk", "base", "generation", basis="star", program="lmod_disk"),
    _Row("liftability-w-size", "sphere", "liftability", "computed", _w_size),
    _Row("liftability-w-generation", "sphere", "liftability", "computed", _w_generation),
    _Row("liftability-curve-lifts", "sphere", "liftability", "computed", _curve_lifts),
    _Row("cover-build", "homology", "cover", "computed", _cover_build),
    _Row("cover-homology", "homology", "cover", "computed", _cover_homology),
    _Row("cover-deck-rotation", "homology", "cover", "computed", _deck_rotation),
    _Row("smod-conjugation-t", "homology", "homology", "certificate",
         partial(_lift_conjugation, _twists)),
    _Row("smod-conjugation-h", "homology", "homology", "certificate",
         partial(_lift_conjugation, _halves)),
    _Row("smod-deck-factorization", "homology", "homology", "certificate",
         _single("homology", "zeta_prime", "zeta")),
    _Row("smod-deck-normalization", "homology", "homology", "certificate", _deck_normalization),
    _Row("smod-r1-lift-consistency", "homology", "homology", "certificate",
         _single("homology", "r1 h1", "r"), 1, 1),
    _Row("smod-chain-pattern", "homology", "homology", "computed", _chain_pattern),
)}


# -- report assembly -----------------------------------------------------------


def _reverify_claim(cdict: dict, header: dict, budget: int) -> bool | None:
    """Whether one stored claim re-verifies; None for a skipped claim."""
    cid, n, k = cdict["id"], cdict["n"], cdict["k"]
    if header.get("n", n) != n or header.get("k", k) != k:
        return False
    if cdict["status"] == "skipped":
        return None
    ctx = Context(n, k)
    row = _table_row(cid, ctx)
    if row.group != cdict["group"]:
        return False
    if row.kind == "computed":
        return cdict["status"] == verify(cid, ctx, budget).status
    instances = (cdict.get("witness") or {}).get("instances") or []
    ok, _ = _certificate_verdict(row, ctx, instances, row.statement(ctx), budget)
    return cdict["status"] == ("pass" if ok else "fail")


def reverify_report(report: dict | Report, budget: int | None = None) -> list[tuple[str, bool]]:
    """``(id, ok)`` for every claim of a report that ran; ok if its status is re-derived.

    A certificate claim re-verifies from its stored instances alone, which
    must state it, on the run's own verdict path (:func:`_certificate_verdict`).
    A computed claim is re-derived by running its own check (:func:`verify`)
    at the claim's own ``n`` and ``k``.  A claim whose ``n`` or ``k`` differs
    from the header's (where the header states them; a bundle of claims may
    leave them out), an id and group not in the claim table at that ``n``
    (or a base or liftability claim at k = 2, :func:`_table_row`), a
    malformed claim or entry (not an object, a missing field, text that
    does not parse, a lift power that overflows, shifts that the shift rule
    refuses), each listing of a claim
    after its first at the same ``n`` and ``k`` (even of a skipped claim), and
    a table claim that the header's ``n`` calls for but is missing, fail; a
    claim without an id is listed as None.  A report that is not an object,
    whose header is not an object or states an ``n`` or ``k`` that is not an
    integer, or whose claims are not a list, gives ``[(None, False)]``.  Other skipped claims are left
    out: the header does not record the bounds that skipped them.
    An oracle over its letter budget raises :class:`BudgetError`.
    """
    if isinstance(report, Report):
        report = report.to_dict()
    budget = oracle.resolve_budget(budget)
    report = report if isinstance(report, dict) else {}
    header, claims = report.get("header"), report.get("claims")
    if not (isinstance(header, dict) and isinstance(claims, list)
            and all(type(header.get(key, 0)) is int for key in ("n", "k"))):
        return [(None, False)]
    claims = [cdict if isinstance(cdict, dict) else {} for cdict in claims]
    results, seen = [], set()
    for cdict in claims:
        try:
            key = (cdict["id"], cdict["n"], cdict["k"])
            repeat = key in seen
            seen.add(key)
            ok = False if repeat else _reverify_claim(cdict, header, budget)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
            ok = False
        if ok is not None:
            results.append((cdict.get("id"), ok))
    if "n" in header:
        present = {cdict.get("id") for cdict in claims}
        results += [(row.id, False) for row in _rows(header["n"]) if row.id not in present]
    return results


def run_all(
    n: int,
    k: int = 3,
    *,
    budget: int | None = None,
    bounds: Bounds | None = None,
) -> Report:
    """Make every claim of the table that exists at ``n``, in table order.

    A claim whose section is over its bound (:meth:`Bounds.skip`) is listed
    as skipped, with the bound in its detail; the others are made by
    :func:`verify`.
    """
    bounds = bounds or Bounds()
    ctx = Context(n, k)
    budget = oracle.resolve_budget(budget)
    report = Report(header=convention_header(ctx, budget))
    for row in _rows(n):
        why = bounds.skip(row.section, ctx)
        if why:
            report.claims.append(Claim(row.id, row.group, "skipped", why, n=n, k=k))
        else:
            report.claims.append(verify(row.id, ctx, budget))
    return report
