"""Executable verification of the generating-set and lifting claims.

Every check is packaged as a :class:`Claim` with a stable id, a pass /
fail / skipped status and, for word-level and lifted-homology claims, a
witness: a list of ``{lhs, rhs, group, expect}`` instances, in generator-token
syntax or, for group ``homology``, in lift text (:func:`cover.lift_product`).
One function judges such a certificate claim, in the run and in
:func:`reverify_report` alike (:func:`_certificate_verdict`), so it
re-verifies from its witness alone and reports double as certificates.  The
computed claims (``liftability-*``, ``cover-*``, ``smod-chain-pattern``)
store no witness; :func:`reverify_report` re-runs them at their ``n``, ``k``.

Generation claims are straight-line programs: one step per standard
generator, in a fixed order, writes it over the small generating set and
the generators before it, and the group's oracle confirms the step.  The
claim and :func:`reverify_report` also check that shape from token names
alone (:func:`_step_problem`), or an oracle-true step such as ``h3 = h3``
would prove nothing.

Homology-level claims (the lifted conjugations, the deck-rotation
factorization, deck normalization) are necessary-condition checks only:
the homology representation is not faithful, and their details say so.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest
from math import factorial

import numpy as np

from . import __version__ as _pkg_version
from . import cover, intmat, liftability, oracle
from .errors import BudgetError
from .generators import (
    Factor,
    expand_token_text,
    factors_to_tokens,
    t_chain_factors,
)
from .words import Context, psi


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


# The claims run_all reports, in report order: (id, group, least n, greatest
# n or None, witness).  The run path takes its n-conditions from these rows
# and the skip path lists them, so a run and a skip at the same n report the
# same claim ids; reverify_report fails a report that leaves one out.  A
# claim with ``witness`` True rests on oracle instances stored in the report.
_BASE_CLAIMS = (
    ("oracle-sphere-presentation", "sphere", 1, None, True),
    ("generators-validation", "sphere", 1, None, True),
    ("relation-twist-conjugation", "disk", 1, None, True),
    ("relation-chain-twist-factorization", "disk", 1, None, True),
    ("relation-h-triple-conjugation", "disk", 2, None, True),
    ("relation-hchain-shift", "disk", 2, None, True),
    ("lemma-r1-factorization", "sphere", 1, None, True),
    ("generation-lmod-sphere", "sphere", 1, None, True),
    ("generation-lmod-star", "star", 1, None, True),
    ("generation-lmod-disk", "disk", 1, None, True),
)
_LIFTABILITY_CLAIMS = (
    ("liftability-w-size", "sphere", 1, None, False),
    ("liftability-w-generation", "sphere", 1, None, False),
    ("liftability-curve-lifts", "sphere", 1, None, False),
)
_COVER_CLAIMS = (
    ("cover-build", "homology", 1, None, False),
    ("cover-homology", "homology", 1, None, False),
    ("cover-deck-rotation", "homology", 1, None, False),
)
_HOMOLOGY_CLAIMS = (
    ("smod-conjugation-t", "homology", 1, None, True),
    ("smod-conjugation-h", "homology", 1, None, True),
    ("smod-deck-factorization", "homology", 1, None, True),
    ("smod-deck-normalization", "homology", 1, None, True),
    ("smod-r1-lift-consistency", "homology", 1, 1, True),
    ("smod-chain-pattern", "homology", 1, None, False),
)
_ALL_CLAIMS = _BASE_CLAIMS + _LIFTABILITY_CLAIMS + _COVER_CLAIMS + _HOMOLOGY_CLAIMS
_WITNESS_CLAIMS = frozenset(row[0] for row in _ALL_CLAIMS if row[4])


def _claim_ids(rows, n: int) -> list[tuple[str, str]]:
    """``(id, group)`` of the rows whose claim exists at this ``n``."""
    return [
        (cid, group)
        for cid, group, lo, hi, _ in rows
        if lo <= n and (hi is None or n <= hi)
    ]


def _skipped(rows, ctx: Context, why: str) -> list[Claim]:
    """The rows' claims at ``ctx``, each skipped with detail ``why``."""
    return [
        Claim(id=cid, group=group, status="skipped", detail=why, n=ctx.n, k=ctx.k)
        for cid, group in _claim_ids(rows, ctx.n)
    ]


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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
        "sphere: pure words capped to the star group",
        "budget_letters": budget,
        "numpy": np.__version__,
        "n": ctx.n,
        "k": ctx.k,
    }


# -- claim runner --------------------------------------------------------------


def _claim(cid: str, group: str, ctx: Context, check, witness: dict | None = None) -> Claim:
    """Run one claim: ``check()`` returns ``(ok, detail)``.

    ``ok`` True passes, False fails and None skips.  An oracle that runs
    over its letter budget skips the claim; a witness is kept either way.
    ``elapsed`` covers ``check()`` alone.
    """
    t0 = time.monotonic()
    try:
        ok, detail = check()
    except BudgetError as exc:
        ok, detail = None, f"oracle budget exceeded: {exc}"
    status = "skipped" if ok is None else "pass" if ok else "fail"
    return Claim(cid, group, status, detail, witness, time.monotonic() - t0, ctx.n, ctx.k)


_EQ_BY_GROUP = oracle._EQ


def check_instance(inst: dict, ctx: Context, budget: int | None = None) -> bool:
    """Re-verify one stored witness instance.

    A ``homology`` instance compares the lift-text products of its sides
    (:func:`cover.lift_product`); any other group's oracle decides word text.
    """
    if inst["group"] == "homology":
        surface = cover.build_cover(ctx)
        lhs, rhs = (cover.lift_product(surface, inst[side]) for side in ("lhs", "rhs"))
        return np.array_equal(lhs, rhs) == inst["expect"]
    eq = _EQ_BY_GROUP[inst["group"]]
    lhs = expand_token_text(inst["lhs"], ctx, budget)
    rhs = expand_token_text(inst["rhs"], ctx, budget)
    return eq(lhs, rhs, ctx, budget=budget) == inst["expect"]


def _inst(group: str, lhs: str, rhs: str, expect: bool = True) -> dict:
    """One witness instance: ``lhs`` and ``rhs`` are equal in ``group`` iff ``expect``."""
    return {"group": group, "lhs": lhs, "rhs": rhs, "expect": expect}


def _certificate_verdict(
    cid: str, ctx: Context, instances: list[dict], budget: int | None, note: str = ""
) -> tuple[bool, str]:
    """``(ok, detail)`` of a certificate claim: the one verdict path.

    A ``generation-*`` claim's instances must first be straight-line steps
    (:func:`_step_problem`); then every instance must hold
    (:func:`check_instance`), and there must be at least one.  ``note``
    leads a passing detail.
    """
    group = _GENERATION_GROUPS.get(cid)
    problem = group and _step_problem(group, ctx, instances)
    if problem:
        return False, problem
    if not instances:
        return False, "no instances"
    bad = [i for i in instances if not check_instance(i, ctx, budget)]
    if bad:
        return False, f"{len(bad)}/{len(instances)} instances refuted; first: {bad[0]}"
    return True, f"{note} {len(instances)} instances".strip()


def _run_instances(
    cid: str, group: str, ctx: Context, instances: list[dict], budget: int | None, note: str = ""
) -> Claim:
    """The claim that the certificate ``instances`` holds (:func:`_certificate_verdict`)."""
    check = partial(_certificate_verdict, cid, ctx, instances, budget, note)
    return _claim(cid, group, ctx, check, {"instances": instances})


# -- oracle cross-check -------------------------------------------------------


def verify_oracle_presentation(ctx: Context, budget: int | None = None) -> Claim:
    """Classical presentation cross-check guarding the sphere oracle."""
    arcs = ctx.num_arcs
    instances = [
        _inst("sphere", f"s{i} s{j}", f"s{j} s{i}")
        for i in range(1, arcs + 1)
        for j in range(i + 2, arcs + 1)
    ]
    instances += [
        _inst("sphere", f"s{i} s{i + 1} s{i}", f"s{i + 1} s{i} s{i + 1}") for i in range(1, arcs)
    ]
    up = " ".join(f"s{i}" for i in range(1, arcs + 1))
    down = " ".join(f"s{i}" for i in range(arcs, 0, -1))
    instances += [
        _inst("sphere", f"{up} {down}", ""),
        _inst("sphere", "r1^(2n+2)", ""),
        _inst("sphere", "s1", "", False),
        _inst("sphere", "s1^2", "", False),
    ]
    return _run_instances("oracle-sphere-presentation", "sphere", ctx, instances, budget)


def verify_generator_validations(ctx: Context, budget: int | None = None) -> Claim:
    """The adopted words of ``h``, ``t``, ``r1``, ``r`` (and ``F`` at n = 1) as instances.

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
    instances += [_inst("sphere", f"r1 s{i} r1^-1", f"s{i + 1}") for i in range(1, arcs)]
    instances.append(_inst("sphere", "r^2", ""))
    instances += [_inst("sphere", f"r s{i} r^-1", f"s{arcs + 1 - i}") for i in range(1, arcs + 1)]
    if n == 1:
        instances.append(_inst("disk", "F", "h1^-1"))
    return _run_instances("generators-validation", "sphere", ctx, instances, budget)


# -- relations ---------------------------------------------------------------


def verify_relations(ctx: Context, budget: int | None = None) -> list[Claim]:
    n = ctx.n
    instances = {
        "relation-twist-conjugation": [
            _inst(
                "disk" if i <= 2 * n - 1 else "sphere",
                f"h{i} t{i},{i + 1} h{i}^-1",
                f"t{i + 1},{i + 2}",
            )
            for i in range(1, 2 * n + 1)
        ],
        "relation-chain-twist-factorization": [
            _inst("disk", f"t{i},{j}", factors_to_tokens(t_chain_factors(i, j)))
            for i in range(1, ctx.num_arcs)
            for j in range(i + 2, ctx.num_arcs + 1)
        ],
        "relation-h-triple-conjugation": [
            _inst(
                "disk",
                f"h{i}^-1 h{i + 1}^-1 h{i + 2}^-1 h{i} h{i + 2} h{i + 1} h{i}",
                f"h{i + 2}",
            )
            for i in range(1, 2 * n - 2)
        ],
        "relation-hchain-shift": [
            _inst("disk", f"hchain_t^-1 h{i} hchain_t", f"h{i + 2}") for i in range(1, 2 * n - 2)
        ],
    }
    return [
        _run_instances(cid, group, ctx, instances[cid], budget)
        for cid, group in _claim_ids(_BASE_CLAIMS, n)
        if cid in instances
    ]


def verify_factorization_r1(ctx: Context, budget: int | None = None) -> Claim:
    instances = [_inst("sphere", "r1", "r F")]
    return _run_instances("lemma-r1-factorization", "sphere", ctx, instances, budget)


# -- constructive generation --------------------------------------------------


def generation_words(group: str, ctx: Context) -> list[tuple[str, list[Factor]]]:
    """``(target token, factor list)``: one straight-line step per standard generator.

    A step writes its target over the basis (:func:`_basis_tokens`) and the
    targets before it; a basis target is the trivial step ``x = x``.
    ``lmod_sphere``: ``h_i = r1 h_{i-1} r1^-1``, ``t_{i+1,i+2} = h_i t_{i,i+1}
    h_i^-1``, then the nested twists on arcs 1..2n+1 but the boundary-parallel
    ``t_{1,2n+1}`` by :func:`t_chain_factors` (it uses ``t_{a,a+1}`` with
    ``a > i``, so every adjacent twist comes first), then ``r1``.
    ``lmod_star`` and ``lmod_disk``: ``h_i = hchain_t^-1 h_{i-2} hchain_t``,
    then ``t1,2 = h1^-1 ... h_{2n-1}^-1 hchain_t``; at n = 1, ``h1, t1,2``.
    """
    n = ctx.n

    def conj(a: Factor, x: Factor) -> list[Factor]:
        return [a, x, (a[0], a[1], -a[2])]

    if group == "lmod_sphere":
        words = [("h1", [("h", (1,), 1)])]
        words += [(f"h{i}", conj(("r1", (), 1), ("h", (i - 1,), 1))) for i in range(2, 2 * n + 1)]
        words.append(("t1,2", [("t", (1, 2), 1)]))
        words += [
            (f"t{i + 1},{i + 2}", conj(("h", (i,), 1), ("t", (i, i + 1), 1)))
            for i in range(1, 2 * n)
        ]
        words += [
            (f"t{i},{j}", list(t_chain_factors(i, j)))
            for i in range(1, ctx.num_arcs)
            for j in range(i + 2, ctx.num_arcs + 1)
            if (i, j) != (1, ctx.num_arcs)
        ]
        words.append(("r1", [("r1", (), 1)]))
    elif group in ("lmod_star", "lmod_disk"):
        if n == 1:
            return [("h1", [("h", (1,), 1)]), ("t1,2", [("t", (1, 2), 1)])]
        words = [(f"h{i}", [("h", (i,), 1)]) for i in (1, 2)]
        words += [
            (f"h{i}", conj(("hchain_t", (), -1), ("h", (i - 2,), 1))) for i in range(3, 2 * n)
        ]
        words.append(("t1,2", [("h", (i,), -1) for i in range(1, 2 * n)] + [("hchain_t", (), 1)]))
    else:
        raise ValueError(f"unknown group {group!r}")
    return words


_GROUP_TO_ORACLE = {"lmod_sphere": "sphere", "lmod_star": "star", "lmod_disk": "disk"}
_GENERATION_GROUPS = {f"generation-{g.replace('_', '-')}": g for g in _GROUP_TO_ORACLE}


def _basis_tokens(basis: str, ctx: Context) -> list[str]:
    """The small generating set of ``basis`` as tokens: the sphere's or the star's."""
    if basis == "sphere":
        return ["h1", "t1,2", "r1"]
    return ["h1", "t1,2"] if ctx.n == 1 else ["h1", "h2", "hchain_t"]


def _step_problem(group: str, ctx: Context, instances: list[dict]) -> str | None:
    """Why ``instances`` is not a straight-line generation certificate, or None.

    The targets and basis come from ``group`` and ``ctx``, not the instances.
    The instances must state each standard target once, in order, as an
    equality in the group's oracle, over basis tokens and earlier targets.
    Only token names are read; no word is expanded.
    """
    targets = [target for target, _ in generation_words(group, ctx)]
    stated = [inst["lhs"] for inst in instances]
    if stated != targets:
        got, want = next(p for p in zip_longest(stated, targets, fillvalue="none") if p[0] != p[1])
        return f"a step states target {got} where the standard list has {want}"
    known = set(_basis_tokens("sphere" if group == "lmod_sphere" else "star", ctx))
    for inst in instances:
        if inst["group"] != _GROUP_TO_ORACLE[group] or inst["expect"] is not True:
            return f"step {inst['lhs']} is not an equality in the {_GROUP_TO_ORACLE[group]} group"
        unknown = {tok.partition("^")[0] for tok in inst["rhs"].split()} - known
        if unknown:
            return f"step {inst['lhs']} uses {sorted(unknown)}: not in the basis or earlier"
        known.add(inst["lhs"])
    return None


def verify_generation(group: str, ctx: Context, budget: int | None = None) -> Claim:
    """Constructive generation certificate for one of the three groups."""
    basis = "sphere" if group == "lmod_sphere" else "star"
    oracle_group = _GROUP_TO_ORACLE[group]
    instances = [
        _inst(oracle_group, target, factors_to_tokens(word))
        for target, word in generation_words(group, ctx)
    ]
    cid = f"generation-{group.replace('_', '-')}"
    note = f"basis {{{', '.join(_basis_tokens(basis, ctx))}}}, straight-line steps:"
    return _run_instances(cid, oracle_group, ctx, instances, budget, note)


# -- liftability --------------------------------------------------------------


def verify_liftability(ctx: Context) -> list[Claim]:
    n = ctx.n

    def w_size():
        expected = liftability.w_size(ctx)
        if n > 3:
            return None, f"exhaustive check limited to n <= 3; formula gives {expected}"
        count = sum(1 for _ in liftability.enumerate_W(ctx))
        return count == expected, f"|W| = {count} == 2((n+1)!)^2 = {expected} (exhaustive)"

    def w_generation():
        # The generated group permutes its blocks.  Blocks odd | even and order
        # |W| make psi(sphere basis) all of W; blocks odd | even < 2n+2 | {2n+2}
        # and order (n+1)! n! make psi(star basis) the stabilizer of 2n+2 in W.
        top = ctx.num_points
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

    def curve_lifts():
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

    return [
        _claim("liftability-w-size", "sphere", ctx, w_size),
        _claim("liftability-w-generation", "sphere", ctx, w_generation),
        _claim("liftability-curve-lifts", "sphere", ctx, curve_lifts),
    ]


# -- cover and homology --------------------------------------------------------


def verify_cover(ctx: Context) -> list[Claim]:
    def build():
        try:
            surf = cover.build_cover(ctx)
        except AssertionError as exc:
            return False, str(exc)
        chi = surf.euler_characteristic
        ok = (
            chi == 2 - 2 * ctx.genus
            and surf.n_vertices == ctx.num_points
            and surf.n_edges == ctx.k * ctx.num_arcs
            and surf.n_faces == ctx.k
        )
        return ok, (
            f"V={surf.n_vertices} E={surf.n_edges} F={surf.n_faces} chi={chi} "
            f"= 2-2g (g={ctx.genus})"
        )

    built = _claim("cover-build", "homology", ctx, build)
    if not built.passed:
        return [built] + _skipped(_COVER_CLAIMS[1:], ctx, "cover-build did not pass")
    surf = cover.build_cover(ctx)

    def homology():
        # an integer P with P^T J P = J0 gives det(P)^2 det J = 1, so det J = 1
        ok = (
            surf.h1_rank == 2 * ctx.genus
            and np.array_equal(surf.J, -surf.J.T)
            and np.array_equal(
                cover.mul(surf.P.T, surf.J, surf.P), intmat.standard_symplectic(surf.h1_rank)
            )
        )
        return ok, f"rank {surf.h1_rank} = 2g; J skew, det 1, standardizable"

    def deck_rotation():
        Mz = cover.lift_rep(surf, "zeta")
        ident = cover.identity(surf)
        power = ident
        total = ident.astype(object)  # sum of Mz^j, 0 <= j < k, in Python ints
        ok = True
        for _ in range(1, ctx.k):
            power = cover.mul(power, Mz)
            total = total + power
            ok = ok and not np.array_equal(power, ident)
        # Given Mz^k = I, the sum vanishes iff rank(Mz - I) = 2g:
        # (Mz - I) sum = Mz^k - I = 0, so a full-rank Mz - I forces sum = 0;
        # and a fixed vector v has sum v = k v, so sum = 0 leaves none.
        ok = (
            ok
            and np.array_equal(cover.mul(power, Mz), ident)
            and not np.count_nonzero(total)
        )
        return ok, (
            f"deck rotation has exact order {ctx.k}; rank(M-I) = {2 * ctx.genus} "
            "(no invariant homology)"
        )

    return [
        built,
        _claim("cover-homology", "homology", ctx, homology),
        _claim("cover-deck-rotation", "homology", ctx, deck_rotation),
    ]


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
    n = ctx.n
    twists = [f"t{i},{i + 1}" for i in range(1, ctx.num_arcs + 1)]
    halves = [f"h{i}" for i in range(1, 2 * n + 1)]
    sides = {  # (lhs, rhs) of each claim's instances
        "smod-conjugation-t": [(f"r1 {a}", f"{b} r1") for a, b in zip(twists, twists[1:])],
        "smod-conjugation-h": [(f"r1 {a}", f"{b} r1") for a, b in zip(halves, halves[1:])],
        "smod-deck-factorization": [("zeta_prime", "zeta")],
        "smod-deck-normalization": [(f"{a} zeta", f"zeta {a}") for a in twists + halves]
        + [(f"zeta {a} zeta", a) for a in ("r", "r1")],
        "smod-r1-lift-consistency": [("r1 h1", "r")],
    }
    return [
        _run_instances(
            cid, "homology", ctx, [_inst("homology", *p) for p in sides[cid]], None, _HOMOLOGY_NOTE
        )
        for cid, _ in _claim_ids(_HOMOLOGY_CLAIMS, n)
        if cid in sides
    ]


def verify_chain_pattern(ctx: Context) -> Claim:
    """Intersection pattern of the lifted curve families.

    The alternating family used by the half-rotation lifts
    (:func:`cover.h_chain`) must be a (2k-1)-chain: consecutive curves meet
    once (pairing +-1), all other pairs are disjoint (pairing 0).  Lifts of
    ``gamma_i`` and ``gamma_j`` with ``j >= i + 2`` must be disjoint.  A
    chain's pairings are read from ``C J C^T`` over its rows ``C``, the
    far pairs from blocks of one Gram matrix of every lift of every
    ``gamma_i``.
    """
    n, k = ctx.n, ctx.k

    def check():
        surf = cover.build_cover(ctx)
        bad = []
        for i in range(1, 2 * n + 1):
            C = cover.h_chain(surf, i)
            got = np.abs(np.triu(cover.mul(C, surf.J, C.T), 1))
            wrong = got != np.eye(len(C), k=1, dtype=np.int64)  # only neighbours meet
            bad += [(i, int(a), int(b), int(got[a, b])) for a, b in zip(*np.nonzero(wrong))]
        V = np.concatenate([cover._gamma_lifts(surf, i) for i in range(1, 2 * n + 2)])
        G = cover.mul(V, surf.J, V.T)
        for i in range(1, 2 * n + 2):
            for j in range(i + 2, 2 * n + 2):
                block = G[(i - 1) * k : i * k, (j - 1) * k : j * k]
                bad += [(i, j, int(la) + 1, int(lb) + 1) for la, lb in zip(*np.nonzero(block))]
        return not bad, (
            f"alternating lifted families are (2k-1)-chains (k={k})"
            if not bad
            else f"violations: {bad[:4]}"
        )

    claim = _claim("smod-chain-pattern", "homology", ctx, check)
    claim.detail = f"{_HOMOLOGY_NOTE} {claim.detail}"
    return claim


# -- report assembly -----------------------------------------------------------


# The function that makes each computed claim (a claim-table row without a
# witness); reverify_report re-runs it at the claim's own (n, k).
_MAKERS = {
    row[0]: maker
    for rows, maker in ((_LIFTABILITY_CLAIMS, verify_liftability), (_COVER_CLAIMS, verify_cover),
                        (_HOMOLOGY_CLAIMS, verify_chain_pattern))
    for row in rows
    if not row[4]
}


def _reverify_claim(cdict: dict, header: dict, budget: int, reruns: dict) -> bool | None:
    """Whether one stored claim re-verifies; None for a skipped claim.

    ``reruns`` maps each ``(maker, ctx)`` already re-run to its claim statuses.
    """
    cid, n, k = cdict["id"], cdict["n"], cdict["k"]
    if header.get("n", n) != n or header.get("k", k) != k:
        return False
    if cdict["status"] == "skipped":
        return None
    if (cid, cdict["group"]) not in _claim_ids(_ALL_CLAIMS, n):
        return False
    ctx = Context(n, k)
    if cid in _WITNESS_CLAIMS:
        instances = (cdict.get("witness") or {}).get("instances") or []
        ok, _ = _certificate_verdict(cid, ctx, instances, budget)
        return cdict["status"] == ("pass" if ok else "fail")
    maker = _MAKERS[cid]
    if (maker, ctx) not in reruns:
        claims = maker(ctx)
        claims = claims if isinstance(claims, list) else [claims]
        reruns[maker, ctx] = {c.id: c.status for c in claims}
    return cdict["status"] == reruns[maker, ctx][cid]


def reverify_report(report: dict | Report, budget: int | None = None) -> list[tuple[str, bool]]:
    """``(id, ok)`` for every claim of a report that ran; ok if its status is re-derived.

    A certificate claim re-verifies from its stored instances alone, through
    the run's own verdict path (:func:`_certificate_verdict`).  A computed
    claim is re-derived by re-running the function that made it at the
    claim's own ``n`` and ``k``, once per function and ``(n, k)``.  A claim
    whose ``n`` or ``k`` differs from the header's (where the header states
    them; a bundle of claims may leave them out), an id and group not in the
    claim table at that ``n``, a malformed claim or instance (a missing field,
    text that does not parse, a lift power that overflows), and a table claim
    that the header's ``n`` calls for but is missing, fail.  Skipped claims
    are left out: the header does not record the bounds that skipped them.
    An oracle over its letter budget raises :class:`BudgetError`.
    """
    if isinstance(report, Report):
        report = report.to_dict()
    budget = oracle.resolve_budget(budget)
    header = report["header"]
    results, reruns = [], {}
    for cdict in report["claims"]:
        try:
            ok = _reverify_claim(cdict, header, budget, reruns)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
            ok = False
        if ok is not None:
            results.append((cdict.get("id"), ok))
    if "n" in header:
        present = {cdict.get("id") for cdict in report["claims"]}
        results += [
            (cid, False) for cid, _ in _claim_ids(_ALL_CLAIMS, header["n"]) if cid not in present
        ]
    return results


def run_all(
    n: int,
    k: int = 3,
    *,
    budget: int | None = None,
    bounds: Bounds | None = None,
) -> Report:
    """Assemble the full claim table for one ``(n, k)``."""
    bounds = bounds or Bounds()
    ctx = Context(n, k)
    budget = oracle.resolve_budget(budget)
    report = Report(header=convention_header(ctx, budget))

    if n <= bounds.base_n:
        report.claims.append(verify_oracle_presentation(ctx, budget))
        report.claims.append(verify_generator_validations(ctx, budget))
        report.claims.extend(verify_relations(ctx, budget))
        report.claims.append(verify_factorization_r1(ctx, budget))
        for group in ("lmod_sphere", "lmod_star", "lmod_disk"):
            report.claims.append(verify_generation(group, ctx, budget))
    else:
        over = f"over desk-scale bound (n <= {bounds.base_n}); raise --bound-base-n"
        report.claims.extend(_skipped(_BASE_CLAIMS, ctx, over))

    report.claims.extend(verify_liftability(ctx))
    report.claims.extend(verify_cover(ctx))

    if n <= bounds.homology_n and k <= bounds.homology_k:
        report.claims.extend(verify_smod_homology(ctx))
        report.claims.append(verify_chain_pattern(ctx))
    else:
        why = (
            f"over homology bounds (n <= {bounds.homology_n}, k <= {bounds.homology_k})"
        )
        report.claims.extend(_skipped(_HOMOLOGY_CLAIMS, ctx, why))
    return report
