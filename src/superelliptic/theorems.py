"""Executable verification of the generating-set and lifting claims.

Every check is packaged as a :class:`Claim` with a stable id, a pass /
fail / skipped status and, for word-level claims, a witness: a list of
``{lhs, rhs, group, expect}`` instances in generator-token syntax.  A
stored claim re-verifies from its witness alone — re-expanding the tokens
and re-running the oracle reproduces the verdict, so reports double as
certificates.

Generation claims are constructive: for every standard generator of the
group an explicit word over the small generating set is produced and
confirmed equal by the appropriate oracle.

Homology-level claims (the lifted conjugations, the deck-rotation
factorization, deck normalization) are necessary-condition checks only:
the homology representation is not faithful, and their details say so.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
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
    validate_named_generators,
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
        return {
            "id": self.id,
            "group": self.group,
            "status": self.status,
            "detail": self.detail,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
            "n": self.n,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Claim":
        return cls(
            id=d["id"],
            group=d["group"],
            status=d["status"],
            detail=d.get("detail", ""),
            witness=d.get("witness"),
            elapsed=d.get("elapsed", 0.0),
            n=d.get("n", 0),
            k=d.get("k", 0),
        )


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


# The claims run_all reports beyond the liftability and cover claims, in
# report order: (id, group, least n, greatest n or None, witness).  The run
# path takes its n-conditions from these rows and the skip path lists them,
# so a run and a skip at the same n report the same claim ids.  A claim
# with ``witness`` True rests on oracle instances stored in the report.
_BASE_CLAIMS = (
    ("oracle-sphere-presentation", "sphere", 1, None, True),
    ("generators-validation", "sphere", 1, None, False),
    ("relation-twist-conjugation", "disk", 1, None, True),
    ("relation-chain-twist-factorization", "disk", 1, None, True),
    ("relation-h-triple-conjugation", "disk", 2, None, True),
    ("relation-hchain-shift", "disk", 2, None, True),
    ("lemma-r1-factorization", "sphere", 1, None, True),
    ("generation-lmod-sphere", "sphere", 1, None, True),
    ("generation-lmod-star", "star", 1, None, True),
    ("generation-lmod-disk", "disk", 1, None, True),
)
_HOMOLOGY_CLAIMS = (
    ("smod-conjugation-t", "homology", 1, None, False),
    ("smod-conjugation-h", "homology", 1, None, False),
    ("smod-deck-factorization", "homology", 1, None, False),
    ("smod-deck-normalization", "homology", 1, None, False),
    ("smod-r1-lift-consistency", "homology", 1, 1, False),
    ("smod-chain-pattern", "homology", 1, None, False),
)
_WITNESS_CLAIMS = frozenset(row[0] for row in _BASE_CLAIMS if row[4])


def _claim_ids(rows, n: int) -> list[tuple[str, str]]:
    """``(id, group)`` of the rows whose claim exists at this ``n``."""
    return [
        (cid, group)
        for cid, group, lo, hi, _ in rows
        if lo <= n and (hi is None or n <= hi)
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
        return cls(
            header=d["header"], claims=[Claim.from_dict(c) for c in d["claims"]]
        )

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
    return Claim(
        id=cid,
        group=group,
        status="skipped" if ok is None else "pass" if ok else "fail",
        detail=detail,
        witness=witness,
        elapsed=time.monotonic() - t0,
        n=ctx.n,
        k=ctx.k,
    )


_EQ_BY_GROUP = oracle._EQ


def check_instance(inst: dict, ctx: Context, budget: int | None = None) -> bool:
    """Re-verify one stored witness instance against the oracle."""
    eq = _EQ_BY_GROUP[inst["group"]]
    lhs = expand_token_text(inst["lhs"], ctx, budget)
    rhs = expand_token_text(inst["rhs"], ctx, budget)
    return eq(lhs, rhs, ctx, budget=budget) == inst["expect"]


def _run_instances(
    cid: str, group: str, ctx: Context, instances: list[dict], budget: int | None, note: str = ""
) -> Claim:
    """The claim that every witness instance holds; ``note`` leads its detail."""

    def check():
        bad = [i for i in instances if not check_instance(i, ctx, budget)]
        if bad:
            return False, f"{len(bad)}/{len(instances)} instances refuted; first: {bad[0]}"
        return True, f"{note} {len(instances)} instances".strip()

    return _claim(cid, group, ctx, check, {"instances": instances})


# -- oracle cross-check -------------------------------------------------------


def verify_oracle_presentation(ctx: Context, budget: int | None = None) -> Claim:
    """Classical presentation cross-check guarding the sphere oracle."""
    arcs = ctx.num_arcs
    instances = []
    for i in range(1, arcs + 1):
        for j in range(i + 2, arcs + 1):
            instances.append(
                {"group": "sphere", "lhs": f"s{i} s{j}", "rhs": f"s{j} s{i}", "expect": True}
            )
    for i in range(1, arcs):
        instances.append(
            {
                "group": "sphere",
                "lhs": f"s{i} s{i + 1} s{i}",
                "rhs": f"s{i + 1} s{i} s{i + 1}",
                "expect": True,
            }
        )
    up = " ".join(f"s{i}" for i in range(1, arcs + 1))
    down = " ".join(f"s{i}" for i in range(arcs, 0, -1))
    instances.append({"group": "sphere", "lhs": f"{up} {down}", "rhs": "", "expect": True})
    instances.append({"group": "sphere", "lhs": "r1^(2n+2)", "rhs": "", "expect": True})
    instances.append({"group": "sphere", "lhs": "s1", "rhs": "", "expect": False})
    instances.append({"group": "sphere", "lhs": "s1^2", "rhs": "", "expect": False})
    return _run_instances("oracle-sphere-presentation", "sphere", ctx, instances, budget)


def verify_generator_validations(ctx: Context, budget: int | None = None) -> Claim:
    def check():
        checks = validate_named_generators(ctx, budget=budget)
        failed = [name for name, ok in checks if not ok]
        return not failed, (
            f"{len(checks)} checks" if not failed else f"failed: {', '.join(failed)}"
        )

    return _claim("generators-validation", "sphere", ctx, check)


# -- relations ---------------------------------------------------------------


def verify_relations(ctx: Context, budget: int | None = None) -> list[Claim]:
    n = ctx.n
    instances = {
        "relation-twist-conjugation": [
            {
                "group": "disk" if i <= 2 * n - 1 else "sphere",
                "lhs": f"h{i} t{i},{i + 1} h{i}^-1",
                "rhs": f"t{i + 1},{i + 2}",
                "expect": True,
            }
            for i in range(1, 2 * n + 1)
        ],
        "relation-chain-twist-factorization": [
            {
                "group": "disk",
                "lhs": f"t{i},{j}",
                "rhs": factors_to_tokens(t_chain_factors(i, j)),
                "expect": True,
            }
            for i in range(1, ctx.num_arcs)
            for j in range(i + 2, ctx.num_arcs + 1)
        ],
        "relation-h-triple-conjugation": [
            {
                "group": "disk",
                "lhs": f"h{i}^-1 h{i + 1}^-1 h{i + 2}^-1 h{i} h{i + 2} h{i + 1} h{i}",
                "rhs": f"h{i + 2}",
                "expect": True,
            }
            for i in range(1, 2 * n - 2)
        ],
        "relation-hchain-shift": [
            {
                "group": "disk",
                "lhs": f"hchain_t^-1 h{i} hchain_t",
                "rhs": f"h{i + 2}",
                "expect": True,
            }
            for i in range(1, 2 * n - 2)
        ],
    }
    return [
        _run_instances(cid, group, ctx, instances[cid], budget)
        for cid, group in _claim_ids(_BASE_CLAIMS, n)
        if cid in instances
    ]


def verify_factorization_r1(ctx: Context, budget: int | None = None) -> Claim:
    instances = [{"group": "sphere", "lhs": "r1", "rhs": "r F", "expect": True}]
    return _run_instances("lemma-r1-factorization", "sphere", ctx, instances, budget)


# -- constructive generation --------------------------------------------------


def _coalesce(factors: list[Factor]) -> list[Factor]:
    """Merge neighbouring powers of one generator; zero powers drop out."""
    out: list[Factor] = []
    for kind, params, e in factors:
        if e == 0:
            continue
        if out and out[-1][:2] == (kind, params):
            merged = out.pop()[2] + e
            if merged:
                out.append((kind, params, merged))
        else:
            out.append((kind, params, e))
    return out


def _inverse(factors: list[Factor]) -> list[Factor]:
    return [(kind, params, -e) for kind, params, e in reversed(factors)]


def _h_sphere(i: int) -> list[Factor]:
    if i == 1:
        return [("h", (1,), 1)]
    return [("r1", (), i - 1), ("h", (1,), 1), ("r1", (), -(i - 1))]


def _tadj_sphere(i: int) -> list[Factor]:
    if i == 1:
        return [("t", (1, 2), 1)]
    h = _h_sphere(i - 1)
    return h + _tadj_sphere(i - 1) + _inverse(h)


def _t_sphere(i: int, j: int) -> list[Factor]:
    """``t_{i,j}`` over the sphere basis; nested twists by the chain factorization."""
    if j == i + 1:
        return _tadj_sphere(i)
    out: list[Factor] = []
    for kind, params, e in t_chain_factors(i, j):
        base = _h_sphere(params[0]) if kind == "h" else _tadj_sphere(params[0])
        out += (base if e > 0 else _inverse(base)) * abs(e)
    return out


def _h_star(i: int) -> list[Factor]:
    if i <= 2:
        return [("h", (i,), 1)]
    return [("hchain_t", (), -1)] + _h_star(i - 2) + [("hchain_t", (), 1)]


def generation_words(group: str, ctx: Context) -> list[tuple[str, list[Factor]]]:
    """``(target token, factor list)`` for each standard generator of ``group``.

    The factor list is a word over the small generating set (see
    :func:`_basis_tokens`) equal to the target.  ``lmod_sphere``: h1 ..
    h_{2n}, every twist t_{i,j} on arcs 1..2n+1 but the boundary-parallel
    t_{1,2n+1}, and r1; h's are shifted by r1-conjugation, adjacent twists
    by h-conjugation, nested twists by the chain factorization.
    ``lmod_star`` and ``lmod_disk``: h1 .. h_{2n-1} and t1,2; h's are
    shifted by hchain_t-conjugation and ``t1,2 = h1^-1 ... h_{2n-1}^-1
    hchain_t``.  For n = 1 both targets are basis elements.
    """
    n = ctx.n
    if group == "lmod_sphere":
        words = [(f"h{i}", _h_sphere(i)) for i in range(1, 2 * n + 1)]
        words += [
            (f"t{i},{j}", _t_sphere(i, j))
            for i in range(1, ctx.num_arcs)
            for j in range(i + 1, ctx.num_arcs + 1)
            if (i, j) != (1, ctx.num_arcs)
        ]
        words.append(("r1", [("r1", (), 1)]))
    elif group in ("lmod_star", "lmod_disk"):
        if n == 1:
            return [("h1", [("h", (1,), 1)]), ("t1,2", [("t", (1, 2), 1)])]
        words = [(f"h{i}", _h_star(i)) for i in range(1, 2 * n)]
        t12 = [f for i in range(1, 2 * n) for f in _inverse(_h_star(i))]
        words.append(("t1,2", t12 + [("hchain_t", (), 1)]))
    else:
        raise ValueError(f"unknown group {group!r}")
    return [(target, _coalesce(word)) for target, word in words]


_GROUP_TO_ORACLE = {"lmod_sphere": "sphere", "lmod_star": "star", "lmod_disk": "disk"}


def _basis_tokens(basis: str, ctx: Context) -> list[str]:
    """The small generating set of ``basis`` as tokens: the sphere's or the star's."""
    if basis == "sphere":
        return ["h1", "t1,2", "r1"]
    return ["h1", "t1,2"] if ctx.n == 1 else ["h1", "h2", "hchain_t"]


def verify_generation(group: str, ctx: Context, budget: int | None = None) -> Claim:
    """Constructive generation certificate for one of the three groups."""
    basis = "sphere" if group == "lmod_sphere" else "star"
    oracle_group = _GROUP_TO_ORACLE[group]
    instances = [
        {
            "group": oracle_group,
            "lhs": target,
            "rhs": factors_to_tokens(word),
            "expect": True,
        }
        for target, word in generation_words(group, ctx)
    ]
    cid = f"generation-{group.replace('_', '-')}"
    note = f"basis {{{', '.join(_basis_tokens(basis, ctx))}}}:"
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
        return [built]
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


_HOMOLOGY_NOTE = "homology-level (necessary condition only): "


def _smod_claim(cid: str, ctx: Context, check) -> Claim:
    """A homology-level claim; its detail says it is a necessary condition."""
    claim = _claim(cid, "homology", ctx, check)
    claim.detail = _HOMOLOGY_NOTE + claim.detail
    return claim


def verify_smod_homology(ctx: Context) -> list[Claim]:
    """Matrix identities for the lifted generators; necessary conditions only."""
    n, k = ctx.n, ctx.k
    surf = cover.build_cover(ctx)

    def lift(kind: str, index: int | None = None) -> np.ndarray:
        return cover.lift_rep(surf, kind, index)

    def rotation_shifts(kind: str, last: int, what: str):
        def check():
            Mr1 = lift("r1")
            Mr1i = cover.symplectic_inverse(surf, Mr1)
            bad = [
                i
                for i in range(1, last + 1)
                if not np.array_equal(cover.mul(Mr1, lift(kind, i), Mr1i), lift(kind, i + 1))
            ]
            return not bad, (
                f"rotation lift shifts {what}, i = 1..{last}" if not bad else f"failed at {bad}"
            )

        return check

    def deck_factorization():
        ok = np.array_equal(lift("zeta_prime"), lift("zeta"))
        return ok, (
            "boundary-twist lift factorization reproduces the deck rotation"
            if ok
            else "factorization does not equal the deck rotation"
        )

    def deck_normalization():
        def exponent(kind: str, index: int | None = None) -> int | None:
            return cover.check_normalizes_deck(lift(kind, index), surf)

        bad = [f"t{i}" for i in range(1, ctx.num_arcs + 1) if exponent("t", i) != 1]
        bad += [f"h{i}" for i in range(1, 2 * n + 1) if exponent("h", i) != 1]
        bad += [kind for kind in ("r", "r1") if exponent(kind) != k - 1]
        return not bad, (
            f"parity-preserving lifts commute with the deck rotation (j=1); "
            f"half-turn and rotation invert it (j={k - 1})"
            if not bad
            else f"failed: {bad}"
        )

    def r1_consistency():
        rhs = cover.mul(lift("r"), cover.symplectic_inverse(surf, lift("h", 1)))
        return np.array_equal(lift("r1"), rhs), (
            "n=1 rotation lift equals half-turn times inverse half-rotation lift"
        )

    checks = {
        "smod-conjugation-t": rotation_shifts("t", 2 * n, "twist lifts"),
        "smod-conjugation-h": rotation_shifts("h", 2 * n - 1, "half-rotation lifts"),
        "smod-deck-factorization": deck_factorization,
        "smod-deck-normalization": deck_normalization,
        "smod-r1-lift-consistency": r1_consistency,
    }
    return [
        _smod_claim(cid, ctx, checks[cid])
        for cid, _ in _claim_ids(_HOMOLOGY_CLAIMS, n)
        if cid in checks
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

    return _smod_claim("smod-chain-pattern", ctx, check)


# -- report assembly -----------------------------------------------------------


def reverify_report(report: dict | Report, budget: int | None = None) -> list[tuple[str, bool]]:
    """Re-check every stored witness instance of a report; certificates only.

    A claim whose ``n`` or ``k`` differs from the header's (where the header
    states them; a bundle of certificates may leave them out), a claim that
    ran (not skipped) on witness instances but stores none, and a claim of
    ``_BASE_CLAIMS`` or ``_HOMOLOGY_CLAIMS`` that the header's ``n`` calls
    for but is missing, fail.
    """
    if isinstance(report, Report):
        report = report.to_dict()
    header = report["header"]
    results = []
    for cdict in report["claims"]:
        if any(key in header and cdict[key] != header[key] for key in ("n", "k")):
            results.append((cdict["id"], False))
            continue
        if cdict["status"] == "skipped":
            continue
        witness = cdict.get("witness") or {}
        instances = witness.get("instances")
        if not instances:
            if cdict["id"] in _WITNESS_CLAIMS:
                results.append((cdict["id"], False))
            continue
        ctx = Context(cdict["n"], cdict["k"])
        ok = all(check_instance(i, ctx, budget) for i in instances)
        results.append((cdict["id"], ok == (cdict["status"] == "pass")))
    if "n" in header:
        present = {cdict["id"] for cdict in report["claims"]}
        results += [
            (cid, False)
            for cid, _ in _claim_ids(_BASE_CLAIMS + _HOMOLOGY_CLAIMS, header["n"])
            if cid not in present
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

    def skip(rows, why: str) -> list[Claim]:
        return [
            Claim(id=cid, group=group, status="skipped", detail=why, n=n, k=k)
            for cid, group in _claim_ids(rows, n)
        ]

    if n <= bounds.base_n:
        report.claims.append(verify_oracle_presentation(ctx, budget))
        report.claims.append(verify_generator_validations(ctx, budget))
        report.claims.extend(verify_relations(ctx, budget))
        report.claims.append(verify_factorization_r1(ctx, budget))
        for group in ("lmod_sphere", "lmod_star", "lmod_disk"):
            report.claims.append(verify_generation(group, ctx, budget))
    else:
        over = f"over desk-scale bound (n <= {bounds.base_n}); raise --bound-base-n"
        report.claims.extend(skip(_BASE_CLAIMS, over))

    report.claims.extend(verify_liftability(ctx))
    report.claims.extend(verify_cover(ctx))

    if n <= bounds.homology_n and k <= bounds.homology_k:
        report.claims.extend(verify_smod_homology(ctx))
        report.claims.append(verify_chain_pattern(ctx))
    else:
        why = (
            f"over homology bounds (n <= {bounds.homology_n}, k <= {bounds.homology_k})"
        )
        report.claims.extend(skip(_HOMOLOGY_CLAIMS, why))
    return report
