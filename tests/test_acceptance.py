"""Acceptance criteria, exercised at the stated desk-scale bounds.

Each test prints one ``ACCEPTANCE <id> ... PASS`` line (visible with
``pytest -s`` or on failure) and enforces the stated runtime budgets.
"""

import json
import time

import numpy as np
import pytest
from referees import enumerate_W

from superelliptic import (
    Context,
    CurveClass,
    Word,
    build_cover,
    check_normalizes_deck,
    eq_sphere,
    gamma_curve,
    lift_rep,
    pairing,
    psi,
)
from superelliptic import cover as cover_mod
from superelliptic import intmat
from superelliptic.generators import gen_F, gen_r, gen_r1
from superelliptic.liftability import curve_monodromy, w_size
from superelliptic.theorems import (
    reverify_report,
    run_all,
    verify,
    verify_chain_pattern,
    verify_generation,
    verify_relations,
    verify_smod_homology,
)


def announce(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def test_01_oracle_presentation_cross_check():
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        claim = verify("oracle-sphere-presentation", Context(n, 3))
        assert claim.passed, f"n={n}: {claim.detail}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"presentation suite took {elapsed:.1f}s (budget 60s)"
    announce("1-oracle-validation", f"n=1..4 in {elapsed:.1f}s")


def test_02_rotation_factorization():
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        ctx = Context(n, 3)
        assert eq_sphere(gen_r1(ctx), gen_r(ctx) * gen_F(ctx), ctx), f"n={n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"factorization took {elapsed:.1f}s (budget 300s)"
    announce("2-r1-factorization", f"n=1..4 in {elapsed:.1f}s")


def test_03_generator_orders():
    for n in (1, 2, 3, 4):
        ctx = Context(n, 3)
        for w, order in ((gen_r(ctx), 2), (gen_r1(ctx), 2 * n + 2)):
            trivial = [d for d in range(1, order + 1) if eq_sphere(w**d, Word.identity(ctx), ctx)]
            assert trivial == [order], f"n={n}"
    announce("3-generator-orders", "r has order 2, r1 has order 2n+2, n=1..4")


def test_04_relation_suite():
    total = 0
    for n in (1, 2, 3, 4):
        for claim in verify_relations(Context(n, 3)):
            assert claim.passed, f"n={n} {claim.id}: {claim.detail}"
            total += len(claim.witness["instances"])
    announce("4-relation-suite", f"{total} relation instances, n=1..4")


def test_05_generation_certificates(tmp_path):
    jobs = [("lmod_sphere", (1, 2, 3)), ("lmod_star", (1, 2, 3)), ("lmod_disk", (1, 2, 3))]
    claims = []
    for group, ns in jobs:
        for n in ns:
            claim = verify_generation(group, Context(n, 3))
            assert claim.passed, f"{group} n={n}: {claim.detail}"
            claims.append(claim)
    # certificates re-verify from the file alone
    path = tmp_path / "certificates.json"
    path.write_text(
        json.dumps({"header": {}, "claims": [c.to_dict() for c in claims]})
    )
    results = reverify_report(json.loads(path.read_text()))
    assert len(results) == len(claims)
    assert all(ok for _, ok in results)
    announce(
        "5-generation-certificates",
        f"{len(claims)} certificates, {sum(len(c.witness['instances']) for c in claims)}"
        " witnesses re-verified from file",
    )


def test_06_liftability():
    import random
    from math import factorial

    for n in (1, 2, 3):
        ctx = Context(n, 3)
        count = sum(1 for _ in enumerate_W(ctx))
        assert count == w_size(ctx) == 2 * factorial(n + 1) ** 2

    from superelliptic.generators import gen_h, gen_t
    from superelliptic.liftability import is_liftable_word

    ctx = Context(2, 3)
    rng = random.Random(42)
    pool = [gen_h(i, ctx) for i in range(1, 5)] + [gen_t(1, 2, ctx), gen_r1(ctx), gen_r(ctx)]
    for _ in range(10_000):
        u = Word.identity(ctx)
        v = Word.identity(ctx)
        for _ in range(rng.randrange(1, 4)):
            u = u * rng.choice(pool) ** rng.choice((-1, 1))
            v = v * rng.choice(pool) ** rng.choice((-1, 1))
        assert is_liftable_word(u * v, ctx)
        assert is_liftable_word(u.inverse(), ctx)

    for k in (3, 4, 5):
        kctx = Context(2, k)
        for i in range(1, kctx.num_points):
            assert curve_monodromy(gamma_curve(i, i + 1, kctx), kctx) == 0
        assert curve_monodromy(CurveClass(kctx, (1,)), kctx) != 0
    announce(
        "6-liftability",
        "|W| counted n<=3; 10^4 closure pairs; curve verdicts for k=3,4,5",
    )


def test_07_cover_builder():
    for n in (1, 2, 3, 4):
        for k in (2, 3, 4, 5):
            ctx = Context(n, k)
            S = build_cover(ctx)
            g = ctx.genus
            assert S.euler_characteristic == 2 - 2 * g, (n, k)
            assert S.h1_rank == 2 * g, (n, k)
            assert np.array_equal(S.J, -S.J.T), (n, k)
            assert intmat.det_exact(S.J) == 1, (n, k)
            Mz = lift_rep(S, "zeta")
            ident = intmat.identity_object(2 * g)
            assert intmat.rank_rational(Mz - ident) == 2 * g, (n, k)
            power = ident
            for _ in range(1, k):
                power = power @ Mz
                assert not np.array_equal(power, ident), (n, k)
            assert np.array_equal(power @ Mz, ident), (n, k)
    announce("7-cover-builder", "chi, rank, J, deck order verified for n<=4, k<=5")


def test_08_homology_level_smod_checks():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        for k in (3, 4):
            ctx = Context(n, k)
            claims = verify_smod_homology(ctx)
            for claim in claims:
                assert claim.passed, f"(n={n},k={k}) {claim.id}: {claim.detail}"
                assert "necessary condition" in claim.detail
            S = build_cover(ctx)
            for i in range(1, ctx.num_points):
                assert check_normalizes_deck(lift_rep(S, "t", i), S) == 1
            for i in range(1, 2 * n + 1):
                assert check_normalizes_deck(lift_rep(S, "h", i), S) == 1
            assert check_normalizes_deck(lift_rep(S, "r"), S) == k - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"homology checks took {elapsed:.1f}s (budget 120s)"
    announce("8-smod-homology", f"(n,k) in {{1,2,3}}x{{3,4}} in {elapsed:.1f}s")


def test_09_chain_pattern():
    for n in (1, 2):
        for k in (3, 4):
            claim = verify_chain_pattern(Context(n, k))
            assert claim.passed, f"(n={n},k={k}): {claim.detail}"
    announce("9-chain-pattern", "(2k-1)-chain pattern for (n,k) in {1,2}x{3,4}")


def test_full_report_is_green():
    report = run_all(2, 3)
    assert report.all_passed
    failed = [c.id for c in report.claims if c.status == "fail"]
    assert not failed
    announce("full-report", f"{len(report.claims)} claims at (n=2, k=3)")
