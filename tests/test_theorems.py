"""Claims, certificates, and report round-trips."""

import hashlib
import json
import random
import re
from collections import Counter
from functools import partial
from math import factorial
from pathlib import Path

import numpy as np
import pytest
import referees

from superelliptic import (
    Context,
    Word,
    cover,
    eq_sphere,
    eq_star,
    generators,
    liftability,
    oracle,
    theorems,
)
from superelliptic.errors import BudgetError, WordSyntaxError
from superelliptic.generators import (
    expand_token_text,
    gen_t,
    t_chain_factors,
)
from superelliptic.theorems import (
    Bounds,
    Report,
    check_instance,
    generation_words,
    reverify_report,
    run_all,
    verify,
    verify_chain_pattern,
    verify_cover,
    verify_generation,
    verify_liftability,
    verify_relations,
    verify_smod_homology,
)


@pytest.fixture(scope="module")
def report_2_3():
    return run_all(2, 3).to_dict()


def _claims_with_n_true() -> dict:
    """A (1, 3) report whose claims state ``"n": true`` and whose header states no ``n``."""
    report = run_all(1, 3).to_dict()
    del report["header"]["n"]
    report["claims"] = [dict(c, n=True) for c in report["claims"]]
    return report


def _steps(group: str, ctx: Context) -> list[tuple[str, list[str]]]:
    """``(target, token list)`` of every step of ``generation_words(group)``, runs expanded."""
    entries = [{"group": "sphere", "lhs": target, "rhs": " ".join(word), "expect": True,
                "shifts": shifts} for target, word, shifts in generation_words(group, ctx)]
    return [(i["lhs"], i["rhs"].split()) for i in referees.expand_families(entries)]


def _generation_word(group: str, target: str, ctx: Context) -> list:
    return dict(_steps(group, ctx))[target]


class TestExpress:
    def test_h3_over_sphere_basis(self):
        ctx = Context(2, 3)
        word = _generation_word("lmod_sphere", "h3", ctx)
        assert word == ["r1", "h2", "r1^-1"]
        assert eq_sphere(
            expand_token_text(" ".join(word), ctx),
            expand_token_text("h3", ctx),
            ctx,
        )

    def test_adjacent_twist_over_sphere_basis(self):
        ctx = Context(2, 3)
        assert _generation_word("lmod_sphere", "t2,3", ctx) == ["r1", "t1,2", "r1^-1"]
        assert _generation_word("lmod_sphere", "t4,5", ctx) == ["r1", "t3,4", "r1^-1"]

    def test_nested_twist_is_the_chain_factorization(self):
        ctx = Context(3, 3)
        assert _generation_word("lmod_sphere", "t1,5", ctx) == t_chain_factors(1, 5)
        assert _generation_word("lmod_sphere", "t3,7", ctx) == ["r1", "t2,6", "r1^-1"]

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("group", ["lmod_sphere", "lmod_star", "lmod_disk"])
    def test_steps_use_only_the_basis_and_earlier_targets(self, group, n):
        ctx = Context(n, 3)
        known = set(theorems._basis_tokens("sphere" if group == "lmod_sphere" else "star", ctx))
        for target, word in _steps(group, ctx):
            used = {tok.partition("^")[0] for tok in word}
            assert used <= known, (target, used - known)
            known.add(target)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sphere_steps_restate_only_the_chain_factorization_of_t1_j(self, n):
        ctx = Context(n, 3)
        stated = {
            frozenset((i["lhs"], i["rhs"]))
            for row in theorems._rows(n, kind="relation")
            for i in referees.expand_families(row.statement(ctx))
        }
        steps = referees.expand_families(theorems._TABLE["generation-lmod-sphere"].statement(ctx))
        restated = [i["lhs"] for i in steps if frozenset((i["lhs"], i["rhs"])) in stated]
        assert restated == [f"t1,{j}" for j in range(3, 2 * n + 1)]

    def test_star_t12_expansion(self):
        ctx = Context(2, 3)
        word = _generation_word("lmod_star", "t1,2", ctx)
        assert word == ["h1^-1", "h2^-1", "h3^-1", "hchain_t"]
        assert eq_star(
            expand_token_text(" ".join(word), ctx),
            gen_t(1, 2, ctx),
            ctx,
        )

    def test_star_h_shift(self):
        word = _generation_word("lmod_disk", "h5", Context(3, 3))
        assert word == ["hchain_t^-1", "h3", "hchain_t"]

    def test_star_basis_n1_is_trivial(self):
        words = generation_words("lmod_star", Context(1, 3))
        assert words == [("h1", ["h1"], 1), ("t1,2", ["t1,2"], 1)]

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            generation_words("lmod_torus", Context(2, 3))

    def test_target_lists(self):
        ctx = Context(2, 3)
        runs = [(target, shifts) for target, _, shifts in generation_words("lmod_sphere", ctx)]
        assert runs == [("h1", 1), ("h2", 3), ("t1,2", 1), ("t2,3", 3), ("t1,3", 1), ("t2,4", 2),
                        ("t1,4", 1), ("t2,5", 1), ("r1", 1)]
        sphere = [target for target, _ in _steps("lmod_sphere", ctx)]
        assert sphere == ["h1", "h2", "h3", "h4", "t1,2", "t2,3", "t3,4", "t4,5",
                          "t1,3", "t2,4", "t3,5", "t1,4", "t2,5", "r1"]
        assert "t1,5" not in sphere  # boundary-parallel twist is excluded
        star = [target for target, _ in _steps("lmod_star", Context(1, 3))]
        assert star == ["h1", "t1,2"]
        disk = [target for target, _, _ in generation_words("lmod_disk", ctx)]
        assert disk == ["h1", "h2", "h3", "t1,2"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_rotation_run_is_one_entry(self, n):
        # h2 .. h2n, and per span q the run t_{2,2+q} .. t_{2n+1-q,2n+1}
        words = generation_words("lmod_sphere", Context(n, 3))
        runs = [(target, shifts) for target, word, shifts in words if word[1:] and word[0] == "r1"]
        assert runs == [("h2", 2 * n - 1)] + [(f"t2,{2 + q}", 2 * n - q) for q in range(1, 2 * n)]
        assert sum(shifts for _, _, shifts in words) == 2 * n + n * (2 * n + 1) - 1 + 1


class TestVerifiers:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: verify("relation-h-triple-conjugation", Context(1, 3)),
             "'relation-h-triple-conjugation' exists for n >= 2, not n = 1"),
            (lambda: verify("smod-r1-lift-consistency", Context(2, 3)),
             "'smod-r1-lift-consistency' exists for 1 <= n <= 1, not n = 2"),
            (lambda: verify("nope", Context(1, 3)), "'nope' is not in the claim table"),
            (lambda: verify_generation("lmod_torus", Context(1, 3)),
             "no generation claim for group 'lmod_torus'"),
        ],
        ids=["below-its-range", "above-its-range", "unknown-id", "unknown-generation-group"],
    )
    def test_verify_refuses_an_id_outside_the_table_or_its_n_range(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("n", [1, 2])
    def test_presentation_suite(self, n):
        claim = verify("oracle-sphere-presentation", Context(n, 3))
        assert claim.passed, claim.detail

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_validation_claim(self, n):
        claim = verify("generators-validation", Context(n, 3))
        assert claim.passed, claim.detail
        entries = claim.witness["instances"]
        assert len(entries) == {1: 11, 2: 15, 3: 23}[n]
        assert len(referees.expand_families(entries)) == {1: 12, 2: 18, 3: 28}[n]

    @pytest.mark.parametrize(
        "name, word",
        [
            ("r1", lambda ctx: Word(ctx, tuple(range(ctx.num_arcs, 0, -1)))),
            ("r", lambda ctx: generators.gen_r1(ctx) ** (ctx.n + 1)),
        ],
        ids=["r1-reversed", "r-as-half-rotation"],
    )
    def test_generator_validation_catches_a_wrong_word(self, monkeypatch, name, word):
        monkeypatch.setitem(generators._WORDS, name, word)
        generators._token_memo.cache_clear()  # drop the words memoized from the right entry
        try:
            claim = verify("generators-validation", Context(2, 3))
        finally:  # and those memoized from the wrong one, before any later test reads them
            generators._token_memo.cache_clear()
        assert claim.status == "fail", claim.detail

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relations(self, n):
        for claim in verify_relations(Context(n, 3)):
            assert claim.passed, (claim.id, claim.detail)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factorization(self, n):
        assert verify("lemma-r1-factorization", Context(n, 3)).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("group", ["lmod_sphere", "lmod_star", "lmod_disk"])
    def test_generation(self, n, group):
        ctx = Context(n, 3)
        claim = verify_generation(group, ctx)
        assert claim.passed, claim.detail
        # one confirmed witness word per standard generator, a run of them per entry
        instances = claim.witness["instances"]
        targets = [(target, shifts) for target, _, shifts in generation_words(group, ctx)]
        assert [(i["lhs"], i["shifts"]) for i in instances] == targets
        assert all(i["expect"] for i in instances)

    def test_curve_lifts_checks_the_reports_k(self, monkeypatch):
        seen = set()
        real = liftability.curve_monodromy

        def spy(curve, ctx):
            seen.add(ctx.k)
            return real(curve, ctx)

        monkeypatch.setattr(liftability, "curve_monodromy", spy)
        claims = verify_liftability(Context(1, 7))
        claim = next(c for c in claims if c.id == "liftability-curve-lifts")
        assert claim.passed, claim.detail
        assert "(k = 7)" in claim.detail
        assert seen == {7}

    def test_smod_homology_labels(self):
        for claim in verify_smod_homology(Context(1, 3)):
            assert claim.passed, (claim.id, claim.detail)
            assert "necessary condition" in claim.detail

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smod_claims_store_lift_text_instances(self, n):
        claims = {c.id: c for c in verify_smod_homology(Context(n, 3))}

        def inst(lhs, rhs):
            return {"group": "homology", "lhs": lhs, "rhs": rhs, "expect": True, "shifts": 1}

        want = {
            "smod-conjugation-t": [
                inst(f"r1 t{i},{i + 1}", f"t{i + 1},{i + 2} r1") for i in range(1, 2 * n + 1)
            ],
            "smod-conjugation-h": [inst(f"r1 h{i}", f"h{i + 1} r1") for i in range(1, 2 * n)],
            "smod-deck-factorization": [inst("zeta_prime", "zeta")],
        }
        if n == 1:
            want["smod-r1-lift-consistency"] = [inst("r1 h1", "r")]
        assert set(claims) == set(want) | {"smod-deck-normalization"}
        assert len(claims["smod-deck-normalization"].witness["instances"]) == 4 * n + 3
        for cid, claim in claims.items():
            assert claim.passed, (cid, claim.detail)
            count = len(claim.witness["instances"])
            assert claim.detail.endswith(f"necessary condition only): {count} instances")
            if cid in want:
                assert claim.witness["instances"] == want[cid]

    @pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (3, 4)])
    def test_deck_normalization_agrees_with_check_normalizes_deck(self, n, k):
        ctx = Context(n, k)
        S = cover.build_cover(ctx)
        claim = next(c for c in verify_smod_homology(ctx) if c.id == "smod-deck-normalization")
        names = [f"t{i},{i + 1}" for i in range(1, 2 * n + 2)]
        names += [f"h{i}" for i in range(1, 2 * n + 1)] + ["r", "r1"]
        want = []
        for name in names:
            j = cover.check_normalizes_deck(cover.lift_product(S, name), S)
            commutes = {"group": "homology", "lhs": f"{name} zeta", "rhs": f"zeta {name}",
                        "expect": True, "shifts": 1}
            inverts = {"group": "homology", "lhs": f"zeta {name} zeta", "rhs": name,
                       "expect": True, "shifts": 1}
            assert check_instance(commutes, ctx) == (j == 1), name
            assert check_instance(inverts, ctx) == (j == k - 1), name
            want.append(commutes if name[0] in "th" else inverts)
        assert claim.passed and claim.witness["instances"] == want

    def test_homology_instance_expect_false(self):
        ctx = Context(2, 3)
        inst = {"group": "homology", "lhs": "r1 t1,2", "rhs": "t1,2 r1", "expect": False,
                "shifts": 1}
        assert check_instance(inst, ctx)
        assert not check_instance(dict(inst, expect=True), ctx)

    def test_chain_pattern(self):
        assert verify_chain_pattern(Context(1, 3)).passed

    @pytest.mark.parametrize("cid", [row.id for row in theorems._rows(3, section="base")])
    def test_budget_exhaustion_marks_skipped(self, cid):
        claim = verify(cid, Context(3, 3), budget=5)
        assert claim.status == "skipped", claim.detail
        assert claim.detail.startswith("oracle budget exceeded: ")
        assert claim.witness["instances"]

    @pytest.mark.parametrize("budget", [0, -3, True, 2.5])
    def test_a_bad_budget_raises_on_entry_as_in_run_all(self, budget):
        # cover-build is computed and runs no oracle, so only the entry check sees the budget
        message = f"letter budget must be a positive integer, got {budget!r}"
        for make in (partial(verify, "cover-build", Context(1, 3)), partial(run_all, 1, 3)):
            with pytest.raises(ValueError) as info:
                make(budget=budget)
            assert str(info.value) == message

    @pytest.mark.parametrize("group", ["disk", "star", "sphere", "homology"])
    @pytest.mark.parametrize("budget", [0, -3, True, 2.5])
    def test_check_instance_refuses_a_bad_budget_in_every_group(self, group, budget):
        # a homology instance runs no oracle, so only the entry check sees the budget
        ctx = Context(1, 3)
        side = "zeta^3" if group == "homology" else "s1 s2"
        inst = {"group": group, "lhs": side, "rhs": side, "expect": True, "shifts": 1}
        assert check_instance(inst, ctx)
        with pytest.raises(ValueError, match=f"got {re.escape(repr(budget))}$"):
            check_instance(inst, ctx, budget=budget)


class TestCertificates:
    def test_instances_reverify_individually(self):
        ctx = Context(2, 3)
        claim = verify_generation("lmod_sphere", ctx)
        for inst in claim.witness["instances"]:
            assert check_instance(inst, ctx)

    def test_pinned_report_reverifies(self):
        # The certificate format, pinned: `verify-all --n 2 --k 3 --json`.
        # A change to a claim's statement must regenerate this file.
        path = Path(__file__).parent / "data" / "verify_all_n2_k3.json"
        results = reverify_report(json.loads(path.read_text()))
        assert len(results) == 21 and all(ok for _, ok in results)

    def test_report_roundtrip_and_reverify(self, tmp_path):
        report = run_all(1, 3)
        assert report.all_passed
        path = tmp_path / "report.json"
        path.write_text(report.to_json())
        loaded = Report.from_dict(json.loads(path.read_text()))
        assert loaded.to_dict() == report.to_dict()
        results = reverify_report(json.loads(path.read_text()))
        assert results and all(ok for _, ok in results)

    def test_emptied_instances_are_caught(self, report_2_3):
        results = dict(reverify_report(report_2_3))
        assert results["generation-lmod-sphere"] is True
        cut = json.loads(json.dumps(report_2_3))
        claim = next(c for c in cut["claims"] if c["id"] == "generation-lmod-sphere")
        claim["witness"]["instances"] = []
        results = reverify_report(cut)
        assert ("generation-lmod-sphere", False) in results
        assert len(results) == len(reverify_report(report_2_3))

    def test_deleted_claim_is_caught(self, report_2_3):
        cut = json.loads(json.dumps(report_2_3))
        cut["claims"] = [c for c in cut["claims"] if c["id"] != "generation-lmod-sphere"]
        results = reverify_report(cut)
        assert ("generation-lmod-sphere", False) in results
        assert sum(not ok for _, ok in results) == 1

    def test_deleted_non_witness_claims_are_caught(self, report_2_3):
        gone = {
            "smod-chain-pattern",
            "generators-validation",
            "cover-homology",
            "cover-deck-rotation",
            "liftability-w-generation",
        }
        cut = json.loads(json.dumps(report_2_3))
        cut["claims"] = [c for c in cut["claims"] if c["id"] not in gone]
        results = reverify_report(cut)
        assert {cid for cid, ok in results if not ok} == gone

    def test_failed_cover_build_skips_the_other_cover_claims(self, monkeypatch):
        def broken(ctx):
            raise AssertionError("no surface")

        monkeypatch.setattr(cover, "build_cover", broken)
        claims = verify_cover(Context(2, 3))
        assert [(c.id, c.status) for c in claims] == [
            ("cover-build", "fail"),
            ("cover-homology", "skipped"),
            ("cover-deck-rotation", "skipped"),
        ]

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 4)])
    def test_deck_rotation_fails_for_a_wrong_zeta(self, monkeypatch, n, k):
        # the identity and -zeta do not move c_{i,l} to c_{i,l+1}
        lift_rep, ctx = cover.lift_rep, Context(n, k)
        assert verify("cover-deck-rotation", ctx).status == "pass"
        for wrong in [lambda M: np.eye(len(M), dtype=M.dtype)] + [np.negative] * (k % 2):
            def patched(S, kind, index=None, wrong=wrong):
                M = lift_rep(S, kind, index)
                return wrong(M) if kind == "zeta" else M

            monkeypatch.setattr(cover, "lift_rep", patched)
            assert verify("cover-deck-rotation", ctx).status == "fail"

    def test_tampered_smod_rhs_fails_alone(self, report_2_3):
        def edit(instances):
            assert any(i["rhs"] == "t2,3 r1" for i in instances)
            return [dict(i, rhs="t3,4 r1") if i["rhs"] == "t2,3 r1" else i for i in instances]

        results = self._reverify_edited(report_2_3, "smod-conjugation-t", edit)
        assert results.pop("smod-conjugation-t") is False
        assert all(results.values())

    def test_flipped_smod_verdict_fails(self, report_2_3):
        assert dict(reverify_report(report_2_3))["smod-deck-factorization"] is True
        cut = json.loads(json.dumps(report_2_3))
        next(c for c in cut["claims"] if c["id"] == "smod-deck-factorization")["status"] = "fail"
        results = dict(reverify_report(cut))
        assert results.pop("smod-deck-factorization") is False
        assert all(results.values())

    @pytest.mark.parametrize(
        "cid", ["smod-conjugation-t", "smod-conjugation-h", "smod-deck-factorization",
                "smod-deck-normalization"]
    )
    def test_smod_claim_without_instances_fails(self, report_2_3, cid):
        cut = json.loads(json.dumps(report_2_3))
        next(c for c in cut["claims"] if c["id"] == cid)["witness"] = None
        results = dict(reverify_report(cut))
        assert results.pop(cid) is False
        assert all(results.values())

    @pytest.mark.parametrize("bad", ["t1,3", "q7", "zeta^x"])
    def test_malformed_lift_token_fails_alone(self, report_2_3, bad):
        def edit(instances):
            return [dict(instances[0], lhs=f"{bad} zeta")] + instances[1:]

        results = self._reverify_edited(report_2_3, "smod-deck-normalization", edit)
        assert results.pop("smod-deck-normalization") is False
        assert all(results.values())

    def test_header_claim_mismatch_is_caught(self, report_2_3):
        cut = json.loads(json.dumps(report_2_3))
        cut["header"]["n"] = 7
        results = reverify_report(cut)
        assert len(results) == len(cut["claims"])
        assert not any(ok for _, ok in results)

    @staticmethod
    def _reverify_edited(report, cid, edit):
        """Re-verify ``report`` with ``edit`` applied to claim ``cid``'s instances."""
        cut = json.loads(json.dumps(report))
        claim = next(c for c in cut["claims"] if c["id"] == cid)
        claim["witness"]["instances"] = edit(claim["witness"]["instances"])
        return dict(reverify_report(cut))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda insts: [dict(i, rhs="s1") if i["lhs"] == "r s1 r^-1" else i for i in insts],
                id="reversal-rhs",
            ),
            pytest.param(lambda insts: insts[:1] + [dict(insts[1], expect=False)] + insts[2:],
                         id="flipped-expect"),
            pytest.param(lambda insts: [], id="emptied"),
        ],
    )
    def test_edited_generator_validation_fails_alone(self, report_2_3, edit):
        results = self._reverify_edited(report_2_3, "generators-validation", edit)
        assert results.pop("generators-validation") is False
        assert all(results.values())

    def test_generator_validation_restates_no_other_claim(self, report_2_3):
        def pairs(claim):
            return {(i["lhs"], i["rhs"]) for i in (claim["witness"] or {}).get("instances", [])}

        claims = {c["id"]: c for c in report_2_3["claims"]}
        own = pairs(claims.pop("generators-validation"))
        assert own and not any(own & pairs(c) for c in claims.values())

    @pytest.mark.parametrize(
        "cid, edit",
        [
            ("generators-validation", lambda c: c["witness"]["instances"][0].update(rhs="t2,3^")),
            ("relation-twist-conjugation", lambda c: c["witness"]["instances"][0].pop("expect")),
            ("generation-lmod-star", lambda c: c["witness"]["instances"][1].pop("group")),
            ("lemma-r1-factorization", lambda c: c.pop("n")),
            ("cover-build", lambda c: c.pop("n")),
        ],
        ids=["rhs-syntax", "no-expect", "no-group", "no-n", "no-n-without-witness"],
    )
    def test_malformed_claim_fails_alone(self, report_2_3, cid, edit):
        cut = json.loads(json.dumps(report_2_3))
        edit(next(c for c in cut["claims"] if c["id"] == cid))
        results = dict(reverify_report(cut))
        assert results.pop(cid) is False
        assert all(results.values())

    @pytest.mark.parametrize(
        "cid, edit",
        [
            ("relation-chain-twist-factorization",
             lambda insts: [dict(i, group="sphere") for i in insts]),
            ("relation-twist-conjugation", lambda insts: insts[:1]),
            ("smod-conjugation-t", lambda insts: insts[:1]),
            ("oracle-sphere-presentation", lambda insts: [i for i in insts if i["expect"]]),
            ("relation-chain-twist-factorization",
             lambda insts: [dict(i, rhs=i["lhs"]) for i in insts]),
            ("oracle-sphere-presentation", lambda insts: insts[::-1]),
            ("relation-chain-twist-factorization", lambda insts: [dict(i, shifts=1) for i in insts]),
            ("generation-lmod-sphere",
             lambda insts: [dict(i, shifts=i["shifts"] - (i["shifts"] > 1)) for i in insts]),
        ],
        ids=["weaker-group", "cut-relation", "cut-smod", "no-inequalities", "tautologies",
             "reordered", "one-shift-each", "one-step-fewer-per-run"],
    )
    def test_weakened_certificate_fails_alone(self, report_2_3, cid, edit):
        # every edited instance still holds: only the claim's statement refutes it
        claim = next(c for c in report_2_3["claims"] if c["id"] == cid)
        edited = edit(claim["witness"]["instances"])
        assert edited != claim["witness"]["instances"]
        assert all(check_instance(i, Context(2, 3)) for i in edited)
        results = self._reverify_edited(report_2_3, cid, edit)
        assert results.pop(cid) is False
        assert all(results.values())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_statement_is_non_empty(self, n):
        ctx = Context(n, 3)
        stated = [row for row in theorems._rows(n) if row.kind != "computed"]
        assert len(stated) == (13 if n == 1 else 14)
        for row in stated:
            assert row.statement(ctx), row.id

    def test_the_run_and_reverify_build_each_statement_once(self, monkeypatch):
        calls = Counter()
        statement = theorems._Row.statement

        def counted(row, ctx):
            calls[row.id] += 1
            return statement(row, ctx)

        monkeypatch.setattr(theorems._Row, "statement", counted)
        report = run_all(1, 3)
        certified = Counter(c.id for c in report.claims if c.witness)
        assert len(certified) == 13 and calls == certified
        assert all(ok for _, ok in reverify_report(report))
        assert calls == certified + certified

    def test_budget_error_still_raises(self, report_2_3):
        with pytest.raises(BudgetError):
            reverify_report(report_2_3, budget=5)

    @pytest.mark.parametrize(
        "cid", ["generation-lmod-sphere", "generation-lmod-star", "generation-lmod-disk"]
    )
    def test_rhs_equal_to_lhs_fails(self, report_2_3, cid):
        def tautologies(instances):
            return [dict(i, rhs=i["lhs"]) for i in instances]

        results = self._reverify_edited(report_2_3, cid, tautologies)
        assert results.pop(cid) is False
        assert all(results.values())

    def test_step_rewritten_to_another_proof_reverifies(self, report_2_3):
        other = {"group": "sphere", "lhs": "h2", "rhs": "r1 h1 r1^-1 r1 r1^-1", "expect": True,
                 "shifts": 3}

        def edit(instances):
            assert next(i for i in instances if i["lhs"] == "h2")["rhs"] != other["rhs"]
            return [other if i["lhs"] == "h2" else i for i in instances]

        results = self._reverify_edited(report_2_3, "generation-lmod-sphere", edit)
        assert len(results) == 21 and all(results.values())

    def test_steps_with_the_chain_and_conjugation_proofs_reverify(self, report_2_3):
        # each nested twist by its chain factorization, each adjacent one by h-conjugation
        def proof(lhs):
            i, j = map(int, lhs[1:].split(","))
            if j - i >= 2:
                return " ".join(t_chain_factors(i, j))
            return f"h{i - 1} t{i - 1},{i} h{i - 1}^-1" if i > 1 else lhs

        def edit(instances):
            return [dict(i, rhs=proof(i["lhs"])) if i["lhs"][0] == "t" else i for i in instances]

        claim = next(c for c in report_2_3["claims"] if c["id"] == "generation-lmod-sphere")
        assert edit(claim["witness"]["instances"]) != claim["witness"]["instances"]
        results = self._reverify_edited(report_2_3, "generation-lmod-sphere", edit)
        assert len(results) == 21 and all(results.values())

    def test_step_using_a_later_target_fails(self, report_2_3):
        later = {"group": "sphere", "lhs": "h2", "rhs": "r1^-1 h3 r1", "expect": True, "shifts": 3}
        assert check_instance(dict(later, shifts=1), Context(2, 3))  # true, but h3 is not yet generated

        def edit(instances):
            return [later if i["lhs"] == "h2" else i for i in instances]

        results = self._reverify_edited(report_2_3, "generation-lmod-sphere", edit)
        assert results["generation-lmod-sphere"] is False

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda insts: insts[:3] + insts[2:], id="repeated"),
            pytest.param(lambda insts: insts[:-1], id="missing-last"),
            pytest.param(lambda insts: insts[:5] + insts[6:], id="missing-middle"),
        ],
    )
    def test_repeated_or_missing_target_fails(self, report_2_3, edit):
        results = self._reverify_edited(report_2_3, "generation-lmod-sphere", edit)
        assert results["generation-lmod-sphere"] is False

    @pytest.mark.parametrize("a, b", [("t1,3", "t1,4"), ("h2", "t2,3"), ("t1,2", "t2,3")])
    def test_swapped_steps_fail(self, report_2_3, a, b):
        def swap(instances):
            pos = {i["lhs"]: n for n, i in enumerate(instances)}
            out = list(instances)
            out[pos[a]], out[pos[b]] = out[pos[b]], out[pos[a]]
            return out

        results = self._reverify_edited(report_2_3, "generation-lmod-sphere", swap)
        assert results["generation-lmod-sphere"] is False

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda i: dict(i, group="sphere"), id="sphere-group"),
            pytest.param(lambda i: dict(i, rhs="h1", expect=False) if i["lhs"] == "h3" else i,
                         id="inequality"),
        ],
    )
    def test_step_must_be_an_equality_in_the_claims_group(self, report_2_3, edit):
        def edit_all(instances):
            return [edit(i) for i in instances]

        results = self._reverify_edited(report_2_3, "generation-lmod-star", edit_all)
        assert results["generation-lmod-star"] is False

    def test_claim_checks_its_own_steps(self, monkeypatch):
        # every nested twist stated as itself: each step is true, none is a proof
        monkeypatch.setattr(theorems, "t_chain_factors", lambda i, j: [f"t{i},{j}"])
        claim = verify_generation("lmod_sphere", Context(2, 3))
        assert claim.status == "fail"
        assert claim.detail == "step t1,3 uses ['t1,3']: not in the basis or earlier"

    def test_tampered_witness_is_caught(self):
        ctx = Context(1, 3)
        claim = verify_generation("lmod_sphere", ctx)
        broken = dict(claim.witness["instances"][0])
        broken["rhs"] = "h1 h1"
        assert not check_instance(broken, ctx)


def _recording_oracle(monkeypatch, refute=None) -> list:
    """Route every group's oracle through a recorder; return the list of
    ``(group, u letters, v letters)`` it sees.  ``refute(group, u, v)`` true
    makes the oracle answer False."""
    seen = []
    for group, eq in list(oracle._EQ.items()):
        def recorded(u, v, ctx, *, budget=None, group=group, eq=eq):
            seen.append((group, u.letters, v.letters))
            if refute and refute(group, u, v):
                return False
            return eq(u, v, ctx, budget=budget)

        monkeypatch.setitem(oracle._EQ, group, recorded)
    return seen


def _sides(inst: dict, ctx: Context) -> tuple:
    return tuple(expand_token_text(inst[side], ctx).letters for side in ("lhs", "rhs"))


# sha256 of each base claim's sorted (group, lhs, rhs, expect) instances at
# n = 1..8, k = 3, as the claims stated them when every instance was stored
# (:func:`_statement_digest`); the shift families must expand to the same.
_STATEMENT_DIGESTS = {
    "oracle-sphere-presentation": "5779fc6b645e94d05936e769a6c03b1e96f7905c4cf96b36aebbc353ff7cd7da",
    "generators-validation": "50a739126d3c450f947a0b71b52299c979d538844b042f73117086c3104ca6dc",
    "relation-twist-conjugation": "c624043c51fcf267307761b3f413f4c25efa58f63362810ad92be6435a6d489d",
    "relation-chain-twist-factorization":
        "1f574cbdd1328228d962d5feb08ba1bed3a0661172abdf085dd27541a52c5586",
    "relation-h-triple-conjugation": "e58dce95fe9ea6c20efd0ad52ad99a64110130884e58ec33d3e00fb4c7ad23c5",
    "relation-hchain-shift": "8c8cb26b1fdfe5ec6c7604479da1b011f6d1276f364bcde02e970965729d6f7c",
    "lemma-r1-factorization": "0682f7aeacc5ee946a983cba5c2db7ebef2c42435f378116334534c634d33144",
    "generation-lmod-sphere": "36a052a5f5b4f1a4c3b64e98dd8055ab8b0150719f5cbeb2cb905efcd13a038c",
    "generation-lmod-star": "bb6a1c20633dc902fc09549383f68596bf5c4d6c38ce5744735e4ebf0c36a6bf",
    "generation-lmod-disk": "0ed9076f9da47f8fd619abb89c83bf2abdaf4504012045202b064a9534aa8b09",
}


def _statement_digest(cid: str) -> str:
    row = theorems._TABLE[cid]
    stated = [
        [n, sorted([i["group"], i["lhs"], i["rhs"], i["expect"]]
                   for i in referees.expand_families(row.statement(Context(n, 3))))]
        for n in range(1, 9) if row.exists(n)
    ]
    return hashlib.sha256(json.dumps(stated).encode()).hexdigest()


def _family(group: str, lhs: str, rhs: str, shifts, expect: bool = True) -> dict:
    return theorems._inst(group, lhs, rhs, expect, shifts)


class TestShiftRule:
    """An entry of ``shifts`` index shifts is decided by the oracle on shift 0 alone."""

    @pytest.mark.parametrize("cid", sorted(_STATEMENT_DIGESTS))
    def test_families_expand_to_the_instances_once_stored(self, cid):
        assert _statement_digest(cid) == _STATEMENT_DIGESTS[cid]

    @pytest.mark.parametrize(
        "n, k", [(n, 3) for n in range(1, 7)] + [(n, k) for n in (1, 2, 3) for k in (4, 5)]
    )
    def test_base_claims_match_the_oracle_alone(self, n, k):
        ctx = Context(n, k)
        for row in theorems._rows(n, section="base"):
            entries = row.statement(ctx)
            count = sum(e["shifts"] for e in entries)
            stored = f" ({len(entries)} stored)" if count > len(entries) else ""
            for budget in (1, 7, 50, 1000, None):
                claim = verify(row.id, ctx, budget)
                assert claim.witness["instances"] == entries
                try:
                    holds = referees.certificate_holds(entries, ctx, budget)
                except BudgetError as exc:
                    want = ("skipped", f"oracle budget exceeded: {exc}")
                else:
                    want = ("pass" if holds else "fail", claim.detail)
                    assert holds and re.fullmatch(f"(.* )?{count} instances{re.escape(stored)}",
                                                  claim.detail)
                assert (claim.status, claim.detail) == want, (row.id, budget)
            # every instance that an entry stands for holds by the oracle alone
            assert referees.certificate_holds(referees.expand_families(entries), ctx), row.id

    @pytest.mark.parametrize("cid", ["relation-chain-twist-factorization", "generation-lmod-sphere",
                                     "oracle-sphere-presentation"])
    def test_the_oracle_runs_once_per_entry_on_shift_0(self, monkeypatch, cid):
        ctx = Context(4, 3)
        seen = _recording_oracle(monkeypatch)
        claim = verify(cid, ctx)
        assert claim.passed, claim.detail
        entries = claim.witness["instances"]
        assert any(e["shifts"] > 1 for e in entries)
        assert seen == [(e["group"], *_sides(e, ctx)) for e in entries]

    @pytest.mark.parametrize(
        "group, lhs, rhs, shifts",
        [
            ("disk", "h1", "s2 s1 s2", 3),
            ("star", "s1 t3,4", "t3,4 s1", 2),
            ("sphere", "h1 t1,2 h1^-1", "t2,3", 3),
            ("sphere", "r1 s1 r1^-1", "s2", 4),
            ("sphere", "r1^-2 h1 r1^(2n+2)", "r1^-2 h1", 4),
            ("disk", "s1^0", "", 4),
        ],
        ids=["disk-h", "star-t", "sphere-t-to-2n+1", "sphere-r1", "sphere-r1-powers", "s-power-0"],
    )
    def test_a_family_in_the_alphabet_holds_with_its_representative(self, group, lhs, rhs, shifts):
        ctx = Context(2, 3)
        entry = _family(group, lhs, rhs, shifts)
        assert check_instance(entry, ctx) and not check_instance(dict(entry, expect=False), ctx)
        assert referees.certificate_holds(referees.expand_families([entry]), ctx)

    def test_a_false_representative_fails_its_claim(self, monkeypatch):
        # s1 s2 != s2 s1, so every shift is an inequality too
        ctx = Context(3, 3)
        entry = _family("disk", "s1 s2", "s2 s1", 5)
        assert not check_instance(entry, ctx)
        assert check_instance(dict(entry, expect=False), ctx)
        assert referees.certificate_holds(referees.expand_families([dict(entry, expect=False)]), ctx)
        claim = self._claim_of(monkeypatch, entry, ctx)
        assert claim.status == "fail"
        assert claim.detail == f"1/1 entries refuted; first: {entry}"

    @staticmethod
    def _claim_of(monkeypatch, entry: dict, ctx: Context) -> theorems.Claim:
        """The claim of a new base row that states ``entry`` alone, made by :func:`verify`."""
        row = theorems._Row("new-family", entry["group"], "base", "certificate", lambda ctx: [entry])
        monkeypatch.setitem(theorems._TABLE, row.id, row)
        return verify(row.id, ctx)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (_family("disk", "h1", "s2 s1 s2", 5), "takes letter 6 past sigma_4"),
            (_family("disk", "h1^2", "h1 h1", 4), "takes letter 5 past sigma_4"),
            (_family("sphere", "s1 s3", "s3 s1", 4), "takes letter 6 past sigma_5"),
            (_family("sphere", "t1,4", " ".join(t_chain_factors(1, 4)), 3),
             "token 't1,4' does not shift 2 times in the sphere group"),
            (_family("disk", "s1", "s1", 0), "shifts must be an integer >= 1, got 0"),
            (_family("disk", "s1", "s1", True), "shifts must be an integer >= 1, got True"),
            (_family("disk", "s1", "s1", "2"), "shifts must be an integer >= 1, got '2'"),
            (_family("sphere", "r s1 r^-1", "s5", 2), "token 'r' does not shift"),
            (_family("disk", "F", "h1^-1", 2), "token 'F' does not shift"),
            (_family("disk", "hchain_t^-1 h1 hchain_t", "h3", 2), "token 'hchain_t^-1' does not"),
            (_family("sphere", "t3,6", "t1,2", 2), "token 't3,6' does not shift"),
            (_family("sphere", "t2,6", "", 2), "token 't2,6' does not shift"),
            (_family("disk", "r1 s1 r1^-1", "s2", 2), "token 'r1' does not shift 1 times in the disk"),
            (_family("star", "r1^(2n+2)", "", 2), "token 'r1^(2n+2)' does not shift"),
            (_family("homology", "r1 t1,2", "t2,3 r1", 2), "a homology entry does not shift"),
        ],
        ids=["past-the-disk-alphabet", "h-past-the-disk-alphabet", "past-the-sphere-alphabet",
             "t-past-2n+1", "zero",
             "bool", "text", "r", "F", "hchain_t", "t-to-2n+2", "t-to-2n+2-trivial", "r1-in-disk",
             "r1-in-star", "homology"],
    )
    def test_a_family_that_does_not_shift_is_malformed(self, monkeypatch, entry, message):
        ctx = Context(2, 3)
        with pytest.raises(WordSyntaxError, match=re.escape(message)):
            check_instance(entry, ctx)
        claim = self._claim_of(monkeypatch, entry, ctx)
        assert claim.status == "fail" and claim.detail.startswith("malformed entry: "), claim.detail

    def test_a_huge_shift_count_fails_before_any_letter_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a letter was built")

        monkeypatch.setattr(generators, "_parse_token", refuse)
        generators._token_memo.cache_clear()
        try:
            entry = _family("disk", "s1^1000000000000", "", 10**18)
            with pytest.raises(WordSyntaxError, match=f"shift {10**18 - 1} of .* past sigma_4"):
                check_instance(entry, Context(2, 3), budget=5)
        finally:
            generators._token_memo.cache_clear()

    def test_an_r1_family_needs_r1_to_be_delta(self, monkeypatch):
        ctx = Context(2, 3)
        entry = _family("sphere", "r1 s1 r1^-1", "s2", 4)
        assert check_instance(entry, ctx)
        monkeypatch.setattr(generators, "gen_r1",
                            lambda ctx: Word(ctx, tuple(range(ctx.num_arcs, 0, -1))))
        monkeypatch.setitem(generators._WORDS, "r1", generators.gen_r1)
        generators._token_memo.cache_clear()
        try:
            with pytest.raises(WordSyntaxError, match="r1 is not sigma_1 ... sigma_"):
                check_instance(entry, ctx)
            assert check_instance(dict(entry, shifts=1), ctx, None) is False  # shift 0 alone
            claim = verify("generators-validation", ctx)
        finally:
            generators._token_memo.cache_clear()
        assert claim.status == "fail" and claim.detail.startswith("malformed entry: r1 is not")

    @pytest.mark.parametrize("budget", [5, 11, 12])
    def test_budget_errors_keep_their_text(self, budget):
        # t1,3 = h1^2 is 6 + 6 letters, and the cyclic core of u v^-1 is 6
        ctx = Context(2, 3)
        for group in ("disk", "star", "sphere"):
            entry = _family(group, "t1,3", "h1^2", 3)
            try:
                want = referees.certificate_holds([entry], ctx, budget)
            except BudgetError as exc:
                with pytest.raises(BudgetError) as info:
                    check_instance(entry, ctx, budget)
                assert str(info.value) == str(exc), group
            else:
                assert check_instance(entry, ctx, budget) is want, group

    @pytest.mark.parametrize("budget, runs", [(12, 1), (5, 0)])
    def test_the_shift_waits_for_the_budget(self, monkeypatch, budget, runs):
        # t1,3 = h1^2 is 6 + 6 letters: the one run on shift 0 decides the
        # family within a budget of 12, in the sphere group too, where no
        # shift is rewritten to the star group; a budget of 5 stops that run
        ctx = Context(2, 3)
        for group in ("disk", "sphere"):
            seen = _recording_oracle(monkeypatch)
            entry = _family(group, "t1,3", "h1^2", 3)
            if runs:
                assert check_instance(entry, ctx, budget)
            else:
                with pytest.raises(BudgetError, match="token 't1,3' takes word text to 6 letters"):
                    check_instance(entry, ctx, budget)
            assert len(seen) == runs, group
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "group, n, first, second",
        [
            ("sphere", 2, ("t2,5", "t2,5"), ("t3,6", "t3,6")),  # t3,6 is t1,2, not a shift
            ("disk", 3, ("hchain_t^-1 h1 hchain_t", "h3"), ("hchain_t^-1 h2 hchain_t", "h4")),
            ("sphere", 2, ("h2", "r1 h1 r1^-1"), ("h3", "r1 h2 r1^-1 r1 r1^-1")),
        ],
        ids=["t-to-2n+2", "named-token", "rotation-written-differently"],
    )
    def test_a_near_shift_goes_to_the_oracle(self, monkeypatch, group, n, first, second):
        # an entry of one shift is decided by its own run, whatever came before it
        ctx = Context(n, 3)
        seen = _recording_oracle(monkeypatch)
        for lhs, rhs in (first, second):
            entry = _family(group, lhs, rhs, 1)
            assert check_instance(entry, ctx)
            assert seen[-1:] == [(group, *_sides(entry, ctx))]
        assert len(seen) == 2

    def test_a_shift_past_sigma_2n_in_the_disk_group_goes_to_the_oracle(self, monkeypatch):
        ctx = Context(2, 3)
        seen = _recording_oracle(monkeypatch)
        assert check_instance(_family("disk", "h3", "s3 s4 s3", 1), ctx)
        assert check_instance(_family("disk", "s1 s3", "s3 s1", 2), ctx)
        assert len(seen) == 2
        with pytest.raises(ValueError, match="outside the disk alphabet"):
            check_instance(_family("disk", "h4", "s4 s5 s4", 1), ctx)
        assert len(seen) == 3
        with pytest.raises(WordSyntaxError, match="takes letter 5 past sigma_4"):
            check_instance(_family("disk", "h3", "s3 s4 s3", 2), ctx)
        assert len(seen) == 3

    def test_a_rotation_past_the_alphabet_goes_to_the_oracle(self, monkeypatch):
        seen = _recording_oracle(monkeypatch)
        ctx = Context(2, 3)
        assert check_instance(_family("sphere", "h2", "r1 h1 r1^-1", 3), ctx) and len(seen) == 1
        with pytest.raises(WordSyntaxError, match="letter 6 out of range"):
            check_instance(_family("sphere", "s6", "r1 s5 r1^-1", 1), ctx)
        with pytest.raises(WordSyntaxError, match="takes letter 6 past sigma_5"):
            check_instance(_family("sphere", "s5", "r1 s4 r1^-1", 2), ctx)
        assert len(seen) == 1

    def test_exponents_are_part_of_the_key(self, monkeypatch):
        # each family is decided by its own run, and its shifts keep every exponent
        seen = _recording_oracle(monkeypatch)
        ctx = Context(2, 3)
        entries = [_family("disk", "s1 s2", "s2 s1", 3, False),
                   _family("disk", "s2^0 s3", "s3 s2^0", 2)]
        assert all(check_instance(e, ctx) for e in entries)
        assert len(seen) == 2
        assert [i["lhs"] for i in referees.expand_families(entries)] == [
            "s1 s2", "s2 s3", "s3 s4", "s2^0 s3", "s3^0 s4"]

    @pytest.mark.parametrize("group", ["disk", "star", "sphere"])
    def test_a_shift_is_decided_once_for_either_verdict(self, monkeypatch, group):
        ctx = Context(3, 3)
        seen = _recording_oracle(monkeypatch)
        assert check_instance(_family(group, "s1 t2,3", "t2,3 s1", 5, False), ctx)
        assert check_instance(_family(group, "h1", "s2 s1 s2", 5), ctx)
        assert len(seen) == 2


class TestBurauReferee:
    """Every true disk-group instance holds in the unreduced Burau
    representation over F_p, at a seeded t and vector."""

    @staticmethod
    def _vectors(inst: dict, ctx: Context, t: int, v) -> tuple:
        return tuple(referees.burau_vector(referees.expand_token_text(inst[side], ctx).letters, t, v)
                     for side in ("lhs", "rhs"))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_true_disk_instances_agree_and_an_appended_square_is_caught(self, n, record_property):
        ctx = Context(n, 3)
        rng = random.Random(n)
        t = rng.randrange(2, referees.BURAU_P - 1)
        v = [rng.randrange(referees.BURAU_P) for _ in range(ctx.num_arcs)]
        instances = [
            i for row in theorems._rows(n, section="base")
            for i in referees.expand_families(row.statement(ctx)) if i["group"] == "disk"
        ]
        true = [i for i in instances if i["expect"]]
        assert true
        for inst in true:
            lhs, rhs = self._vectors(inst, ctx, t, v)
            assert lhs == rhs, inst
            if n >= 2:
                wrong = self._vectors(dict(inst, rhs=f"{inst['rhs']} s3 s3"), ctx, t, v)
                assert wrong[0] != wrong[1], inst
        # a match on an inequality proves nothing, since Burau is not faithful,
        # so matches are counted, not asserted (no disk claim states one today)
        matches = sum(len(set(self._vectors(i, ctx, t, v))) == 1
                      for i in instances if not i["expect"])
        record_property("burau_matches_on_inequalities", matches)

    def test_the_burau_matrices_satisfy_the_braid_relations(self):
        ctx, rng = Context(2, 3), random.Random(0)
        t = rng.randrange(2, referees.BURAU_P - 1)
        v = [rng.randrange(referees.BURAU_P) for _ in range(ctx.num_arcs)]
        for u, w in [((1, 2, 1), (2, 1, 2)), ((1, 3), (3, 1)), ((1, -1), ()), ((-2, 2, 4), (4,))]:
            assert referees.burau_vector(u, t, v) == referees.burau_vector(w, t, v), (u, w)
        assert referees.burau_vector((1, 2), t, v) != referees.burau_vector((2, 1), t, v)


class TestVerdicts:
    """reverify_report re-derives every claim that ran, on the run's own verdict path."""

    @pytest.mark.parametrize(
        "n, k, bounds",
        [(1, 3, None), (2, 3, None), (6, 6, Bounds(base_n=0))],
        ids=["1-3", "2-3", "6-6-base-n-0"],
    )
    def test_every_flipped_status_fails_that_claim_alone(self, n, k, bounds):
        report = run_all(n, k, bounds=bounds).to_dict()
        ran = [c["id"] for c in report["claims"] if c["status"] != "skipped"]
        assert dict(reverify_report(report)) == dict.fromkeys(ran, True)
        for cid in ran:
            cut = json.loads(json.dumps(report))
            next(c for c in cut["claims"] if c["id"] == cid)["status"] = "fail"
            results = dict(reverify_report(cut))
            assert results.pop(cid) is False, cid
            assert all(results.values()), cid

    def test_all_21_claims_reverify_at_2_3(self, report_2_3):
        results = reverify_report(report_2_3)
        assert [cid for cid, _ in results] == [c["id"] for c in report_2_3["claims"]]
        assert len(results) == 21 and all(ok for _, ok in results)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda c: c.update(id="cover-genus"), id="invented-id"),
            pytest.param(lambda c: c.update(group="sphere"), id="wrong-group"),
            pytest.param(lambda c: c.update(id="smod-r1-lift-consistency"), id="id-not-at-this-n"),
        ],
    )
    def test_claim_outside_the_table_fails(self, report_2_3, edit):
        cut = json.loads(json.dumps(report_2_3))
        cut["claims"].append(dict(cut["claims"][-1], witness=None))
        edit(cut["claims"][-1])
        results = reverify_report(cut)
        assert results[-1] == (cut["claims"][-1]["id"], False)
        assert all(ok for _, ok in results[:-1])

    @pytest.mark.parametrize(
        "cid", ["oracle-sphere-presentation", "liftability-w-size", "cover-deck-rotation"]
    )
    def test_claim_listed_twice_fails_each_repeat(self, report_2_3, cid):
        cut = json.loads(json.dumps(report_2_3))
        claim = next(c for c in cut["claims"] if c["id"] == cid)
        cut["claims"] += [claim, claim]
        results = reverify_report(cut)
        assert results[-2:] == [(cid, False), (cid, False)]
        assert len(results) == 23 and all(ok for _, ok in results[:-2])

    def test_computed_claims_rerun_at_their_own_n_and_k(self):
        def claim(cid, n, k, bounds=None):
            return next(c for c in run_all(n, k, bounds=bounds).to_dict()["claims"]
                        if c["id"] == cid)

        base0 = Bounds(base_n=0)
        bundle = {"header": {}, "claims": [
            claim("cover-deck-rotation", 2, 3, base0),
            claim("cover-deck-rotation", 1, 4, base0),
            claim("smod-chain-pattern", 1, 5, base0),
            claim("liftability-curve-lifts", 3, 4, base0),
            dict(claim("liftability-w-size", 3, 3, base0), n=4),  # skipped at n = 4
            dict(claim("cover-deck-rotation", 1, 4, base0), status="fail"),
        ]}
        assert [ok for _, ok in reverify_report(bundle)] == [True, True, True, True, False, False]

    def test_reverify_runs_each_computed_check_once(self, report_2_3, monkeypatch):
        calls = Counter()
        computed = [row for row in theorems._TABLE.values() if row.kind == "computed"]
        for row in computed:
            def counted(ctx, cid=row.id, check=row.make):
                calls[cid] += 1
                return check(ctx)

            monkeypatch.setitem(theorems._TABLE, row.id, row._replace(make=counted))
        assert all(ok for _, ok in reverify_report(report_2_3))
        assert len(calls) == 7 and calls == Counter(row.id for row in computed)
        calls.clear()
        build = next(c for c in report_2_3["claims"] if c["id"] == "cover-build")
        assert reverify_report({"header": {}, "claims": [build]}) == [("cover-build", True)]
        assert calls == Counter(["cover-build"])

    @pytest.mark.parametrize(
        "report, failing",
        [
            ({"header": {}, "claims": ["x"]}, None),
            ({"header": {"n": 1}, "claims": [None]}, None),
            ({"claims": []}, None),
            ({"header": {"n": "x"}, "claims": []}, None),
            ({"header": {}, "claims": 5}, None),
            ([], None),
            (_claims_with_n_true, "oracle-sphere-presentation"),
        ],
        ids=["claim-text", "claim-null", "no-header", "header-n-text", "claims-not-a-list",
             "report-not-an-object", "claim-n-true"],
    )
    def test_malformed_report_fails(self, report, failing):
        results = reverify_report(report() if callable(report) else report)
        assert (failing, False) in results
        assert not any(ok for _, ok in results)

    def test_overflowing_instance_fails_its_claim_alone(self, report_2_3, few_products):
        cut = json.loads(json.dumps(report_2_3))
        claim = next(c for c in cut["claims"] if c["id"] == "smod-deck-normalization")
        claim["witness"]["instances"][0]["lhs"] = "t1,2^1000000000000000000 zeta"
        results = dict(reverify_report(cut))
        assert results.pop("smod-deck-normalization") is False
        assert all(results.values())


class TestRunAll:
    def test_all_green_small(self):
        report = run_all(1, 3)
        assert report.all_passed
        ids = [c.id for c in report.claims]
        assert ids == sorted(set(ids), key=ids.index)  # no duplicates
        assert "oracle-sphere-presentation" in ids[0]

    def test_bounds_skip_policy(self):
        report = run_all(5, 3, bounds=Bounds(base_n=4, homology_n=4))
        skipped = {c.id for c in report.claims if c.status == "skipped"}
        assert "generation-lmod-sphere" in skipped
        assert "smod-deck-factorization" in skipped
        assert report.all_passed  # skipped claims do not fail the run

    def test_default_homology_bounds_reach_10_10(self):
        report = run_all(10, 10, bounds=Bounds(base_n=0))
        homology = [c for c in report.claims if c.id.startswith("smod-")]
        assert homology and all(c.passed for c in homology)

    @pytest.mark.parametrize("field", ["base_n", "homology_n", "homology_k"])
    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_bounds_must_be_integers_at_least_0(self, field, value):
        with pytest.raises(ValueError, match=field):
            Bounds(**{field: value})
        assert getattr(Bounds(**{field: 0}), field) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_skip_path_lists_the_run_path_ids(self, n):
        ran = run_all(n, 3)
        skipped = run_all(n, 3, bounds=Bounds(base_n=0, homology_n=0))
        assert [c.id for c in skipped.claims] == [c.id for c in ran.claims]
        assert [c.group for c in skipped.claims] == [c.group for c in ran.claims]
        table = [(row.id, row.group) for row in theorems._rows(n)]
        assert [(c.id, c.group) for c in ran.claims] == table

    def test_a_new_row_in_each_section_runs_skips_and_reverifies(self, monkeypatch):
        rows = list(theorems._TABLE.values())
        for section in ("base", "liftability", "cover", "homology"):
            end = max(i for i, row in enumerate(rows) if row.section == section) + 1
            rows[end:end] = [
                theorems._Row(f"new-{section}-certificate", "disk", section, "certificate",
                              theorems._single("disk", "h1", "s2 s1 s2")),
                theorems._Row(f"new-{section}-computed", "sphere", section, "computed",
                              lambda ctx: (True, f"checked at n = {ctx.n}")),
            ]
        monkeypatch.setattr(theorems, "_TABLE", {row.id: row for row in rows})
        added = {row.id for row in rows if row.id.startswith("new-")}
        assert len(added) == 8
        ran = run_all(2, 3)
        table = [row.id for row in rows if row.exists(2)]
        assert [c.id for c in ran.claims] == table
        assert all(c.passed for c in ran.claims if c.id in added)
        results = reverify_report(ran)
        assert len(results) == 29 and all(ok for _, ok in results)
        skipped = run_all(2, 3, bounds=Bounds(base_n=0, homology_n=0))
        over = {c.id for c in skipped.claims if c.status == "skipped"}
        bounded = {row.id for row in rows if row.section in ("base", "homology")}
        assert over == bounded & set(table)
        assert [c.id for c in skipped.claims] == table
        assert all(ok for _, ok in reverify_report(skipped))
        missing = dict(ran.to_dict(), claims=[c.to_dict() for c in ran.claims
                                              if c.id != "new-homology-computed"])
        assert ("new-homology-computed", False) in reverify_report(missing)

    def test_base_and_liftability_rows_need_k_at_least_3(self):
        # at k = 2 every mapping class lifts, so the W rows would state the wrong group
        ctx = Context(2, 2)
        for row in theorems._rows(2):
            if row.section in ("base", "liftability"):
                with pytest.raises(ValueError, match="needs k >= 3; at k = 2 every mapping class"):
                    verify(row.id, ctx)
            else:
                assert verify(row.id, ctx).passed, row.id
        with pytest.raises(ValueError, match="'oracle-sphere-presentation' needs k >= 3"):
            run_all(2, 2)
        with pytest.raises(ValueError, match="'liftability-w-size' needs k >= 3"):
            run_all(2, 2, bounds=Bounds(base_n=0))

    def test_a_hand_made_k2_report_fails_its_w_rows(self):
        report = run_all(2, 3).to_dict()
        report["header"]["k"] = 2
        for cdict in report["claims"]:
            cdict["k"] = 2
        results = dict(reverify_report(report))
        w_rows = ["generation-lmod-sphere", "generation-lmod-star", "generation-lmod-disk",
                  "liftability-w-size", "liftability-w-generation"]
        assert all(results[cid] is False for cid in w_rows)
        # the cover rows keep k = 2
        cover_rows = [verify(row.id, Context(2, 2)).to_dict() for row in theorems._rows(2)
                      if row.section == "cover"]
        bundle = {"header": {}, "claims": cover_rows}
        assert reverify_report(bundle) == [(c["id"], True) for c in cover_rows]

    def test_header_mentions_conventions(self):
        report = run_all(1, 3)
        assert "rightmost" in report.header["composition"]
        assert report.header["budget_letters"] > 0
        text = report.render_text()
        assert "PASS" in text and "conventions:" in text


def _w_generation(ctx: Context):
    return next(c for c in verify_liftability(ctx) if c.id == "liftability-w-generation")


class TestWGeneration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_passes_with_both_orders(self, n):
        claim = _w_generation(Context(n, 3))
        assert claim.passed, claim.detail
        w, stab = 2 * factorial(n + 1) ** 2, factorial(n + 1) * factorial(n)
        assert f"= W: order {w}, 2 blocks" in claim.detail
        assert f"= Stab_W(2n+2): order {stab}, 3 blocks" in claim.detail

    @pytest.fixture
    def edit_basis(self, monkeypatch):
        """Replace a basis's tokens by ``edit(tokens, ctx)`` in the claim."""

        def install(basis, edit):
            real = theorems._basis_tokens
            monkeypatch.setattr(
                theorems,
                "_basis_tokens",
                lambda b, ctx: edit(real(b, ctx), ctx) if b == basis else real(b, ctx),
            )

        return install

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dropping_r1_fails(self, edit_basis, n):
        edit_basis("sphere", lambda tokens, ctx: [t for t in tokens if t != "r1"])
        claim = _w_generation(Context(n, 3))
        assert claim.status == "fail"
        # psi{h1, t1,2} is generated by the one swap (1 3)
        assert "psi{h1, t1,2} != W: order 2," in claim.detail

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parity_preserving_part_alone_fails(self, edit_basis, n):
        # every h_i instead of r1: right blocks, order ((n+1)!)^2 = |W| / 2
        edit_basis(
            "sphere",
            lambda tokens, ctx: [f"h{i}" for i in range(1, 2 * ctx.n + 1)] + ["t1,2"],
        )
        claim = _w_generation(Context(n, 3))
        assert claim.status == "fail"
        assert f"!= W: order {factorial(n + 1) ** 2}, 2 blocks" in claim.detail

    @pytest.mark.parametrize("basis", ["sphere", "star"])
    def test_adding_s1_merges_blocks_and_fails(self, edit_basis, basis):
        edit_basis(basis, lambda tokens, ctx: tokens + ["s1"])
        claim = _w_generation(Context(2, 3))
        assert claim.status == "fail"
        blocks = 1 if basis == "sphere" else 2
        assert f"s1}} != " in claim.detail and f"{blocks} blocks" in claim.detail


# the parts of the cover-deck-rotation check, as cover.deck_rotation_failure names them
_SHEET_SHIFT = "zeta does not shift every lift c_{i,l} to c_{i,l+1}"
_ZERO_SUMS = "the lifts c_{i,1..k} of some gamma_i do not sum to 0"
_UNIMODULAR = "the Gram matrix of B = {c_{i,l} : i <= 2n, l < k} is not unimodular"


class TestLiftTableClaims:
    """The chain-pattern and deck-rotation checks on the lift table against
    their former loops (:mod:`referees`)."""

    @pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (2, 3), (3, 4), (5, 7), (8, 5)])
    def test_chain_pattern_from_the_gram_is_the_per_chain_loop(self, n, k):
        ctx = Context(n, k)
        assert referees.chain_pattern(cover.build_cover(ctx)) == []
        assert theorems._chain_pattern(ctx) == (True, (
            "homology-level (necessary condition only): "
            f"alternating lifted families are (2k-1)-chains (k={k})"))

    @staticmethod
    def _flip_gram(monkeypatch, S, table, flip) -> np.ndarray:
        """Patch the surface's table to ``table`` with ``G[a, b] = value = -G[b, a]``
        for each ``(a, b, value)`` of ``flip``; the patched ``G``."""
        G = table.G.copy()
        for a, b, value in flip:
            G[a, b], G[b, a] = value, -value
        monkeypatch.setitem(vars(S), "table", table._replace(G=G))
        return G

    def test_a_flipped_gram_pairing_fails_the_chain_pattern(self, monkeypatch):
        ctx, k = Context(2, 3), 3
        S = cover.build_cover(ctx)
        table = S.table
        # rows 0 and k, the first lifts of gamma_1 and gamma_2, are neighbours in
        # the h1 chain; rows 0 and 2k, of gamma_1 and gamma_3, must be disjoint
        flips = [[(0, k, 0)], [(0, 2 * k, 1)],
                 [(0, k, 0), (2, 4 * k, -1), (k + 1, 3 * k, 1), (0, 4 * k, 1), (1, 2 * k, 1)]]
        for flip in flips:
            G = self._flip_gram(monkeypatch, S, table, flip)
            assert referees.chain_pattern(S, G)
            entries = sorted({(a, b) for x, y, _ in flip for a, b in ((x, y), (y, x))})
            want = [(a // k + 1, a % k + 1, b // k + 1, b % k + 1, int(G[a, b]), int(table.G[a, b]))
                    for a, b in entries]
            ok, detail = theorems._chain_pattern(ctx)
            assert not ok and detail.endswith(f"violations: {want[:4]}"), (detail, want)
            assert cover.chain_pattern_violations(S) == want
        # (i, l, j, m, got, want) for c_{i,l} and c_{j,m}, in row order
        assert want == [(1, 1, 2, 1, 0, 1), (1, 1, 5, 1, 1, 0), (1, 2, 3, 1, 1, 0),
                        (1, 3, 5, 1, -1, 0), (2, 1, 1, 1, 0, -1), (2, 2, 4, 1, 1, 0),
                        (3, 1, 1, 2, -1, 0), (4, 1, 2, 2, -1, 0), (5, 1, 1, 1, -1, 0),
                        (5, 1, 1, 3, 1, 0)]

    @pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (2, 3), (3, 4)])
    def test_a_sign_flip_on_a_neighbour_pairing_fails_the_chain_pattern(self, monkeypatch, n, k):
        # c_{1,1} and c_{2,1} pair to +1; -1 keeps the unsigned pattern
        ctx = Context(n, k)
        S = cover.build_cover(ctx)
        assert S.table.G[0, k] == 1
        G = self._flip_gram(monkeypatch, S, S.table, [(0, k, -1)])
        assert referees.chain_pattern(S, G) == []
        assert cover.chain_pattern_violations(S) == [(1, 1, 2, 1, -1, 1), (2, 1, 1, 1, 1, -1)]
        assert verify("smod-chain-pattern", ctx).status == "fail"

    @staticmethod
    def _zeta_as(monkeypatch, M) -> None:
        """Read ``M`` as the lift of ``zeta``."""
        lift_rep = cover.lift_rep
        monkeypatch.setattr(cover, "lift_rep", lambda S, kind, index=None:
                            M.copy() if kind == "zeta" else lift_rep(S, kind, index))

    @pytest.mark.parametrize("k", range(2, 13))
    def test_deck_order_by_doubling_is_the_power_loop(self, monkeypatch, k):
        # the sheet shift pins zeta on a basis, so only zeta itself passes;
        # every matrix that the power loop rejects fails
        S = cover.build_cover(Context(1, k))
        zeta = cover.lift_rep(S, "zeta")
        ident = np.eye(len(zeta), dtype=np.int64)
        for M in [zeta, cover.mul(zeta, zeta), ident, -ident, -zeta]:
            with monkeypatch.context() as m:
                self._zeta_as(m, M)
                got = cover.deck_rotation_failure(S) is None
            want = referees.fixed_point_free_of_order(M, k)
            assert got == np.array_equal(M, zeta) and (want or not got), (got, want)
        assert cover.deck_rotation_failure(S) is None

    def test_a_smaller_order_with_a_zero_power_sum_fails(self, monkeypatch):
        # -I has order 2, so I - I + I - I = 0 although (-I)^2 = I: the power
        # loop tells order 2 from order 4, and so does the sheet shift
        M = -np.eye(4, dtype=np.int64)
        assert not referees.fixed_point_free_of_order(M, 4)
        assert referees.fixed_point_free_of_order(M, 2)
        S = cover.build_cover(Context(1, 4))
        self._zeta_as(monkeypatch, -np.eye(S.h1_rank, dtype=np.int64))
        assert cover.deck_rotation_failure(S) == _SHEET_SHIFT

    def test_a_table_of_doubled_curves_fails_the_basis_check(self, monkeypatch):
        # 2 c_{i,l} still shift by one sheet and sum to 0, but their Gram
        # matrix is 4 G_B, so they are not a Z-basis
        ctx = Context(2, 3)
        S = cover.build_cover(ctx)
        table = S.table
        monkeypatch.setitem(vars(S), "table", table._replace(C=2 * table.C, G=4 * table.G))
        assert verify("cover-deck-rotation", ctx).status == "fail"

    @pytest.mark.parametrize("n", [1, 2])
    def test_lifts_that_do_not_sum_to_zero_fail(self, monkeypatch, n):
        # at k = 2, with both lifts of each gamma_i equal to the first, the
        # identity shifts them and the first lifts are still a basis
        S = cover.build_cover(Context(n, 2))
        table, same = S.table, np.arange(len(S.table.C)) // 2 * 2
        monkeypatch.setitem(vars(S), "table", table._replace(C=table.C[same],
                                                             G=table.G[same[:, None], same]))
        self._zeta_as(monkeypatch, np.eye(S.h1_rank, dtype=np.int64))
        assert cover.deck_rotation_failure(S) == _ZERO_SUMS

    @pytest.mark.parametrize("part", [_SHEET_SHIFT, _ZERO_SUMS, _UNIMODULAR])
    def test_a_failing_deck_rotation_names_the_part_that_failed(self, monkeypatch, part):
        # each part in turn fails while the parts before it hold
        ctx = Context(1, 2)
        S = cover.build_cover(ctx)
        table, ident = S.table, np.eye(S.h1_rank, dtype=np.int64)
        if part == _SHEET_SHIFT:
            self._zeta_as(monkeypatch, ident)
        elif part == _ZERO_SUMS:  # both lifts of each gamma_i are the first, so I shifts them
            same = np.arange(len(table.C)) // 2 * 2
            monkeypatch.setitem(vars(S), "table", table._replace(C=table.C[same],
                                                                 G=table.G[same[:, None], same]))
            self._zeta_as(monkeypatch, ident)
        else:  # doubled curves still shift and sum to 0, but their Gram matrix is 4 G_B
            monkeypatch.setitem(vars(S), "table", table._replace(C=2 * table.C, G=4 * table.G))
        assert cover.deck_rotation_failure(S) == part
        claim = verify("cover-deck-rotation", ctx)
        assert (claim.status, claim.detail) == ("fail", f"deck rotation check failed: {part}")

    @pytest.mark.parametrize("n, k", [(1, 3), (1, 5), (2, 3), (2, 7)])
    def test_a_zeta_that_shifts_by_two_sheets_fails(self, monkeypatch, n, k):
        # at odd k, zeta^2 has exact order k and no fixed vector
        ctx = Context(n, k)
        zeta2 = cover.lift_product(cover.build_cover(ctx), "zeta^2")
        assert referees.fixed_point_free_of_order(zeta2, k)
        self._zeta_as(monkeypatch, zeta2)
        assert verify("cover-deck-rotation", ctx).status == "fail"
