"""Claims, certificates, and report round-trips."""

import json
from functools import partial
from math import factorial

import pytest

from superelliptic import Context, eq_sphere, eq_star, liftability, theorems
from superelliptic.generators import expand_token_text, factors_to_tokens, gen_t
from superelliptic.theorems import (
    Bounds,
    Report,
    check_instance,
    generation_words,
    reverify_report,
    run_all,
    verify_chain_pattern,
    verify_factorization_r1,
    verify_generation,
    verify_generator_validations,
    verify_liftability,
    verify_oracle_presentation,
    verify_relations,
    verify_smod_homology,
)


def _generation_word(group: str, target: str, ctx: Context) -> list:
    return dict(generation_words(group, ctx))[target]


class TestExpress:
    def test_h3_over_sphere_basis(self):
        ctx = Context(2, 3)
        word = _generation_word("lmod_sphere", "h3", ctx)
        assert word == [("r1", (), 2), ("h", (1,), 1), ("r1", (), -2)]
        assert eq_sphere(
            expand_token_text(factors_to_tokens(word), ctx),
            expand_token_text("h3", ctx),
            ctx,
        )

    def test_adjacent_twist_over_sphere_basis(self):
        ctx = Context(2, 3)
        word = _generation_word("lmod_sphere", "t2,3", ctx)
        assert word == [("h", (1,), 1), ("t", (1, 2), 1), ("h", (1,), -1)]

    def test_star_t12_expansion(self):
        ctx = Context(2, 3)
        word = _generation_word("lmod_star", "t1,2", ctx)
        assert word[-1][0] == "hchain_t"
        assert eq_star(
            expand_token_text(factors_to_tokens(word), ctx),
            gen_t(1, 2, ctx),
            ctx,
        )

    def test_star_basis_n1_is_trivial(self):
        words = generation_words("lmod_star", Context(1, 3))
        assert words == [("h1", [("h", (1,), 1)]), ("t1,2", [("t", (1, 2), 1)])]

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            generation_words("lmod_torus", Context(2, 3))

    def test_target_lists(self):
        ctx = Context(2, 3)
        sphere = [target for target, _ in generation_words("lmod_sphere", ctx)]
        assert "h4" in sphere and "r1" in sphere
        assert "t1,5" not in sphere  # boundary-parallel twist is excluded
        assert "t1,4" in sphere
        star = [target for target, _ in generation_words("lmod_star", Context(1, 3))]
        assert star == ["h1", "t1,2"]


class TestVerifiers:
    @pytest.mark.parametrize("n", [1, 2])
    def test_presentation_suite(self, n):
        claim = verify_oracle_presentation(Context(n, 3))
        assert claim.passed, claim.detail

    @pytest.mark.parametrize("n", [1, 2])
    def test_generator_validation_claim(self, n):
        assert verify_generator_validations(Context(n, 3)).passed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relations(self, n):
        for claim in verify_relations(Context(n, 3)):
            assert claim.passed, (claim.id, claim.detail)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factorization(self, n):
        assert verify_factorization_r1(Context(n, 3)).passed

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("group", ["lmod_sphere", "lmod_star", "lmod_disk"])
    def test_generation(self, n, group):
        ctx = Context(n, 3)
        claim = verify_generation(group, ctx)
        assert claim.passed, claim.detail
        # one confirmed witness word per standard generator
        instances = claim.witness["instances"]
        targets = [target for target, _ in generation_words(group, ctx)]
        assert [i["lhs"] for i in instances] == targets
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

    def test_chain_pattern(self):
        assert verify_chain_pattern(Context(1, 3)).passed

    @pytest.mark.parametrize(
        "verify",
        [
            verify_factorization_r1,
            verify_generator_validations,
            verify_oracle_presentation,
            verify_relations,
            pytest.param(partial(verify_generation, "lmod_sphere"), id="verify_generation"),
        ],
    )
    def test_budget_exhaustion_marks_skipped(self, verify):
        claims = verify(Context(3, 3), budget=5)
        claims = claims if isinstance(claims, list) else [claims]
        assert claims
        for claim in claims:
            assert claim.status == "skipped", (claim.id, claim.detail)
            assert claim.detail.startswith("oracle budget exceeded: ")
            if claim.id in theorems._WITNESS_CLAIMS:
                assert claim.witness["instances"], claim.id


class TestCertificates:
    def test_instances_reverify_individually(self):
        ctx = Context(2, 3)
        claim = verify_generation("lmod_sphere", ctx)
        for inst in claim.witness["instances"]:
            assert check_instance(inst, ctx)

    def test_report_roundtrip_and_reverify(self, tmp_path):
        report = run_all(1, 3)
        assert report.all_passed
        path = tmp_path / "report.json"
        path.write_text(report.to_json())
        loaded = Report.from_dict(json.loads(path.read_text()))
        assert loaded.to_dict() == report.to_dict()
        results = reverify_report(json.loads(path.read_text()))
        assert results and all(ok for _, ok in results)

    @pytest.fixture(scope="class")
    def report_2_3(self):
        return run_all(2, 3).to_dict()

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
        gone = {"smod-chain-pattern", "generators-validation"}
        cut = json.loads(json.dumps(report_2_3))
        cut["claims"] = [c for c in cut["claims"] if c["id"] not in gone]
        results = reverify_report(cut)
        assert {cid for cid, ok in results if not ok} == gone

    def test_header_claim_mismatch_is_caught(self, report_2_3):
        cut = json.loads(json.dumps(report_2_3))
        cut["header"]["n"] = 7
        results = reverify_report(cut)
        assert len(results) == len(cut["claims"])
        assert not any(ok for _, ok in results)

    def test_tampered_witness_is_caught(self):
        ctx = Context(1, 3)
        claim = verify_generation("lmod_sphere", ctx)
        broken = dict(claim.witness["instances"][0])
        broken["rhs"] = "h1 h1"
        assert not check_instance(broken, ctx)


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
