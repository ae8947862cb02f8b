"""Named generator words and their oracle-backed validation suites."""

import random

import pytest

from superelliptic import Context, Word, eq_disk, eq_sphere, psi
from superelliptic.errors import BudgetError, WordSyntaxError
from superelliptic.generators import (
    F_factors,
    expand_token_text,
    factors_to_tokens,
    gen_F,
    gen_h,
    gen_hchain_t,
    gen_r,
    gen_r1,
    gen_t,
    t_chain_factors,
    validate_named_generators,
)

CTX = Context(2, 3)


class TestWords:
    def test_h_word(self):
        assert gen_h(1, CTX).letters == (1, 2, 1)
        assert gen_h(4, CTX).letters == (4, 5, 4)
        with pytest.raises(ValueError):
            gen_h(5, CTX)

    def test_adjacent_twist_is_sigma_squared(self):
        assert gen_t(1, 2, CTX).letters == (1, 1)
        assert gen_t(3, 4, CTX).letters == (3, 3)

    def test_chain_twist_word(self):
        assert gen_t(1, 3, CTX).letters == (1, 2) * 3

    def test_twist_rewriting_at_last_point(self):
        P = CTX.num_points
        assert gen_t(1, P, CTX).is_identity
        assert gen_t(2, P, CTX).is_identity
        assert gen_t(4, P, CTX) == gen_t(1, 3, CTX)

    def test_twists_are_pure(self):
        for i in range(1, CTX.num_points):
            for j in range(i + 1, CTX.num_points + 1):
                assert psi(gen_t(i, j, CTX), CTX).is_identity

    def test_half_turn_word_length(self):
        ctx = Context(1, 3)
        assert len(gen_r(ctx)) == 6  # triangular word on 4 points

    def test_F_for_n1(self):
        ctx = Context(1, 3)
        assert gen_F(ctx).letters == (-1, -2, -1)

    def test_F_for_n2_structure(self):
        # (h1^-1 h2^-1) h3^-1 h1^-1 t_{4,5}
        expected = (
            gen_h(1, CTX).inverse()
            * gen_h(2, CTX).inverse()
            * gen_h(3, CTX).inverse()
            * gen_h(1, CTX).inverse()
            * gen_t(4, 5, CTX)
        )
        assert gen_F(CTX) == expected

    def test_hchain_word(self):
        ctx = Context(1, 3)
        assert gen_hchain_t(ctx) == gen_h(1, ctx) * gen_t(1, 2, ctx)


class TestFactorLists:
    def test_span_two(self):
        assert t_chain_factors(1, 3) == (("h", (1,), 2),)

    def test_span_three_has_no_twists(self):
        factors = t_chain_factors(2, 5)
        assert all(kind == "h" for kind, _, _ in factors)
        assert [p[0] for _, p, _ in factors] == [3, 2, 3, 2]

    def test_exponent_sums_match(self):
        # both sides of the factorization are exponent-balanced
        from superelliptic import exponent_sum

        ctx = Context(3, 3)
        for i in range(1, ctx.num_arcs):
            for j in range(i + 2, ctx.num_arcs + 1):
                lhs = gen_t(i, j, ctx)
                rhs = expand_token_text(factors_to_tokens(t_chain_factors(i, j)), ctx)
                assert exponent_sum(lhs) == exponent_sum(rhs) == (j - i) * (j - i + 1)

    def test_F_factor_exponents_positive_twists(self):
        for n in (2, 3, 4):
            twists = [(p, e) for kind, p, e in F_factors(n) if kind == "t"]
            assert twists == [
                ((2 * m + 2, 2 * m + 3), m) for m in range(n - 1, 0, -1)
            ]


class TestTokenSyntax:
    def test_named_tokens(self):
        assert expand_token_text("h1", CTX) == gen_h(1, CTX)
        assert expand_token_text("t1,2", CTX) == gen_t(1, 2, CTX)
        assert expand_token_text("r1", CTX) == gen_r1(CTX)
        assert expand_token_text("r", CTX) == gen_r(CTX)
        assert expand_token_text("F", CTX) == gen_F(CTX)
        assert expand_token_text("hchain_t", CTX) == gen_hchain_t(CTX)
        assert expand_token_text("", CTX).is_identity

    def test_exponents(self):
        assert expand_token_text("s1^2", CTX).letters == (1, 1)
        assert expand_token_text("h1^-1", CTX) == gen_h(1, CTX).inverse()
        assert expand_token_text("r1^(2n+2)", CTX) == gen_r1(CTX) ** 6
        assert expand_token_text("r1^(-n+1)", CTX) == gen_r1(CTX).inverse()
        assert expand_token_text("s1^(k)", CTX).letters == (1, 1, 1)

    def test_mixed_expression(self):
        w = expand_token_text("r1 h1 r1^-1", CTX)
        assert w == gen_r1(CTX) * gen_h(1, CTX) * gen_r1(CTX).inverse()

    def test_expansion_equals_product_of_tokens(self):
        # one reduction over all letters gives the word the token-by-token
        # product gives, cancellation across token boundaries included
        rng = random.Random(5)
        names = ["s1", "s2^-1", "s5^3", "h1", "h2^-2", "t1,3", "t2,3^-1", "r1", "r^-1",
                 "F", "hchain_t^2", "r1^(2n+2)", "s3^-4"]
        for _ in range(50):
            tokens = rng.choices(names, k=rng.randint(0, 12))
            product = Word.identity(CTX)
            for tok in tokens:
                product = product * expand_token_text(tok, CTX)
            assert expand_token_text(" ".join(tokens), CTX) == product

    def test_rejects_unknown_token(self):
        for bad in ("q1", "h", "t1", "r2", "h1^", "h1^()", "r1^(2m)"):
            with pytest.raises(WordSyntaxError):
                expand_token_text(bad, CTX)

    @pytest.mark.parametrize("bad", ["s0", "s0 s0", "s0^2", "s0^0", "s4 s4^-1", "h3", "t3,3"])
    def test_rejects_out_of_range_letters_before_they_cancel(self, bad):
        with pytest.raises(ValueError):
            expand_token_text(bad, Context(1, 3))

    def test_exponent_checked_against_budget_before_expansion(self):
        ctx = Context(1, 3)
        with pytest.raises(BudgetError):  # would be 10^12 letters
            expand_token_text("s1^1000000000000", ctx, budget=10**7)
        assert expand_token_text("s1^5", ctx, budget=5).letters == (1,) * 5
        with pytest.raises(BudgetError):
            expand_token_text("s1^5", ctx, budget=4)
        with pytest.raises(BudgetError):  # the running total counts
            expand_token_text("s1 s1^-1 s1^4", ctx, budget=5)
        assert expand_token_text("s1^0", ctx, budget=2).is_identity  # s1 s1^-1
        with pytest.raises(BudgetError):
            expand_token_text("s1^0", ctx, budget=1)
        assert len(expand_token_text("s1 s1 s1", ctx, budget=1)) == 3  # no exponent

    def test_factor_list_rendering(self):
        factors = (("h", (1,), -1), ("t", (4, 5), 2), ("h", (2,), 0), ("t", (2, 3), 1))
        assert factors_to_tokens(factors) == "h1^-1 t4,5^2 t2,3"
        factors = (("r1", (), 2), ("hchain_t", (), -1), ("r1", (), 0), ("hchain_t", (), 1))
        assert factors_to_tokens(factors) == "r1^2 hchain_t^-1 hchain_t"
        assert factors_to_tokens((("h", (3,), 0),)) == ""


class TestOracleBackedIdentities:
    def test_h1_braid_partner(self):
        assert eq_disk(gen_h(1, CTX), expand_token_text("s2 s1 s2", CTX), CTX)

    def test_t13_is_h1_squared(self):
        assert eq_disk(gen_t(1, 3, CTX), gen_h(1, CTX) ** 2, CTX)

    def test_r1_conjugates_h(self):
        r1 = gen_r1(CTX)
        for i in range(1, 2 * CTX.n):
            assert eq_sphere(r1 * gen_h(i, CTX) * r1.inverse(), gen_h(i + 1, CTX), CTX)

    def test_h_conjugates_adjacent_twist(self):
        for i in range(1, 2 * CTX.n + 1):
            lhs = gen_h(i, CTX) * gen_t(i, i + 1, CTX) * gen_h(i, CTX).inverse()
            if i <= 2 * CTX.n - 1:
                assert eq_disk(lhs, gen_t(i + 1, i + 2, CTX), CTX)
            else:
                assert eq_sphere(lhs, gen_t(i + 1, i + 2, CTX), CTX)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_validation_suite_all_green(self, n):
        checks = validate_named_generators(Context(n, 3))
        failed = [name for name, ok in checks if not ok]
        assert not failed
