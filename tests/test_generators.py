"""Named generator words, token text and oracle-backed identities."""

import random

import numpy as np
import pytest
import referees

from superelliptic import Context, Word, eq_disk, eq_sphere, generators, psi, theorems
from superelliptic.cover import build_cover, lift_product
from superelliptic.errors import BudgetError, WordSyntaxError
from superelliptic.generators import (
    F_factors,
    _letter_count,
    _parse_token,
    expand_token_text,
    gen_F,
    gen_h,
    gen_hchain_t,
    gen_r,
    gen_r1,
    gen_t,
    t_chain_factors,
)
from superelliptic.liftability import curve_parse
from superelliptic.theorems import check_instance, verify
from superelliptic.words import read_token

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

    @pytest.mark.parametrize("n", range(1, 5))
    def test_twists_are_pure(self, n):
        ctx = Context(n, 3)
        for i in range(1, ctx.num_points):
            for j in range(i + 1, ctx.num_points + 1):
                assert psi(gen_t(i, j, ctx), ctx).is_identity

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
        assert t_chain_factors(1, 3) == ["h1^2"]

    def test_span_three_has_no_twists(self):
        factors = t_chain_factors(2, 5)
        assert all(tok.startswith("h") for tok in factors)
        assert factors == ["h3", "h2", "h3", "h2"]

    def test_exponent_sums_match(self):
        # both sides of the factorization are exponent-balanced
        from superelliptic import exponent_sum

        ctx = Context(3, 3)
        for i in range(1, ctx.num_arcs):
            for j in range(i + 2, ctx.num_arcs + 1):
                lhs = gen_t(i, j, ctx)
                rhs = expand_token_text(" ".join(t_chain_factors(i, j)), ctx)
                assert exponent_sum(lhs) == exponent_sum(rhs) == (j - i) * (j - i + 1)

    def test_F_factor_exponents_positive_twists(self):
        for n in (2, 3, 4):
            factors = [read_token(tok, Context(n, 3)) for tok in F_factors(n)]
            twists = [(p, e) for kind, p, e in factors if kind == "t"]
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
        with pytest.raises(BudgetError):  # a token without an exponent counts too
            expand_token_text("s1 s1 s1", ctx, budget=2)
        assert len(expand_token_text("s1 s1 s1", ctx, budget=3)) == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_letter_counts_match_the_words(self, n):
        ctx = Context(n, 3)
        names = [(name, ()) for name in ("r", "r1", "F", "hchain_t")]
        names += [("h", (i,)) for i in range(1, 2 * n + 1)]
        names += [("t", (i, j)) for j in range(2, 2 * n + 3) for i in range(1, j)]
        for name, indices in names:
            tok = name + ",".join(map(str, indices))
            count, unit, repeats = _parse_token(tok, ctx, 0, 10**7)
            built = unit * repeats
            assert _letter_count(name, indices, ctx) == len(built) == count, tok

    @pytest.mark.parametrize("name, n", [("r", 1000), ("F", 300), ("hchain_t", 10**6),
                                         ("t1,2000", 1000), ("r1", 10**6)])
    def test_every_token_checked_against_budget_before_its_letters(self, name, n):
        with pytest.raises(BudgetError, match=repr(name)):
            expand_token_text(name, Context(n, 3), budget=10)

    def test_F_is_read_under_the_callers_budget_alone(self, monkeypatch):
        # F is 33 letters at n = 3, and under a default budget of 20 its own
        # text would stop at h5^-1; the caller's budget of 100 is the only one
        ctx = Context(3, 3)
        want = expand_token_text(" ".join(F_factors(3)), ctx)
        monkeypatch.setattr(generators.oracle, "DEFAULT_BUDGET", 20)
        generators._token_memo.cache_clear()
        assert expand_token_text("F", ctx, budget=100) == want and len(want) == 33
        generators._token_memo.cache_clear()
        with pytest.raises(BudgetError, match="token 'F' takes word text to 33 letters"):
            expand_token_text("F", ctx, budget=32)

    def test_factor_list_rendering(self):
        # every built token has a nonzero exponent, written only when it is not 1
        assert F_factors(3) == ["h1^-1", "h2^-1", "h3^-1", "h4^-1", "h1^-1", "h2^-1",
                                "h5^-1", "h3^-1", "h1^-1", "t6,7^2", "t4,5"]
        for n in range(1, 7):
            ctx = Context(n, 3)
            tokens = list(F_factors(n))
            for i in range(1, ctx.num_points):
                for j in range(i + 2, ctx.num_points + 1):
                    tokens += t_chain_factors(i, j)
            for group in ("lmod_sphere", "lmod_star", "lmod_disk"):
                tokens += [tok for _, word, _ in theorems.generation_words(group, ctx) for tok in word]
            for tok in tokens:
                name, indices, e = read_token(tok, ctx)
                assert e != 0, tok
                assert tok == name + ",".join(map(str, indices)) + (f"^{e}" if e != 1 else ""), tok


_EXPONENTS = ("", "", "", "^1", "^-1", "^2", "^-3", "^0", "^(2n+2)", "^(k-2)", "^(-n+1)", "^(n-k)")
_BAD_TOKENS = ("q1", "h", "t1", "s-1", "s1^", "s1^x", "h1^()", "h1^(2m)", "r2", "s1^1000000000000")


def _random_token(rng: random.Random, ctx: Context) -> str:
    """A token that is mostly valid: now and then an index just out of range,
    a named word, or a token that cannot parse."""
    top, P = ctx.num_arcs, ctx.num_points
    edge = rng.random() < 0.08
    kind = rng.choice("ssssshhttnx")
    if kind == "s":
        name = f"s{rng.choice((0, top + 1)) if edge else rng.randint(1, top)}"
    elif kind == "h":
        name = f"h{rng.choice((0, 2 * ctx.n + 1)) if edge else rng.randint(1, 2 * ctx.n)}"
    elif kind == "t":
        i = rng.randint(1, P - 1)
        name = f"t{i},{rng.choice((i, P + 1)) if edge else rng.randint(i + 1, P)}"
    elif kind == "n":
        name = rng.choice(("r1", "r", "F", "hchain_t"))
    else:
        return rng.choice(_BAD_TOKENS)
    return name + rng.choice(_EXPONENTS)


def _outcome(expand, text, ctx, budget):
    try:
        return expand(text, ctx, budget)
    except Exception as exc:  # the type and the message must match too
        return type(exc), str(exc)


class TestTokenMemo:
    """``expand_token_text`` against the referee that parses every token."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_referee_cold_then_warm(self, seed):
        rng = random.Random(seed)
        ctx = Context(1 + seed % 4, 3 + seed % 3)
        cases = []
        for _ in range(60):
            pool = [_random_token(rng, ctx) for _ in range(rng.randint(1, 4))]
            text = " ".join(rng.choices(pool, k=rng.randint(0, 10)))
            budgets = [None, rng.randint(1, 40)]
            if not isinstance(_outcome(referees.expand_token_text, text, ctx, None), tuple):
                # the letters before reduction: every budget from this one up passes
                total = sum(len(referees._token_letters(t, ctx, [], 10**7)) for t in text.split())
                budgets += [b for b in (total - 1, total, total + 1) if b >= 1]
            cases += [(text, b) for b in budgets]
        for text, budget in cases:
            want = _outcome(referees.expand_token_text, text, ctx, budget)
            generators._token_memo.cache_clear()
            assert _outcome(expand_token_text, text, ctx, budget) == want, (text, budget)  # cold
            assert _outcome(expand_token_text, text, ctx, budget) == want, (text, budget)  # warm
        for text, budget in cases:  # warmed by every text before it
            want = _outcome(referees.expand_token_text, text, ctx, budget)
            assert _outcome(expand_token_text, text, ctx, budget) == want, (text, budget)
        # only tokens that parsed are kept, each with the letters it parses to
        for tok, (count, unit, repeats) in generators._token_memo(ctx).items():
            assert unit * repeats == referees._token_letters(tok, ctx, [], 10**7), tok
            assert count == len(unit * repeats), tok

    def test_memo_is_per_context(self):
        # t1,4 is trivial at n = 1 only, and h1^(k) depends on k: no two share a memo
        text, contexts = "t1,4 h1^(k)", [Context(1, 3), Context(2, 4), Context(1, 4)] * 2
        words = [expand_token_text(text, ctx) for ctx in contexts]
        assert words == [referees.expand_token_text(text, ctx) for ctx in contexts]
        assert [len(w) for w in words] == [9, 24, 12] * 2

    def test_budget_counts_every_occurrence_of_a_memoized_token(self):
        ctx = Context(1, 3)
        generators._token_memo.cache_clear()
        for tok, letters in [("h1^2", 6), ("r", 6), ("hchain_t", 5)]:
            text, over = f"{tok} {tok}", 2 * letters - 1
            errors = []
            for _ in range(2):  # cold, then with the token memoized by the first occurrence
                with pytest.raises(BudgetError) as exc:
                    expand_token_text(text, ctx, budget=over)
                errors.append(str(exc.value))
                assert tok in generators._token_memo(ctx)
            want = f"token {tok!r} takes word text to {2 * letters} letters, over budget {over}"
            assert errors == [want] * 2
            assert expand_token_text(text, ctx, budget=over + 1) == referees.expand_token_text(text, ctx)
        with pytest.raises(BudgetError):  # a huge exponent is counted, never built
            expand_token_text("s1 s1^1000000000000", ctx)

    def test_a_full_memo_keeps_its_entries_and_parses_the_rest_at_each_occurrence(self, monkeypatch):
        # 1-letter tokens s1, s2, ... each take size 2, so the last one no longer
        # fits: it clears the memo, and each token is then parsed once
        cap = generators._MEMO_SIZE
        ctx = Context(cap // 4 + 1, 3)  # cap // 2 + 3 arcs
        toks = [f"s{i}" for i in range(1, cap // 2 + 2)]
        generators._token_memo.cache_clear()
        assert expand_token_text(" ".join(toks), ctx).letters == tuple(range(1, cap // 2 + 2))
        memo = generators._token_memo(ctx)
        assert (len(memo), memo.size) == (1, 2) and toks[-1] in memo
        parsed = []

        def parse(tok, *args):
            parsed.append(tok)
            return _parse_token(tok, *args)

        monkeypatch.setattr(generators, "_parse_token", parse)
        text = f"{toks[0]} {toks[-1]} {toks[-1]}^-1 {toks[-1]}"
        for _ in range(2):
            assert expand_token_text(text, ctx) == referees.expand_token_text(text, ctx)
        assert parsed == [toks[0], f"{toks[-1]}^-1"]
        assert (len(memo), memo.size) == (3, 6) and memo.size <= cap
        generators._token_memo.cache_clear()  # free the large memo

    @pytest.mark.parametrize("memo_size", [0, generators._MEMO_SIZE])
    def test_a_token_is_built_at_each_occurrence_or_once_per_memo(self, monkeypatch, memo_size):
        # t1,9 at n = 4 is 72 letters; r1 is a named word, memoized as any other token
        ctx, text = Context(4, 3), "t1,9 r1 t1,9 r1 t1,9^-1 t1,9"
        want = referees.expand_token_text(text, ctx)  # the referee builds through the same names
        monkeypatch.setattr(generators, "_MEMO_SIZE", memo_size)
        built = {"t": 0, "r1": 0}

        def count(key, fn):
            return lambda *a: built.__setitem__(key, built[key] + 1) or fn(*a)

        monkeypatch.setattr(generators, "gen_t", count("t", gen_t))
        monkeypatch.setitem(generators._WORDS, "r1", count("r1", gen_r1))
        generators._token_memo.cache_clear()
        for _ in range(3):
            assert expand_token_text(text, ctx) == want
        # without a memo every occurrence is built; with one, t1,9, t1,9^-1 and r1 once each
        assert built == ({"t": 4 * 3, "r1": 2 * 3} if memo_size == 0 else {"t": 2, "r1": 1})

    def test_a_named_word_is_built_once_per_memo(self, monkeypatch):
        ctx, text = Context(3, 3), "r1 s1 r1"
        want = referees.expand_token_text(text, ctx)
        built = []
        monkeypatch.setitem(generators._WORDS, "r1", lambda c: built.append(c) or gen_r1(c))
        generators._token_memo.cache_clear()
        for _ in range(3):
            assert expand_token_text(text, ctx) == want
        assert built == [ctx]


_READER_EXPONENTS = ("", "^0", "^1", "^-1", "^3", "^-3", "^(2n+2)", "^(k-1)", "^(-n)")


class TestReadToken:
    """Word, lift and curve text all read through ``words.read_token``."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_name_and_exponent_matches_the_referees(self, n):
        ctx = Context(n, 3)
        P, S = ctx.num_points, build_cover(ctx)
        names = [f"s{i}" for i in range(1, P)] + [f"h{i}" for i in range(1, P - 1)]
        names += [f"t{i},{j}" for j in range(2, P + 1) for i in range(1, j)]
        for tok in (name + e for name in names + ["r1", "r", "F", "hchain_t"] for e in _READER_EXPONENTS):
            assert expand_token_text(tok, ctx) == referees.expand_token_text(tok, ctx), tok
        lifts = ["zeta", "zeta_prime", "r", "r1"] + [f"h{i}" for i in range(1, P - 1)]
        lifts += [f"t{i},{i + 1}" for i in range(1, P - 1)]
        for name in lifts:
            for e in _READER_EXPONENTS[:6]:
                want = referees.lift_product(S, name + e)
                assert lift_product(S, name + e).tolist() == want.tolist(), name + e
            for e, value in [("(2n+2)", 2 * n + 2), ("(k-1)", ctx.k - 1), ("(-n)", -n)]:
                got = lift_product(S, f"{name}^{e}")
                assert np.array_equal(got, lift_product(S, f"{name}^{value}")), (name, e)

    def test_curve_text_takes_the_exponents_1_and_minus_1(self):
        ctx = Context(1, 3)
        assert curve_parse("x1^1 x2^+1 x3^(n) x4^-1", ctx).letters == (1, 2, 3, -4)

    @pytest.mark.parametrize("kind, text, message", [
        ("word", "s1^1_0", "malformed token"),  # int() reads 1_0 as 10
        ("word", "s\u0661", "malformed token"),  # an Arabic-Indic 1
        ("word", "h2^", "malformed token"),
        ("lift", "zeta^\u0661", "malformed token"),
        ("lift", "h2^", "malformed token"),
        ("lift", "t1,3", "adjacent twists"),
        ("curve", "x1^2", "malformed curve token"),
        ("curve", "x\u0661", "malformed token"),
    ])
    def test_refusals(self, kind, text, message):
        ctx = Context(2, 3)
        read = {"word": expand_token_text, "curve": curve_parse,
                "lift": lambda t, c: lift_product(build_cover(c), t)}[kind]
        with pytest.raises(WordSyntaxError, match=message):
            read(text, ctx)

    @pytest.mark.parametrize("kind, text", [
        ("word", "s1^{}"), ("word", "s1^({}n)"), ("word", "s{}"),
        ("lift", "zeta^{}"), ("lift", "zeta^-{}"),
        ("curve", "x1^{}"),
    ])
    def test_a_number_longer_than_int_reads_is_malformed(self, kind, text):
        # int() refuses more than 4300 digits with its own ValueError
        ctx, tok = Context(1, 3), text.format("1" * 5000)
        read = {"word": expand_token_text, "curve": curve_parse,
                "lift": lambda t, c: lift_product(build_cover(c), t)}[kind]
        with pytest.raises(WordSyntaxError, match="malformed exponent or index in token"):
            read(tok, ctx)


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
        ctx = Context(n, 3)
        instances = verify("generators-validation", ctx).witness["instances"]
        failed = [inst for inst in instances if not check_instance(inst, ctx)]
        assert not failed
        assert eq_sphere(gen_r1(ctx), gen_r(ctx) * gen_F(ctx), ctx)
