"""Words, free reduction, serialization, and the permutation shadow."""

import random

import pytest
from hypothesis import given, strategies as st

from superelliptic import (
    Context,
    CurveClass,
    FreeWord,
    Permutation,
    Word,
    expand_token_text,
    exponent_sum,
    psi,
)
from superelliptic.errors import ContextMismatchError, WordSyntaxError
from superelliptic.generators import gen_h, gen_r, gen_r1

CTX = Context(2, 3)


def wordstrat(ctx=CTX, max_size=30):
    top = ctx.num_arcs
    return st.lists(
        st.integers(-top, top).filter(lambda x: x != 0), max_size=max_size
    ).map(lambda ls: Word.from_letters(ctx, ls))


class TestParsing:
    def test_parse_h1_letters(self):
        w = expand_token_text("s1 s2 s1", CTX)
        assert w.letters == (1, 2, 1)
        assert len(w) == 3

    def test_parse_cancellation(self):
        assert expand_token_text("s1 s1^-1", CTX).is_identity

    def test_parse_no_reduction_on_same_sign(self):
        assert expand_token_text("s3^-1 s3^-1", CTX).letters == (-3, -3)

    def test_parse_rejects_garbage(self):
        for bad in ("sigma1", "s0", "s99", "s-1"):
            with pytest.raises(WordSyntaxError):
                expand_token_text(bad, CTX)

    @given(wordstrat())
    def test_roundtrip(self, w):
        assert expand_token_text(w.to_text(), CTX) == w


@pytest.mark.parametrize(
    "build",
    [
        lambda: Word.from_letters(Context(1, 3), [5, -5]),
        lambda: Word.from_letters(Context(1, 3), [0, 0]),
        lambda: FreeWord.from_letters(3, [9, -9]),
        lambda: CurveClass.from_letters(Context(1, 3), [9, 1, -9]),
    ],
    ids=["word", "word-zero", "free-word", "curve-class"],
)
def test_from_letters_checks_letters_before_reducing(build):
    # each of these letters cancels, so a check after reduction misses it
    with pytest.raises(ValueError):
        build()


def test_word_refuses_unreduced_letters_after_its_range_check():
    ctx = Context(2, 3)
    with pytest.raises(WordSyntaxError, match="followed by its inverse"):
        Word(ctx, (1, -1, 2))
    with pytest.raises(WordSyntaxError, match="followed by its inverse"):
        Word(ctx, (2, 3, -3))
    with pytest.raises(WordSyntaxError, match="letter 9 out of range"):  # the range error comes first
        Word(ctx, (9, -9))
    assert Word.from_letters(ctx, (1, -1, 2)).letters == (2,)
    assert Word(ctx, (1, 1, -2, 1)).letters == (1, 1, -2, 1)


@pytest.mark.parametrize("n, k", [(True, 3), (1, True), (0, 3), (1, 1), (1.0, 3), (1, "3")])
def test_context_rejects_a_bool_a_non_integer_or_a_small_size(n, k):
    with pytest.raises(ValueError, match="must be an integer"):
        Context(n, k)


@pytest.mark.parametrize("text", ["s0 s0", "s4 s4^-1"])
def test_cancelling_out_of_range_tokens_raise(text):
    with pytest.raises(WordSyntaxError):
        expand_token_text(text, Context(1, 3))


def test_from_letters_checks_the_letters_once(monkeypatch):
    from superelliptic import words

    real, seen = words._check_letters, []

    def counted(ctx, letters):
        seen.append(letters)
        return real(ctx, letters)

    monkeypatch.setattr(words, "_check_letters", counted)
    w = Word.from_letters(CTX, [1, 2, -2, 3])
    assert w.letters == (1, 3)
    assert seen == [(1, 2, -2, 3)]  # before reduction, and not again after it
    assert (w * w.inverse()).is_identity and len(seen) == 1


def test_curve_from_letters_checks_the_letters_once(monkeypatch):
    from superelliptic import liftability

    real, seen = liftability.first_out_of_range, []

    def counted(letters, top):
        seen.append(letters)
        return real(letters, top)

    monkeypatch.setattr(liftability, "first_out_of_range", counted)
    c = CurveClass.from_letters(CTX, [1, 2, -2, 3, -1])
    assert c.letters == (3,)
    assert seen == [(1, 2, -2, 3, -1)]  # before reduction, and not again after it
    d = CurveClass.from_letters(CTX, [1, 2, 3])
    assert d.inverse().letters == (-3, -2, -1) and d.cycled(1).letters == (2, 3, 1)
    assert len(seen) == 2


@pytest.mark.parametrize(
    "cls, letters, message",
    [
        (Word, (1, 5, 0, -9), "letter 5 out of range 1..3"),
        (Word, (2, 0, 5), "letter 0 out of range 1..3"),
        (Word, (1, 0, -2), "letter 0 out of range 1..3"),
        (Word, (1, 4, -5), "letter 4 out of range 1..3"),
        (CurveClass, (1, 4, -5), "curve letter -5 out of range 1..4"),
        (CurveClass, (4, -4, 0, 9), "curve letter 0 out of range 1..4"),
    ],
)
def test_range_check_names_the_first_bad_letter(cls, letters, message):
    with pytest.raises(WordSyntaxError) as info:
        cls(Context(1, 3), letters)
    assert str(info.value) == message


class TestGroupOps:
    def test_invert_reverses_and_flips(self):
        w = expand_token_text("s1 s2", CTX)
        assert w.inverse().letters == (-2, -1)
        h1 = expand_token_text("s1 s2 s1", CTX)
        assert h1.inverse().letters == (-1, -2, -1)
        assert Word.identity(CTX).inverse().is_identity

    def test_concat_single_cancellation(self):
        u = expand_token_text("s1 s2", CTX)
        v = expand_token_text("s2^-1 s3", CTX)
        assert (u * v).letters == (1, 3)

    def test_concat_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            expand_token_text("s1", CTX) * expand_token_text("s1", Context(3, 3))

    @given(wordstrat())
    def test_word_times_inverse_is_identity(self, w):
        assert (w * w.inverse()).is_identity

    @given(wordstrat(max_size=12), st.integers(-3, 3))
    def test_power_exponent_sum(self, w, e):
        assert exponent_sum(w**e) == e * exponent_sum(w)

    @given(wordstrat(max_size=12), st.integers(-6, 6))
    def test_power_equals_repeated_product(self, w, e):
        base = w if e >= 0 else w.inverse()
        product = Word.identity(CTX)
        for _ in range(abs(e)):
            product = product * base
        assert w**e == product


class TestExponentSum:
    def test_examples(self):
        assert exponent_sum(expand_token_text("s1 s2 s1", CTX)) == 3
        assert exponent_sum(Word.identity(CTX)) == 0
        # adjacent twist word is sigma_i^2
        from superelliptic.generators import gen_t

        assert exponent_sum(gen_t(1, 2, CTX)) == 2

    @given(wordstrat(), wordstrat())
    def test_additive_under_concat(self, u, v):
        assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)


class TestPsi:
    def test_sigma_is_adjacent_transposition(self):
        w = expand_token_text("s2", CTX)
        assert psi(w, CTX) == Permutation.transposition(CTX.num_points, 2, 3)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_h_is_distance_two_transposition(self, n):
        ctx = Context(n, 3)
        for i in range(1, 2 * n + 1):
            assert psi(gen_h(i, ctx), ctx) == Permutation.transposition(
                ctx.num_points, i, i + 2
            )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_rotation_is_full_cycle(self, n):
        ctx = Context(n, 3)
        images = psi(gen_r1(ctx), ctx).images
        assert images == tuple(list(range(2, ctx.num_points + 1)) + [1])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_half_turn_reverses(self, n):
        ctx = Context(n, 3)
        images = psi(gen_r(ctx), ctx).images
        assert images == tuple(ctx.num_points + 1 - x for x in range(1, ctx.num_points + 1))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_product_of_transpositions(self, n):
        ctx = Context(n, 3)
        size, rng = ctx.num_points, random.Random(n)
        for _ in range(20):
            letters = [rng.choice((-1, 1)) * rng.randint(1, ctx.num_arcs)
                       for _ in range(rng.randint(0, 200))]
            w = Word.from_letters(ctx, letters)
            want = Permutation.identity(size)
            for a in w.letters:
                want = want.compose(Permutation.transposition(size, abs(a), abs(a) + 1))
            assert psi(w, ctx) == want, w

    @given(wordstrat(max_size=14), wordstrat(max_size=14))
    def test_homomorphism(self, u, v):
        assert psi(u * v, CTX) == psi(u, CTX).compose(psi(v, CTX))

    @given(wordstrat(max_size=14))
    def test_inverse_words(self, w):
        assert psi(w.inverse(), CTX) == psi(w, CTX).inverse()


class TestPermutation:
    def test_serialization_roundtrip(self):
        p = Permutation((2, 1, 4, 3))
        assert p.to_text() == "[2,1,4,3]"

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_compose_applies_rightmost_first(self):
        a = Permutation.transposition(3, 1, 2)
        b = Permutation.transposition(3, 2, 3)
        assert a.compose(b)(3) == a(b(3)) == 1
