"""Parity classes, the parity subgroup, and curve monodromy."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st
from referees import enumerate_W

from superelliptic import (
    Context,
    CurveClass,
    ParityClass,
    Permutation,
    Word,
    curve_monodromy,
    curve_parse,
    gamma_curve,
    is_liftable_word,
    liftability,
    parity,
    psi,
    w_size,
)
from superelliptic.errors import ContextMismatchError, WordSyntaxError
from superelliptic.generators import gen_F, gen_h, gen_hchain_t, gen_r, gen_r1, gen_t
from superelliptic.liftability import _parity_of, count_W, generated_group, permanent
from superelliptic.theorems import verify_liftability

CTX = Context(2, 3)
MISMATCHES = [(Context(3), Context(1)), (Context(1), Context(3)), (Context(1, 3), Context(1, 4))]


def _parity_bit(perm, ctx) -> int:
    """0 for a parity-preserving permutation, 1 for a parity-reversing one."""
    return {ParityClass.PRESERVING: 0, ParityClass.REVERSING: 1}[parity(perm, ctx)]


class TestParity:
    def test_identity_preserves(self):
        assert parity(Permutation.identity(CTX.num_points), CTX) is ParityClass.PRESERVING

    def test_h_image_preserves(self):
        for i in range(1, 2 * CTX.n + 1):
            assert parity(psi(gen_h(i, CTX), CTX), CTX) is ParityClass.PRESERVING

    def test_adjacent_transposition_is_neither(self):
        for n in (1, 2, 3):
            ctx = Context(n, 3)
            assert parity(psi(Word(ctx, (1,)), ctx), ctx) is ParityClass.NEITHER

    def test_rotations_reverse(self):
        assert parity(psi(gen_r(CTX), CTX), CTX) is ParityClass.REVERSING
        assert parity(psi(gen_r1(CTX), CTX), CTX) is ParityClass.REVERSING

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_odd_image_definition(self, n):
        ctx = Context(n, 3)
        odds = frozenset(range(1, ctx.num_points + 1, 2))
        evens = frozenset(range(2, ctx.num_points + 1, 2))
        by_image = {odds: ParityClass.PRESERVING, evens: ParityClass.REVERSING}
        for images in itertools.permutations(range(1, ctx.num_points + 1)):
            p = Permutation(images)
            image = frozenset(p(x) for x in odds)
            assert parity(p, ctx) is by_image.get(image, ParityClass.NEITHER), images

    def test_parity_map_values(self):
        assert parity(psi(gen_h(1, CTX), CTX), CTX) is ParityClass.PRESERVING
        assert parity(psi(gen_r(CTX), CTX), CTX) is ParityClass.REVERSING
        rr = psi(gen_r(CTX), CTX)
        assert parity(rr.compose(rr), CTX) is ParityClass.PRESERVING

    def test_parity_map_rejects_neither(self):
        s1 = Word(CTX, (1,))
        assert parity(psi(s1, CTX), CTX) is ParityClass.NEITHER
        assert not is_liftable_word(s1, CTX)

    @pytest.mark.parametrize("images", [(1, 2, 3, 4, 5, 6, 7, 8, 10, 9), (2, 1), (1, 2, 3, 4, 5, 6)])
    def test_a_permutation_of_another_size_is_refused(self, images):
        ctx = Context(1)
        message = f"a permutation of {len(images)} points was given with {ctx}, which has 4 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            parity(Permutation(images), ctx)

    def test_parity_map_is_homomorphism(self):
        rng = random.Random(3)
        members = list(enumerate_W(Context(1, 3)))
        ctx = Context(1, 3)
        for _ in range(200):
            a, b = rng.choice(members), rng.choice(members)
            assert _parity_bit(a.compose(b), ctx) == (
                _parity_bit(a, ctx) + _parity_bit(b, ctx)
            ) % 2


def _brute_force_group(gens, size):
    """The generated group as a set of image tuples, by breadth-first search."""
    identity = Permutation.identity(size)
    seen = {identity.images}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = g.compose(cur)
            if nxt.images not in seen:
                seen.add(nxt.images)
                frontier.append(nxt)
    return seen


class TestWSize:
    @pytest.mark.parametrize("n,expected", [(1, 8), (2, 72), (3, 1152)])
    def test_formula_matches_enumeration(self, n, expected):
        ctx = Context(n, 3)
        assert w_size(ctx) == expected
        count = sum(1 for _ in enumerate_W(ctx))
        assert count == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_matches_enumeration(self, n):
        ctx = Context(n, 3)
        assert count_W(ctx) == sum(1 for _ in enumerate_W(ctx))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_count_matches_formula_beyond_enumeration(self, n):
        ctx = Context(n, 3)
        assert count_W(ctx) == w_size(ctx)

    @pytest.mark.parametrize("mutation, count", [("no parity condition", 80640), ("one class", 576)])
    def test_a_wrong_count_fails_the_claim(self, monkeypatch, mutation, count):
        real = liftability._parity_pattern

        def pattern(ctx, s):
            if mutation == "no parity condition":  # both terms count all of S_8
                return [[1] * ctx.num_points for _ in range(ctx.num_points)]
            # the reversing class left out
            return real(ctx, s) if s == 0 else [[0] * ctx.num_points for _ in range(ctx.num_points)]

        monkeypatch.setattr(liftability, "_parity_pattern", pattern)
        claim = next(c for c in verify_liftability(Context(3, 3)) if c.id == "liftability-w-size")
        assert claim.status == "fail"
        assert claim.detail.startswith(f"|W| = {count} ")

    def test_index_in_symmetric_group(self):
        ctx = Context(1, 3)
        assert math.factorial(4) // w_size(ctx) == 3

    def test_kernel_generated_by_double_transpositions(self):
        # elements of trivial parity map = closure of the (i i+2) swaps
        for n in (1, 2):
            ctx = Context(n, 3)
            kernel = {
                p.images for p in enumerate_W(ctx) if _parity_bit(p, ctx) == 0
            }
            gens = [
                Permutation.transposition(ctx.num_points, i, i + 2)
                for i in range(1, 2 * n + 1)
            ]
            assert _brute_force_group(gens, ctx.num_points) == kernel


def _brute_force_permanent(rows) -> int:
    """The sum over all permutations ``p`` of ``prod_x rows[x][p(x)]``."""
    return sum(
        math.prod(rows[x][y] for x, y in enumerate(p))
        for p in itertools.permutations(range(len(rows)))
    )


class TestPermanent:
    def test_matches_brute_force_on_random_matrices(self):
        rng = random.Random(11)
        for m in range(1, 8):
            for _ in range(6):
                rows = [[int(rng.random() < 0.6) for _ in range(m)] for _ in range(m)]
                assert permanent(rows) == _brute_force_permanent(rows), rows

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_all_ones_gives_m_factorial(self, m):
        assert permanent([[1] * m for _ in range(m)]) == math.factorial(m)

    def test_identity_gives_one(self):
        assert permanent([[int(x == y) for y in range(6)] for x in range(6)]) == 1

    def test_a_zero_row_gives_zero(self):
        rows = [[1] * 5 for _ in range(5)]
        rows[2] = [0] * 5
        assert permanent(rows) == 0


class TestEnumerateW:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_filtered_permutations(self, n):
        ctx = Context(n, 3)
        referee = [
            images
            for images in itertools.permutations(range(1, ctx.num_points + 1))
            if _parity_of(images) is not ParityClass.NEITHER
        ]
        assert [p.images for p in enumerate_W(ctx)] == referee

    def test_limited_to_n_at_most_3(self):
        with pytest.raises(ValueError, match="limited to n <= 3"):
            next(enumerate_W(Context(4, 3)))

    @pytest.mark.parametrize(
        "n, status, detail",
        [
            (3, "pass", "|W| = 1152 == 2((n+1)!)^2 = 1152 (exhaustive)"),
            (4, "skipped", "exhaustive check limited to n <= 3; formula gives 28800"),
        ],
    )
    def test_w_size_claim(self, n, status, detail):
        claim = next(c for c in verify_liftability(Context(n, 3)) if c.id == "liftability-w-size")
        assert (claim.status, claim.detail) == (status, detail)


class TestGeneratedGroup:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_basis_generates_W(self, n):
        ctx = Context(n, 3)
        gens = [psi(w, ctx) for w in (gen_h(1, ctx), gen_t(1, 2, ctx), gen_r1(ctx))]
        group = _brute_force_group(gens, ctx.num_points)
        assert group == {p.images for p in enumerate_W(ctx)}
        order, blocks = generated_group(gens, ctx)
        assert order == len(group) == w_size(ctx)
        assert blocks == [set(range(1, 2 * n + 2, 2)), set(range(2, 2 * n + 3, 2))]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_star_basis_generates_point_stabilizer(self, n):
        ctx = Context(n, 3)
        top = ctx.num_points
        words = [gen_h(1, ctx), gen_t(1, 2, ctx)] if n == 1 else [
            gen_h(1, ctx), gen_h(2, ctx), gen_hchain_t(ctx)
        ]
        gens = [psi(w, ctx) for w in words]
        group = _brute_force_group(gens, top)
        assert group == {p.images for p in enumerate_W(ctx) if p(top) == top}
        order, blocks = generated_group(gens, ctx)
        assert order == len(group)
        assert blocks == [set(range(1, top, 2)), set(range(2, top, 2)), {top}]

    @pytest.mark.parametrize("images", [(1, 2, 3, 4, 5, 6), (2, 1, 3)])
    def test_a_generator_of_another_size_is_refused(self, images):
        ctx = Context(1)
        gens = [Permutation.identity(4), Permutation(images)]
        message = f"a permutation of {len(images)} points was given with {ctx}, which has 4 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            generated_group(gens, ctx)

    def test_order_matches_brute_force_on_all_pairs_of_four_points(self):
        ctx = Context(1, 3)
        perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
        for a in perms:
            for b in perms:
                order, blocks = generated_group([a, b], ctx)
                assert order == len(_brute_force_group([a, b], 4)), (a, b)
                assert sorted(x for block in blocks for x in block) == [1, 2, 3, 4]

    def test_order_matches_brute_force_on_six_points(self):
        ctx = Context(2, 3)
        rng = random.Random(5)
        perms = [Permutation(p) for p in itertools.permutations(range(1, 7))]
        pairs = itertools.combinations(range(1, 7), 2)
        swaps = [Permutation.transposition(6, i, j) for i, j in pairs]
        for _ in range(40):
            gens = [rng.choice(swaps), rng.choice(perms)]
            order, _ = generated_group(gens, ctx)
            assert order == len(_brute_force_group(gens, 6)), gens


class TestLiftableWords:
    def test_named_generators_lift(self):
        for w in (gen_h(1, CTX), gen_t(2, 4, CTX), gen_r(CTX), gen_r1(CTX), gen_F(CTX)):
            assert is_liftable_word(w, CTX)

    def test_half_twist_does_not_lift(self):
        assert not is_liftable_word(Word(CTX, (1,)), CTX)

    def test_closure_under_product_and_inverse(self):
        rng = random.Random(9)
        pool = [gen_h(i, CTX) for i in range(1, 5)] + [gen_r1(CTX), gen_t(1, 2, CTX)]
        for _ in range(300):
            u = Word.identity(CTX)
            v = Word.identity(CTX)
            for _ in range(rng.randrange(1, 4)):
                u = u * rng.choice(pool) ** rng.choice((-1, 1))
                v = v * rng.choice(pool) ** rng.choice((-1, 1))
            assert is_liftable_word(u * v, CTX)
            assert is_liftable_word(u.inverse(), CTX)

    @pytest.mark.parametrize("built, given", MISMATCHES)
    def test_a_word_from_another_context_is_refused(self, built, given):
        w = gen_h(1, built)
        assert is_liftable_word(w, built)
        with pytest.raises(ContextMismatchError, match=re.escape(f"over {built} was given with {given}")):
            is_liftable_word(w, given)

    def test_in_W_matches_parity(self):
        for w in (gen_r(CTX), Word(CTX, (1,)), gen_h(2, CTX), Word(CTX, (2, 3))):
            cls = parity(psi(w, CTX), CTX)
            assert is_liftable_word(w, CTX) is (cls is not ParityClass.NEITHER), w


class TestCurves:
    def test_parse_and_roundtrip(self):
        c = curve_parse("x1 x2^-1", CTX)
        assert c.letters == (1, -2)
        assert curve_parse(c.to_text(), CTX) == c
        with pytest.raises(WordSyntaxError):
            curve_parse("y1", CTX)
        with pytest.raises(WordSyntaxError):
            curve_parse("x9", CTX)

    def test_cyclic_reduction(self):
        c = CurveClass.from_letters(CTX, (3, 1, 2, -3))
        assert c.letters == (1, 2)

    def test_adjacent_curves_lift(self):
        for k in (3, 4, 5):
            ctx = Context(2, k)
            for i in range(1, ctx.num_points):
                assert curve_monodromy(gamma_curve(i, i + 1, ctx), ctx) == 0

    def test_single_puncture_loop_does_not_lift(self):
        for k in (3, 4, 5):
            ctx = Context(2, k)
            assert curve_monodromy(CurveClass(ctx, (1,)), ctx) == 1 % k != 0

    @pytest.mark.parametrize("built, given", MISMATCHES)
    def test_a_curve_from_another_context_is_refused(self, built, given):
        # gamma_5,6 over Context(1) would read 0, and gamma_1,3 at k = 4 would read 1
        c = gamma_curve(5, 6, built) if built.n == 3 else gamma_curve(1, 3, built)
        assert curve_monodromy(c, built) == (0 if built.n == 3 else 1)
        with pytest.raises(ContextMismatchError, match=re.escape(f"over {built} was given with {given}")):
            curve_monodromy(c, given)

    def test_gamma_1_4(self):
        assert curve_monodromy(gamma_curve(1, 4, CTX), CTX) == 0

    @settings(max_examples=60)
    @given(
        st.lists(
            st.integers(-6, 6).filter(lambda x: x != 0), min_size=1, max_size=10
        ),
        st.integers(0, 9),
    )
    def test_monodromy_cyclic_and_inversion(self, letters, shift):
        c = CurveClass.from_letters(CTX, letters)
        m = curve_monodromy(c, CTX)
        assert curve_monodromy(c.cycled(shift), CTX) == m
        assert curve_monodromy(c.inverse(), CTX) == (-m) % CTX.k
