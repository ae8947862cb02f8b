"""The word-problem backends: action examples, equality, innerness, orders."""

import pytest
from hypothesis import given, settings, strategies as st

from superelliptic import (
    Context,
    FreeWord,
    Word,
    artin_action,
    eq_disk,
    eq_sphere,
    eq_star,
    is_inner,
    order_of,
    sphere_action,
    word_parse,
)
from superelliptic.generators import gen_h, gen_r, gen_r1, gen_sigma, gen_t
from superelliptic.oracle import FreeAutomorphism, boundary_word_is_fixed

CTX = Context(2, 3)
EMPTY = Word.identity(CTX)


def diskwords(ctx=CTX, max_size=12):
    top = 2 * ctx.n
    return st.lists(
        st.integers(-top, top).filter(lambda x: x != 0), max_size=max_size
    ).map(lambda ls: Word.from_letters(ctx, ls))


def spherewords(ctx=CTX, max_size=10):
    top = ctx.num_arcs
    return st.lists(
        st.integers(-top, top).filter(lambda x: x != 0), max_size=max_size
    ).map(lambda ls: Word.from_letters(ctx, ls))


class TestArtinAction:
    def test_single_generator_images(self):
        ctx = Context(1, 3)
        phi = artin_action(word_parse("s1", ctx), 3)
        assert phi.images[0].letters == (1, 2, -1)
        assert phi.images[1].letters == (1,)
        assert phi.images[2].letters == (3,)

    def test_empty_word_is_identity(self):
        assert artin_action(EMPTY, 5).is_identity

    def test_cancelling_word_is_identity(self):
        ctx = Context(1, 3)
        assert artin_action(word_parse("s1 s1^-1", ctx), 3).is_identity

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            artin_action(word_parse("s3", CTX), 3)

    @settings(max_examples=40)
    @given(diskwords(max_size=8), diskwords(max_size=8))
    def test_homomorphism(self, u, v):
        m = CTX.num_arcs
        lhs = artin_action(u, m).compose(artin_action(v, m))
        assert lhs == artin_action(u * v, m)

    @settings(max_examples=40)
    @given(diskwords())
    def test_boundary_word_fixed(self, w):
        assert boundary_word_is_fixed(artin_action(w, CTX.num_arcs))

    @settings(max_examples=40)
    @given(diskwords(max_size=10))
    def test_permutes_generator_classes_like_psi(self, w):
        from superelliptic import psi

        m = CTX.num_arcs
        phi = artin_action(w, m)
        perm = psi(w, CTX)
        for j in range(1, m + 1):
            _, core = phi.images[j - 1].cyclic_split()
            assert core.letters == (perm(j),)


class TestEqDisk:
    def test_braid_relation(self):
        assert eq_disk(word_parse("s1 s2 s1", CTX), word_parse("s2 s1 s2", CTX), CTX)

    def test_commutation(self):
        assert eq_disk(word_parse("s1 s3", CTX), word_parse("s3 s1", CTX), CTX)

    def test_faithful_on_generator(self):
        assert not eq_disk(word_parse("s1", CTX), EMPTY, CTX)

    def test_rejects_sphere_letters(self):
        with pytest.raises(ValueError):
            eq_disk(gen_sigma(CTX.num_arcs, CTX), EMPTY, CTX)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hchain_shift_relation(self, n):
        from superelliptic.generators import gen_hchain_t

        ctx = Context(n, 3)
        C = gen_hchain_t(ctx)
        for i in range(1, 2 * n - 2):
            lhs = C.inverse() * gen_h(i, ctx) * C
            assert eq_disk(lhs, gen_h(i + 2, ctx), ctx)


class TestEqStar:
    def test_full_chain_twist_dies(self):
        assert eq_star(gen_t(1, CTX.num_arcs, CTX), EMPTY, CTX)

    def test_full_chain_twist_survives_in_disk(self):
        assert not eq_disk(gen_t(1, CTX.num_arcs, CTX), EMPTY, CTX)

    def test_exponent_obstruction(self):
        assert not eq_star(word_parse("s1", CTX), EMPTY, CTX)

    @settings(max_examples=25)
    @given(diskwords(max_size=8), diskwords(max_size=8))
    def test_disk_equality_implies_star(self, u, v):
        if eq_disk(u, v, CTX):
            assert eq_star(u, v, CTX)

    @settings(max_examples=25)
    @given(diskwords(max_size=6))
    def test_star_equality_implies_sphere(self, w):
        # conjugating by the braid relation produces star-equal pairs
        rel = word_parse("s1 s2 s1", CTX)
        alt = word_parse("s2 s1 s2", CTX)
        assert eq_star(rel * w, alt * w, CTX)
        assert eq_sphere(rel * w, alt * w, CTX)

    @settings(max_examples=40)
    @given(diskwords(max_size=8), diskwords(max_size=8))
    def test_agrees_with_sphere_on_disk_words(self, u, v):
        # the capped group is the point stabilizer inside the sphere group,
        # so the two backends must return identical verdicts here
        assert eq_star(u, v, CTX) == eq_sphere(u, v, CTX)

    @settings(max_examples=20)
    @given(diskwords(max_size=5))
    def test_full_twist_factor_is_invisible_to_both(self, w):
        u = w * gen_t(1, CTX.num_arcs, CTX)
        assert eq_star(u, w, CTX)
        assert eq_sphere(u, w, CTX)


class TestIsInner:
    def test_identity_has_empty_conjugator(self):
        phi = FreeAutomorphism.identity(4)
        w = is_inner(phi)
        assert w is not None and w.is_identity

    def test_recovers_explicit_conjugation(self):
        m = 4
        conj = FreeWord(m, (1, 2))
        images = tuple(
            FreeWord.generator(m, j).conjugated_by(conj) for j in range(1, m + 1)
        )
        w = is_inner(FreeAutomorphism(m, images))
        assert w is not None
        for j in range(1, m + 1):
            assert FreeWord.generator(m, j).conjugated_by(w) == images[j - 1]

    def test_sigma1_squared_is_not_inner(self):
        # fixes x_3 but conjugates x_1 with basepoint winding
        ctx = Context(1, 3)
        phi = artin_action(word_parse("s1 s1", ctx), 3)
        assert is_inner(phi) is None


class TestEqSphere:
    def test_point_push_relation(self):
        up = " ".join(f"s{i}" for i in range(1, CTX.num_arcs + 1))
        down = " ".join(f"s{i}" for i in range(CTX.num_arcs, 0, -1))
        assert eq_sphere(word_parse(f"{up} {down}", CTX), EMPTY, CTX)

    def test_rotation_torsion(self):
        assert eq_sphere(gen_r1(CTX) ** CTX.num_points, EMPTY, CTX)

    def test_refutes_generator(self):
        assert not eq_sphere(word_parse("s1", CTX), EMPTY, CTX)

    def test_refutes_generator_squared(self):
        assert not eq_sphere(word_parse("s1 s1", CTX), EMPTY, CTX)

    @settings(max_examples=20)
    @given(spherewords(max_size=6), spherewords(max_size=6))
    def test_congruence_on_constructed_pairs(self, u, v):
        lhs = u * gen_r1(CTX) ** CTX.num_points * v
        assert eq_sphere(lhs, u * v, CTX)


class TestOrderOf:
    def test_half_turn_is_involution(self):
        assert order_of(gen_r(CTX), "sphere", CTX) == 2

    def test_rotation_order(self):
        for n in (1, 2, 3):
            ctx = Context(n, 3)
            assert order_of(gen_r1(ctx), "sphere", ctx) == 2 * n + 2

    def test_braid_generators_are_torsion_free(self):
        assert order_of(word_parse("s1", CTX), "disk", CTX, max_order=8) is None

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            order_of(EMPTY, "annulus", CTX)


def test_sphere_action_budget_error():
    from superelliptic.errors import BudgetError

    growing = Word.from_letters(CTX, [1] * 200)  # x_2's image grows linearly
    with pytest.raises(BudgetError):
        sphere_action(growing, CTX, budget=10)


def test_cached_word_still_raises_under_small_budget():
    from superelliptic.errors import BudgetError

    ctx = Context(2, 3)
    growing = word_parse(" ".join(["s1"] * 40), ctx)
    assert not eq_disk(growing, EMPTY, ctx, budget=10**6)
    with pytest.raises(BudgetError):
        eq_disk(growing, EMPTY, ctx, budget=5)


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="positive integer"):
        eq_disk(EMPTY, EMPTY, CTX, budget=budget)


@pytest.mark.parametrize("raw", ["abc", "-4", "0", "1.5"])
def test_bad_env_budget_is_rejected(monkeypatch, raw):
    from superelliptic.oracle import resolve_budget

    monkeypatch.setenv("SUPERELLIPTIC_BUDGET_LETTERS", raw)
    with pytest.raises(ValueError, match="SUPERELLIPTIC_BUDGET_LETTERS"):
        resolve_budget(None)


def test_env_budget_and_default(monkeypatch):
    from superelliptic.oracle import DEFAULT_BUDGET, resolve_budget

    monkeypatch.delenv("SUPERELLIPTIC_BUDGET_LETTERS", raising=False)
    assert resolve_budget(None) == DEFAULT_BUDGET
    monkeypatch.setenv("SUPERELLIPTIC_BUDGET_LETTERS", "77")
    assert resolve_budget(None) == 77
    assert resolve_budget(5) == 5
