"""The word-problem backends: action examples, equality, innerness, orders."""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import referees
from superelliptic import _kernels as K
from superelliptic import oracle
from superelliptic import (
    Context,
    FreeWord,
    Word,
    artin_action,
    eq_disk,
    eq_sphere,
    eq_star,
    expand_token_text,
    is_inner,
    psi,
    sphere_action,
)
from superelliptic.errors import BudgetError
from superelliptic.generators import gen_h, gen_r, gen_r1, gen_t
from superelliptic.oracle import FreeAutomorphism, _point_push, cap_to_star

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
        phi = artin_action(expand_token_text("s1", ctx), 3)
        assert phi.images[0].letters == (1, 2, -1)
        assert phi.images[1].letters == (1,)
        assert phi.images[2].letters == (3,)

    def test_empty_word_is_identity(self):
        assert artin_action(EMPTY, 5).is_identity

    def test_cancelling_word_is_identity(self):
        ctx = Context(1, 3)
        assert artin_action(expand_token_text("s1 s1^-1", ctx), 3).is_identity

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            artin_action(expand_token_text("s3", CTX), 3)

    @settings(max_examples=40)
    @given(diskwords(max_size=8), diskwords(max_size=8))
    def test_homomorphism(self, u, v):
        m = CTX.num_arcs
        lhs = artin_action(u, m).compose(artin_action(v, m))
        assert lhs == artin_action(u * v, m)

    @settings(max_examples=40)
    @given(diskwords())
    def test_boundary_word_fixed(self, w):
        m = CTX.num_arcs
        boundary = FreeWord(m, tuple(range(1, m + 1)))  # x_1 x_2 ... x_m
        assert artin_action(w, m).apply(boundary) == boundary

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
        u, v = expand_token_text("s1 s2 s1", CTX), expand_token_text("s2 s1 s2", CTX)
        assert eq_disk(u, v, CTX)

    def test_commutation(self):
        assert eq_disk(expand_token_text("s1 s3", CTX), expand_token_text("s3 s1", CTX), CTX)

    def test_faithful_on_generator(self):
        assert not eq_disk(expand_token_text("s1", CTX), EMPTY, CTX)

    def test_rejects_sphere_letters(self):
        with pytest.raises(ValueError):
            eq_disk(Word(CTX, (CTX.num_arcs,)), EMPTY, CTX)

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
        assert not eq_star(expand_token_text("s1", CTX), EMPTY, CTX)

    @settings(max_examples=25)
    @given(diskwords(max_size=8), diskwords(max_size=8))
    def test_disk_equality_implies_star(self, u, v):
        if eq_disk(u, v, CTX):
            assert eq_star(u, v, CTX)

    @settings(max_examples=25)
    @given(diskwords(max_size=6))
    def test_star_equality_implies_sphere(self, w):
        # conjugating by the braid relation produces star-equal pairs
        rel = expand_token_text("s1 s2 s1", CTX)
        alt = expand_token_text("s2 s1 s2", CTX)
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
        phi = artin_action(expand_token_text("s1 s1", ctx), 3)
        assert is_inner(phi) is None


class TestEqSphere:
    def test_point_push_relation(self):
        up = " ".join(f"s{i}" for i in range(1, CTX.num_arcs + 1))
        down = " ".join(f"s{i}" for i in range(CTX.num_arcs, 0, -1))
        assert eq_sphere(expand_token_text(f"{up} {down}", CTX), EMPTY, CTX)

    def test_rotation_torsion(self):
        assert eq_sphere(gen_r1(CTX) ** CTX.num_points, EMPTY, CTX)

    def test_refutes_generator(self):
        assert not eq_sphere(expand_token_text("s1", CTX), EMPTY, CTX)

    def test_refutes_generator_squared(self):
        assert not eq_sphere(expand_token_text("s1 s1", CTX), EMPTY, CTX)

    @settings(max_examples=20)
    @given(spherewords(max_size=6), spherewords(max_size=6))
    def test_congruence_on_constructed_pairs(self, u, v):
        lhs = u * gen_r1(CTX) ** CTX.num_points * v
        assert eq_sphere(lhs, u * v, CTX)


def _trivial_powers(eq, w: Word, ctx, top: int) -> list[int]:
    """The ``1 <= d <= top`` with ``w^d = 1`` in the group that ``eq`` decides."""
    return [d for d in range(1, top + 1) if eq(w**d, Word.identity(ctx), ctx)]


class TestOrderOf:
    def test_half_turn_is_involution(self):
        assert _trivial_powers(eq_sphere, gen_r(CTX), CTX, 5) == [2, 4]

    def test_rotation_order(self):
        for n in (1, 2, 3):
            ctx = Context(n, 3)
            assert _trivial_powers(eq_sphere, gen_r1(ctx), ctx, 2 * n + 2) == [2 * n + 2]

    def test_braid_generators_are_torsion_free(self):
        assert _trivial_powers(eq_disk, expand_token_text("s1", CTX), CTX, 8) == []

    def test_rejects_unknown_group(self, capsys):
        # a group is named only on the command line, which refuses an unknown one
        from superelliptic import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["eq", "annulus", "", "", "--n", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'annulus'" in capsys.readouterr().err


@pytest.mark.parametrize("eq", [eq_disk, eq_star], ids=["disk", "star"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_disk_groups_name_the_sphere_letter(eq, n):
    ctx = Context(n, 3)
    top = 2 * n
    inside = expand_token_text(f"s1 s{top}", ctx)
    outside = expand_token_text(f"s1 s{top + 1}^-1 s2", ctx)
    message = f"letter sigma_{top + 1} is outside the disk alphabet sigma_1..sigma_{top}"
    for u, v in ((outside, inside), (inside, outside)):
        with pytest.raises(ValueError) as info:
            eq(u, v, ctx)
        assert str(info.value) == message


def test_sphere_action_budget_error():
    growing = Word.from_letters(CTX, [1] * 200)  # x_2's image grows linearly
    with pytest.raises(BudgetError):
        sphere_action(growing, CTX, budget=10)


def test_cached_word_still_raises_under_small_budget():
    ctx = Context(2, 3)
    growing = expand_token_text(" ".join(["s1"] * 40), ctx)
    assert not eq_disk(growing, EMPTY, ctx, budget=10**6)
    with pytest.raises(BudgetError):
        eq_disk(growing, EMPTY, ctx, budget=5)


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="positive integer"):
        eq_disk(EMPTY, EMPTY, CTX, budget=budget)


@pytest.mark.parametrize("budget", [True, False, 2.5, 3.0])
def test_budget_must_be_an_int(budget):
    from superelliptic.oracle import resolve_budget

    message = f"letter budget must be a positive integer, got {budget!r}"
    with pytest.raises(ValueError) as info:
        resolve_budget(budget)
    assert str(info.value) == message
    for eq in (eq_disk, eq_star, eq_sphere):
        with pytest.raises(ValueError) as info:
            eq(EMPTY, EMPTY, CTX, budget=budget)
        assert str(info.value) == message


def test_budget_none_is_the_default(monkeypatch):
    from superelliptic.oracle import DEFAULT_BUDGET, resolve_budget

    monkeypatch.setenv("SUPERELLIPTIC_BUDGET_LETTERS", "77")  # no longer read
    assert resolve_budget(None) == DEFAULT_BUDGET
    assert resolve_budget(5) == 5


# -- the coordinate oracle against the free-group referee ----------------------
#
# The referee decides each group from the free-group action alone: the disk
# group acts faithfully on F_{2n+1}; its center acts by conjugation with the
# boundary word and is the only part acting by inner automorphisms, so a word
# is trivial in the star group iff its disk action is inner; a word is
# trivial in the sphere group iff it is pure and its sphere action is inner.

EQ = {"disk": eq_disk, "star": eq_star, "sphere": eq_sphere}


def referee(group, u, v, ctx):
    d = u * v.inverse()
    if group == "disk":
        return artin_action(d, ctx.num_arcs).is_identity
    if group == "star":
        return is_inner(artin_action(d, ctx.num_arcs)) is not None
    return psi(d, ctx).is_identity and is_inner(sphere_action(d, ctx)) is not None


def _top(group, ctx):
    return ctx.num_arcs if group == "sphere" else 2 * ctx.n


def _random_letters(rng, top, length):
    return [rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(length)]


def _relator(rng, group, ctx):
    """A word that is trivial in ``group``."""
    top = _top(group, ctx)
    kinds = ["braid"] + (["far"] if top >= 3 else [])
    kinds += {"disk": [], "star": ["cycle"], "sphere": ["sphere", "cycle"]}[group]
    kind = rng.choice(kinds)
    if kind == "braid":
        i = rng.randint(1, top - 1)
        rel = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    elif kind == "far":
        i = rng.randint(1, top - 2)
        j = rng.randint(i + 2, top)
        rel = [i, j, -i, -j]
    elif kind == "sphere":
        rel = list(range(1, top + 1)) + list(range(top, 0, -1))
    else:  # the full twist (star) or r1^(2n+2) (sphere)
        rel = list(range(1, top + 1)) * (top + 1)
    return rel if rng.random() < 0.5 else [-a for a in reversed(rel)]


def _perturbation(rng, group, ctx):
    """``s_i^2 s_j^-2`` with the two curves distinct in ``group``.

    On the four-marked sphere the curves around ``{1,2}`` and ``{3,4}``
    coincide, so that pair is excluded there.
    """
    top = _top(group, ctx)
    while True:
        i, j = rng.sample(range(1, top + 1), 2)
        if not (group == "sphere" and ctx.n == 1 and {i, j} == {1, 3}):
            return [i, i, -j, -j]


def _insert(rng, letters, piece):
    at = rng.randint(0, len(letters))
    return letters[:at] + piece + letters[at:]


GROUP_N = [(g, n) for g in ("disk", "star", "sphere") for n in (1, 2, 3)]


@pytest.mark.parametrize("group,n", GROUP_N)
def test_coordinate_oracle_matches_referee(group, n):
    ctx = Context(n, 3)
    top = _top(group, ctx)
    rng = random.Random(f"{group}-{n}")
    verdicts = []
    for _ in range(120):
        base = _random_letters(rng, top, rng.randint(0, 10))
        other = list(base)
        roll = rng.random()
        if roll < 0.3:
            other = _insert(rng, other, _relator(rng, group, ctx))
        elif roll < 0.5:
            other = _insert(rng, other, _perturbation(rng, group, ctx))
        elif roll < 0.8:
            other = _insert(rng, other, _random_letters(rng, top, rng.randint(1, 4)))
        u, v = Word.from_letters(ctx, base), Word.from_letters(ctx, other)
        verdict = EQ[group](u, v, ctx)
        assert verdict == referee(group, u, v, ctx), (u, v)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("group,n", GROUP_N)
def test_relator_insertions_are_true(group, n):
    ctx = Context(n, 3)
    top = _top(group, ctx)
    rng = random.Random(f"relators-{group}-{n}")
    for _ in range(30):
        base = _random_letters(rng, top, rng.randint(0, 10))
        other = base
        for _ in range(rng.randint(1, 3)):
            other = _insert(rng, other, _relator(rng, group, ctx))
        u, v = Word.from_letters(ctx, base), Word.from_letters(ctx, other)
        assert EQ[group](u, v, ctx), (u, v)
        assert referee(group, u, v, ctx)


@pytest.mark.parametrize("group,n", GROUP_N)
def test_forced_false_controls(group, n):
    ctx = Context(n, 3)
    top = _top(group, ctx)
    rng = random.Random(f"false-{group}-{n}")
    for _ in range(30):
        base = _random_letters(rng, top, rng.randint(0, 8))
        other = _insert(rng, base, _perturbation(rng, group, ctx))
        if rng.random() < 0.5:
            other = _insert(rng, other, _relator(rng, group, ctx))
        u, v = Word.from_letters(ctx, base), Word.from_letters(ctx, other)
        assert not EQ[group](u, v, ctx), (u, v)
        assert not referee(group, u, v, ctx)


@pytest.mark.parametrize("n", range(1, 9))
def test_cap_to_star_entries_match_referee(n):
    # A_q = tau_{q+1} sigma_q^2 tau_{q+1}^-1 with tau_q = sigma_{N-1} ... sigma_q
    # is the inverse of the push of q around the other 2n points of the disk
    ctx = Context(n, 3)
    N = ctx.num_points
    for q in range(1, N):
        tau = tuple(range(N - 1, q, -1))
        a_q = Word.from_letters(ctx, tau + (q, q) + tuple(-x for x in reversed(tau)))
        push = Word.from_letters(ctx, _point_push(q, 2 * n))
        assert max(push.letters) <= 2 * n and len(push) == 4 * n
        assert referee("sphere", a_q, push.inverse(), ctx)
        assert not referee("sphere", a_q, push, ctx)
        assert cap_to_star(a_q, ctx) == push.inverse()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cap_to_star_preserves_pure_words(n):
    ctx = Context(n, 3)
    top = ctx.num_arcs
    rng = random.Random(f"cap-{n}")
    for _ in range(40):
        letters = []
        for _ in range(rng.randint(0, 3)):  # a product of conjugated sigma_i^2
            w = _random_letters(rng, top, rng.randint(0, 4))
            i = rng.choice((-1, 1)) * rng.randint(1, top)
            letters += w + [i, i] + [-a for a in reversed(w)]
        d = Word.from_letters(ctx, letters)
        capped = cap_to_star(d, ctx)
        assert all(abs(a) <= 2 * n for a in capped.letters)
        assert referee("sphere", capped, d, ctx), d
    with pytest.raises(ValueError, match="fix point"):
        cap_to_star(Word(ctx, (top,)), ctx)


def test_sphere_rewrite_over_budget_raises():
    # r1^8 at n = 3 is 56 letters; capped it is a disk word of 126 letters
    # (Delta^{-2}), which is what the budget bounds, and no twist image is
    # filled before the budget check passes
    ctx = Context(3, 3)
    rotation = gen_r1(ctx) ** ctx.num_points
    assert len(rotation) == 56
    assert len(cap_to_star(rotation, ctx)) == 126
    oracle._twist_image.cache_clear()
    with pytest.raises(BudgetError, match="^word of 126 letters exceeds budget 125$"):
        eq_sphere(rotation, Word.identity(ctx), ctx, budget=125)
    assert oracle._twist_image.cache_info().currsize == 0
    assert eq_sphere(rotation, Word.identity(ctx), ctx, budget=126)


# -- the star check against the spelled-out full twist ------------------------
#
# ``referees.eq`` counts the budget on the cyclic core of d (after the sphere
# rewrite), then builds Delta^{2p} letter by letter, reduces d Delta^{-2p}
# and acts on all of it.  The oracle acts on the cyclic core of d against a
# cached image of Delta^{2p}, and must give the same verdict and raise the
# same BudgetError at every budget.


def _outcome(eq, u, v, ctx, budget):
    try:
        return eq(u, v, ctx, budget=budget)
    except (BudgetError, ValueError) as err:
        return type(err).__name__, str(err)


def _twist_letters(ctx, q):
    return list((referees.half_twist(ctx) ** (2 * q)).letters)


def _budgets(size):
    return list(range(size - 2, size + 2)) + [None]


@pytest.mark.parametrize("group", ["disk", "star", "sphere"])
@pytest.mark.parametrize("n", range(1, 9))
def test_star_check_matches_spelled_out_twist(group, n):
    ctx = Context(n, 3)
    top = _top(group, ctx)
    rng = random.Random(f"twist-{group}-{n}")
    verdicts, raised = [], 0
    for _ in range(60):
        prefix = _random_letters(rng, top, rng.randint(0, 30))
        base = _random_letters(rng, top, rng.randint(0, 10))
        other = list(base)
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.6:
                other = _insert(rng, other, _relator(rng, group, ctx))
            elif roll < 0.8:
                other = _insert(rng, other, _perturbation(rng, group, ctx))
            else:
                other = _insert(rng, other, _random_letters(rng, top, 2))
        twist = _twist_letters(ctx, rng.randint(-3, 3) if group != "disk" else 0)
        if rng.random() < 0.5:
            other = _insert(rng, other, twist)
        else:  # at the end, so that it meets the junction with Delta^{-2p}
            other = other + twist
        lhs, rhs = prefix + other, prefix + base
        if rng.random() < 0.25:
            lhs, rhs = lhs + [-a for a in reversed(rhs)], []
        u, v = Word.from_letters(ctx, lhs), Word.from_letters(ctx, rhs)
        size = referees.budget_count(group, u, v, ctx)
        for budget in _budgets(size) if size is not None else [1, None]:
            want = _outcome(partial(referees.eq, group), u, v, ctx, budget)
            assert _outcome(EQ[group], u, v, ctx, budget) == want, (u, v, budget)
            over = size is not None and budget is not None and 0 < budget < size
            message = f"word of {size} letters exceeds budget {budget}"
            assert (want == ("BudgetError", message)) is over, (u, v, budget)
            raised += over
        verdicts.append(want)  # at budget None
    assert 0 < sum(verdicts) < len(verdicts)
    assert raised


@pytest.mark.parametrize("n", range(1, 9))
def test_twist_image_is_the_action_of_the_spelled_out_twist(n):
    ctx = Context(n, 3)
    start = (0, 1) * ctx.num_arcs
    for p in range(-4, 5):
        twist = referees.half_twist(ctx) ** (2 * p)
        image = oracle._twist_image(n, p)
        assert len(image) == 2 * (2 * n + 1)
        assert image == K.act_dynnikov(twist.letters, start)
        assert image == referees.act_dynnikov(twist.letters, start)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [-3, -2, -1, 1, 2, 3])
def test_twist_image_closed_form(n, p):
    s, m = (1 if p > 0 else -1), abs(p)
    a = [2 * n * s] + [s * (2 * n + 1 - i) for i in range(2, 2 * n + 1)] + [0]
    b = [-2 * n * (2 * m - 1)] + [0] * (2 * n - 1) + [4 * n * m + 1]
    image = oracle._twist_image(n, p)
    assert list(image[0::2]) == a and list(image[1::2]) == b


def test_budget_error_is_the_same_before_and_after_the_image_is_cached():
    ctx = Context(3, 3)
    u = Word.from_letters(ctx, [1, -2] + _twist_letters(ctx, 2))
    v = Word.from_letters(ctx, [1, -2])
    size = referees.budget_count("star", u, v, ctx)
    assert size == len(_twist_letters(ctx, 2))  # the core is Delta^4 alone
    oracle._twist_image.cache_clear()
    with pytest.raises(BudgetError) as before:
        eq_star(u, v, ctx, budget=size - 1)
    assert oracle._twist_image.cache_info().currsize == 0
    assert eq_star(u, v, ctx, budget=size)
    assert oracle._twist_image.cache_info().currsize == 1
    with pytest.raises(BudgetError) as after:
        eq_star(u, v, ctx, budget=size - 1)
    message = f"word of {size} letters exceeds budget {size - 1}"
    assert str(before.value) == str(after.value) == message


@pytest.mark.parametrize("group", ["disk", "star", "sphere"])
def test_common_prefix_does_not_change_the_verdict(group):
    # a prefix that u and v share costs nothing: the budget counts the
    # cyclic core of u v^-1, which the prefix does not lengthen, and the
    # sphere rewrite runs on that core
    ctx = Context(3, 3)
    top = _top(group, ctx)
    rng = random.Random(f"prefix-{group}")
    for expect in (True, False) * 10:
        base = _random_letters(rng, top, rng.randint(0, 8))
        piece = _relator(rng, group, ctx) if expect else _perturbation(rng, group, ctx)
        other = _insert(rng, base, piece)
        if group != "disk" and rng.random() < 0.5:
            other = _insert(rng, other, _twist_letters(ctx, rng.choice((-1, 1))))
        prefix = _random_letters(rng, top, 200)
        u, v = Word.from_letters(ctx, other), Word.from_letters(ctx, base)
        assert EQ[group](u, v, ctx) is expect
        unprefixed = referees.budget_count(group, u, v, ctx)
        u, v = Word.from_letters(ctx, prefix + other), Word.from_letters(ctx, prefix + base)
        assert EQ[group](u, v, ctx) is expect
        size = referees.budget_count(group, u, v, ctx)
        assert size == unprefixed
        if size is None:  # decided by the point permutation or exponent sum
            assert not expect
            continue
        assert size < 200
        if size == 0:  # u v^-1 cancelled to nothing
            assert expect
            continue
        assert EQ[group](u, v, ctx, budget=size) is expect
        with pytest.raises(BudgetError, match=f"^word of {size} letters exceeds budget {size - 1}$"):
            EQ[group](u, v, ctx, budget=size - 1)


def test_full_twist_costs_only_its_own_letters():
    # (s1 s2)^3 and (s1 s2 s1)^2 both spell the full twist on three strands:
    # the budget counts their six letters either way, not the letters of a
    # reduced d Delta^{-2} (12 and 0 with Delta spelled s1 s2 s1)
    ctx = Context(1, 3)
    half = Word.from_letters(ctx, [1, 2, 1])
    for u, v in [(Word.from_letters(ctx, [1, 2] * 3), Word.identity(ctx)), (half, half.inverse())]:
        assert eq_star(u, v, ctx, budget=6)
        with pytest.raises(BudgetError, match="^word of 6 letters exceeds budget 5$"):
            eq_star(u, v, ctx, budget=5)
