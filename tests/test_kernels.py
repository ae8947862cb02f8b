"""The kernels against independent reference computations and braid relations."""

import random

import pytest
import referees
from hypothesis import given, settings, strategies as st

from superelliptic import _kernels as K
from superelliptic.errors import BudgetError

letters = st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0)
words = st.lists(letters, max_size=40).map(tuple)


def naive_reduce(w):
    """Delete the first adjacent cancelling pair until none is left."""
    w = list(w)
    while True:
        for t in range(len(w) - 1):
            if w[t] == -w[t + 1]:
                del w[t : t + 2]
                break
        else:
            return tuple(w)


def naive_subst(w, images):
    """Substitute ``images[j-1]`` for ``j`` (its reversed negation for ``-j``), then reduce."""
    out = []
    for y in w:
        im = images[abs(y) - 1]
        out += im if y > 0 else [-x for x in reversed(im)]
    return naive_reduce(out)


def inverse(w):
    return tuple(-a for a in reversed(w))


@given(words)
def test_reduce_idempotent(w):
    once = K.reduce_word(w)
    assert once == naive_reduce(w)
    assert K.reduce_word(once) == once


@given(words, words)
def test_concat_matches_reduce(a, b):
    ra, rb = K.reduce_word(a), K.reduce_word(b)
    assert K.concat(ra, rb) == naive_reduce(ra + rb)


@given(words, words, words)
def test_concat_associative_on_reduced(a, b, c):
    ra, rb, rc = (K.reduce_word(x) for x in (a, b, c))
    left = K.concat(K.concat(ra, rb), rc)
    right = K.concat(ra, K.concat(rb, rc))
    assert left == right


def test_act_word_single_letters():
    # disk model: sigma_1 maps x_1 -> x_1 x_2 x_1^-1, x_2 -> x_1
    assert K.act_word((1,), 3, 0, 10**6) == ((1, 2, -1), (1,), (3,))
    assert K.act_word((-1,), 3, 0, 10**6) == ((2,), (-2, 1, 2), (3,))
    # sphere model: sigma_3 rewrites x_3 through x_4 = (x_1 x_2 x_3)^-1
    assert K.act_word((3,), 3, 3, 10**6) == ((1,), (2,), (-2, -1, -3))


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(1, 7), st.booleans()), max_size=18),
    st.integers(3, 8),
    st.booleans(),
)
def test_act_word_inverse_composes_to_identity(raw, m, sphere):
    top = m if sphere else m - 1
    word = tuple((i if pos else -i) for i, pos in raw if i <= top)
    sphere_m = m if sphere else 0
    images = K.act_word(word, m, sphere_m, 10**6)
    inverse_images = K.act_word(inverse(word), m, sphere_m, 10**6)
    assert len(images) == len(inverse_images) == m
    for j in range(1, m + 1):
        assert naive_subst(inverse_images[j - 1], images) == (j,)
        assert naive_subst(images[j - 1], inverse_images) == (j,)


def test_act_word_inverse_cancels():
    # sigma_m then its inverse in the sphere model is the identity
    for m in (3, 5):
        images = K.act_word((m, -m), m, m, 10**6)
        assert images == tuple((j,) for j in range(1, m + 1))


def test_apply_subst_matches_substitute_then_reduce():
    rng = random.Random(11)
    alphabet = [-4, -3, -2, -1, 1, 2, 3, 4]
    for _ in range(50):
        images = tuple(
            K.reduce_word(rng.choices(alphabet, k=rng.randint(1, 5))) or (1,)
            for _ in range(4)
        )
        w = tuple(rng.choices(alphabet, k=rng.randint(0, 8)))
        assert K.apply_subst(w, images, 10**6) == naive_subst(w, images)


def test_budget_is_enforced():
    # iterated sigma_1 conjugation grows x_2's image linearly; a tiny budget trips
    with pytest.raises(BudgetError):
        K.act_word((1,) * 200, 3, 0, budget=12)
    with pytest.raises(BudgetError):
        K.apply_subst((1, 2, 1), ((1, 2), (2, 3), (3,)), budget=4)


# -- Dynnikov coordinates -------------------------------------------------------

coords = st.lists(st.integers(-50, 50), min_size=10, max_size=10).map(tuple)


def test_act_dynnikov_single_letters():
    start = (0, 1) * 3
    # c = 1 at the start vector: (0, 1, 0, 1) -> (1, 0, 0, 2) and (-1, 2, 0, 0)
    assert K.act_dynnikov((1,), start) == (1, 0, 0, 2, 0, 1)
    assert K.act_dynnikov((-1,), start) == (-1, 0, 0, 2, 0, 1)
    assert K.act_dynnikov((), start) == start


@settings(max_examples=200)
@given(coords, st.integers(1, 4))
def test_act_dynnikov_letter_and_inverse_cancel(v, i):
    assert K.act_dynnikov((i, -i), v) == v
    assert K.act_dynnikov((-i, i), v) == v


@settings(max_examples=200)
@given(coords, st.integers(1, 3), st.booleans())
def test_act_dynnikov_braid_relation(v, i, pos):
    s = 1 if pos else -1
    a, b = s * i, s * (i + 1)
    assert K.act_dynnikov((a, b, a), v) == K.act_dynnikov((b, a, b), v)


@settings(max_examples=200)
@given(coords, st.integers(1, 2), st.integers(3, 4), st.booleans(), st.booleans())
def test_act_dynnikov_far_letters_commute(v, i, j, pi, pj):
    a, b = (i if pi else -i), (j if pj else -j)
    if j - i >= 2:
        assert K.act_dynnikov((a, b), v) == K.act_dynnikov((b, a), v)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_act_dynnikov_sees_the_full_twist(m):
    # the coordinate action is faithful on the braid group, center included
    start = (0, 1) * m
    full_twist = tuple(range(1, m)) * m
    assert K.act_dynnikov(full_twist, start) != start


@pytest.mark.parametrize("m", range(3, 18))
def test_act_dynnikov_matches_the_slice_referee(m):
    # reduced and unreduced random words, from the start vector and from
    # random coordinates; the pseudo-Anosov power (sigma_1 sigma_2^-1)^100
    # takes some coordinate past 2**63, so Python ints must carry it exactly
    rng = random.Random(4000 + m)
    start = (0, 1) * m
    for trial in range(12):
        letters = [rng.choice((1, -1)) * rng.randint(1, m - 1)
                   for _ in range(rng.choice((0, 1, 9, 80, 600)))]
        if trial % 4 == 3:
            cut = rng.randint(0, len(letters))
            letters[cut:cut] = [1, -2] * 100
        word = tuple(letters) if trial % 2 else K.reduce_word(letters)
        coords = start if trial % 3 else tuple(rng.randint(-50, 50) for _ in range(2 * m))
        want = referees.act_dynnikov(word, coords)
        assert K.act_dynnikov(word, coords) == want
        if trial % 4 == 3:
            assert max(map(abs, want)) > 2**63
