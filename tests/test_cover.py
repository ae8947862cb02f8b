"""The branched cover surface, its homology, and the lifted actions."""

import random
from fractions import Fraction

import numpy as np
import pytest
import referees

from superelliptic import (
    Context,
    CurveClass,
    build_cover,
    check_normalizes_deck,
    gamma_curve,
    lift_cycle,
    lift_rep,
    pairing,
    twist_matrix,
)
from superelliptic import cover as cover_mod
from superelliptic import generators, intmat
from superelliptic.cover import lift_product
from superelliptic.errors import DoesNotLiftError, WordSyntaxError


def identity(surface):
    return intmat.identity_object(surface.h1_rank)


class TestBuild:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cell_counts_and_euler(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        assert S.n_vertices == 2 * n + 2
        assert S.n_edges == k * (2 * n + 1)
        assert S.n_faces == k
        assert S.euler_characteristic == 2 - 2 * ctx.genus

    def test_reference_instance(self):
        S = build_cover(Context(2, 3))
        assert (S.n_vertices, S.n_edges, S.n_faces) == (6, 15, 3)
        assert S.euler_characteristic == -6
        assert S.ctx.genus == 4

    def test_torus_sanity(self):
        S = build_cover(Context(1, 2))
        assert S.ctx.genus == 1
        assert S.h1_rank == 2

    def test_larger_formula_case(self):
        S = build_cover(Context(3, 4))
        assert S.ctx.genus == 9
        assert S.euler_characteristic == -16


class TestHomology:
    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (1, 4), (2, 5), (3, 3)])
    def test_rank_and_form(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        assert S.h1_rank == 2 * ctx.genus
        assert np.array_equal(S.J, -S.J.T)
        assert intmat.det_exact(S.J) == 1

    def test_crossing_form_antisymmetric(self):
        S = build_cover(Context(2, 3))
        assert np.array_equal(S.crossing, -S.crossing.T)

    def test_relations_pair_to_zero(self):
        S = build_cover(Context(2, 4))
        zero = np.zeros_like(S.relations)
        assert np.array_equal(S.relations @ S.crossing, zero)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4), (4, 3), (2, 2)])
    def test_stored_symplectic_basis_and_inverse(self, n, k):
        S = build_cover(Context(n, k))
        P, J, Jinv = (M.astype(object) for M in (S.P, S.J, S.Jinv))
        assert S.P.dtype == np.int64 and S.Jinv.dtype == np.int64
        assert np.array_equal(P.T @ J @ P, intmat.standard_symplectic(S.h1_rank))
        assert np.array_equal(J @ Jinv, intmat.identity_object(S.h1_rank))

    def test_standard_symplectic_basis_exists(self):
        S = build_cover(Context(2, 3))
        P = intmat.symplectic_change_of_basis(S.J)
        assert abs(intmat.det_exact(P)) == 1
        assert np.array_equal(P.T @ S.J @ P, intmat.standard_symplectic(S.h1_rank))


class TestCheckedProduct:
    def test_raises_instead_of_wrapping(self):
        A = np.full((8, 8), 2**40, dtype=np.int64)
        # 2**40 * 2**40 * 8 >= 2**62: the unchecked int64 product wraps
        assert not np.array_equal(A @ A, A.astype(object) @ A.astype(object))
        with pytest.raises(OverflowError):
            cover_mod.mul(A, A)
        with pytest.raises(OverflowError):
            cover_mod.mul(np.eye(8, dtype=np.int64), A, A)

    def test_accepts_the_same_matrices_within_the_bound(self):
        A = np.full((8, 8), 2**40, dtype=np.int64)
        B = np.arange(-32, 32, dtype=np.int64).reshape(8, 8)  # 2**40 * 32 * 8 < 2**62
        exact = A.astype(object) @ B.astype(object)
        got = cover_mod.mul(A, B)
        assert got.dtype == np.int64
        assert np.array_equal(got, exact)
        v = A[:, 0]
        assert np.array_equal(cover_mod.mul(B, v), B.astype(object) @ v.astype(object))

    def test_bound_is_strict(self):
        A = np.full((8, 8), 2**29, dtype=np.int64)
        B = np.full((8, 8), 2**30, dtype=np.int64)
        got = cover_mod.mul(A[:, :4], B[:4, :])  # 2**29 * 2**30 * 4 = 2**61
        assert np.array_equal(got, np.full((8, 8), 2**61, dtype=object))
        with pytest.raises(OverflowError):
            cover_mod.mul(A, B)  # 2**29 * 2**30 * 8 = 2**62
        with pytest.raises(OverflowError):  # |int64 min| does not fit in int64
            low = np.array([[-(2**63)]], dtype=np.int64)
            cover_mod.mul(low, np.ones((1, 1), dtype=np.int64))

    def test_object_entries_that_do_not_fit_raise(self):
        big = np.array([[2**63]], dtype=object)
        with pytest.raises(OverflowError):
            cover_mod.mul(big, np.array([[1]], dtype=np.int64))

    @staticmethod
    def _seeded_pair(rng, a, b, d):
        """Random ``m x d`` and ``d x p`` factors with ``max|A| = a``, ``max|B| = b``."""
        m, p = rng.randrange(1, 9), rng.randrange(1, 9)
        A = [[rng.randint(-a, a) for _ in range(d)] for _ in range(m)]
        B = [[rng.randint(-b, b) for _ in range(p)] for _ in range(d)]
        A[0][0], B[0][0] = a, -b
        return np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_exact_on_both_sides_of_2_53(self, side):
        # bound = a * b * d just below 2**53 (float64 path) or at or just
        # above it (int64 path); both must equal the Python-int product
        rng = random.Random(53 if side == "below" else 54)
        for _ in range(40):
            d = rng.choice([1, 2, 3, 8, 17, 64])
            a = rng.randrange(1, 2**30)
            b = (2**53 - 1) // (a * d) if side == "below" else -(-(2**53) // (a * d))
            assert (a * b * d < 2**53) == (side == "below")
            A, B = self._seeded_pair(rng, a, b, d)
            got = cover_mod.mul(A, B)
            assert got.dtype == np.int64
            assert got.tolist() == (A.astype(object) @ B.astype(object)).tolist()
            # the same magnitudes with every term of one sign: the sum is the bound
            row, col = np.full((1, d), a, dtype=np.int64), np.full((d, 1), b, dtype=np.int64)
            assert int(cover_mod.mul(row, col)[0, 0]) == a * b * d

    def test_float_cannot_hold_this_product(self):
        # (2**27 + 1)**2 * 2 = 2**55 + 2**29 + 2 needs 55 bits: float64 rounds it,
        # so this product must take the int64 path
        A = np.full((1, 2), 2**27 + 1, dtype=np.int64)
        want = 2 * (2**27 + 1) ** 2
        assert int((A.astype(np.float64) @ A.T.astype(np.float64))[0, 0]) != want
        assert int(cover_mod.mul(A, A.T)[0, 0]) == want

    def test_zero_factor_times_huge_entries(self):
        huge = np.array([[2**62, -(2**53) - 1], [2**53 + 1, 2**60 + 3]], dtype=np.int64)
        zero = np.zeros((2, 2), dtype=np.int64)
        assert cover_mod.mul(zero, huge).tolist() == [[0, 0], [0, 0]]
        assert cover_mod.mul(huge, zero).tolist() == [[0, 0], [0, 0]]
        assert cover_mod.mul(huge, zero[:, 0]).tolist() == [0, 0]

    def test_long_chain_past_the_carried_bound_is_exact(self):
        # small-entry symplectic lifts whose product of maxima and inner
        # dimensions passes 2**62, while every partial product stays small:
        # the carried bound is rescanned, not raised on
        S = build_cover(Context(2, 3))
        h, t = lift_rep(S, "h", 1), lift_rep(S, "t", 2)
        h_inv = cover_mod.symplectic_inverse(S, h)
        factors = [h, t, h_inv] * 12
        carried = 1
        for B in factors[1:]:
            carried *= int(np.abs(B).max()) * S.h1_rank
        assert carried * int(np.abs(h).max()) >= 2**62
        want = identity(S)
        for B in factors:
            want = want @ B.astype(object)
        got = cover_mod.mul(*factors)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_chain_float_int64_float_is_exact(self):
        # x**2 needs 55 bits, so the middle step must take the int64 path
        x = 2**27 + 1
        start = np.array([1, 1], dtype=np.int64)
        scale = np.array([[x, 0], [0, -x]], dtype=np.int64)  # float: bound 2x
        fold = np.array([[x, 1], [x - 1, 0]], dtype=np.int64)  # int64: bound 2x**2
        small = np.array([[3, 0], [1, 2]], dtype=np.int64)  # float again: bound 6x
        mid = np.array([x, -x], dtype=np.float64) @ fold.astype(np.float64)
        assert int(mid[0]) != x  # float64 rounds the middle product
        want = start.astype(object) @ scale.astype(object)
        for B in (fold, small):
            want = want @ B.astype(object)
        assert want.tolist() == [4 * x, 2 * x]
        got = cover_mod.mul(start, scale, fold, small)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_a_factor_passed_twice(self):
        rng = np.random.default_rng(5)
        A = rng.integers(-2**20, 2**20, size=(6, 6))
        B = rng.integers(-9, 9, size=(6, 6))
        rows = A.tolist()  # a list factor is converted, once, too
        a, b = A.astype(object), B.astype(object)
        assert cover_mod.mul(A, A).tolist() == (a @ a).tolist()
        assert cover_mod.mul(A, B, A).tolist() == (a @ b @ a).tolist()
        assert cover_mod.mul(B, B, B, B).tolist() == (b @ b @ b @ b).tolist()
        assert cover_mod.mul(rows, B, rows).tolist() == (a @ b @ a).tolist()
        assert cover_mod.mul(A, A.T).tolist() == (a @ a.T).tolist()
        with pytest.raises(OverflowError):
            cover_mod.mul(A, A, A, A)  # 2**80 and more: no int64 result


# the sizes on which the int64 and broadcast paths are compared with the referees
REFEREE_SIZES = [(1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 7), (6, 6), (8, 5)]


class TestReferees:
    @pytest.mark.parametrize("n,k", REFEREE_SIZES)
    def test_symplectic_basis_matches_object_referee(self, n, k):
        S = build_cover(Context(n, k))
        P = intmat.symplectic_change_of_basis(S.J)
        assert P.dtype == np.int64
        want = referees.symplectic_change_of_basis(S.J).tolist()
        assert P.tolist() == want
        assert S.P.tolist() == want

    @pytest.mark.parametrize("n,k", REFEREE_SIZES)
    def test_twist_lifts_match_dense_products(self, n, k):
        S = build_cover(Context(n, k))
        for i in range(1, 2 * n + 2):
            want = referees.twist_lift(S.J, cover_mod._gamma_lifts(S, i))
            assert np.array_equal(lift_rep(S, "t", i), want), ("t", i)
        for i in range(1, 2 * n + 1):
            want = referees.twist_lift(S.J, cover_mod.h_chain(S, i))
            assert np.array_equal(lift_rep(S, "h", i), want), ("h", i)

    @pytest.mark.parametrize("n,k", REFEREE_SIZES)
    def test_smith_form_of_the_relations_matches_entry_loop(self, n, k):
        relations = build_cover(Context(n, k)).relations.T
        got = intmat.smith_normal_form(relations)
        want = referees.smith_normal_form(relations)
        assert [x.tolist() for x in got[:4]] == [x.tolist() for x in want[:4]]
        assert got[4] == want[4]

    @pytest.mark.parametrize("n,k", REFEREE_SIZES)
    def test_crossing_matches_chord_sign_loop(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        pos = cover_mod._link_positions(cover_mod._face_sides(ctx), S.loop_index)
        assert sorted(pos.tolist()) == list(range(2 * len(S.loops)))
        assert np.array_equal(S.crossing, referees.crossing_form(pos, cover_mod._ORIENT))

    def test_crossing_matches_chord_sign_loop_on_any_link_order(self):
        rng = np.random.default_rng(7)
        for m in (0, 1, 2, 5, 12):
            pos = rng.permutation(2 * m)
            assert np.array_equal(cover_mod._crossing_form(pos), referees.crossing_form(pos))


class TestInt64Overflow:
    @staticmethod
    def _block_step(S, M, curves):
        """``M T_{c_1} ... T_{c_r}`` as one block step of an :class:`intmat.Chain`."""
        U, B = cover_mod._twist_block(S, curves)
        chain = intmat.Chain(M.copy())
        chain.times(B, int(np.abs(B).max()), U)
        return chain.result()

    def test_transvect_raises_instead_of_wrapping(self):
        S = build_cover(Context(1, 3))
        c = np.zeros(S.h1_rank, dtype=np.int64)
        c[int(np.argmax(S.J.max(axis=0)))] = 1  # some entry of J c is +1
        M = np.full((S.h1_rank, S.h1_rank), 2**61, dtype=np.int64)
        curves = np.array([c, c, c])
        exact = M.astype(object)
        for x in curves.astype(object):
            exact = exact + np.outer(exact @ x, S.J.astype(object) @ x)
        assert max(abs(v) for v in exact.flat) >= 2**63  # no int64 result is right
        with pytest.raises(OverflowError):
            self._block_step(S, M, curves)
        # one update already reaches the bound 2**62
        with pytest.raises(OverflowError, match="2\\*\\*62"):
            self._block_step(S, M, c[None])

    def test_transvect_is_exact_within_the_bound(self):
        S = build_cover(Context(1, 3))
        M = np.full((S.h1_rank, S.h1_rank), 2**40, dtype=np.int64)
        curves = cover_mod._gamma_lifts(S, 1)
        exact = M.astype(object)
        for x in curves.astype(object):
            exact = exact + np.outer(exact @ x, S.J.astype(object) @ x)
        got = self._block_step(S, M, curves)
        assert got.dtype == np.int64
        assert got.tolist() == exact.tolist()
        assert M.tolist() == np.full_like(M, 2**40).tolist()  # the input is not changed

    @staticmethod
    def _fibonacci_form(j: int) -> np.ndarray:
        """A skew 4 x 4 form of determinant 1 whose entries fit but whose basis does not.

        ``e_1`` pairs with ``e_2`` and ``e_3`` by ``F_{j+1}`` and ``F_j``, and
        the Pfaffian ``F_{j+1} F_{j-1} - F_j^2`` is 1 for even ``j`` (Cassini).
        """
        F = [0, 1]
        while len(F) <= j + 1:
            F.append(F[-1] + F[-2])
        J = np.zeros((4, 4), dtype=np.int64)
        J[0, 1], J[0, 2], J[1, 3], J[2, 3] = F[j + 1], F[j], F[j], F[j - 1]
        return J - J.T

    def test_symplectic_basis_raises_when_the_reduction_outgrows_int64(self):
        J = self._fibonacci_form(60)  # entries below 2**42
        assert int(np.abs(J).max()) < 2**42
        P = referees.symplectic_change_of_basis(J)  # exists, with entries too big for int64
        assert (P.T @ J.astype(object) @ P).tolist() == intmat.standard_symplectic(4).tolist()
        assert max(abs(v) for v in P.flat) * int(np.abs(J).max()) >= 2**62
        with pytest.raises(OverflowError):
            intmat.symplectic_change_of_basis(J)

    @pytest.mark.parametrize("form", ["fibonacci", "tie"])
    def test_symplectic_basis_matches_referee_on_crafted_forms(self, form):
        if form == "fibonacci":
            J = self._fibonacci_form(10)
        else:  # e_1 pairs with e_2 and e_3 by 1: the first smallest pairing is e_2's
            J = np.zeros((4, 4), dtype=np.int64)
            J[0, 1], J[0, 2], J[2, 3] = 1, 1, 1
            J = J - J.T
        P = intmat.symplectic_change_of_basis(J)
        assert P.tolist() == referees.symplectic_change_of_basis(J).tolist()
        assert (P.T @ J @ P).tolist() == intmat.standard_symplectic(4).tolist()

    def test_symplectic_basis_matches_referee_on_dense_forms(self):
        # J0 congruenced by random elementary integer matrices: dense
        # unimodular skew forms with 2g = 2 .. 24, unlike the cover's sparse ones
        rng = np.random.default_rng(23)
        rounds = minus = 0
        for m in range(2, 25, 2):
            for _ in range(8):
                E = np.eye(m, dtype=object)
                for _ in range(m):
                    i, j = rng.choice(m, size=2, replace=False)
                    E[i] += int(rng.choice([-2, -1, 1, 2])) * E[j]
                E = E[rng.permutation(m)]
                J0 = intmat.standard_symplectic(m)
                J = (E @ J0.astype(object) @ E.T).astype(np.int64)
                P = intmat.symplectic_change_of_basis(J)
                assert P.dtype == np.int64
                assert P.tolist() == referees.symplectic_change_of_basis(J).tolist()
                assert (P.T @ J @ P).tolist() == J0.tolist()
                # the first step's pivot: the first smallest nonzero pairing of e_1
                first = J[0, 1:][J[0, 1:] != 0]
                pivot = int(first[np.argmin(np.abs(first))])
                rounds += abs(pivot) > 1  # no pairing of e_1 is +-1: several gcd rounds
                minus += pivot == -1
        assert rounds >= 3 and minus >= 10

    @pytest.mark.parametrize(
        "J",
        [
            np.zeros((2, 2), dtype=np.int64),
            np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            np.array([[0, 1, 2, 0], [-1, 0, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0]]),
        ],
        ids=["zero", "odd", "rank-two"],
    )
    def test_degenerate_form_raises_value_error(self, J):
        for fn in (intmat.symplectic_change_of_basis, referees.symplectic_change_of_basis):
            with pytest.raises(ValueError, match="degenerate"):
                fn(J)

    @pytest.mark.parametrize("J", [[[0, 1], [1, 0]], [[0, 1, 0], [-1, 0, 0]], [0, 0]])
    def test_form_that_is_not_square_and_skew_raises_value_error(self, J):
        with pytest.raises(ValueError, match="square skew"):
            intmat.symplectic_change_of_basis(np.array(J))

    def test_non_unimodular_form_raises_value_error(self):
        J = 2 * intmat.standard_symplectic(4).astype(np.int64)
        for fn in (intmat.symplectic_change_of_basis, referees.symplectic_change_of_basis):
            with pytest.raises(ValueError, match="not unimodular"):
                fn(J)


def _fraction_echelon(A):
    """``(rank, det)`` by Gauss-Jordan elimination over ``Fraction``: the
    exact referee for :mod:`intmat`'s fraction-free elimination."""
    M = [[Fraction(int(x)) for x in row] for row in A]
    rows, cols = len(M), len(M[0]) if M else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if M[r][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            det = -det
        det *= M[rank][c]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(rows):
            if r != rank and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
        if rank == rows:
            break
    return rank, int(det) if rank == rows == cols else 0


class TestElimination:
    @staticmethod
    def _seeded_matrices():
        rng = random.Random(7)
        for _ in range(60):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            if rng.random() < 0.5:
                yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            else:  # a thin product: rank at most r
                r = rng.randrange(0, min(rows, cols) + 1)
                B = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(rows)]
                C = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(r)]
                yield [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(cols)]
                       for i in range(rows)]
        for m in range(1, 9):  # square: large, sparse (row swaps) and rank-deficient
            yield [[rng.randint(-2**40, 2**40) for _ in range(m)] for _ in range(m)]
            for _ in range(5):
                yield [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(m)] for _ in range(m)]
            B = [[rng.randint(-5, 5) for _ in range(m - 1)] for _ in range(m)]
            yield [[sum(B[i][t] * B[j][t] for t in range(m - 1)) for j in range(m)]
                   for i in range(m)]

    def test_rank_and_det_match_fraction_elimination(self):
        deficient = nonzero = 0
        for A in self._seeded_matrices():
            rank, det = _fraction_echelon(A)
            deficient += rank < min(len(A), len(A[0]))
            assert intmat.rank_rational(A) == rank, A
            assert intmat.rank_rational(np.array(A, dtype=object)) == rank, A
            if len(A) == len(A[0]):
                assert intmat.det_exact(A) == det, A
                nonzero += det != 0
        assert deficient >= 10 and nonzero >= 20

    @staticmethod
    def _check_smith(A):
        A = intmat.as_object_matrix(A)
        m, n = A.shape
        D, U, Uinv, V, r = intmat.smith_normal_form(A)
        assert np.array_equal(U @ A @ V, D), A
        assert np.array_equal(U @ Uinv, intmat.identity_object(m)), A
        diag = [D[i, i] for i in range(min(m, n))]
        assert np.count_nonzero(D) == np.count_nonzero(diag), A
        assert all(d >= 0 for d in diag), A
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else b == 0, A
        assert r == intmat.rank_rational(A) == np.count_nonzero(diag), A
        assert abs(intmat.det_exact(U)) == abs(intmat.det_exact(V)) == 1, A
        return diag

    @pytest.mark.parametrize(
        "A,diag",
        [
            ([[2, 0], [0, 3]], [1, 6]),
            ([[0, 6], [4, 0]], [2, 12]),
            ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
            ([[-3]], [3]),
            ([[1, 2], [2, 4], [3, 6]], [1, 0]),
            ([[0, 0, 0], [0, 0, 0]], [0, 0]),
        ],
    )
    def test_smith_normal_form_invariant_factors(self, A, diag):
        assert self._check_smith(A) == diag

    def test_smith_normal_form_on_seeded_matrices(self):
        rng = random.Random(11)
        torsion = 0
        for A in self._seeded_matrices():
            self._check_smith(A)
        for _ in range(300):  # small entries with common factors give torsion
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            A = [[rng.choice([0, 0, 2, -2, 3, 4, -6, 9]) for _ in range(cols)]
                 for _ in range(rows)]
            torsion += any(d > 1 for d in self._check_smith(A))
        assert torsion >= 100

    def test_smith_normal_form_matches_entry_loop_on_seeded_matrices(self):
        rng = random.Random(13)
        matrices = list(self._seeded_matrices())
        for _ in range(200):  # ties and torsion: many equal small entries
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            matrices.append([[rng.choice([0, 0, 2, -2, 3, 4, -6, 9]) for _ in range(cols)]
                             for _ in range(rows)])
        for A in matrices:
            got = intmat.smith_normal_form(A)
            want = referees.smith_normal_form(A)
            assert [x.tolist() for x in got[:4]] == [x.tolist() for x in want[:4]], A
            assert got[4] == want[4], A

    def test_empty_and_non_square(self):
        assert intmat.det_exact(np.zeros((0, 0), dtype=np.int64)) == 1
        assert intmat.rank_rational(np.zeros((0, 3), dtype=np.int64)) == 0
        assert intmat.rank_rational(np.zeros((3, 0), dtype=np.int64)) == 0
        with pytest.raises(ValueError):
            intmat.det_exact([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            intmat.det_exact([1, 2])


class TestDeckRotation:
    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 3), (2, 4), (1, 5)])
    def test_order_and_fixed_space(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        Mz = lift_rep(S, "zeta")
        power = identity(S)
        for j in range(1, k):
            power = power @ Mz
            assert not np.array_equal(power, identity(S))
        assert np.array_equal(power @ Mz, identity(S))
        assert intmat.rank_rational(Mz - identity(S)) == 2 * ctx.genus


class TestLiftCycle:
    def test_nonliftable_curve_raises(self):
        ctx = Context(1, 3)
        S = build_cover(ctx)
        with pytest.raises(DoesNotLiftError):
            lift_cycle(S, CurveClass(ctx, (1,)))

    def test_k_closed_lifts(self):
        ctx = Context(2, 3)
        S = build_cover(ctx)
        lifts = lift_cycle(S, gamma_curve(1, 4, ctx))
        assert lifts.shape == (3, S.h1_rank) and lifts.dtype == np.int64
        # row l - 1 is the lift from sheet l: zeta^(l-1) of the sheet-1 lift
        Mz = lift_rep(S, "zeta")
        for l in range(1, 4):
            moved = cover_mod.mul(lift_product(S, f"zeta^{l - 1}"), lifts[0])
            assert np.array_equal(lifts[l - 1], moved)

    def test_deck_rotation_permutes_lifts(self):
        ctx = Context(2, 4)
        S = build_cover(ctx)
        Mz = lift_rep(S, "zeta")
        for i in range(1, ctx.num_points):
            lifts = cover_mod._gamma_lifts(S, i)
            for l in range(ctx.k):
                assert np.array_equal(Mz @ lifts[l], lifts[(l + 1) % ctx.k])


class TestMonodromyTraceAgreement:
    def test_residue_equals_traced_sheet_change(self):
        # two independent routes: the signed-crossing functional vs actually
        # walking the crossings through the sheets
        import random

        from superelliptic.liftability import CurveClass, curve_monodromy

        rng = random.Random(17)
        ctx = Context(2, 4)
        S = build_cover(ctx)
        for _ in range(200):
            letters = [
                rng.choice([s * j for j in range(1, ctx.num_points + 1) for s in (1, -1)])
                for _ in range(rng.randrange(1, 8))
            ]
            curve = CurveClass.from_letters(ctx, letters)
            residue = curve_monodromy(curve, ctx)
            sheet = 1
            for arc, d in cover_mod._crossing_sequence(curve):
                sheet += d * (1 if arc % 2 == 1 else 0)
            assert sheet % ctx.k == (1 + residue) % ctx.k
            if residue != 0:
                with pytest.raises(DoesNotLiftError):
                    lift_cycle(S, curve)
            else:
                assert len(lift_cycle(S, curve)) == ctx.k


class TestTwistMatrices:
    def test_null_homologous_gives_identity(self):
        S = build_cover(Context(1, 3))
        c = cover_mod.mul(S.proj, S.relations[0])
        assert not c.any()
        assert np.array_equal(twist_matrix(S, c), identity(S))

    def test_transvection_fixes_orthogonal_vectors(self):
        S = build_cover(Context(1, 3))
        c = cover_mod._gamma_lifts(S, 1)[0]
        T = twist_matrix(S, c)
        for x in np.eye(S.h1_rank, dtype=object):
            if int(x @ S.J @ c) == 0:
                assert np.array_equal(T @ x, x)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3)])
    def test_twists_are_symplectic(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        for i in (1, 2):
            for c in cover_mod._gamma_lifts(S, i):
                assert cover_mod.is_symplectic(S, twist_matrix(S, c))


class TestHyperelliptic:
    """Known answers at k = 2, where the cover is the hyperelliptic one.

    ``c_i`` is the first lift of ``gamma_i`` and ``T_i`` its twist.  The
    hyperelliptic involution acts by -1 on homology, a twist about
    ``gamma_i`` lifts to ``T_i^2``, and the ``T_i`` satisfy the braid
    relations, the involution relation ``T_1 ... T_{2n+1} T_{2n+1} ... T_1 =
    zeta`` and the chain relation ``(T_1 ... T_{2n+1})^{2n+2} = I``
    (Farb-Margalit, *A Primer on Mapping Class Groups*, 2012).
    """

    @pytest.fixture(params=[1, 2, 3, 5])
    def twists(self, request):
        S = build_cover(Context(request.param, 2))
        arcs = S.ctx.num_arcs
        return S, [twist_matrix(S, cover_mod._gamma_lifts(S, i)[0]) for i in range(1, arcs + 1)]

    def test_deck_rotation_is_minus_the_identity(self, twists):
        S, _ = twists
        assert np.array_equal(lift_rep(S, "zeta"), -identity(S))

    def test_twist_lift_is_the_square_of_one_twist(self, twists):
        S, T = twists
        for i, Ti in enumerate(T, start=1):
            assert np.array_equal(lift_rep(S, "t", i), Ti @ Ti), i

    def test_braid_relations(self, twists):
        _, T = twists
        for a in range(len(T)):
            for b in range(a + 1, len(T)):
                if b == a + 1:
                    assert np.array_equal(T[a] @ T[b] @ T[a], T[b] @ T[a] @ T[b]), (a, b)
                else:
                    assert np.array_equal(T[a] @ T[b], T[b] @ T[a]), (a, b)

    def test_involution_and_chain_relations(self, twists):
        S, T = twists
        chain = cover_mod.mul(*T)
        assert np.array_equal(cover_mod.mul(*T, *T[::-1]), lift_rep(S, "zeta"))
        assert np.array_equal(cover_mod.matrix_power(chain, len(T) + 1), identity(S))


class TestChainPattern:
    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (1, 4), (2, 4)])
    def test_alternating_family_is_chain(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        for i in range(1, 2 * n + 1):
            low = cover_mod._gamma_lifts(S, i)
            high = cover_mod._gamma_lifts(S, i + 1)
            if i % 2 == 1:
                chain = [c for l in range(k - 1) for c in (low[l], high[l])] + [low[-1]]
            else:
                chain = [c for l in range(k - 1, 0, -1) for c in (low[l], high[l])] + [
                    low[0]
                ]
            for a in range(len(chain)):
                for b in range(a + 1, len(chain)):
                    expected = 1 if b == a + 1 else 0
                    assert abs(pairing(S, chain[a], chain[b])) == expected

    def test_distant_families_disjoint(self):
        ctx = Context(2, 3)
        S = build_cover(ctx)
        for i in range(1, ctx.num_points):
            for j in range(i + 2, ctx.num_points):
                for ca in cover_mod._gamma_lifts(S, i):
                    for cb in cover_mod._gamma_lifts(S, j):
                        assert pairing(S, ca, cb) == 0


def _transvection_product(curves, J):
    """Matrix of ``T_{c_1} T_{c_2} ... T_{c_m}`` in Python ints, where
    ``T_c: x -> x + <x, c> c`` and ``<x, y> = x^T J y``."""
    m = len(J)

    def pair(x, y):
        return sum(x[i] * J[i][j] * y[j] for i in range(m) for j in range(m))

    def apply(c, x):
        p = pair(x, c)
        return [xi + p * ci for xi, ci in zip(x, c)]

    columns = []
    for j in range(m):
        x = [int(i == j) for i in range(m)]
        for c in reversed(curves):  # the rightmost factor acts first
            x = apply(c, x)
        columns.append(x)
    return [[columns[j][i] for j in range(m)] for i in range(m)]


def _twists(S, curves):
    """``T_{c_1} ... T_{c_r}`` from its compact-WY block (``cover._twist_block``), dense."""
    U, B = cover_mod._twist_block(S, np.array(curves))
    M = np.eye(S.h1_rank, dtype=np.int64)
    M[np.ix_(U, U)] = B
    return M


class TestClosedFormTransvect:
    """Twist blocks in compact-WY form against the Python-int ``_transvection_product``."""

    @staticmethod
    def _curves(rng, m, r):
        return [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(m)] for _ in range(r)]

    @staticmethod
    def _exact(M, curves, J):
        M = np.array(M, dtype=object)
        return (M @ np.array(_transvection_product(curves, J), dtype=object)).tolist()

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4)])
    def test_seeded_curves_with_any_pairings(self, n, k):
        S = build_cover(Context(n, k))
        J, m = S.J.tolist(), S.h1_rank
        rng = random.Random(31 * n + k)
        nonzero = 0
        for _ in range(12):
            curves = self._curves(rng, m, rng.randrange(1, 8))
            nonzero += sum(pairing(S, np.array(a), np.array(b)) != 0
                           for a in curves for b in curves)
            got = _twists(S, curves)
            assert got.dtype == np.int64
            assert got.tolist() == _transvection_product(curves, J), curves
        assert nonzero >= 50

    def test_repeated_curves(self):
        S = build_cover(Context(2, 3))
        J, m = S.J.tolist(), S.h1_rank
        rng = random.Random(2)
        for _ in range(10):
            a, b = self._curves(rng, m, 2)
            assert twist_matrix(S, np.array(a)).tolist() == _transvection_product([a], J), a
            for curves in ([a, a], [a, a, a], [a, b, a], [a, b, a, b, b]):
                got = _twists(S, curves)
                assert got.tolist() == _transvection_product(curves, J), curves

    def test_non_identity_matrix(self):
        S = build_cover(Context(2, 3))
        J, m = S.J.tolist(), S.h1_rank
        rng = random.Random(3)
        for _ in range(10):
            M = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(m)]
            curves = self._curves(rng, m, rng.randrange(1, 6))
            before = np.array(M, dtype=np.int64)
            got = cover_mod.mul(before, _twists(S, curves))
            assert got.tolist() == self._exact(M, curves, J), curves
            assert before.tolist() == M  # the input is not changed
        lifts = cover_mod.h_chain(S, 2)
        M = lift_rep(S, "r1")
        assert cover_mod.mul(M, _twists(S, lifts)).tolist() == self._exact(
            M.tolist(), lifts.tolist(), J
        )


class TestLiftReps:
    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4)])
    def test_lifts_and_symplectic_basis_match_exact_references(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        J = S.J.tolist()

        def vectors(curves):
            return [[int(x) for x in c] for c in curves]

        for i in range(1, ctx.num_points):
            want = _transvection_product(vectors(cover_mod._gamma_lifts(S, i)), J)
            assert lift_rep(S, "t", i).tolist() == want, ("t", i)
        for i in range(1, 2 * n + 1):
            low = cover_mod._gamma_lifts(S, i)
            high = cover_mod._gamma_lifts(S, i + 1)
            if i % 2 == 1:
                order = [c for l in range(k - 1) for c in (low[l], high[l])] + [low[-1]]
            else:
                order = [c for l in range(k - 1, 0, -1) for c in (low[l], high[l])]
                order.append(low[0])
            want = _transvection_product(vectors(order), J)
            assert lift_rep(S, "h", i).tolist() == want, ("h", i)
        # the exact symplectic basis still standardizes J, in Python ints
        P = intmat.symplectic_change_of_basis(S.J).tolist()
        PtJP = [
            [sum(P[a][i] * J[a][b] * P[b][j] for a in range(len(J)) for b in range(len(J)))
             for j in range(len(J))]
            for i in range(len(J))
        ]
        assert PtJP == intmat.standard_symplectic(S.h1_rank).tolist()

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (1, 4)])
    def test_half_turn_involution(self, n, k):
        S = build_cover(Context(n, k))
        Mr = lift_rep(S, "r")
        assert np.array_equal(Mr @ Mr, identity(S))

    def test_normalization_exponents(self):
        ctx = Context(2, 3)
        S = build_cover(ctx)
        for i in range(1, ctx.num_points):
            assert check_normalizes_deck(lift_rep(S, "t", i), S) == 1
        for i in range(1, 2 * ctx.n + 1):
            assert check_normalizes_deck(lift_rep(S, "h", i), S) == 1
        assert check_normalizes_deck(lift_rep(S, "r"), S) == ctx.k - 1
        assert check_normalizes_deck(lift_rep(S, "r1"), S) == ctx.k - 1
        assert check_normalizes_deck(identity(S), S) == 1

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (1, 4), (2, 4), (3, 3)])
    def test_rotation_conjugations(self, n, k):
        ctx = Context(n, k)
        S = build_cover(ctx)
        Mr1 = lift_rep(S, "r1")
        Mr1i = cover_mod.symplectic_inverse(S, Mr1)
        for i in range(1, 2 * n + 1):
            assert np.array_equal(
                Mr1 @ lift_rep(S, "t", i) @ Mr1i, lift_rep(S, "t", i + 1)
            )
        for i in range(1, 2 * n):
            assert np.array_equal(
                Mr1 @ lift_rep(S, "h", i) @ Mr1i, lift_rep(S, "h", i + 1)
            )

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4)])
    def test_deck_factorization(self, n, k):
        S = build_cover(Context(n, k))
        assert np.array_equal(lift_rep(S, "zeta_prime"), lift_rep(S, "zeta"))

    def test_r1_definition_consistency_n1(self):
        S = build_cover(Context(1, 3))
        rhs = lift_rep(S, "r") @ cover_mod.symplectic_inverse(S, lift_rep(S, "h", 1))
        assert np.array_equal(lift_rep(S, "r1"), rhs)

    def test_unknown_names_rejected(self):
        S = build_cover(Context(1, 3))
        with pytest.raises(ValueError):
            lift_rep(S, "w")
        with pytest.raises(ValueError):
            lift_rep(S, "t", 99)

    def test_a_stray_index_raises_the_same_error_cold_and_warm(self):
        S = build_cover(Context(1, 3))
        cover_mod._LIFT_CACHE.clear()
        errors = []
        for _ in range(2):  # cold, then with t2, zeta and the gamma_2 lifts cached
            for kind, index in [("t", 2.0), ("t", True), ("h", 1.0), ("zeta", 7), ("r1", 1),
                                ("gamma", 2)]:
                with pytest.raises(ValueError) as exc:
                    lift_rep(S, kind, index)
                errors.append(str(exc.value))
            lift_rep(S, "t", 2)
            lift_rep(S, "zeta")
        assert errors[:6] == errors[6:]
        assert errors[0] == "t-lift index 2.0 out of range 1..3"
        assert errors[3] == "zeta-lift takes no index, got 7"
        # t2 as its block to the power 1, zeta dense, and the gamma_2 lifts t2 is built from
        assert {key[1:] for key in cover_mod._LIFT_CACHE} == {
            ("t", 2, 1), ("gamma", 2), ("zeta", None, 1)
        }


class TestLiftProduct:
    @pytest.fixture(scope="class")
    def S(self):
        return build_cover(Context(2, 3))

    def test_single_tokens_are_the_lifts(self, S):
        for text, kind, index in [("t3,4", "t", 3), ("h4", "h", 4), ("r", "r", None),
                                  ("r1", "r1", None), ("zeta", "zeta", None),
                                  ("zeta_prime", "zeta_prime", None), ("h2^1", "h", 2)]:
            assert np.array_equal(lift_product(S, text), lift_rep(S, kind, index)), text

    def test_product_left_to_right_with_powers(self, S):
        t, h = lift_rep(S, "t", 1).astype(object), lift_rep(S, "h", 2).astype(object)
        h_inv = cover_mod.symplectic_inverse(S, lift_rep(S, "h", 2)).astype(object)
        want = t @ h_inv @ h_inv @ t @ t @ t
        assert np.array_equal(lift_product(S, "t1,2 h2^-2 t1,2^3"), want)
        assert np.array_equal(lift_product(S, "zeta^3"), identity(S))  # k = 3
        assert np.array_equal(lift_product(S, "h2^0"), identity(S))
        assert np.array_equal(lift_product(S, ""), identity(S))

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 4)])
    def test_r1_and_zeta_prime_are_their_factor_lists(self, n, k):
        S = build_cover(Context(n, k))

        def product(factors, start):
            M = start.astype(object)
            for kind, params, e in factors:
                base = lift_rep(S, kind, params[0])
                base = base if e > 0 else cover_mod.symplectic_inverse(S, base)
                for _ in range(abs(e)):
                    M = M @ base.astype(object)
            return M

        r1 = product(generators.F_factors(n), lift_rep(S, "r"))
        assert np.array_equal(lift_rep(S, "r1"), r1)
        zeta_prime = product(generators.t_chain_factors(1, 2 * n + 1), identity(S))
        assert np.array_equal(lift_rep(S, "zeta_prime"), zeta_prime)

    @pytest.mark.parametrize(
        "text", ["t1,3", "t1", "t2,1", "q7", "s1", "F", "zeta^x", "h2^", "h2^1.5", "r1,2", "zeta2"]
    )
    def test_malformed_tokens_raise(self, S, text):
        with pytest.raises(WordSyntaxError):
            lift_product(S, f"zeta {text}")

    @pytest.mark.parametrize("text", ["h5", "t6,7", "h0"])
    def test_out_of_range_index_raises(self, S, text):
        with pytest.raises(ValueError, match="out of range"):
            lift_product(S, text)

    def test_cache_is_not_exposed(self, S):
        M = lift_product(S, "zeta")
        M[0, 0] += 1
        assert not np.array_equal(lift_product(S, "zeta"), M)

    @pytest.mark.parametrize("e", range(-7, 8))
    def test_matrix_power_is_the_repeated_product(self, S, e):
        # matrix_power takes e >= 1; a lift token's sign picks its inverse factor
        J, Jinv = S.J.astype(object), S.Jinv.astype(object)
        for tok, kind, index in [("t1,2", "t", 1), ("h2", "h", 2), ("r1", "r1", None),
                                 ("zeta", "zeta", None)]:
            M = lift_rep(S, kind, index)
            base = M.astype(object) if e >= 0 else Jinv @ M.T.astype(object) @ J
            want = identity(S)
            for _ in range(abs(e)):
                want = want @ base
            assert np.array_equal(lift_product(S, f"{tok}^{e}"), want), (kind, e)
            if e >= 1:
                power = cover_mod.matrix_power(M, e)
                assert np.array_equal(power, want) and power is not M, (kind, e)
            else:
                with pytest.raises(ValueError, match="e >= 1"):
                    cover_mod.matrix_power(M, e)

    @pytest.mark.parametrize("e", [10**9, -(10**9), 3 * 10**40 + 2])
    def test_huge_power_takes_few_products(self, S, e, few_products):
        want = lift_product(S, f"zeta^{e % 3}")  # k = 3
        assert np.array_equal(lift_product(S, f"zeta^{e}"), want)

    def test_overflowing_power_raises(self, S, few_products):
        with pytest.raises(OverflowError):
            lift_product(S, "t1,2^1000000000000000000")

    def test_each_distinct_token_is_built_once_per_context(self, S, monkeypatch):
        # a lift is built once per context; its inverse and its factors to the
        # powers 1 and -1 are cached, and a larger power is squared on each call
        text = "t1,2 h2 r1 t1,2 zeta h2 r h2^1 h2^3 zeta^-2"  # h2^1 is h2
        want = referees.lift_product(S, text)
        built = []
        real = cover_mod._build_lift
        monkeypatch.setattr(cover_mod, "_build_lift", lambda *a: built.append(a[1:]) or real(*a))
        cover_mod._LIFT_CACHE.clear()
        for _ in range(3):
            assert lift_product(S, text).tolist() == want.tolist()
        assert len(built) == len(set(built))  # r1 builds r and its F tokens, once each
        assert {("t", 1, 1), ("h", 2, 1), ("r1", None, 1), ("zeta", None, -1)} <= set(built)
        lifts = {key[1:] for key in cover_mod._LIFT_CACHE if key[1] != "gamma"}
        assert lifts == set(built)  # no power is kept
        count, size = len(built), len(cover_mod._LIFT_CACHE)
        lift_product(S, "h2^+1 r t1,2 h2^1 h2^5 zeta^-7")
        assert len(built) == count  # a warm context builds nothing
        assert len(cover_mod._LIFT_CACHE) == size

    def test_powers_leave_the_cache_as_it_was(self):
        # at (16, 16) each dense power of zeta is a 480 x 480 int64 matrix
        S = build_cover(Context(16, 16))
        lift_product(S, "zeta")
        size = len(cover_mod._LIFT_CACHE)
        for e in range(2, 22):
            lift_product(S, f"zeta^{e}")
        assert len(cover_mod._LIFT_CACHE) == size
        assert np.array_equal(lift_product(S, "zeta^21"), lift_product(S, "zeta^5"))  # k = 16

    def test_one_token_text_is_a_fresh_array(self, S):
        for text in ("t1,2", "h2^-1", "r1"):
            M = lift_product(S, text)
            M[0, 0] += 1
            assert not np.array_equal(lift_product(S, text), M), text

    def test_repeated_tokens_are_read_once(self, S, monkeypatch):
        text = "h1^-1 h1^-1 t1,2 h1^-1 t1,2"
        want = referees.lift_product(S, text)
        read, built = [], []
        token, build = cover_mod._lift_token, cover_mod._build_lift
        monkeypatch.setattr(cover_mod, "_lift_token", lambda *a: read.append(a[1]) or token(*a))
        monkeypatch.setattr(cover_mod, "_build_lift", lambda *a: built.append(a[1:]) or build(*a))
        cover_mod._LIFT_CACHE.clear()
        for _ in range(2):
            assert lift_product(S, text).tolist() == want.tolist()
        assert read == ["h1^-1", "t1,2"] * 2  # once per distinct token and call
        # h1^-1 is the closed-form inverse of the checked h1 block; all built once
        assert built == [("h", 1, -1), ("h", 1, 1), ("t", 1, 1)]


class TestLiftEvaluator:
    """The block evaluator against the dense chain of ``referees.lift_product``."""

    @staticmethod
    def _texts(n, rng):
        names = ["zeta", "zeta_prime", "r", "r1"] + [f"h{i}" for i in range(1, 2 * n + 1)]
        names += [f"t{i},{i + 1}" for i in range(1, 2 * n + 2)]
        exponents = ["", "", "^1", "^-1", "^2", "^-2", "^3", "^-3", "^0", "^+2", "^5", "^-7"]
        texts = []
        for _ in range(10):
            toks = [rng.choice(names) + rng.choice(exponents) for _ in range(rng.randrange(1, 7))]
            texts.append(" ".join(toks + [rng.choice(toks)] * rng.randrange(3)))  # repeats
        return texts + ["h1^-1 h1^-1 t1,2 h1^-1 t1,2", "t2,3 r1", "r1 t1,2 r1^-1", "h1^0", ""]

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (6, 6)])
    def test_random_texts_match_the_dense_chain_cold_and_warm(self, n, k):
        S = build_cover(Context(n, k))
        texts = self._texts(n, random.Random(100 * n + k))
        want = [referees.lift_product(S, text) for text in texts]
        cover_mod._LIFT_CACHE.clear()
        for _ in range(2):  # cold, then with every token built
            for text, M in zip(texts, want):
                got = lift_product(S, text)
                assert got.dtype == np.int64 and got.tolist() == M.tolist(), text

    def test_large_entries_take_the_int64_path_exactly(self):
        # entries pass 2**53, so the column steps must leave float64 and stay exact
        S = build_cover(Context(2, 3))
        # (after r r, a full float64 product, the running product is float64)
        texts = ["t1,2^100000000 t2,3^100000000", "zeta t1,2^100000000 t2,3^-100000000",
                 "r r zeta t1,2^100000000 t2,3^-100000000",
                 "t2,3^3000000 r1 t1,2^3000000 t2,3^-3000000"]
        for text in texts:
            assert lift_product(S, text).tolist() == referees.lift_product(S, text).tolist(), text
        assert int(np.abs(lift_product(S, texts[0])).max()) > 2**53

    def test_overflowing_powers_and_products_raise_the_same_error_cold_and_warm(self):
        S = build_cover(Context(2, 3))
        big = 10**18
        for text in [f"t1,2^{big}", f"t1,2^{-big}", f"r1 t1,2^{big}",
                     "h1 t1,2^1000000000 t2,3^1000000000", "t1,2^1000000000 t2,3^1000000000 h1"]:
            cover_mod._LIFT_CACHE.clear()
            errors = []
            for _ in range(2):  # cold, then with the tokens that fit built
                with pytest.raises(OverflowError, match="2\\*\\*62") as exc:
                    lift_product(S, text)
                errors.append(str(exc.value))
            assert errors[0] == errors[1], text

    def test_huge_h_powers_end_quickly_and_exactly(self, few_products):
        # h1 has order 6 on homology at (2, 3): every power is exact, by squaring
        S = build_cover(Context(2, 3))
        for e in (1000000000, -(10**18), 10**18 + 1):
            want = referees.lift_product(S, f"h1^{e % 6}")
            assert lift_product(S, f"h1^{e}").tolist() == want.tolist(), e

    def test_a_tampered_block_fails_the_block_check(self, monkeypatch):
        S = build_cover(Context(2, 3))
        J = S.J
        cover_mod._LIFT_CACHE.clear()
        f = cover_mod._lift(S, "h", 1, 1)
        assert cover_mod.is_symplectic(S, f.B, f.U)
        for a, b in [(0, 0), (0, 1), (len(f.U) - 1, 0)]:
            B = f.B.copy()
            B[a, b] += 1
            assert not cover_mod.is_symplectic(S, B, f.U), (a, b)
        # a shear on a pair {u, v} with <u, v> = 1 keeps B^T J[U,U] B = J[U,U], but
        # moves the pairings with a class outside U, which the columns outside U catch
        u, v = next((u, v) for u in range(S.h1_rank) for v in range(S.h1_rank)
                    if J[u, v] == 1 and np.count_nonzero(J[u]) > 1)
        U, B = np.array(sorted((u, v))), np.array([[1, 1], [0, 1]], dtype=np.int64)
        assert np.array_equal(B.T @ J[np.ix_(U, U)] @ B, J[np.ix_(U, U)])
        dense = np.eye(S.h1_rank, dtype=np.int64)
        dense[np.ix_(U, U)] = B
        assert not cover_mod.is_symplectic(S, dense)
        assert not cover_mod.is_symplectic(S, B, U)
        # and the check runs on every token built
        real = cover_mod._twist_block

        def tampered(surface, curves):
            U, B = real(surface, curves)
            B[0, 0] += 1
            return U, B

        monkeypatch.setattr(cover_mod, "_twist_block", tampered)
        cover_mod._LIFT_CACHE.clear()
        with pytest.raises(AssertionError, match="lift h/1 is not symplectic"):
            lift_product(S, "h1")
        cover_mod._LIFT_CACHE.clear()
