"""Exact integer linear algebra on small dense matrices.

The package's exact arithmetic lives here: these functions work on Python
ints in numpy ``object`` arrays, so no overflow is possible, and accept
any integer matrix as input.  The cover derives its homology apparatus
with them and then stores it as int64 (see :mod:`superelliptic.cover`).
Sizes stay small (at most a few hundred rows), so the cubic classics are
plenty: Smith normal form with transforms, one fraction-free (Bareiss)
elimination for rational rank and determinants, and a symplectic basis
for a skew unimodular form."""

from __future__ import annotations

import numpy as np


def as_object_matrix(A) -> np.ndarray:
    M = np.array(A, dtype=object)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return np.vectorize(int, otypes=[object])(M) if M.size else M


def identity_object(m: int) -> np.ndarray:
    M = np.zeros((m, m), dtype=object)
    for i in range(m):
        M[i, i] = 1
    return M


def smith_normal_form(A) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Return ``(D, U, Uinv, V, r)`` with ``U A V = D`` diagonal, U, V unimodular.

    ``Uinv`` is maintained alongside ``U`` so callers get the inverse for
    free; ``r`` is the number of nonzero diagonal entries.
    """
    D = as_object_matrix(A).copy()
    m, n = D.shape
    U = identity_object(m)
    Uinv = identity_object(m)
    V = identity_object(n)

    def swap_rows(i, j):
        if i != j:
            D[[i, j], :] = D[[j, i], :]
            U[[i, j], :] = U[[j, i], :]
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def swap_cols(i, j):
        if i != j:
            D[:, [i, j]] = D[:, [j, i]]
            V[:, [i, j]] = V[:, [j, i]]

    def add_row(i, j, q):
        # row_i += q * row_j
        if q:
            D[i, :] += q * D[j, :]
            U[i, :] += q * U[j, :]
            Uinv[:, j] -= q * Uinv[:, i]

    def add_col(i, j, q):
        # col_i += q * col_j
        if q:
            D[:, i] += q * D[:, j]
            V[:, i] += q * V[:, j]

    def negate_row(i):
        D[i, :] = -D[i, :]
        U[i, :] = -U[i, :]
        Uinv[:, i] = -Uinv[:, i]

    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i, j] != 0 and (pivot is None or abs(D[i, j]) < pivot[2]):
                    pivot = (i, j, abs(D[i, j]))
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # A nonzero remainder is smaller than the pivot: search again, so
        # that column operations run only once column t is clear below the
        # pivot and cannot grow the trailing block.
        for i in range(t + 1, m):
            add_row(i, t, -(D[i, t] // D[t, t]))
        if any(D[t + 1:, t]):
            continue
        for j in range(t + 1, n):
            add_col(j, t, -(D[t, j] // D[t, t]))
        if any(D[t, t + 1:]):
            continue
        if D[t, t] < 0:
            negate_row(t)
        # enforce divisibility d_t | D[i, j]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i, j] % D[t, t]:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
            if t >= min(m, n):
                break
    r = sum(1 for i in range(min(m, n)) if D[i, i] != 0)
    return D, U, Uinv, V, r


def _bareiss(A) -> tuple[int, int]:
    """``(rank, det)`` of an integer matrix by fraction-free row echelon form.

    Bareiss elimination: after the pivot ``p`` in column ``c``, each lower
    row becomes ``(p * row - row[c] * pivot_row) / prev`` with ``prev`` the
    previous pivot, one array expression over the trailing block.  Every
    entry is then a minor of the input, so each division is exact and the
    entries stay as small as the minors.  A column with no pivot is skipped,
    which leaves the minors on the pivot columns as they are.  ``det`` is
    the determinant when ``A`` is square (1 for the 0x0 matrix) and 0
    otherwise.
    """
    M = as_object_matrix(A).copy()
    rows, cols = M.shape
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        below = np.flatnonzero(M[rank:, c])
        if not below.size:
            continue
        piv = rank + int(below[0])
        if piv != rank:
            M[[rank, piv]] = M[[piv, rank]]
            sign = -sign
        p = M[rank, c]
        lower = M[rank + 1:, c + 1:]
        lower[...] = (p * lower - np.outer(M[rank + 1:, c], M[rank, c + 1:])) // prev
        prev = p
        rank += 1
    det = sign * prev if rank == rows == cols else 0
    return rank, det


def rank_rational(A) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return _bareiss(A)[0]


def det_exact(A) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    shape = np.shape(A)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("determinant needs a square matrix")
    return _bareiss(A)[1]


def symplectic_change_of_basis(J) -> np.ndarray:
    """Return unimodular ``P`` with ``P^T J P`` in standard block form.

    The standard form is the direct sum of ``[[0, 1], [-1, 0]]`` blocks,
    ordered as basis pairs ``(a_1, b_1, a_2, b_2, ...)``.  Requires ``J``
    skew with determinant 1.
    """
    J = as_object_matrix(J)
    m = J.shape[0]
    basis = [np.array([int(i == t) for i in range(m)], dtype=object) for t in range(m)]

    out: list[np.ndarray] = []
    while basis:
        u = basis.pop(0)
        uJ = u @ J
        pairs = [int(uJ @ w) for w in basis]  # pairs[i] = u^T J basis[i]
        if not any(pairs):
            raise ValueError("form is degenerate on the remaining sublattice")
        # make some pairing equal +-1 by gcd combinations; pairings are
        # linear, so w - q * best pairs to p - q * d
        while True:
            b = min((i for i, p in enumerate(pairs) if p), key=lambda i: abs(pairs[i]))
            best, d = basis[b], pairs[b]
            reduced = False
            for i, p in enumerate(pairs):
                if i != b and p:
                    q = p // d
                    basis[i] = basis[i] - q * best
                    pairs[i] = p - q * d
                    reduced = reduced or pairs[i] != 0
            if not reduced:  # best is the only vector that pairs with u
                break
        if abs(d) != 1:
            raise ValueError("could not reach a unimodular pairing; form not unimodular?")
        del basis[b]
        w = best if d == 1 else -best
        # the rest pair to 0 with u; clear their pairing with w
        Jw = J @ w
        basis = [x - int(x @ Jw) * u for x in basis]
        out.append(u)
        out.append(w)
    P = np.zeros((m, m), dtype=object)
    for col, vec in enumerate(out):
        P[:, col] = vec
    return P


def standard_symplectic(m: int) -> np.ndarray:
    """Block-diagonal ``[[0,1],[-1,0]]`` form on ``m`` (even) coordinates."""
    J = np.zeros((m, m), dtype=object)
    for t in range(0, m, 2):
        J[t, t + 1] = 1
        J[t + 1, t] = -1
    return J
