"""Exact integer linear algebra on small dense matrices.

The package's exact arithmetic lives here: these functions work on numpy
``object`` arrays of Python ints (or on ``Fraction`` lists), so no
overflow is possible, and accept any integer matrix as input.  The cover
derives its homology apparatus with them and then stores it as int64 (see
:mod:`superelliptic.cover`).  Sizes stay tiny (at most a few dozen rows),
so the cubic classics are plenty: Smith normal form with transforms,
rational rank, determinants, and a symplectic basis for a skew unimodular
form.
"""

from __future__ import annotations

from fractions import Fraction

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
        while True:
            done = True
            for i in range(t + 1, m):
                q = D[i, t] // D[t, t]
                add_row(i, t, -q)
                if D[i, t] != 0:
                    swap_rows(t, i)
                    done = False
            for j in range(t + 1, n):
                q = D[t, j] // D[t, t]
                add_col(j, t, -q)
                if D[t, j] != 0:
                    swap_cols(t, j)
                    done = False
            if done:
                break
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


def rank_rational(A) -> int:
    """Rank over the rationals, by exact fraction elimination."""
    M = [[Fraction(int(x)) for x in row] for row in np.array(A, dtype=object)]
    if not M:
        return 0
    rows, cols = len(M), len(M[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if M[r][c] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(rows):
            if r != rank and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def det_exact(A) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    M = as_object_matrix(A).copy()
    m, n = M.shape
    if m != n:
        raise ValueError("determinant needs a square matrix")
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(m - 1):
        if M[t, t] == 0:
            piv = next((r for r in range(t + 1, m) if M[r, t] != 0), None)
            if piv is None:
                return 0
            M[[t, piv], :] = M[[piv, t], :]
            sign = -sign
        for i in range(t + 1, m):
            for j in range(t + 1, m):
                M[i, j] = (M[i, j] * M[t, t] - M[i, t] * M[t, j]) // prev
            M[i, t] = 0
        prev = M[t, t]
    return sign * int(M[m - 1, m - 1])


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
        uJ = u @ J  # pair(u, x) = uJ . x, one dot product per pairing

        def pair(x) -> int:
            return int(uJ @ x)

        if all(pair(w) == 0 for w in basis):
            raise ValueError("form is degenerate on the remaining sublattice")
        # make some pairing equal +-1 by gcd combinations
        while True:
            best = min((w for w in basis if pair(w) != 0), key=lambda w: abs(pair(w)))
            d = pair(best)
            reducedany = False
            for idx, w in enumerate(basis):
                p = pair(w)
                if w is not best and p != 0:
                    q = p // d
                    basis[idx] = w - q * best
                    if pair(basis[idx]) != 0:
                        reducedany = True
            if abs(d) == 1 or not reducedany:
                break
        w0 = min((x for x in basis if pair(x) != 0), key=lambda x: abs(pair(x)))
        d = pair(w0)
        if abs(d) != 1:
            raise ValueError("could not reach a unimodular pairing; form not unimodular?")
        basis = [x for x in basis if x is not w0]
        w = w0 if d == 1 else -w0
        Jw, Ju = J @ w, J @ u
        basis = [x - int(x @ Jw) * u + int(x @ Ju) * w for x in basis]
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
