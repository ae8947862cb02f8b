"""Exact integer linear algebra on integer matrices.

:func:`smith_normal_form` and the Bareiss elimination behind
:func:`rank_rational` and :func:`det_exact` work on Python ints in numpy
``object`` arrays, and :func:`symplectic_change_of_basis` on sparse rows
of Python ints, so none of them can overflow.  A :class:`Chain` of
products, and :func:`mul` through it, works in ``int64``: each product is
computed only when a bound on every entry and partial sum is below
``2**62``, and raises ``OverflowError`` otherwise, so a result is exact or
the call raises; it never wraps.  A symplectic basis is returned only once
:func:`mul` confirms ``P^T J P = J0``, so it certifies ``det J = 1`` and
callers do not check it again.  The cover derives its homology apparatus with these
functions and stores it as read-only int64 (see
:mod:`superelliptic.cover`).  Sizes reach about two thousand
rows (``2g = 1984`` at ``(n, k) = (32, 32)``), but the Smith form sees only
the ``k`` face relations as columns, the symplectic basis works on sparse
rows, and the products run in BLAS, so the classics are plenty: Smith form
with transforms, fraction-free elimination, a symplectic basis for a skew
unimodular form."""

from __future__ import annotations

import numpy as np

# A product's entries, and every partial sum of them, are sums of at most
# ``inner_dim`` terms each at most ``max|A| * max|B|`` in absolute value.
_FLOAT_BOUND = 2**53
_PRODUCT_BOUND = 2**62


def _as_int64(A) -> np.ndarray:
    """``A`` as an int64 array; ``OverflowError`` if an entry does not fit."""
    A = np.asarray(A)
    if A.dtype.kind not in "biO":
        raise TypeError(f"expected an integer array, got dtype {A.dtype}")
    return A.astype(np.int64, copy=False)


def _max_abs(A: np.ndarray) -> int:
    return max(int(A.max()), -int(A.min())) if A.size else 0


def _check_bound(bound: int, what: str) -> None:
    """``OverflowError`` unless ``bound`` is below ``2**62``."""
    if bound >= _PRODUCT_BOUND:
        raise OverflowError(f"int64 {what} bound {bound} >= 2**62")


class Chain:
    """A running exact int64 product ``A @ B @ ...`` that carries its bound.

    Before each step, ``bound = top * max|B| * inner_dim`` bounds every entry
    and every partial sum of the step's product, in any summation order.
    ``top >= max|out|`` is carried from step to step as the previous step's
    bound; ``out`` is rescanned only when that carried bound reaches
    ``2**53``, so the int64 path and the ``OverflowError`` are decided on its
    true maximum.

    - ``bound < 2**53``: the product runs as float64 ``@`` (BLAS).  Each term
      and each partial sum is then an integer below ``2**53``, which float64
      holds exactly, so neither the summation order nor fused multiply-adds
      can round.  (An entry at or above ``2**53`` is rounded on conversion,
      but then the other factor is zero and so is the product.)
    - ``2**53 <= bound < 2**62``: the product runs as int64 ``@``, the only
      exact path there; no int64 sum can wrap.
    - ``bound >= 2**62``: ``OverflowError``.

    A block step (:meth:`times` with ``U``) rewrites rows or columns of
    ``out`` in place, so ``out`` must then be the chain's own array.
    """

    __slots__ = ("out", "top", "exact")

    def __init__(self, A, top: int | None = None):
        """Start from ``A``; ``top`` is ``max|A|`` when the caller knows it."""
        self.out = _as_int64(A)
        self.top = _max_abs(self.out) if top is None else top
        self.exact = True  # top is max|out| itself, not a carried bound

    def times(self, B: np.ndarray, b: int, U: np.ndarray | None = None, left: bool = False) -> None:
        """``out @ B``, given ``b >= max|B|``.

        With ``U``, the step is ``out[:, U] @ B`` into the columns ``U``, or
        with ``left`` ``B @ out[U]`` into the rows ``U``: the product by the
        matrix that is ``B`` on the rows and columns ``U`` and the identity
        elsewhere, on the right or on the left.
        """
        if U is None:
            X, Y = self.out, B
        elif left:
            X, Y = B, self.out[U]
        else:
            X, Y = self.out[:, U], B
        d = X.shape[-1]
        bound = self.top * b * d
        if bound >= _FLOAT_BOUND and not self.exact:
            self.top = _max_abs(self.out)
            bound = self.top * b * d
        if bound < _FLOAT_BOUND:
            P = X.astype(np.float64, copy=False) @ Y.astype(np.float64, copy=False)
        elif bound < _PRODUCT_BOUND:
            P = X.astype(np.int64, copy=False) @ Y.astype(np.int64, copy=False)
        else:
            raise OverflowError(
                f"int64 product bound {bound} >= 2**62 (shapes {X.shape} @ {Y.shape})"
            )
        self.exact = False
        if U is None:
            self.out, self.top = P, bound
            return
        if P.dtype == np.int64:  # keep int64 entries at or above 2**53 exact
            self.out = self.out.astype(np.int64, copy=False)
        if left:
            self.out[U] = P
        else:
            self.out[:, U] = P
        self.top = max(self.top, bound)

    def result(self) -> np.ndarray:
        return self.out.astype(np.int64, copy=False)


def mul(*factors) -> np.ndarray:
    """Checked exact int64 product ``factors[0] @ factors[1] @ ...``, left to right.

    Factors are matrices or vectors, converted by :func:`_as_int64`; each
    distinct factor object is converted and scanned once per call.  The
    product is one :class:`Chain`, which decides each step's path (float64
    below ``2**53``, int64 below ``2**62``) and raises ``OverflowError`` at
    ``2**62`` and above.  The result is int64.
    """
    scanned: dict[int, tuple[np.ndarray, int]] = {}  # id(factor) -> (int64 array, max|.|)

    def scan(f) -> tuple[np.ndarray, int]:
        if id(f) not in scanned:
            A = _as_int64(f)
            scanned[id(f)] = (A, _max_abs(A))
        return scanned[id(f)]

    chain = Chain(*scan(factors[0]))
    for f in factors[1:]:
        chain.times(*scan(f))
    return chain.result()


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
    free; ``r`` is the number of nonzero diagonal entries.  Each pivot is
    the first smallest nonzero |entry| of the trailing block in row-major
    order, and the divisibility pass adds the row of the first entry the
    pivot does not divide.  Both are found by array expressions over that
    block, and each elimination step updates its rows (or columns) in one
    outer product.
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

    def negate_row(i):
        D[i, :] = -D[i, :]
        U[i, :] = -U[i, :]
        Uinv[:, i] = -Uinv[:, i]

    t = 0
    while True:
        block = np.abs(D[t:, t:])
        nonzero = block != 0
        if not nonzero.any():
            break
        # the first smallest nonzero |entry| of the trailing block, in row-major order
        first = np.flatnonzero(nonzero & (block == block[nonzero].min()))[0]
        i, j = divmod(int(first), n - t)
        swap_rows(t, t + i)
        swap_cols(t, t + j)
        # A nonzero remainder is smaller than the pivot: search again, so
        # that column operations run only once column t is clear below the
        # pivot and cannot grow the trailing block.
        # Each row i > t gets row_i += q_i row_t, and Uinv col_t -= q_i col_i;
        # the q_i are independent, so all rows update at once.
        q = -(D[t + 1:, t] // D[t, t])
        rows = t + 1 + np.flatnonzero(q)
        if rows.size:
            q = q[rows - t - 1]
            D[rows] += np.outer(q, D[t])
            U[rows] += np.outer(q, U[t])
            Uinv[:, t] -= Uinv[:, rows] @ q
        if D[t + 1:, t].any():
            continue
        q = -(D[t, t + 1:] // D[t, t])  # col_j += q_j col_t for each j > t
        cols = t + 1 + np.flatnonzero(q)
        if cols.size:
            q = q[cols - t - 1]
            D[:, cols] += np.outer(D[:, t], q)
            V[:, cols] += np.outer(V[:, t], q)
        if D[t, t + 1:].any():
            continue
        if D[t, t] < 0:
            negate_row(t)
        # enforce divisibility d_t | D[i, j]: add the first row, in row-major
        # order, with an entry that d_t does not divide
        rest = np.flatnonzero(D[t + 1:, t + 1:] % D[t, t])
        if rest.size:
            add_row(t, t + 1 + int(rest[0]) // (n - t - 1), 1)
        else:
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
    """Return unimodular int64 ``P`` with ``P^T J P`` in standard block form.

    The standard form is the direct sum of ``[[0, 1], [-1, 0]]`` blocks,
    ordered as basis pairs ``(a_1, b_1, a_2, b_2, ...)``.  ``J`` must be
    skew with determinant 1, or ``ValueError`` is raised.

    Each unpaired vector is a sparse row of Python ints kept with its
    nonzero pairings with the others.  A step gcd-reduces the pairings of
    the first unpaired ``u`` against the first smallest one and clears the
    rest against that vector ``w`` (negated if it pairs to -1).  ``J``'s
    nonzeros are read in one pass and ``P`` is written in one assignment.
    ``P`` is int64 only if ``max|P| * max|J| * 2g < 2**62``, else
    ``OverflowError``.
    It is returned only once a checked :func:`mul` gives ``P^T J P = J0``
    (:func:`standard_symplectic`), or ``ValueError``: such an integer ``P``
    certifies ``det J = 1``, as ``det(P)^2 det J = 1``.
    """
    J = _as_int64(J)
    if J.ndim != 2 or not np.array_equal(J, -J.T):
        raise ValueError("a symplectic basis needs a square skew matrix")
    m = J.shape[0]
    vec = [{i: 1} for i in range(m)]  # vec[i][coordinate] = entry of v_i
    gram: list[dict] = [{} for _ in range(m)]  # gram[i][j] = <v_i, v_j>
    rows, cols = np.nonzero(J)
    for i, j, g in zip(rows.tolist(), cols.tolist(), J[rows, cols].tolist()):
        gram[i][j] = g

    def add(i: int, q: int, b: int) -> None:  # v_i += q v_b; <v_b, v_b> = 0
        for c, val in vec[b].items():
            if new := vec[i].pop(c, 0) + q * val:
                vec[i][c] = new
        for x, g in gram[b].items():
            if x != i:
                gram[x].pop(i, None)
                if new := gram[i].pop(x, 0) + q * g:
                    gram[i][x], gram[x][i] = new, -new

    unpaired, out = list(range(m)), []
    while unpaired:
        pairs = gram[u := unpaired.pop(0)]
        if not pairs:
            raise ValueError("form is degenerate on the remaining sublattice")
        while len(pairs) > 1:  # v_i - q v_b pairs to p - q pairs[b] with u
            b = min(pairs, key=lambda i: (abs(pairs[i]), i))
            for i, p in list(pairs.items()):
                if i != b:
                    add(i, -(p // pairs[b]), b)
        [(b, d)] = pairs.items()  # v_b is the only vector that pairs with u
        if abs(d) != 1:
            raise ValueError("could not reach a unimodular pairing; form not unimodular?")
        for x, g in list(gram[b].items()):  # x - <x, w> u pairs to 0 with w = d v_b
            if x != u:
                add(x, d * g, u)
        unpaired.remove(b)
        out += [vec[u], {c: d * val for c, val in vec[b].items()}]
    top = max((abs(x) for v in out for x in v.values()), default=0)
    _check_bound(top * _max_abs(J) * m, "basis")  # the bound of P^T J in mul(P.T, J, P)
    P = np.zeros((m, m), dtype=np.int64)
    P[[c for v in out for c in v], [col for col, v in enumerate(out) for _ in v]] = [
        x for v in out for x in v.values()]
    if not np.array_equal(mul(P.T, J, P), standard_symplectic(m)):
        raise ValueError("P^T J P is not the standard symplectic form")
    return P


def standard_symplectic(m: int) -> np.ndarray:
    """Block-diagonal ``[[0,1],[-1,0]]`` form on ``m`` (even) coordinates, as int64."""
    J = np.zeros((m, m), dtype=np.int64)
    for t in range(0, m, 2):
        J[t, t + 1] = 1
        J[t + 1, t] = -1
    return J
