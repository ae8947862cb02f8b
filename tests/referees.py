"""Independent slow versions of fast package code, kept as test referees.

Each function here computes what a package function computes, by the
direct method the package used before it was made fast: Python ints in
``object`` arrays, dense products and per-pair loops.  Tests compare the
package's results with these entry for entry.
"""

from __future__ import annotations

import numpy as np


def symplectic_change_of_basis(J) -> np.ndarray:
    """Unimodular ``P`` with ``P^T J P`` in standard block form, in Python ints.

    The same pivot rule as :func:`superelliptic.intmat.symplectic_change_of_basis`
    (the first smallest nonzero pairing), one vector at a time on ``object``
    arrays, so no entry can overflow.
    """
    J = np.array(J, dtype=object)
    m = J.shape[0]
    basis = [np.array([int(i == t) for i in range(m)], dtype=object) for t in range(m)]

    out: list[np.ndarray] = []
    while basis:
        u = basis.pop(0)
        uJ = u @ J
        pairs = [int(uJ @ w) for w in basis]  # pairs[i] = u^T J basis[i]
        if not any(pairs):
            raise ValueError("form is degenerate on the remaining sublattice")
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
            if not reduced:
                break
        if abs(d) != 1:
            raise ValueError("could not reach a unimodular pairing; form not unimodular?")
        del basis[b]
        w = best if d == 1 else -best
        Jw = J @ w
        basis = [x - int(x @ Jw) * u for x in basis]
        out.append(u)
        out.append(w)
    P = np.zeros((m, m), dtype=object)
    for col, vec in enumerate(out):
        P[:, col] = vec
    return P


def twist_lift(J: np.ndarray, curves) -> np.ndarray:
    """``T_{c_1} ... T_{c_r}`` as a dense product of the ``I + c (J c)^T``.

    Runs as int64 ``@``; each product asserts first that
    ``max|A| * max|B| * dim`` stays below ``2**62``, so it cannot wrap.
    """
    J = np.asarray(J, dtype=np.int64)
    m = J.shape[0]
    M = np.eye(m, dtype=np.int64)
    for c in curves:
        c = np.asarray(c, dtype=np.int64)
        T = np.eye(m, dtype=np.int64) + np.outer(c, J @ c)
        assert int(np.abs(M).max()) * int(np.abs(T).max()) * m < 2**62
        M = M @ T
    return M


def _chord_sign(a_in: int, a_out: int, b_in: int, b_out: int, size: int) -> int:
    ra = (a_out - a_in) % size
    rb1 = (b_in - a_in) % size
    rb2 = (b_out - a_in) % size
    in1 = 0 < rb1 < ra
    in2 = 0 < rb2 < ra
    if in1 == in2:
        return 0
    return 1 if in1 else -1


def crossing_form(pos, orient: int = 1) -> np.ndarray:
    """The loop pairing from vertex-link positions, one ``_chord_sign`` per pair."""
    pos = [int(p) for p in pos]
    m = len(pos) // 2
    crossing = np.zeros((m, m), dtype=np.int64)
    for e in range(m):
        for f in range(e + 1, m):
            sgn = _chord_sign(pos[2 * e + 1], pos[2 * e], pos[2 * f + 1], pos[2 * f], 2 * m)
            crossing[e, f] = orient * sgn
            crossing[f, e] = -orient * sgn
    return crossing
