"""The degree-``k`` cyclic branched cover as a combinatorial surface.

Model.  Cutting the sphere along the chain of arcs ``l_1..l_{2n+1}`` leaves
one disk; the cover is ``k`` copies of that disk ("sheets" ``1..k``) glued
along the ``k`` lifts of each arc.  Crossing arc ``i`` upward adds
``c_i = 1`` (odd ``i``) or ``0`` (even ``i``) to the sheet, which realizes
the alternating-monodromy cover.  A lifted arc is labeled by the sheet of
the face on its upper side: ``zeta`` (the deck rotation) then shifts all
labels by one.

Contracting the sheet-1 arc chain (a spanning tree of the 1-skeleton)
produces a one-vertex complex on the same surface, where first homology and
the intersection form become finite combinatorics: cycles are integer
vectors over the remaining ``(2n+1)(k-1)`` loops, faces give the relation
lattice, and the pairing of two loop classes is the chord-crossing sign of
their four ends in the cyclic order of the vertex link.

A lifted curve is its homology class vector: :func:`lift_cycle` returns the
``k`` lifts of a curve as the rows of an int64 array with ``2g`` columns.
The surface alone holds its homology state: its lift table ``table``, built
on first read, the lift factors built so far (``lifts``) and the parses of
the lift tokens read so far with the exponent 1 or -1 (``tokens``).  The
``t``/``h`` lifts read the table's rows (:func:`_lift_rows`).  Two checks
read its sheet structure: :func:`deck_rotation_failure` (``zeta`` moves
each lift to the next sheet of a Z-basis of lifts, so it has exact order
``k`` and no fixed class; else the part that fails) and
:func:`chain_pattern_violations` (the Gram matrix is the closed-form Squier
form).  Twists act by transvections ``x -> x + <x, c> c``.  A ``t`` or
``h`` lift is a product of them, kept as a block ``(U, B)``: the matrix is
``B`` on the rows and columns ``U``, the supports of its curves and of
their ``J``-images, and the identity elsewhere.  One build
(:func:`_twist_block`, in compact-WY form) makes the block and its
inverse: a ``t`` lift's curves are disjoint (its Gram is 0), so ``B = I +
C^T JC`` is one product, ``(B - I)^2 = 0``, the inverse is ``2I - B`` and
the powers are ``I + e (B - I)``; an ``h`` lift's ``X`` is solved once and
both blocks are read from it, and its powers are squared.  The deck
rotation and the half-turn act through their edge maps
(:func:`_cycle_map`) and are dense.  :func:`lift_product` is the one lift
evaluator: it reads lift text (``r1 t1,2 r1^-1``) token by token, and a
block factor rewrites only the columns ``U`` of the running product.
:func:`lift_rep` returns one named lift as a dense matrix.  The homology
representation is a necessary-condition shadow only (it is not faithful);
every verification built on it is labeled accordingly by the theorem suite.

Arithmetic.  :func:`build_cover` derives the relations and the homology
basis exactly in Python ints through :mod:`intmat`, computes the crossing
form from the vertex-link positions in one broadcast, and stores
everything as read-only ``int64`` (``OverflowError`` if an entry does not
fit), so the cached surface cannot be changed by a caller.  The symplectic
basis ``P`` is reduced on sparse rows of Python ints and returned only with
``P^T J P = J0`` checked (:func:`intmat.symplectic_change_of_basis`), the
certificate that ``det J = 1``.  Every later product of
homology matrices is a step of an :class:`intmat.Chain`, through
:func:`intmat.mul` (imported here as ``mul``) or directly.  It bounds each
step's entries and partial sums by ``max|A| * max|B| * inner_dim`` and
takes one of two exact paths: below ``2**53`` a float64 (BLAS) product,
below ``2**62`` an int64 product.  At ``2**62`` and above it raises
``OverflowError``.  It carries ``max|A|`` as the previous step's bound and
rescans the running product only when that bound reaches ``2**53``.  So a
result is exact or the call raises: it never wraps or rounds and never
falls back to object arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import intmat
from .errors import DoesNotLiftError, WordSyntaxError
from .generators import F_factors, t_chain_factors
from .intmat import Chain, _as_int64, _check_bound, _max_abs, mul
from .liftability import CurveClass, curve_monodromy
from .words import Context, read_token, require_context

# Global handedness of the intersection form.  Pinned by the requirement
# that the boundary-twist factorization of the deck rotation reproduces the
# deck rotation matrix itself (theorem suite / acceptance).
_ORIENT = 1


def _c(i: int) -> int:
    return 1 if i % 2 == 1 else 0


@dataclass(frozen=True, eq=False)
class CoverSurface:
    ctx: Context
    n_vertices: int
    n_edges: int
    n_faces: int
    loops: tuple[tuple[int, int], ...]
    loop_index: dict
    relations: np.ndarray  # k x m, int64
    crossing: np.ndarray  # m x m pairing of loop classes, int64
    basis: np.ndarray  # m x 2g, int64
    proj: np.ndarray  # 2g x m, int64
    J: np.ndarray  # 2g x 2g, int64
    Jinv: np.ndarray  # 2g x 2g, int64
    P: np.ndarray  # 2g x 2g, int64: P^T J P is the standard symplectic form
    lifts: dict = field(default_factory=dict, init=False, repr=False)  # filled by _lift
    tokens: dict = field(default_factory=dict, init=False, repr=False)  # filled by _lift_token

    @cached_property
    def table(self) -> "_Curves":
        """Every lift of every ``gamma_i`` (the round curves of :func:`_round_sequence`).

        Row ``(i - 1) k + l - 1`` is the lift of ``gamma_i`` that starts on
        sheet ``l``.  All of them map to homology in one product ``cycles .
        basis . Jinv^T``; ``JC`` and ``G`` take one product each.  The arrays
        are read-only.
        """
        ctx = self.ctx
        cycles = [_sheet_cycles(self, _round_sequence(ctx, i)) for i in range(1, ctx.num_arcs + 1)]
        table = _curves(self, mul(np.concatenate(cycles), self.basis, self.Jinv.T))
        for a in table:
            a.flags.writeable = False
        return table

    @property
    def genus(self) -> int:
        return self.ctx.genus

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def h1_rank(self) -> int:
        return self.basis.shape[1]

    def info(self) -> dict:
        return {
            "n": self.ctx.n,
            "k": self.ctx.k,
            "vertices": self.n_vertices,
            "edges": self.n_edges,
            "faces": self.n_faces,
            "genus": self.genus,
            "euler_characteristic": self.euler_characteristic,
            "h1_rank": self.h1_rank,
        }


def _norm(l: int, k: int) -> int:
    return (l - 1) % k + 1


def _face_sides(ctx: Context) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The boundary of each sheet's face as ``(arc, label, direction)`` sides."""
    k, arcs = ctx.k, ctx.num_arcs
    face_sides = []
    for s in range(1, k + 1):
        sides = []
        for i in range(1, arcs + 1):
            lab = _norm(s + _c(i), k)
            if lab != 1:
                sides.append((i, lab, 1))
        if s != 1:
            for i in range(arcs, 0, -1):
                sides.append((i, s, -1))
        face_sides.append(tuple(sides))
    return tuple(face_sides)


def _link_positions(face_sides, loop_index: dict) -> np.ndarray:
    """Position of each loop end on the vertex link: ends ``2e`` (tail), ``2e+1`` (head)."""
    m = len(loop_index)
    succ = [-1] * (2 * m)
    for sides in face_sides:
        L = len(sides)
        for t in range(L):
            i1, lab1, d1 = sides[t]
            e1 = loop_index[(i1, lab1)]
            arrival = 2 * e1 + (1 if d1 > 0 else 0)
            i2, lab2, d2 = sides[(t + 1) % L]
            e2 = loop_index[(i2, lab2)]
            departure = 2 * e2 + (0 if d2 > 0 else 1)
            if succ[arrival] != -1:
                raise AssertionError("edge end visited twice; face data corrupt")
            succ[arrival] = departure
    if m and min(succ) < 0:
        raise AssertionError("edge end never visited; face data corrupt")

    pos = [-1] * (2 * m)
    if m:
        x = 0
        count = 0
        while True:
            pos[x] = count
            count += 1
            x = succ[x]
            if x == 0:
                break
        if count != 2 * m:
            raise AssertionError("vertex link is not a single circle")
    return np.array(pos, dtype=np.int64)


def _crossing_form(pos: np.ndarray) -> np.ndarray:
    """Pairing of the loop classes from the chord-crossing signs of their ends.

    Loop ``e`` is the chord from its head ``pos[2e+1]`` to its tail
    ``pos[2e]`` on the link circle.  Loop ``f`` crosses it with sign +1
    (-1) when only its head (tail) lies strictly inside the arc that runs
    forward from ``e``'s head to ``e``'s tail, and 0 when both or neither
    do.  Two chords with distinct ends either interlace, and then exactly
    one end of each lies inside the other's arc, or do not, so the signs
    form a skew matrix with zero diagonal; all pairs are computed in one
    broadcast.
    """
    size = len(pos)
    head, tail = pos[1::2], pos[0::2]
    reach = ((tail - head) % size)[:, None]

    def inside(ends):
        r = (ends[None, :] - head[:, None]) % size
        return ((0 < r) & (r < reach)).astype(np.int64)

    return _ORIENT * (inside(head) - inside(tail))


@lru_cache(maxsize=None)
def build_cover(ctx: Context) -> CoverSurface:
    """Build the cover and its homology apparatus for the given ``(n, k)``."""
    n, k = ctx.n, ctx.k
    arcs = ctx.num_arcs

    loops = tuple((i, l) for i in range(1, arcs + 1) for l in range(2, k + 1))
    loop_index = {e: t for t, e in enumerate(loops)}
    m = len(loops)

    face_sides = _face_sides(ctx)
    relations = np.zeros((k, m), dtype=np.int64)
    for s, sides in enumerate(face_sides):
        for (i, lab, d) in sides:
            relations[s, loop_index[(i, lab)]] += d
    crossing = _crossing_form(_link_positions(face_sides, loop_index))

    if mul(relations, crossing).any():
        raise AssertionError("face relations do not pair to zero")

    D, U, Uinv, _V, r = intmat.smith_normal_form(relations.T)
    for t in range(r):
        if D[t, t] != 1:
            raise AssertionError("surface homology has torsion; complex corrupt")
    basis = _as_int64(Uinv[:, r:])
    proj = _as_int64(U[r:, :])

    J = mul(basis.T, crossing, basis)
    if J.shape[0] != 2 * ctx.genus:
        raise AssertionError("homology rank disagrees with the genus")
    if not np.array_equal(J, -J.T):
        raise AssertionError("intersection form is not skew")
    try:  # P comes checked: P^T J P = J0, which certifies det J = 1
        P = intmat.symplectic_change_of_basis(J)
    except ValueError as exc:
        raise AssertionError(f"intersection form is not unimodular: {exc}") from exc
    Jinv = -mul(P, intmat.standard_symplectic(J.shape[0]), P.T)
    for a in (relations, crossing, basis, proj, J, Jinv, P):
        a.flags.writeable = False

    surface = CoverSurface(
        ctx=ctx,
        n_vertices=ctx.num_points,
        n_edges=k * arcs,
        n_faces=k,
        loops=loops,
        loop_index=loop_index,
        relations=relations,
        crossing=crossing,
        basis=basis,
        proj=proj,
        J=J,
        Jinv=Jinv,
        P=P,
    )
    chi = surface.euler_characteristic
    if chi != 2 - 2 * ctx.genus:
        raise AssertionError(f"Euler characteristic {chi} != {2 - 2 * ctx.genus}")
    return surface


# -- lifted curves -----------------------------------------------------------


def _crossing_sequence(base: CurveClass) -> list[tuple[int, int]]:
    """Arc crossings (arc, direction) of the curve; +1 crosses upward."""
    arcs = base.ctx.num_arcs
    seq: list[tuple[int, int]] = []
    for a in base.letters:
        j = abs(a)
        pairs = [(j, 1), (j - 1, -1)] if a > 0 else [(j - 1, 1), (j, -1)]
        for arc, d in pairs:
            if 1 <= arc <= arcs:
                seq.append((arc, d))
    return seq


def _round_sequence(ctx: Context, i: int) -> list[tuple[int, int]]:
    """Minimal crossing sequence of the round curve about points ``i, i+1``.

    Starts on the arc below the enclosed points, so the start sheet is the
    lower-face sheet; this is the labeling under which the alternating
    families form chains.
    """
    arcs = ctx.num_arcs
    if i == 1:
        return [(2, 1)]
    if i == arcs:
        return [(arcs - 1, -1)]
    return [(i + 1, 1), (i - 1, -1)]


def _sheet_cycles(surface: CoverSurface, seq: list[tuple[int, int]]) -> np.ndarray:
    """The loop-coordinate cycles of the ``k`` lifts of a closed crossing sequence.

    Row ``l - 1`` of the ``k x m`` int64 array is the lift that starts on
    sheet ``l``.  A crossing of a tree edge (label 1) counts minus one on
    every other lift of its arc, the loops ``(arc, 2..k)``, which are
    consecutive in the loop order.
    """
    k = surface.ctx.k
    cycles = np.zeros((k, len(surface.loops)), dtype=np.int64)
    for label in range(1, k + 1):
        s, cycle = label, cycles[label - 1]
        for arc, d in seq:
            lab = _norm(s + _c(arc), k) if d > 0 else s
            if lab >= 2:
                cycle[surface.loop_index[(arc, lab)]] += d
            else:
                first = surface.loop_index[(arc, 2)]
                cycle[first : first + k - 1] -= d
            s = _norm(s + d * _c(arc), k)
        if s != label:
            raise AssertionError("zero-monodromy lift failed to close")
    return cycles


def lift_cycle(surface: CoverSurface, base: CurveClass) -> np.ndarray:
    """The ``k`` lifts of a liftable curve as a ``k x 2g`` int64 array.

    Row ``l - 1`` is the class vector of the lift that starts on sheet ``l``;
    all ``k`` loop-coordinate cycles (:func:`_sheet_cycles`) map in one product.
    """
    ctx = surface.ctx
    require_context(ctx, base)
    mono = curve_monodromy(base, ctx)
    if mono != 0:
        raise DoesNotLiftError(
            f"curve {base.to_text()!r} has monodromy {mono} mod {ctx.k}; it does not lift"
        )
    return mul(_sheet_cycles(surface, _crossing_sequence(base)), surface.basis, surface.Jinv.T)


def pairing(surface: CoverSurface, a: np.ndarray, b: np.ndarray) -> int:
    """Algebraic intersection number ``a^T J b`` of two class vectors."""
    return int(mul(a, surface.J, b))


def identity(surface: CoverSurface) -> np.ndarray:
    return np.eye(surface.h1_rank, dtype=np.int64)


class _Curves(NamedTuple):
    """Class vectors as the rows of ``C``, their ``J``-images ``JC = -C J``
    (row ``t`` is ``(J c_t)^T``) and their Gram matrix ``G = JC C^T``."""

    C: np.ndarray
    JC: np.ndarray
    G: np.ndarray

    def rows(self, R) -> "_Curves":
        """The curves ``R``, a slice or an index array."""
        return _Curves(self.C[R], self.JC[R], self.G[R][:, R])


def _curves(surface: CoverSurface, C) -> _Curves:
    C = _as_int64(C)
    JC = -mul(C, surface.J)
    return _Curves(C, JC, mul(JC, C.T))


def _twist_block(
    surface: CoverSurface, curves
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``T_{c_1} ... T_{c_r}`` over the curves ``c`` as a block ``(U, B)``,
    returned as ``(U, B, B_inv)`` with the block of its inverse on the same ``U``.

    ``curves`` are rows of the lift table (:class:`_Curves`) or an ``r x 2g``
    array of class vectors.  ``T_c = I + c (J c)^T`` is the right twist
    about class ``c``.  With the curves as the rows of ``C`` and ``JC`` the
    rows ``(J c_t)^T``, a product of rank-one updates has the compact-WY form
    (Schreiber & Van Loan, *SIAM J. Sci. Stat. Comput.* 10 (1989))

        T_{c_1} ... T_{c_r} = I + C^T X JC,   X = (I - N)^{-1},

    where ``N`` is the strict upper triangle of ``G = JC C^T``.  Its inverse
    ``J^-1 (I + C^T X JC)^T J`` is ``I - C^T X^T JC``, as ``J^-1 JC^T = C^T``
    and ``C J = -JC``.  Both updates are zero outside the rows and columns
    ``U``, the supports of the ``c`` and the ``J c``, so each block is the
    matrix on ``U`` and the identity elsewhere.  Disjoint curves (``G = 0``,
    as for a ``t`` lift) have ``X = I``: ``B = I + C^T JC`` is one product,
    and as ``(B - I)^2 = 0`` its inverse is ``2I - B``.  Otherwise ``X`` is
    unit upper triangular and ``r x r`` for ``r`` curves; it is solved once
    by back-substitution in Python ints and converted to int64 once, which
    raises ``OverflowError`` if an entry does not fit, and both blocks are
    read from it.  Every product is a checked :func:`mul`, so the blocks are
    exact or the call raises.
    """
    C, JC, G = curves if isinstance(curves, _Curves) else _curves(surface, curves)
    U = np.flatnonzero(C.any(axis=0) | JC.any(axis=0))
    CU, JCU = C[:, U], JC[:, U]
    if G.any():
        G = G.tolist()  # G[i][j] = (J c_i)^T c_j
        r = len(G)
        X = [[0] * r for _ in range(r)]
        for i in range(r - 1, -1, -1):  # row i of X = I + N X
            row = X[i]
            row[i] = 1
            for l in range(i + 1, r):
                if q := G[i][l]:
                    for j in range(l, r):
                        row[j] += q * X[l][j]
        X = _as_int64(np.array(X, dtype=object))
        B, B_inv = mul(CU.T, X, JCU), mul(CU.T, -X.T, JCU)
    else:
        B = mul(CU.T, JCU)
        B_inv = -B
    B.flat[:: len(U) + 1] += 1
    B_inv.flat[:: len(U) + 1] += 1
    return U, B, B_inv


def twist_matrix(surface: CoverSurface, c: np.ndarray) -> np.ndarray:
    """Transvection of the right twist about class ``c``: ``x -> x + <x, c> c``."""
    U, B, _ = _twist_block(surface, np.asarray(c)[None])
    return _dense(surface, _Factor(U, B))


def is_symplectic(surface: CoverSurface, M: np.ndarray, U: np.ndarray | None = None) -> bool:
    """Whether ``M^T J M = J``, or with ``U`` whether the block ``(U, M)`` is symplectic.

    The rows ``U`` of ``T^T J T``, for ``T`` the block's matrix, are ``X =
    M^T J[U, :]`` with ``X[:, U]`` replaced by ``X[:, U] M``: two steps of
    one :class:`intmat.Chain`.  The other rows equal those of ``J`` once
    these do, as ``T^T J T`` is skew.
    """
    J = surface.J if U is None else surface.J[U]
    b = _max_abs(M)
    chain = Chain(M.T, b)
    chain.times(J, _max_abs(J))
    chain.times(M, b, U)
    return np.array_equal(chain.result(), J)


def symplectic_inverse(surface: CoverSurface, M: np.ndarray) -> np.ndarray:
    """``I + J^-1 (M - I)^T J = J^-1 M^T J``, the inverse of a symplectic ``M``."""
    eye = np.eye(len(M), dtype=np.int64)
    return mul(surface.Jinv, (M - eye).T, surface.J) + eye


def matrix_power(M: np.ndarray, e: int) -> np.ndarray:
    """``M^e`` for ``e >= 1`` as a new array, by squaring: about ``2 log2 e`` products."""
    if e < 1:
        raise ValueError(f"matrix_power needs e >= 1, got {e}")
    out = None
    while True:
        if e & 1:
            out = M.copy() if out is None else mul(out, M)
        e >>= 1
        if not e:
            return out
        M = mul(M, M)


def _induced_matrix(surface: CoverSurface, chain_map: np.ndarray) -> np.ndarray:
    """Push a cycle-space map that preserves the relation lattice down to the homology basis."""
    if mul(surface.proj, chain_map, surface.relations.T).any():
        raise AssertionError("cycle map does not preserve the relation lattice")
    return mul(surface.proj, chain_map, surface.basis)


def _cycle_map(surface: CoverSurface, image, sign: int) -> np.ndarray:
    """The cycle-space map of the edge map ``image`` (labels mod ``k``): loop
    ``(i, l)`` goes to ``sign`` times loop ``image(i, l)`` minus the image
    ``image(i, 1)`` of its tree edge, and label 1, the tree, is dropped."""
    k, index = surface.ctx.k, surface.loop_index
    C = np.zeros((len(index), len(index)), dtype=np.int64)
    for t, (i, l) in enumerate(surface.loops):
        for (j, lab), s in ((image(i, l), sign), (image(i, 1), -sign)):
            if (lab := _norm(lab, k)) != 1:
                C[index[(j, lab)], t] += s
    return C


def _h_rows(ctx: Context, i: int) -> np.ndarray:
    """The lift-table rows of the (2k-1)-chain whose twists make the lift of
    ``h_i``: lifts of ``gamma_i`` and ``gamma_{i+1}`` alternate by label,
    ascending for odd ``i`` and descending for even ``i``, and the chain
    closes with a lift of ``gamma_i``."""
    k = ctx.k
    low, high = (i - 1) * k - 1, i * k - 1  # the rows of label l are low + l and high + l
    labels = range(1, k) if i % 2 == 1 else range(k, 1, -1)
    chain = [row for l in labels for row in (low + l, high + l)]
    return np.array(chain + [low + k if i % 2 == 1 else low + 1])


def _lift_rows(surface: CoverSurface, kind: str, i: int) -> _Curves:
    """The lift-table rows whose twists make the ``t`` or ``h`` lift ``i``:
    the ``k`` lifts of ``gamma_i``, row ``l - 1`` from sheet ``l``, or the
    chain of :func:`_h_rows`."""
    k = surface.ctx.k
    rows = slice((i - 1) * k, i * k) if kind == "t" else _h_rows(surface.ctx, i)
    return surface.table.rows(rows)


def chain_pattern_violations(surface: CoverSurface) -> list[tuple[int, int, int, int, int, int]]:
    """The entries ``(i, l, j, m, got, want)``, in row order, where the lift
    table's Gram matrix pairs ``c_{i,l}`` and ``c_{j,m}`` other than its closed
    form, the Squier form: skew, with ``<c_{i,l}, c_{i+1,l}> = 1``, ``<c_{i,l},
    c_{i+1,l-1}> = -1`` for odd ``i`` and ``<c_{i,l}, c_{i+1,l+1}> = -1`` for
    even ``i`` (sheets mod ``k``), and 0 elsewhere."""
    k, G = surface.ctx.k, surface.table.G
    rows = np.arange(len(G)).reshape(-1, k)  # rows[i - 1, l - 1] holds c_{i,l}
    low, high = rows[:-1], rows[1:]
    W = np.zeros_like(G)
    W[low, high] = 1  # and -1 with c_{i+1,l-1} where i is odd, that is low // k even:
    W[low, np.where(low // k % 2 == 0, np.roll(high, 1, 1), np.roll(high, -1, 1))] = -1
    W -= W.T
    return [(a // k + 1, a % k + 1, b // k + 1, b % k + 1, int(G[a, b]), int(W[a, b]))
            for a, b in np.argwhere(G != W).tolist()]


def deck_rotation_failure(surface: CoverSurface) -> str | None:
    """None if ``zeta c_{i,l} = c_{i,l+1}`` (sheets mod ``k``) and ``sum_l
    c_{i,l} = 0`` on the lift table, and the Gram matrix of ``B = {c_{i,l} :
    i <= 2n, l < k}`` is unimodular; else the first of these parts that
    fails.  When all hold, ``B`` is a Z-basis, as ``det J = 1``, on which
    ``zeta`` is block companion for ``1 + t + ... + t^(k-1)``: it has exact
    order ``k`` and, as that polynomial is ``k`` at ``t = 1``, fixes no
    nonzero class."""
    C, _, G = surface.table
    rows = np.arange(len(C)).reshape(-1, surface.ctx.k)  # rows[i - 1, l - 1] holds c_{i,l}
    if not np.array_equal(mul(lift_rep(surface, "zeta"), C.T), C[np.roll(rows, -1, 1).ravel()].T):
        return "zeta does not shift every lift c_{i,l} to c_{i,l+1}"
    _check_bound(surface.ctx.k * _max_abs(C), "sum")
    if C[rows].sum(axis=1).any():
        return "the lifts c_{i,1..k} of some gamma_i do not sum to 0"
    B = rows[:-1, :-1].ravel()
    try:  # returns only a basis P with P^T G_B P = J0
        intmat.symplectic_change_of_basis(G[B[:, None], B])
    except ValueError:
        return "the Gram matrix of B = {c_{i,l} : i <= 2n, l < k} is not unimodular"
    return None


class _Factor:
    """One lift token's matrix: ``B`` on the rows and columns ``U`` and the
    identity elsewhere, or ``B`` itself when ``U`` is None; ``top = max|B|``,
    and ``square_zero`` if ``(B - I)^2 = 0``.  ``B`` is read-only."""

    __slots__ = ("U", "B", "top", "square_zero")

    def __init__(self, U: np.ndarray | None, B: np.ndarray, square_zero: bool = False):
        B.flags.writeable = False
        self.U, self.B, self.top, self.square_zero = U, B, _max_abs(B), square_zero


def _check_lift(ctx: Context, kind: str, index) -> None:
    """``ValueError`` unless ``kind`` and ``index`` name a lift at ``ctx``."""
    if kind in ("t", "h"):
        top = ctx.num_arcs if kind == "t" else 2 * ctx.n
        if isinstance(index, bool) or not isinstance(index, int) or not 1 <= index <= top:
            raise ValueError(f"{kind}-lift index {index!r} out of range 1..{top}")
    elif kind not in ("zeta", "r", "r1", "zeta_prime"):
        raise ValueError(f"unknown lift name {kind!r}")
    elif index is not None:
        raise ValueError(f"{kind}-lift takes no index, got {index!r}")


def _lift(surface: CoverSurface, kind: str, index: int | None, e: int) -> _Factor:
    """The lift ``kind``/``index`` to the power ``e != 0``.

    Its factors to the powers 1 and -1 are built once (:func:`_build_lift`)
    and kept in ``surface.lifts[kind, index, +-1]``; one build of a ``t`` or
    ``h`` lift keeps both.  A larger power ``m = |e|`` is formed on each call
    and not kept: ``I + m (B - I)`` when ``(B - I)^2 = 0``, as for a ``t``
    lift, and else by squaring."""
    key = (kind, index, 1 if e > 0 else -1)
    if key not in surface.lifts:
        surface.lifts.update(_build_lift(surface, kind, index, key[2]))
    f, m = surface.lifts[key], abs(e)
    if m == 1:
        return f
    if not f.square_zero:
        return _Factor(f.U, matrix_power(f.B, m))
    N = f.B - np.eye(len(f.B), dtype=np.int64)
    _check_bound(m * _max_abs(N), "power")  # so no entry of I + m N reaches 2**63
    P = N * m
    P.flat[:: len(P) + 1] += 1
    return _Factor(f.U, P)


def _build_lift(surface: CoverSurface, kind: str, index: int | None, sign: int) -> dict:
    """The factors that one build of the lift to the power ``sign`` makes, by
    their keys in ``surface.lifts``, once the lift itself is checked symplectic.

    A ``t`` or ``h`` build makes the block and its inverse together
    (:func:`_twist_block`).  A dense lift is built alone, and its inverse is
    :func:`symplectic_inverse` of the kept lift."""
    ctx = surface.ctx
    made = {}
    if kind in ("t", "h"):
        # the product of the twists about the lifted curves, in row order.  (B - I)^2
        # is C^T X G X JC, so it is 0 when the curves are disjoint (G = 0), as for t
        curves = _lift_rows(surface, kind, index)
        square_zero = not curves.G.any()
        U, B, B_inv = _twist_block(surface, curves)
        f = _Factor(U, B, square_zero)
        made[kind, index, -1] = _Factor(U, B_inv, square_zero)
    elif sign < 0:  # the inverse, once the lift itself is built and checked
        f = _lift(surface, kind, index, 1)
        return {(kind, index, -1): _Factor(None, symplectic_inverse(surface, f.B))}
    elif kind == "zeta":  # every label moves up one sheet
        f = _Factor(None, _induced_matrix(surface, _cycle_map(surface, lambda i, l: (i, l + 1), 1)))
    elif kind == "r":  # arc i goes to arc 2n + 2 - i, reversed
        cycles = _cycle_map(surface, lambda i, l: (ctx.num_points - i, ctx.k - l + 1 + i % 2), -1)
        f = _Factor(None, _induced_matrix(surface, cycles))
    elif kind == "r1":
        f = _Factor(None, lift_product(surface, " ".join(["r", *F_factors(ctx.n)])))
    else:  # zeta_prime
        f = _Factor(None, _zeta_prime(surface))
    if not is_symplectic(surface, f.B, f.U):
        raise AssertionError(f"lift {kind}/{index} is not symplectic")
    made[kind, index, 1] = f
    return made


def _zeta_prime(surface: CoverSurface) -> np.ndarray:
    """The lift of ``t_chain_factors(1, 2n+1)``, whose last ``n (2n - 2)``
    tokens are the run ``h_{2n-2} ... h_1`` repeated ``n`` times: the run
    is evaluated once and raised to its power by squaring."""
    n, tokens = surface.ctx.n, t_chain_factors(1, surface.ctx.num_arcs)
    cut = len(tokens) - n * (2 * n - 2)
    run = tokens[cut : cut + 2 * n - 2]
    if tokens[cut:] != run * n:
        raise AssertionError("the zeta_prime tokens do not end in a repeated run")
    head, run = (lift_product(surface, " ".join(t)) for t in (tokens[:cut], run))
    return mul(head, matrix_power(run, n))


def _dense(surface: CoverSurface, f: _Factor) -> np.ndarray:
    """The ``2g x 2g`` matrix of a lift factor, as a new array."""
    if f.U is None:
        return f.B.copy()
    M = identity(surface)
    M[f.U[:, None], f.U] = f.B
    return M


def lift_rep(surface: CoverSurface, kind: str, index: int | None = None) -> np.ndarray:
    """Homology matrix of a named lift, as a new dense int64 array.

    Kinds: ``"t"`` (index i: lift of the twist about points i, i+1),
    ``"h"`` (index i: lift of the half-rotation), ``"r"`` (half-turn),
    ``"r1"`` (rotation lift, ``r F`` over the lifts of ``F_factors``),
    ``"zeta"`` (deck rotation), ``"zeta_prime"`` (the boundary-twist lift,
    as its twist factorization ``t_chain_factors(1, 2n+1)``).  ``r1`` and
    ``zeta_prime`` are read as lift text by :func:`lift_product`.  A bad
    kind or index raises ``ValueError`` before the cache is read.
    """
    _check_lift(surface.ctx, kind, index)
    return _dense(surface, _lift(surface, kind, index, 1))


_LIFT_ARITY = {"zeta": 0, "zeta_prime": 0, "r": 0, "r1": 0, "h": 1, "t": 2}  # indices per name


def lift_product(surface: CoverSurface, text: str) -> np.ndarray:
    """Homology matrix of lift text, e.g. ``r1 t1,2 r1^-1`` or ``zeta h3^2``.

    The one lift evaluator.  Tokens are ``zeta``, ``zeta_prime``, ``r``,
    ``r1``, ``h<i>`` and ``t<i>,<i+1>`` (the :func:`lift_rep` kinds), read
    by :func:`words.read_token`, each with an optional exponent: an integer
    of any size or a linear expression in n and k; the result is their
    left-to-right product as a new int64 array, and empty text is the
    identity.  Each distinct token is read once per call
    (:func:`_lift_token`), and one with the exponent 1 or -1 is parsed once
    per surface: a ``t`` or ``h`` power as a block ``(U, B)``, the others
    dense.  The running product is one :class:`intmat.Chain`, in which a
    block rewrites only the columns ``U`` of the product, or, as the first
    factor, the rows ``U`` of a dense second one.  So the result is exact
    or the call raises ``OverflowError``.  A malformed or unknown token or a
    twist ``t<i>,<j>`` with ``j != i+1`` raises :class:`WordSyntaxError`,
    and an index out of range ``ValueError``.
    """
    tokens = text.split()
    built = {tok: _lift_token(surface, tok) for tok in dict.fromkeys(tokens)}
    factors = [built[tok] for tok in tokens if built[tok] is not None]
    if not factors:
        return identity(surface)
    first, rest = factors[0], factors[1:]
    if first.U is None:
        chain = Chain(first.B.copy(), first.top)
    elif rest and rest[0].U is None:
        dense = rest.pop(0)
        chain = Chain(dense.B.copy(), dense.top)
        chain.times(first.B, first.top, first.U, left=True)
    else:
        chain = Chain(_dense(surface, first))
    for f in rest:
        chain.times(f.B, f.top, f.U)
    return chain.result()


def _lift_token(surface: CoverSurface, tok: str) -> _Factor | None:
    """The factor of one lift token of :func:`lift_product`; None for a zeroth power.

    A token spelled as its lift to the power 1 or -1 (``h2``, ``h2^-1``) is
    parsed once per surface: its parse is kept in ``surface.tokens`` once its
    factor is built, so at most two per lift.  Any other token, a power
    among them, is parsed on each read."""
    if tok in surface.tokens:
        return _lift(surface, *surface.tokens[tok])
    kind, indices, e = read_token(tok, surface.ctx)
    if _LIFT_ARITY.get(kind) != len(indices):
        raise WordSyntaxError(f"unknown lift token {tok!r}")
    if kind == "t" and indices[1] != indices[0] + 1:
        raise WordSyntaxError(f"a twist lift needs adjacent twists t<i>,<i+1>, not {tok!r}")
    index = indices[0] if indices else None
    _check_lift(surface.ctx, kind, index)
    if not e:
        return None
    f = _lift(surface, kind, index, e)
    if tok == kind + ",".join(map(str, indices)) + ("^-1" if e < 0 else ""):  # e is 1 or -1
        surface.tokens[tok] = (kind, index, e)
    return f


def check_normalizes_deck(M: np.ndarray, surface: CoverSurface) -> int | None:
    """Return ``j`` with ``M zeta M^{-1} = zeta^j`` (1 <= j <= k-1), or None."""
    Mz = lift_rep(surface, "zeta")
    conj = mul(M, Mz, symplectic_inverse(surface, M))
    power = identity(surface)
    for j in range(1, surface.ctx.k):
        power = mul(power, Mz)
        if np.array_equal(conj, power):
            return j
    return None
