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
``k`` lifts of a curve, and :func:`h_chain` the curves of a lifted
half-rotation, as the rows of an int64 array with ``2g`` columns.
Twists act by transvections ``x -> x + <x, c> c``.  A ``t`` or ``h`` lift
is a product of them, kept as a block ``(U, B)``: the matrix is ``B`` on
the rows and columns ``U``, the supports of its curves and of their
``J``-images, and the identity elsewhere (:func:`_twist_block`, in
compact-WY form).  The deck rotation and the half-turn act through their
edge maps and are dense.  :func:`lift_product` is the one lift evaluator:
it reads lift text (``r1 t1,2 r1^-1``) token by token, and a block
factor rewrites only the columns ``U`` of the running product.
:func:`lift_rep` returns one named lift as a dense matrix.  The homology
representation is a necessary-condition shadow only (it is not
faithful); every verification built on it is labeled accordingly by the
theorem suite.

Arithmetic.  :func:`build_cover` derives the relations and the homology
basis exactly in Python ints through :mod:`intmat`, computes the crossing
form from the vertex-link positions in one broadcast, and stores
everything as ``int64`` (``OverflowError`` if an entry does not fit); the
symplectic basis ``P`` is reduced on sparse rows of Python ints
(:func:`intmat.symplectic_change_of_basis`).  Every later product of
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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import intmat
from .errors import DoesNotLiftError, WordSyntaxError
from .generators import F_factors, factors_to_tokens, t_chain_factors
from .intmat import Chain, _as_int64, _max_abs, mul
from .liftability import CurveClass, curve_monodromy, gamma_curve
from .words import Context, read_token

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
    try:  # an integer P with P^T J P = J0 certifies det J = 1
        P = intmat.symplectic_change_of_basis(J)
    except ValueError as exc:
        raise AssertionError(f"intersection form is not unimodular: {exc}") from exc
    J0 = intmat.standard_symplectic(J.shape[0])
    if not np.array_equal(mul(P.T, J, P), J0):
        raise AssertionError("intersection form is not unimodular")
    Jinv = -mul(P, J0, P.T)

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


def lift_cycle(
    surface: CoverSurface, base: CurveClass, _sequence: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """The ``k`` lifts of a liftable curve as a ``k x 2g`` int64 array.

    Row ``l - 1`` is the class vector of the lift that starts on sheet ``l``.
    A crossing of a tree edge (label 1) counts minus one on every other lift
    of its arc; all ``k`` loop-coordinate cycles map in one product.
    """
    ctx = surface.ctx
    mono = curve_monodromy(base, ctx)
    if mono != 0:
        raise DoesNotLiftError(
            f"curve {base.to_text()!r} has monodromy {mono} mod {ctx.k}; it does not lift"
        )
    seq = _crossing_sequence(base) if _sequence is None else _sequence
    k = ctx.k
    cycles = []
    for label in range(1, k + 1):
        s = label
        cycle = [0] * len(surface.loops)
        for arc, d in seq:
            lab = _norm(s + _c(arc), k) if d > 0 else s
            if lab >= 2:
                cycle[surface.loop_index[(arc, lab)]] += d
            else:
                for l in range(2, k + 1):
                    cycle[surface.loop_index[(arc, l)]] -= d
            s = _norm(s + d * _c(arc), k)
        if s != label:
            raise AssertionError("zero-monodromy lift failed to close")
        cycles.append(cycle)
    return mul(cycles, surface.basis, surface.Jinv.T)


def pairing(surface: CoverSurface, a: np.ndarray, b: np.ndarray) -> int:
    """Algebraic intersection number ``a^T J b`` of two class vectors."""
    return int(mul(a, surface.J, b))


def identity(surface: CoverSurface) -> np.ndarray:
    return np.eye(surface.h1_rank, dtype=np.int64)


def _twist_block(surface: CoverSurface, curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``T_{c_1} ... T_{c_r}`` over the rows ``c`` of ``curves`` as a block ``(U, B)``.

    ``T_c = I + c (J c)^T`` is the right twist about class ``c``.  With the
    curves as the rows of ``C`` and ``JC`` the rows ``(J c_t)^T``, a product
    of rank-one updates has the compact-WY form (Schreiber & Van Loan,
    *SIAM J. Sci. Stat. Comput.* 10 (1989))

        T_{c_1} ... T_{c_r} = I + C^T X JC,   X = (I - N)^{-1},

    where ``N`` is the strict upper triangle of ``G = JC C^T``.  The update
    ``C^T X JC`` is zero outside the rows and columns ``U``, the supports of
    the ``c`` and the ``J c``, so the product is ``B = I + C^T X JC`` on
    ``U`` and the identity elsewhere.  ``X`` is unit upper triangular and
    ``r x r`` for ``r`` curves; it is solved by back-substitution in Python
    ints and raises ``OverflowError`` if an entry does not fit int64.  Every
    product is a checked :func:`mul`, so ``B`` is exact or the call raises.
    """
    C = _as_int64(curves)
    on_c = np.flatnonzero(C.any(axis=0))  # only these columns of C are nonzero
    JC = mul(C[:, on_c], surface.J[:, on_c].T)  # row t is (J c_t)^T
    on = JC.any(axis=0)
    on[on_c] = True
    U = np.flatnonzero(on)
    C, JC = C[:, U], JC[:, U]
    G = mul(JC, C.T).tolist()  # G[i][j] = (J c_i)^T c_j
    r = len(G)
    X = [[0] * r for _ in range(r)]
    for i in range(r - 1, -1, -1):  # row i of X = I + N X
        row = X[i]
        row[i] = 1
        for l in range(i + 1, r):
            if q := G[i][l]:
                for j in range(l, r):
                    row[j] += q * X[l][j]
    B = mul(C.T, np.array(X, dtype=object), JC)
    B.flat[:: len(U) + 1] += 1
    return U, B


def twist_matrix(surface: CoverSurface, c: np.ndarray) -> np.ndarray:
    """Transvection of the right twist about class ``c``: ``x -> x + <x, c> c``."""
    return _dense(surface, _Factor(*_twist_block(surface, np.asarray(c)[None])))


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


def symplectic_inverse(surface: CoverSurface, M: np.ndarray, U: np.ndarray | None = None) -> np.ndarray:
    """``I + J^-1 (M - I)^T J = J^-1 M^T J``, the inverse of a symplectic ``M``.

    With ``U``, ``M`` is the ``B`` of a twist block and ``J``, ``J^-1`` are
    restricted to ``U x U``, outside which ``J^-1 (B - I)^T J`` is zero (its
    columns are curves ``c``, its rows ``J c``): the inverse block's ``B``.
    """
    J, Jinv = surface.J, surface.Jinv
    if U is not None:
        J, Jinv = J[U[:, None], U], Jinv[U[:, None], U]
    eye = np.eye(len(M), dtype=np.int64)
    return mul(Jinv, (M - eye).T, J) + eye


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


def _deck_cycle_map(surface: CoverSurface) -> np.ndarray:
    ctx = surface.ctx
    k = ctx.k
    m = len(surface.loops)
    C = np.zeros((m, m), dtype=np.int64)
    for t, (i, l) in enumerate(surface.loops):
        nxt = _norm(l + 1, k)
        if nxt != 1:
            C[surface.loop_index[(i, nxt)], t] += 1
        C[surface.loop_index[(i, 2)], t] -= 1
    return C


def _half_turn_cycle_map(surface: CoverSurface) -> np.ndarray:
    ctx = surface.ctx
    k = ctx.k
    m = len(surface.loops)

    def rho(i: int, l: int) -> int:
        return _norm(k - l + 2, k) if i % 2 == 1 else _norm(k - l + 1, k)

    C = np.zeros((m, m), dtype=np.int64)
    for t, (i, l) in enumerate(surface.loops):
        i2 = ctx.num_points - i
        lab = rho(i, l)
        if lab != 1:
            C[surface.loop_index[(i2, lab)], t] -= 1
        lab1 = rho(i, 1)
        if lab1 != 1:
            C[surface.loop_index[(i2, lab1)], t] += 1
    return C


_LIFT_CACHE: dict = {}


def _gamma_lifts(surface: CoverSurface, i: int) -> np.ndarray:
    """The ``k x 2g`` lifts of ``gamma_i`` (:func:`lift_cycle`), cached read-only."""
    key = (surface.ctx, "gamma", i)
    if key not in _LIFT_CACHE:
        ctx = surface.ctx
        lifts = lift_cycle(surface, gamma_curve(i, i + 1, ctx), _round_sequence(ctx, i))
        lifts.flags.writeable = False
        _LIFT_CACHE[key] = lifts
    return _LIFT_CACHE[key]


def h_chain(surface: CoverSurface, i: int) -> np.ndarray:
    """The (2k-1)-chain of lifted curves whose twists make the lift of ``h_i``.

    Rows of a ``(2k-1) x 2g`` array: lifts of ``gamma_i`` and ``gamma_{i+1}``
    alternate by label, ascending for odd ``i`` and descending for even
    ``i``, and the chain closes with a lift of ``gamma_i``.
    """
    k = surface.ctx.k
    low, high = _gamma_lifts(surface, i), _gamma_lifts(surface, i + 1)
    labels = range(1, k) if i % 2 == 1 else range(k, 1, -1)
    chain = [c for l in labels for c in (low[l - 1], high[l - 1])]
    return np.array(chain + [low[k - 1] if i % 2 == 1 else low[0]])


class _Factor:
    """One lift token's matrix: ``B`` on the rows and columns ``U`` and the
    identity elsewhere, or ``B`` itself when ``U`` is None; ``top = max|B|``.
    ``B`` is read-only."""

    __slots__ = ("U", "B", "top")

    def __init__(self, U: np.ndarray | None, B: np.ndarray):
        B.flags.writeable = False
        self.U, self.B, self.top = U, B, _max_abs(B)


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

    Its factors to the powers 1 and -1 are built once per context and cached:
    a ``t`` or ``h`` lift is a block (:func:`_twist_block`), the others are
    dense, each is checked symplectic once (:func:`is_symplectic`), and its
    inverse is :func:`symplectic_inverse`.  A larger power is squared from
    one of them on each call (:func:`matrix_power`) and not cached."""
    key = (surface.ctx, kind, index, 1 if e > 0 else -1)
    if key not in _LIFT_CACHE:
        _LIFT_CACHE[key] = _build_lift(surface, kind, index, key[3])
    f = _LIFT_CACHE[key]
    return f if abs(e) == 1 else _Factor(f.U, matrix_power(f.B, abs(e)))


def _build_lift(surface: CoverSurface, kind: str, index: int | None, sign: int) -> _Factor:
    if sign < 0:
        f = _lift(surface, kind, index, 1)
        return _Factor(f.U, symplectic_inverse(surface, f.B, f.U))
    if kind in ("t", "h"):
        # the product of the twists about the lifted curves, in row order
        curves = _gamma_lifts(surface, index) if kind == "t" else h_chain(surface, index)
        f = _Factor(*_twist_block(surface, curves))
    elif kind == "zeta":
        f = _Factor(None, _induced_matrix(surface, _deck_cycle_map(surface)))
    elif kind == "r":
        f = _Factor(None, _induced_matrix(surface, _half_turn_cycle_map(surface)))
    elif kind == "r1":
        f = _Factor(None, lift_product(surface, "r " + factors_to_tokens(F_factors(surface.ctx.n))))
    else:  # zeta_prime
        text = factors_to_tokens(t_chain_factors(1, surface.ctx.num_arcs))
        f = _Factor(None, lift_product(surface, text))
    if not is_symplectic(surface, f.B, f.U):
        raise AssertionError(f"lift {kind}/{index} is not symplectic")
    return f


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
    identity.  Each distinct token is read once per call (:func:`_lift`): a
    ``t`` or ``h`` power as a block ``(U, B)``, the others dense.  The
    running product is one :class:`intmat.Chain`, in which a block rewrites
    only the columns ``U`` of the product, or, as the first factor, the rows
    ``U`` of a dense second one.  So the result is exact or the call raises
    ``OverflowError``.  A malformed or unknown token or a twist ``t<i>,<j>``
    with ``j != i+1`` raises :class:`WordSyntaxError`, and an
    index out of range ``ValueError``.
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
    """The factor of one lift token of :func:`lift_product`; None for a zeroth power."""
    kind, indices, e = read_token(tok, surface.ctx)
    if _LIFT_ARITY.get(kind) != len(indices):
        raise WordSyntaxError(f"unknown lift token {tok!r}")
    if kind == "t" and indices[1] != indices[0] + 1:
        raise WordSyntaxError(f"a twist lift needs adjacent twists t<i>,<i+1>, not {tok!r}")
    index = indices[0] if indices else None
    _check_lift(surface.ctx, kind, index)
    return _lift(surface, kind, index, e) if e else None


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
