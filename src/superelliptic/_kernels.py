"""Hot kernels on tuples of signed letters.

A word is a tuple of nonzero ints: ``+j`` denotes the j-th generator, ``-j``
its inverse.  Kernels keep words freely reduced: given reduced input they
return reduced output.

Two braid actions live here.  :func:`act_dynnikov` acts a braid word on
integer Dynnikov coordinates at O(1) integer operations per letter; it is
the production path of the word problem.  It keeps the ``a`` and ``b``
coordinates in two lists that each letter indexes directly, so a letter
reads and writes four list entries and builds no slice or tuple.
:func:`act_word` applies braid
letters to the generator images of a free-group automorphism, with
immediate stack reduction; it is the independent reference.

Only the generic braid substitution is special-cased: for the sphere model
the top generator ``sigma_m`` rewrites ``x_m`` through the relation word
``x_1 x_2 ... x_m x_{m+1} = 1`` (the last puncture loop is eliminated), so
its images are ``m`` letters long instead of three.
"""

from __future__ import annotations

from .errors import BudgetError


def reduce_word(w) -> tuple[int, ...]:
    """Freely reduce an iterable of signed letters."""
    out: list[int] = []
    for a in w:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def concat(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of two reduced words."""
    i = len(a)
    j = 0
    while i and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def cyclic_core(w: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced word ``w`` stripped of the pairs ``a .. a^-1`` at its two ends."""
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i : j + 1]


def act_dynnikov(letters: tuple[int, ...], coords: tuple[int, ...]) -> tuple[int, ...]:
    """Dynnikov coordinates ``(a_1, b_1, ..., a_m, b_m)`` after ``letters``.

    The braid group on ``m`` strands acts on the right, leftmost letter
    first; ``sigma_i^{+/-1}`` changes pairs ``i`` and ``i+1`` only
    (Dynnikov 2002; Dehornoy, "Efficient solutions to the braid isotopy
    problem", 2008).  A braid is trivial iff it fixes ``(0, 1, ..., 0, 1)``
    (``a = 0, b = 1`` in every pair).  With ``x+ = max(x, 0)`` and
    ``x- = min(x, 0)``, ``sigma_i`` maps ``(a1, b1, a2, b2)`` to
    ``(a1 + b1+ + (b2+ - c)+, b2 - c+, a2 + b2- + (b1- + c)-, b1 + c+)``
    with ``c = a1 - b1- - a2 + b2+``, and ``sigma_i^-1`` maps it to
    ``(a1 - b1+ - (b2+ + d)+, b2 + d-, a2 - b2- - (b1- - d)-, b1 - d-)``
    with ``d = a1 + b1- - a2 - b2+``.

    The ``a`` and ``b`` coordinates run in two lists, indexed directly by
    the letter (``a[i-1], a[i]`` for ``sigma_i``), and are interleaved
    again only for the result.
    """
    a = list(coords[0::2])
    b = list(coords[1::2])
    for x in letters:
        j = x if x > 0 else -x
        i = j - 1
        a1 = a[i]
        b1 = b[i]
        a2 = a[j]
        b2 = b[j]
        b1p = b1 if b1 > 0 else 0
        b1m = b1 - b1p
        b2p = b2 if b2 > 0 else 0
        b2m = b2 - b2p
        if x > 0:
            c = a1 - b1m - a2 + b2p
            cp = c if c > 0 else 0
            s = b2p - c
            t = b1m + c
            a[i] = a1 + b1p + (s if s > 0 else 0)
            b[i] = b2 - cp
            a[j] = a2 + b2m + (t if t < 0 else 0)
            b[j] = b1 + cp
        else:
            d = a1 + b1m - a2 - b2p
            dm = d if d < 0 else 0
            s = b2p + d
            t = b1m - d
            a[i] = a1 - b1p - (s if s > 0 else 0)
            b[i] = b2 + dm
            a[j] = a2 - b2m - (t if t < 0 else 0)
            b[j] = b1 - dm
    v = list(coords)
    v[0::2] = a
    v[1::2] = b
    return tuple(v)


def _sigma_pass(img: list[int], i: int, pos: bool, sphere_m: int) -> list[int]:
    """Apply one braid letter sigma_i^{+/-1} to the free word ``img``."""
    out: list[int] = []

    def emit(x: int) -> None:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)

    if i == sphere_m:
        m = sphere_m
        for y in img:
            if y == m:
                if pos:
                    for d in range(m - 1, 0, -1):
                        emit(-d)
                    emit(-m)
                else:
                    emit(-m)
                    for d in range(m - 1, 0, -1):
                        emit(-d)
            elif y == -m:
                if pos:
                    emit(m)
                    for d in range(1, m):
                        emit(d)
                else:
                    for d in range(1, m):
                        emit(d)
                    emit(m)
            else:
                emit(y)
        return out

    j = i + 1
    for y in img:
        if pos:
            if y == i:
                emit(i)
                emit(j)
                emit(-i)
            elif y == -i:
                emit(i)
                emit(-j)
                emit(-i)
            elif y == j:
                emit(i)
            elif y == -j:
                emit(-i)
            else:
                emit(y)
        else:
            if y == i:
                emit(j)
            elif y == -i:
                emit(-j)
            elif y == j:
                emit(-j)
                emit(i)
                emit(j)
            elif y == -j:
                emit(-j)
                emit(-i)
                emit(j)
            else:
                emit(y)
    return out


def act_word(
    letters: tuple[int, ...], m: int, sphere_m: int, budget: int
) -> tuple[tuple[int, ...], ...]:
    """Images of x_1..x_m under the word action, rightmost letter first."""
    images: list[list[int]] = [[j] for j in range(1, m + 1)]
    for a in reversed(letters):
        i = a if a > 0 else -a
        pos = a > 0
        for jdx, img in enumerate(images):
            touched = i in img or -i in img
            if i != sphere_m:
                touched = touched or i + 1 in img or -i - 1 in img
            if not touched:
                continue
            new = _sigma_pass(img, i, pos, sphere_m)
            if len(new) > budget:
                raise BudgetError(
                    f"intermediate free word of {len(new)} letters exceeds "
                    f"budget {budget}"
                )
            images[jdx] = new
    return tuple(tuple(img) for img in images)


def apply_subst(
    w: tuple[int, ...], images: tuple[tuple[int, ...], ...], budget: int
) -> tuple[int, ...]:
    """Substitute generator images into ``w``.

    ``images[j-1]`` is the image of generator ``j``; the image of ``-j`` is
    its reversed negation.
    """
    bound = sum(len(images[abs(y) - 1]) for y in w)
    if bound > budget:
        raise BudgetError(f"substitution output bound {bound} exceeds budget {budget}")
    out: list[int] = []
    for y in w:
        if y > 0:
            seg = images[y - 1]
        else:
            seg = [-x for x in reversed(images[-y - 1])]
        for x in seg:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)
