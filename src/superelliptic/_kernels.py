"""Hot kernels for free-word rewriting on tuples of signed letters.

A word is a tuple of nonzero ints: ``+j`` denotes the j-th generator, ``-j``
its inverse.  Kernels keep words freely reduced: given reduced input they
return reduced output.

The expensive inner loop of the whole package lives here: applying a braid
letter to the generator images of a free-group automorphism, with immediate
stack reduction.

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
