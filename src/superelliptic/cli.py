"""Command-line surface.

Subcommands::

    eq <disk|star|sphere> WORD WORD   decide equality of two words
    liftable word WORD                liftability verdict + parity class
    liftable curve CURVE --k K        curve verdict + monodromy residue
    cover info                        cover cell counts, genus, H1 rank
    cover matrix NAME                 homology matrix of lift text as JSON
    verify-all                        run the claim suite, emit the report

Word, lift and curve text share one token syntax (:func:`words.read_token`):
a name, up to two comma-separated ASCII indices and an optional exponent, an
ASCII integer or a linear expression in n and k in parentheses
(``r1^(2n+2)``, ``zeta^(k-1)``).  Words use the names ``s1 h3 t1,2 r r1 F
hchain_t``, lift text ``zeta zeta_prime r r1 h<i> t<i>,<i+1>``, and curves
``x<j>`` with the exponent 1 or -1.  Exit codes: 0 all good, 1 claim failure
or false verdict where a command defines one, 2 usage or parse error (a
letter budget that is not a positive integer, and ``liftable`` or
``verify-all`` at k = 2), a report that ``--out`` cannot write (nothing is
printed then) or a homology product that would overflow int64 (a lift power
such as ``t1,2^1000000000000000000``; lift exponents may be any size, since
powers are taken by squaring), 3 letter budget exceeded.  A reader that
closes stdout early (``| head -n 1``) ends the output quietly: nothing is
printed to stderr and the exit code is the one the command computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import cover as cover_mod
from . import liftability, oracle, theorems
from .errors import BudgetError, SuperellipticError
from .generators import expand_token_text
from .liftability import curve_monodromy, curve_parse, parity
from .words import Context, psi

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superelliptic",
        description="word problems, liftability and homology actions for the "
        "balanced superelliptic cover",
    )
    parser.add_argument("--budget-letters", type=int, default=None,
                        help="letter budget: the longest word the coordinate oracle acts "
                        "on (the cyclic core of u v^-1, or in the sphere group that of the "
                        "rewrite of that core), and the most letters word text expands "
                        "to before free reduction; a positive integer (default 10^7)")
    sub = parser.add_subparsers(dest="command", required=True)
    nk = argparse.ArgumentParser(add_help=False)  # the context (n, k) of every command
    nk.add_argument("--n", type=int, required=True)
    nk.add_argument("--k", type=int, default=3)

    p_eq = sub.add_parser("eq", parents=[nk], help="decide equality of two words")
    p_eq.add_argument("group", choices=("disk", "star", "sphere"))
    p_eq.add_argument("u")
    p_eq.add_argument("v")

    p_lift = sub.add_parser("liftable", parents=[nk], help="liftability of a word or a curve")
    p_lift.add_argument("kind", choices=("word", "curve"))
    p_lift.add_argument("input")

    p_cover = sub.add_parser("cover", help="the branched cover surface")
    cover_sub = p_cover.add_subparsers(dest="cover_command", required=True)
    p_info = cover_sub.add_parser("info", parents=[nk], help="cell counts, genus, homology rank")
    p_info.add_argument("--json", action="store_true")
    p_matrix = cover_sub.add_parser("matrix", parents=[nk],
                                    help="homology matrix of a lift or a product of lifts")
    p_matrix.add_argument("name", help="lift text: tokens zeta, zeta_prime, r, r1, h<i> or "
                          "t<i>,<i+1>, each with an optional exponent (an integer, or a linear "
                          "expression in n and k in parentheses such as 'zeta^(k-1)'), multiplied left "
                          "to right (e.g. 'r1 t1,2 r1^-1'); the sides of a homology certificate "
                          "instance are lift text")

    bounds = theorems.Bounds()
    p_verify = sub.add_parser("verify-all", parents=[nk], help="run the full claim suite")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.add_argument("--bound-base-n", type=int, default=bounds.base_n)
    p_verify.add_argument("--bound-homology-n", type=int, default=bounds.homology_n)
    p_verify.add_argument("--bound-homology-k", type=int, default=bounds.homology_k)
    return parser


def _emit(*lines: str) -> None:
    """Write ``lines`` to stdout; a closed pipe sends the rest to the null device."""
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _budget(args) -> int:
    return oracle.resolve_budget(args.budget_letters)


def _cmd_eq(args) -> int:
    ctx = Context(args.n, args.k)
    budget = _budget(args)
    u = expand_token_text(args.u, ctx, budget)
    v = expand_token_text(args.v, ctx, budget)
    verdict = oracle._EQ[args.group](u, v, ctx, budget=budget)
    lines = ["true" if verdict else "false"]
    if args.group == "sphere":
        lines += [f"psi(u) = {psi(u, ctx).to_text()}", f"psi(v) = {psi(v, ctx).to_text()}"]
    _emit(*lines)
    return EXIT_OK


def _cmd_liftable(args) -> int:
    ctx = Context(args.n, args.k)
    if ctx.k == 2:  # hyperelliptic: every mapping class lifts; the tests below need k >= 3
        raise ValueError("liftable needs k >= 3; at k = 2 every mapping class lifts")
    if args.kind == "word":
        w = expand_token_text(args.input, ctx, _budget(args))
        cls = parity(psi(w, ctx), ctx)
        liftable = cls is not liftability.ParityClass.NEITHER
        _emit("liftable" if liftable else "not liftable", f"parity: {cls.value}")
    else:
        c = curve_parse(args.input, ctx)
        residue = curve_monodromy(c, ctx)
        _emit("lifts" if residue == 0 else "does not lift", f"monodromy: {residue} mod {ctx.k}")
    return EXIT_OK


def _cmd_cover(args) -> int:
    ctx = Context(args.n, args.k)
    surface = cover_mod.build_cover(ctx)
    if args.cover_command == "info":
        info = surface.info()
        if args.json:
            info["intersection_form"] = surface.J.tolist()
            info["standard_symplectic_change"] = surface.P.tolist()
            _emit(json.dumps(info, sort_keys=True))
        else:
            keys = ("n", "k", "vertices", "edges", "faces", "genus",
                    "euler_characteristic", "h1_rank")
            _emit(*(f"{key}: {info[key]}" for key in keys),
                  "conventions: sheets increment across odd arcs; "
                  "rightmost letter acts first")
        return EXIT_OK
    _emit(json.dumps(cover_mod.lift_product(surface, args.name).tolist()))
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    bounds = theorems.Bounds(
        base_n=args.bound_base_n,
        homology_n=args.bound_homology_n,
        homology_k=args.bound_homology_k,
    )
    report = theorems.run_all(args.n, args.k, budget=_budget(args), bounds=bounds)
    text = report.to_json() if args.json else report.render_text()
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text + "\n")
                os.replace(tmp, args.out)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    _emit(text)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eq":
            return _cmd_eq(args)
        if args.command == "liftable":
            return _cmd_liftable(args)
        if args.command == "cover":
            return _cmd_cover(args)
        if args.command == "verify-all":
            return _cmd_verify_all(args)
        parser.error(f"unknown command {args.command!r}")
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SuperellipticError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
