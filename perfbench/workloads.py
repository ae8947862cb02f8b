"""The three benchmark workloads: inputs, timed operations, output checks.

Each workload turns a seed into inputs (``setup``), runs its operations
one after another in a closed loop (``run``, the timed phase) and then
checks every output (``check``, outside the timed phase).  An operation is
what a user waits for: one ``verify-all`` invocation, one ``eq`` query, or
one grid point of lifted-homology certification.

Calls into the package go through module attributes looked up at call
time (``cli.main``, ``theorems.verify_cover``, ...), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

from superelliptic import cli, cover, generators, oracle, theorems
from superelliptic.words import Context

from queries import query_stream


@dataclass
class Op:
    """One timed operation: its label, start and end (``perf_counter``) and
    output (None on error)."""

    label: str
    start: float
    end: float
    output: object = None
    error: str | None = None


def _timed(label: str, fn, *args) -> Op:
    t0 = time.perf_counter()
    try:
        output = fn(*args)
    except Exception:  # an exception is a failed operation, not a crash
        return Op(label, t0, time.perf_counter(), None, traceback.format_exc())
    return Op(label, t0, time.perf_counter(), output)


# -- verify-sweep ---------------------------------------------------------------

# The end-to-end command over a fixed (n, k) grid, with the bounds
# given explicitly so that a change of defaults does not change the work.
SWEEP_GRID = ((2, 3), (3, 4), (4, 3))
SWEEP_BOUNDS = ["--bound-base-n", "4", "--bound-homology-n", "3", "--bound-homology-k", "4"]
# At n = 4 the homology claims are over the bounds and |W| is not enumerated.
SWEEP_SKIPPED = {
    (4, 3): {
        "liftability-w-size",
        "smod-conjugation-t",
        "smod-conjugation-h",
        "smod-deck-factorization",
        "smod-deck-normalization",
        "smod-chain-pattern",
    }
}
SWEEP_CLAIMS = 21


def _verify_all(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def sweep_setup(seed: int, scratch: str) -> list:
    items = []
    for n, k in SWEEP_GRID:
        out = os.path.join(scratch, f"verify-n{n}k{k}.json")
        argv = ["verify-all", "--n", str(n), "--k", str(k), "--json", "--out", out]
        items.append(((n, k), out, argv + SWEEP_BOUNDS))
    return items


def sweep_run(items: list) -> list[Op]:
    return [_timed(f"n{n}k{k}", _verify_all, argv) for (n, k), _, argv in items]


def sweep_check(items: list, ops: list[Op]) -> list[str | None]:
    problems = []
    for ((n, k), out, _), op in zip(items, ops):
        if op.error:
            problems.append(op.error)
            continue
        try:
            with open(out) as handle:
                report = json.load(handle)
        except (OSError, ValueError) as exc:
            problems.append(f"verify-all n={n} k={k}: report unreadable: {exc}")
            continue
        skipped = SWEEP_SKIPPED.get((n, k), set())
        statuses = {c["id"]: c["status"] for c in report["claims"]}
        wrong = [
            cid for cid, status in statuses.items()
            if status != ("skipped" if cid in skipped else "pass")
        ]
        bad = [cid for cid, ok in theorems.reverify_report(report) if not ok]
        if op.output != 0 or len(statuses) != SWEEP_CLAIMS or wrong or bad:
            problems.append(
                f"verify-all n={n} k={k}: exit {op.output}, {len(statuses)} claims, "
                f"wrong status {wrong}, not re-verified {bad}"
            )
        else:
            problems.append(None)
    return problems


# -- oracle-queries -------------------------------------------------------------

# 8 queries for each of 36 (group, n, verdict) cells: 288 per pass
QUERIES_PER_CELL = 8


def _eq_query(q) -> bool:
    ctx = Context(q.n, 3)
    u = generators.expand_token_text(q.lhs, ctx)
    v = generators.expand_token_text(q.rhs, ctx)
    return getattr(oracle, "eq_" + q.group)(u, v, ctx)


def queries_setup(seed: int, scratch: str) -> list:
    return query_stream(seed, QUERIES_PER_CELL)


def queries_run(items: list) -> list[Op]:
    return [_timed(f"{q.group}-n{q.n}", _eq_query, q) for q in items]


def queries_check(items: list, ops: list[Op]) -> list[str | None]:
    problems = []
    for q, op in zip(items, ops):
        if op.error:
            problems.append(op.error)
        elif op.output != q.expect:
            problems.append(f"{q.group} n={q.n}: got {op.output}, expected {q.expect}: {q}")
        else:
            problems.append(None)
    return problems


# -- homology-lifts -------------------------------------------------------------

# g = 9, 30, 32: at (6, 6) and (8, 5) the object-matrix products take seconds.
HOMOLOGY_GRID = ((3, 4), (6, 6), (8, 5))
# sha256 of the named lift matrices (see lift_digest), recorded at the commit
# that added this benchmark; a change of the homology layer must keep them.
LIFT_DIGESTS = {
    (3, 4): "70e5e7cb922aeca2ddc557c72bfa67728dc51fb5d92338120a3dd1f0a5c04b28",
    (6, 6): "1c20369fdeed8c7f55cfe64300055312525683566d1d28e66714e85dbaefc351",
    (8, 5): "87352300cd97311f49e4e4add7316b83104f0dfa0a07a44597c56af0fe878abd",
}


def lift_names(n: int) -> list[tuple[str, str, int | None]]:
    names = [(kind, kind, None) for kind in ("zeta", "zeta_prime", "r", "r1")]
    names += [(f"t{i}", "t", i) for i in range(1, 2 * n + 2)]
    names += [(f"h{i}", "h", i) for i in range(1, 2 * n + 1)]
    return names


def lift_digest(matrices: dict) -> str:
    text = json.dumps([[name, M.tolist()] for name, M in matrices.items()])
    return hashlib.sha256(text.encode()).hexdigest()


def _homology_point(n: int, k: int):
    ctx = Context(n, k)
    claims = theorems.verify_cover(ctx)
    claims += theorems.verify_smod_homology(ctx)
    claims.append(theorems.verify_chain_pattern(ctx))
    surface = cover.build_cover(ctx)
    matrices = {
        name: cover.lift_rep(surface, kind, index) for name, kind, index in lift_names(n)
    }
    return claims, matrices


def homology_setup(seed: int, scratch: str) -> list:
    return list(HOMOLOGY_GRID)


def homology_run(items: list) -> list[Op]:
    return [_timed(f"n{n}k{k}", _homology_point, n, k) for n, k in items]


def homology_check(items: list, ops: list[Op]) -> list[str | None]:
    problems = []
    for (n, k), op in zip(items, ops):
        if op.error:
            problems.append(op.error)
            continue
        claims, matrices = op.output
        failed = [c.id for c in claims if not c.passed]
        digest = lift_digest(matrices)
        if failed or digest != LIFT_DIGESTS[(n, k)]:
            problems.append(f"homology n={n} k={k}: failed {failed}, lift digest {digest}")
        else:
            problems.append(None)
    return problems


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], list]  # (seed, scratch directory) -> inputs
    run: Callable[[list], list[Op]]  # the timed phase
    check: Callable[[list, list[Op]], list[str | None]]  # a problem per operation


WORKLOADS = {
    "verify-sweep": Workload(sweep_setup, sweep_run, sweep_check),
    "oracle-queries": Workload(queries_setup, queries_run, queries_check),
    "homology-lifts": Workload(homology_setup, homology_run, homology_check),
}
