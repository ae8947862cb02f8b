"""Tests of the benchmark's own parts: query stream, tracer, metric lists.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from superelliptic import cli, generators, liftability, oracle, theorems  # noqa: E402
from superelliptic.generators import expand_token_text  # noqa: E402
from superelliptic.words import Context, Word, exponent_sum, psi  # noqa: E402

import run  # noqa: E402
from probe import REFERENCE_S, Probe  # noqa: E402
from queries import GROUPS, query_stream  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _words(q):
    ctx = Context(q.n, 3)
    return expand_token_text(q.lhs, ctx), expand_token_text(q.rhs, ctx), ctx


class TestQueryStream:
    def test_same_seed_same_stream(self):
        assert query_stream(7, 2) == query_stream(7, 2)
        assert query_stream(7, 2) != query_stream(8, 2)

    def test_every_group_has_true_and_false_queries(self):
        stream = query_stream(1, 2)
        for group in GROUPS:
            verdicts = [q.expect for q in stream if q.group == group]
            assert verdicts.count(True) == verdicts.count(False) == 12

    def test_false_queries_pass_the_cheap_checks(self):
        """Neither psi nor the exponent sum can decide a false query.

        The exponent sum is an invariant of the disk group, and of the star
        and sphere groups modulo the exponent sums of the full twist and of
        the sphere relator.
        """
        for q in query_stream(2, 4):
            if q.expect:
                continue
            u, v, ctx = _words(q)
            d = u * v.inverse()
            assert psi(d, ctx).is_identity
            modulus = {"disk": 0, "star": 2 * q.n * (2 * q.n + 1), "sphere": 2 * (2 * q.n + 1)}
            e = exponent_sum(d)
            assert (e % modulus[q.group] if modulus[q.group] else e) == 0

    def test_verdicts_are_right(self):
        eqs = {"disk": oracle.eq_disk, "star": oracle.eq_star, "sphere": oracle.eq_sphere}
        for q in query_stream(3, 2):
            u, v, ctx = _words(q)
            assert eqs[q.group](u, v, ctx) == q.expect, q


class TestTracer:
    def test_wraps_every_reference_and_restores(self):
        originals = {
            "psi": psi,
            "expand": expand_token_text,
            "mul": Word.__dict__["__mul__"],
            "eq_sphere": oracle.eq_sphere,
        }
        tracer = Tracer().install()
        try:
            for module in (liftability, oracle, generators, cli):
                assert module.psi is not psi and module.psi.__wrapped__ is psi
            for module in (theorems, cli):
                assert module.expand_token_text.__wrapped__ is expand_token_text
            assert theorems._EQ_BY_GROUP["sphere"].__wrapped__ is originals["eq_sphere"]
            assert oracle._EQ["sphere"].__wrapped__ is originals["eq_sphere"]
            assert Word.__dict__["__mul__"].__wrapped__ is originals["mul"]
            for mod in [m for name, m in sys.modules.items() if name.startswith("superelliptic")]:
                for value in vars(mod).values():
                    assert value is not psi and value is not expand_token_text
        finally:
            tracer.uninstall()
        assert liftability.psi is psi and cli.expand_token_text is expand_token_text
        assert theorems._EQ_BY_GROUP["sphere"] is originals["eq_sphere"]
        assert Word.__dict__["__mul__"] is originals["mul"]

    def test_self_times_add_up_to_covered_time(self):
        ctx = Context(3, 3)
        tracer = Tracer().install()
        try:
            u = generators.expand_token_text("s1 s2 s3 s4 s5 s6", ctx)
            v = generators.expand_token_text("s1 s2 s1^2 s4^-2 s3 s4 s5 s6", ctx)
            assert not oracle.eq_star(u, v, ctx)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(tracer.root_covered)
        assert metrics["oracle.eq_star.calls"] == 1
        assert metrics["oracle.eq_disk.calls"] == 1  # nested, still one query
        assert metrics["oracle.letters_in"] == len(u) + len(v)
        assert metrics["generators.expand_token_text.letters_out"] == len(u) + len(v)
        total_self = sum(metrics[f"{name}.self_s"] for name, _, _ in TRACED)
        assert math.isclose(total_self, tracer.root_covered, rel_tol=1e-9)
        assert metrics["trace.unattributed_s"] == 0


def _probe(durations, gap=0.003):
    probe = Probe()
    probe.durations = list(durations)
    probe.ends = [gap * (i + 1) for i in range(len(durations))]
    probe.gaps = [gap] * len(durations)
    return probe


class TestProbe:
    def test_scaled_time_at_half_speed(self):
        probe = _probe([2 * REFERENCE_S] * 100)
        assert math.isclose(probe.speed(0.0, 0.3), 0.5)
        probe_time = 2 * REFERENCE_S * 50
        assert math.isclose(probe.scaled(0.0015, 0.1515), (0.15 - probe_time) * 0.5)

    def test_speeds_are_weighted_by_the_time_they_cover(self):
        probe = _probe([REFERENCE_S, 2 * REFERENCE_S] * 50)
        probe.gaps = [0.001, 0.005] * 50
        assert math.isclose(probe.speed(0.0, 1.0), (0.001 * 1 + 0.005 * 0.5) / 0.006)

    def test_one_preempted_sample_does_not_count(self):
        probe = _probe([REFERENCE_S] * 99 + [100 * REFERENCE_S])
        assert math.isclose(probe.speed(0.0, 1.0), 1.0)

    def test_short_span_is_widened(self):
        probe = _probe([REFERENCE_S] * 50 + [2 * REFERENCE_S] * 50)
        assert 0.5 < probe.speed(0.1495, 0.1505) < 1.0  # samples on both sides count

    def test_install_samples_until_uninstalled(self):
        probe = Probe().install()
        try:
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
        finally:
            probe.uninstall()
        taken = len(probe.durations)
        assert taken >= 5 and len(probe.ends) == len(probe.gaps) == taken
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass
        assert len(probe.durations) == taken
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


class TestBenchmarkSpec:
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert e2e == run.END_TO_END
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert layers == {name: run.unit(name) for name in run.per_layer_names()}

    def test_bare_directory_fails_without_result(self, tmp_path):
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-queries",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""

    @pytest.mark.parametrize("count,expected", [(300, 10), (11, 10), (3, 0)])
    def test_tail_has_ten_samples_beyond(self, count, expected):
        values = list(range(count))
        assert sum(v > run.tail(values) for v in values) == expected
