"""Outside-in tracing of the package's public functions.

The tracer replaces each traced function with a wrapper that times the
call as a span inside its caller's span, at every place the package
holds a reference to it: the defining module, modules that imported it by
name (``from .words import psi``), module-level dicts that captured it
(``theorems._EQ_BY_GROUP``, ``oracle._EQ``), and the class for
``Word.__mul__``.  No source file of the package changes.

Spans are aggregated as they close rather than stored: per function the
number of calls, the busy time (outermost spans only, so recursion is not
counted twice) and the self time (span duration minus the time its child
spans cover).  Time inside the timed phase that no span covers is the
unattributed time.  Counts of letters, kernel runs and cache use are taken
from the arguments and return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (metric prefix, module, attribute); the prefix is the module name without
# its leading underscore, because metric names start with a letter.
TRACED = (
    ("cli.main", "cli", "main"),
    ("theorems.run_all", "theorems", "run_all"),
    ("theorems.verify_liftability", "theorems", "verify_liftability"),
    ("theorems.verify_generation", "theorems", "verify_generation"),
    ("theorems.verify_relations", "theorems", "verify_relations"),
    ("theorems.verify_cover", "theorems", "verify_cover"),
    ("theorems.verify_smod_homology", "theorems", "verify_smod_homology"),
    ("theorems.verify_chain_pattern", "theorems", "verify_chain_pattern"),
    ("generators.expand_token_text", "generators", "expand_token_text"),
    ("words.psi", "words", "psi"),
    ("words.Word.mul", "words", "Word.__mul__"),
    ("liftability.is_liftable_word", "liftability", "is_liftable_word"),
    ("oracle.eq_disk", "oracle", "eq_disk"),
    ("oracle.eq_star", "oracle", "eq_star"),
    ("oracle.eq_sphere", "oracle", "eq_sphere"),
    ("oracle.is_inner", "oracle", "is_inner"),
    ("kernels.act_word", "_kernels", "act_word"),
    ("kernels.apply_subst", "_kernels", "apply_subst"),
    ("kernels.concat", "_kernels", "concat"),
    ("cover.build_cover", "cover", "build_cover"),
    ("cover.lift_rep", "cover", "lift_rep"),
    ("cover.matrix_power", "cover", "matrix_power"),
    ("cover.symplectic_inverse", "cover", "symplectic_inverse"),
    ("cover.check_normalizes_deck", "cover", "check_normalizes_deck"),
    ("cover.twist_matrix", "cover", "twist_matrix"),
    ("cover.pairing", "cover", "pairing"),
    ("cover.is_symplectic", "cover", "is_symplectic"),
    ("intmat.smith_normal_form", "intmat", "smith_normal_form"),
    ("intmat.det_exact", "intmat", "det_exact"),
    ("intmat.rank_rational", "intmat", "rank_rational"),
    ("intmat.symplectic_change_of_basis", "intmat", "symplectic_change_of_basis"),
)
# Functions whose busy time is reported besides their self time.
BUSY = tuple(p for p, _, _ in TRACED if p == "cli.main" or p.startswith("theorems."))
COUNTS = (
    "generators.expand_token_text.letters_out",
    "oracle.letters_in",
    "oracle.budget_errors",
    "kernels.act_word.letters_in",
    "kernels.act_word.letters_out",
    "kernels.act_word.peak_image_len",
    "cover.build_cover.hits",
    "cover.build_cover.misses",
    "cover.h1_rank_max",
)
_EQ = ("oracle.eq_disk", "oracle.eq_star", "oracle.eq_sphere")


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if name == "superelliptic" or name.startswith("superelliptic.")
    ]


class Tracer:
    """Install with :meth:`install`, run the timed phase, then :meth:`uninstall`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # span times; the worker's excludes the speed probe
        self.calls = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.root_covered = 0.0
        self.top_level_eq = 0
        self._stack: list[list] = []  # [name, time covered by children]
        self._depth = Counter()
        self._undo: list = []
        self._build_cover = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        from superelliptic.errors import BudgetError

        stack, depth = self._stack, self._depth
        observe = {
            "generators.expand_token_text": self._observe_expand_token_text,
            "kernels.act_word": self._observe_act_word,
            "cover.build_cover": self._observe_build_cover,
        }.get(name)
        is_eq = name in _EQ
        clock = self.clock

        def traced(*args, **kwargs):
            top_eq = is_eq and not any(f[0] in _EQ for f in stack)
            if top_eq:
                self.top_level_eq += 1
                self.counts["oracle.letters_in"] += len(args[0]) + len(args[1])
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BudgetError:
                if top_eq:
                    self.counts["oracle.budget_errors"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if not depth[name]:
                    self.busy[name] += dt
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_covered += dt
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_expand_token_text(self, args, word):
        self.counts["generators.expand_token_text.letters_out"] += len(word)

    def _observe_act_word(self, args, images):
        self.counts["kernels.act_word.letters_in"] += len(args[0])
        self.counts["kernels.act_word.letters_out"] += sum(len(a) for a in images)
        peak = max((len(a) for a in images), default=0)
        key = "kernels.act_word.peak_image_len"
        self.counts[key] = max(self.counts[key], peak)

    def _observe_build_cover(self, args, surface):
        self.counts["cover.h1_rank_max"] = max(self.counts["cover.h1_rank_max"], surface.h1_rank)

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = _package_modules()
        for name, modname, attr in TRACED:
            module = importlib.import_module("superelliptic." + modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original))
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            if name == "cover.build_cover":
                self._build_cover = original
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._undo.append((value, dkey, original))
        return self

    def uninstall(self) -> None:
        if self._build_cover is not None:
            info = self._build_cover.cache_info()
            self.counts["cover.build_cover.hits"] = info.hits
            self.counts["cover.build_cover.misses"] = info.misses
        for target, key, original in reversed(self._undo):
            if type(target) is dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one timed phase that took ``wall_s`` seconds."""
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name in BUSY:
            out[f"{name}.busy_s"] = self.busy[name]
        for key in COUNTS:
            out[key] = self.counts[key]
        runs = self.calls["kernels.act_word"]
        out["oracle.kernel_runs_per_query"] = runs / self.top_level_eq if self.top_level_eq else 0.0
        out["trace.unattributed_s"] = wall_s - self.root_covered
        return out
