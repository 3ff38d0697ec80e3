"""Spans and counters around the calls into each layer of ``dtvol``.

The package itself records nothing: ``install`` replaces, for the length of a
traced run, each function at the place its caller looks it up (a module
attribute, or the name a ``from ... import`` bound).  A span is
``[name, op, start, end, parent]``; the spans are kept in memory and written
out when the run ends.  A span's self time is its duration less the time its
child spans cover.  Calls too many to time one by one (ZPoly construction,
Chebyshev pairs, numpy.roots) are only counted.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict

import numpy as np

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """``fn`` recording a span; ``name`` may be a function of the call's
        arguments, ``after(args, kwargs, result)`` updates counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            label = name(args, kwargs) if callable(name) else name
            spans.append([label, self.op, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """{name: [calls, total_s, self_s]} over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - covered[i]
        return dict(out)


def write_spans(path, spans, op=None, append=False) -> None:
    """Export spans as gzip CSV; ``op`` overrides the op id of every row."""
    with gzip.open(path, "at" if append else "wt") as fh:
        if not append:
            fh.write("name,op,start,end,parent\n")
        for name, span_op, start, end, parent in spans:
            fh.write(f"{name},{span_op if op is None else op},{start:.9f},{end:.9f},{parent}\n")


def _cache_snapshot() -> dict:
    from dtvol import chebyshev, riley

    return {
        # the array path looks up _eval_parts; the scalar path looks up
        # _eval_parts_py first and reaches _eval_parts only on its misses
        "riley.eval_parts": riley._eval_parts.cache_info(),
        "riley.eval_parts_py": riley._eval_parts_py.cache_info(),
        "chebyshev.coeffs": chebyshev._coeffs_cached.cache_info(),
    }


def install(tr: Tracer) -> dict:
    """Wrap every layer boundary of the loaded ``dtvol`` modules; returns the
    cache statistics at install time, for ``cache_deltas``."""
    import sys

    from dtvol import riley, solver, volume, zpoly

    cnt = tr.counts
    cli = sys.modules.get("dtvol.cli")

    def eval_points(args, kwargs, result):
        cnt["riley.eval.points"] += int(np.size(args[3]))

    def newton_done(args, kwargs, result):
        if not result[1]:
            cnt["solver.newton.fails"] += 1

    def branch_done(args, kwargs, result):
        cnt["solver.branch.points"] += len(result.points)
        cnt["solver.branch.candidates"] += len(result.candidates)

    def roots_name(args, kwargs):
        return "solver.roots.warm" if kwargs.get("warm") is not None else "solver.roots.cold"

    def fallback(args, kwargs, result):
        cnt["volume.branch_fallbacks"] += 1

    def span(name, after=None):
        return lambda f: tr.span(name, f, after)

    def count(name):
        return lambda f: tr.count(name, f)

    tr.patch(riley, "riley_phi_dphi", span("riley.eval", eval_points))
    tr.patch(riley, "riley_phi_dphi_scalar", span("riley.eval", eval_points))
    tr.patch(solver, "riley_zpoly", span("riley.build"))
    tr.patch(solver, "roots_of_coeffs", span(roots_name))
    tr.patch(volume, "roots_of_coeffs", span(roots_name, fallback))
    tr.patch(np, "roots", count("solver.roots.companion_fallbacks"))
    tr.patch(solver, "structured_polish", span("solver.polish"))
    tr.patch(solver, "_struct_root", span("solver.newton", newton_done))
    tr.patch(volume, "_struct_root", span("solver.newton", newton_done))
    tr.patch(solver, "geometric_branch", span("solver.branch", branch_done))
    tr.patch(volume, "geometric_branch", span("solver.branch", branch_done))
    tr.patch(solver, "find_alpha_K", span("solver.alpha_K"))
    tr.patch(volume, "cone_volume", span("volume.cone_volume"))
    tr.patch(volume, "volume_curve", span("volume.volume_curve"))
    tr.patch(volume._BranchEvaluator, "logL", span("volume.integrand"))
    tr.patch(volume, "_adaptive_gk", span("volume.quad"))
    tr.patch(volume, "_gk15", count("volume.quad.panels"))
    tr.patch(volume, "_integrate_volume", count("volume.integrations"))
    tr.patch(zpoly.ZPoly, "__init__", count("zpoly.constructs"))
    for mod in (riley, solver, volume):
        tr.patch(mod, "eval_pair", count("chebyshev.eval_pair"))
    if cli is None:
        return _cache_snapshot()

    # the CLI binds these by ``from ... import``
    def load_done(args, kwargs, result):
        cnt["cli.cache.loads"] += 1
        cnt["cli.cache.hits"] += result is not None

    def one_point(args, kwargs, result):
        cnt["riley.eval.points"] += 1

    def run_cached(fn):
        def wrapped(command, params, compute, no_cache):
            return fn(command, params, tr.span("cli.compute", compute), no_cache)

        return wrapped

    tr.patch(cli, "riley_zpoly", span("riley.build"))
    tr.patch(cli, "riley_recursive", span("riley.eval", one_point))
    tr.patch(cli, "geometric_branch", span("solver.branch", branch_done))
    tr.patch(cli, "find_alpha_K", span("solver.alpha_K"))
    tr.patch(cli, "_cache_load", span("cli.cache.load", load_done))
    tr.patch(cli, "_cache_store", span("cli.cache.store"))
    tr.patch(cli, "_emit", span("cli.emit"))
    tr.patch(cli, "_run_cached", run_cached)
    return _cache_snapshot()


def cache_deltas(before: dict) -> dict:
    """{cache: [hits, misses]} since ``before``."""
    after = _cache_snapshot()
    return {
        name: [after[name].hits - info.hits, after[name].misses - info.misses]
        for name, info in before.items()
    }


def merge(into: dict, part: dict) -> None:
    """Add one traced process's results (``spans``, ``counts``, ``caches``)
    into an accumulated set."""
    for name, rec in part["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += rec[i]
    for name, value in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    for name, (hits, misses) in part["caches"].items():
        acc = into["caches"].setdefault(name, [0, 0])
        acc[0] += hits
        acc[1] += misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(data: dict, ops: int) -> tuple[dict, dict]:
    """(metrics, bases) from merged traced results over ``ops`` operations.

    ``data`` holds ``spans``, ``counts``, ``caches`` and the run-level
    ``cli`` (import time, hit and miss medians) and ``overhead`` entries."""
    spans, counts, caches = data["spans"], data["counts"], data["caches"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    def total_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def hit_ratio(cache):
        hits, misses = caches.get(cache, [0, 0])
        return _ratio(hits, hits + misses), hits + misses

    def kernel_hit_ratio():
        """Share of the kernel lookups callers make that need no rebuild:
        every _eval_parts_py lookup, plus the _eval_parts lookups of the
        array path (all of them less those made on _eval_parts_py misses).
        A lookup is a miss only when _eval_parts builds the kernel."""
        py_hits, py_misses = caches.get("riley.eval_parts_py", [0, 0])
        hits, misses = caches.get("riley.eval_parts", [0, 0])
        lookups = py_hits + py_misses + hits + misses - py_misses
        return _ratio(lookups - misses, lookups), lookups

    per_op = lambda x: _ratio(x, ops)  # noqa: E731
    branches = calls("solver.branch")
    newton = calls("solver.newton")
    integrations = counts.get("volume.integrations", 0)
    loads = counts.get("cli.cache.loads", 0)
    kernel_ratio, kernel_base = kernel_hit_ratio()
    coeff_ratio, coeff_base = hit_ratio("chebyshev.coeffs")
    cli = data.get("cli", {})
    m = {
        "riley.build.calls": per_op(calls("riley.build")),
        "riley.build.self_s": per_op(self_s("riley.build")),
        "riley.eval.calls": per_op(calls("riley.eval")),
        "riley.eval.points": per_op(counts.get("riley.eval.points", 0)),
        "riley.eval.self_s": per_op(self_s("riley.eval")),
        "riley.kernel_cache.hit_ratio": kernel_ratio,
        "zpoly.constructs": per_op(counts.get("zpoly.constructs", 0)),
        "chebyshev.eval_pair.calls": per_op(counts.get("chebyshev.eval_pair", 0)),
        "chebyshev.coeffs.hit_ratio": coeff_ratio,
        "solver.roots.cold.calls": per_op(calls("solver.roots.cold")),
        "solver.roots.cold.self_s": per_op(self_s("solver.roots.cold")),
        "solver.roots.warm.calls": per_op(calls("solver.roots.warm")),
        "solver.roots.warm.self_s": per_op(self_s("solver.roots.warm")),
        "solver.roots.companion_fallbacks": per_op(
            counts.get("solver.roots.companion_fallbacks", 0)),
        "solver.polish.calls": per_op(calls("solver.polish")),
        "solver.polish.self_s": per_op(self_s("solver.polish")),
        "solver.newton.calls": per_op(newton),
        "solver.newton.self_s": per_op(self_s("solver.newton")),
        "solver.newton.fail_ratio": _ratio(counts.get("solver.newton.fails", 0), newton),
        "solver.branch.self_s": per_op(self_s("solver.branch")),
        "solver.branch.points": _ratio(counts.get("solver.branch.points", 0), branches),
        "solver.branch.candidates": _ratio(counts.get("solver.branch.candidates", 0), branches),
        "solver.alpha_K.self_s": per_op(self_s("solver.alpha_K")),
        "volume.integrand.calls": per_op(calls("volume.integrand")),
        "volume.integrand.self_s": per_op(self_s("volume.integrand")),
        "volume.evals_per_volume": _ratio(calls("volume.integrand"), integrations),
        "volume.quad.panels": per_op(counts.get("volume.quad.panels", 0)),
        "volume.quad.self_s": per_op(self_s("volume.quad")),
        "volume.branch_fallbacks": per_op(counts.get("volume.branch_fallbacks", 0)),
        "cli.import_s": per_op(cli.get("import_s", 0.0)),
        "cli.cache.load_s": per_op(total_s("cli.cache.load")),
        "cli.cache.store_s": per_op(total_s("cli.cache.store")),
        "cli.cache.hit_ratio": _ratio(counts.get("cli.cache.hits", 0), loads),
        "cli.compute_s": per_op(total_s("cli.compute")),
        "cli.emit_s": per_op(total_s("cli.emit")),
        "cli.hit_p50_s": cli.get("hit_p50_s", 0.0),
        "cli.miss_p50_s": cli.get("miss_p50_s", 0.0),
        "trace.overhead": data["overhead"],
    }
    bases = {
        "ops": ops,
        "riley.kernel_cache.hit_ratio": f"{kernel_base} lookups by callers",
        "chebyshev.coeffs.hit_ratio": f"{coeff_base} lookups",
        "solver.newton.fail_ratio": f"{newton} Newton solves",
        "solver.branch.points": f"{branches} branches",
        "solver.branch.candidates": f"{branches} branches",
        "volume.evals_per_volume": f"{integrations} integrations",
        "cli.cache.hit_ratio": f"{loads} cache loads",
        "cli.hit_p50_s": f"{cli.get('hits', 0)} untraced replays",
        "cli.miss_p50_s": f"{cli.get('misses', 0)} untraced cold runs",
        "trace.overhead": "traced wall / untraced wall over the same ops",
    }
    return m, bases
