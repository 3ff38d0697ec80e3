"""Seeded inputs, operations and output checks of the dtvol benchmark.

Each workload turns the seed into a list of operations; nothing else picks
the inputs.  ``Runner.run`` performs one operation the way a user of the
package (or of the ``dtvol`` command) does, and ``Checker.check`` judges its output
against invariants that need no outside data.  A raised exception or a failed
check makes the operation a failure, never a fast operation.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BORROMEAN = 7.327724753  # volume of the Borromean rings: every J(k,2n) is below it
TWO_PI_3 = 2.0 * math.pi / 3.0
ALPHA_LO = TWO_PI_3 - 1e-4  # alpha_K lies in [2pi/3 - 1e-4, pi)
SYM_TOL = 1e-8  # J(k,l) and J(l,k) agree to this, in volume and in alpha_K
FIG8_TOL = 1e-8
VOLUME_TOL = 1e-9  # the quadrature tolerance every volume is computed with

# Knots are (k, n) for J(k, 2n), as dtvol.KnotParam takes them.
FIG8 = (2, -1)  # J(2,-2)
WARMUP_KNOT = (3, -2)  # J(3,-4): the untimed warm-up; kept out of every draw
# J(2,-2) J(4,2) J(5,-6) J(7,10) J(13,14)
CENSUS_ANCHORS = ((2, -1), (4, 1), (5, -3), (7, 5), (13, 7))
CENSUS_RANGE = {"k": (2, 14), "n": (-7, 7)}
CURVE_PAIR = ((2, 2), (4, 1))  # J(2,4) and J(4,2)
CURVE_SAMPLES = 50
CURVE_RANGE = (1e-4, math.pi)
ALPHA_RANGE = {"k": (2, 9), "n": (-5, 5)}  # the criterion-02 grid
ALPHA_PER_ROW = 5  # 40 knots
CLI_RANGE = {"k": (2, 5), "n": (-3, 3)}
CLI_COLDS = 36  # cold commands, each replayed once: 72 ops
CLI_ALPHA_EVERY = 7  # one cold command in 7 is an alpha-k: 5 of 36
NON_HYPERBOLIC = frozenset({(2, 1)})  # J(2,2), the trefoil, in every range above

# The failures this benchmark's checks find at the commit that added it.  The
# gated workloads leave these knots out so that every timed operation passes;
# the ``known-failures`` workload runs them so that the defects keep showing.
KNOWN_FAILURES = json.loads((HERE / "known_failures.json").read_text())["failures"]


def knot_name(knot) -> str:
    return f"J({knot[0]},{2 * knot[1]})"


def partner(knot):
    """The (k, n) of J(l,k) for J(k,l) = J(k,2n), or None.

    J(k,l) and J(l,k) are the same knot; when l < 0, J(l,k) is the mirror image
    of J(-l,-k), which has the same volume and alpha_K.  Both twist counts must
    be even to be written as J(k', 2n')."""
    k, n = knot
    if k % 2:
        return None
    other = (2 * n, k // 2) if n > 0 else (-2 * n, -(k // 2))
    return None if other == knot else other


def lobachevsky_fig8() -> float:
    """6 Lambda(pi/3), the figure-eight volume, from mpmath's Clausen function."""
    import mpmath

    with mpmath.workdps(30):
        return float(6 * mpmath.clsin(2, 2 * mpmath.pi / 3) / 2)


def _grid(rng: dict) -> list[tuple[int, int]]:
    (k0, k1), (n0, n1) = rng["k"], rng["n"]
    return [
        (k, n)
        for k in range(k0, k1 + 1)
        for n in range(n0, n1 + 1)
        if n != 0 and (k, n) not in NON_HYPERBOLIC
    ]


def pool(rng: dict, workload: str, exclude=()) -> list[tuple[int, int]]:
    """Hyperbolic knots of a range, less the warm-up knot, the workload's
    known failures and ``exclude``."""
    drop = {(f["k"], f["n"]) for f in KNOWN_FAILURES if f["workload"] == workload}
    drop |= {WARMUP_KNOT, *exclude}
    return [kn for kn in _grid(rng) if kn not in drop]


@dataclass(frozen=True)
class Op:
    """One benchmark operation: what to call, on what."""

    kind: str  # "volume" | "curve" | "alpha_K" | "cli" | "warmup"
    knot: tuple[int, int] | None = None
    angles: tuple[float, ...] = ()
    argv: tuple[str, ...] = ()
    replay_of: int | None = None  # cli: index of the cold op this one replays

    @property
    def label(self) -> str:
        if self.kind == "cli":
            tag = "hit" if self.replay_of is not None else "miss"
            return f"dtvol {' '.join(self.argv)} [{tag}]"
        return f"{self.kind} {knot_name(self.knot)}"


# The in-process warm-up: a complete volume of the warm-up knot on a coarse
# continuation step, which runs every layer once at a fraction of an op's cost.
WARMUP = Op("warmup", WARMUP_KNOT)


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    draws: dict = field(default_factory=dict)  # what the seed chose, for the report


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def census(seed: int) -> Workload:
    """Complete volumes: the fixed anchors and one seeded J(k,l)/J(l,k) pair,
    7 ops.  The anchors are most of the pass, so a seed moves the op median
    little."""
    avail = pool(CENSUS_RANGE, "census", exclude=CENSUS_ANCHORS)
    pairs = sorted(
        (kn, partner(kn)) for kn in avail if partner(kn) in avail and kn < partner(kn)
    )
    pair = random.Random(seed).choice(pairs)
    ops = [Op("volume", kn) for kn in (*CENSUS_ANCHORS, *pair)]
    return Workload(ops, WARMUP, {"pair": [knot_name(kn) for kn in pair]})


def curve(seed: int) -> Workload:
    """50-sample volume curves of J(2,4) and J(4,2), checked against each
    other; the seed picks which runs first.

    The grid is evenly spaced, as `dtvol curve` makes it.  A seeded shift of
    the grid moved the op time by up to 17% between seeds (quadrature panel
    counts depend on where the angles fall), too much on top of the
    machine's own run-to-run noise."""
    lo, hi = CURVE_RANGE
    h = (hi - lo) / (CURVE_SAMPLES - 1)
    angles = tuple(lo + i * h for i in range(CURVE_SAMPLES - 1)) + (hi,)
    pair = list(CURVE_PAIR)
    random.Random(seed).shuffle(pair)
    ops = [Op("curve", kn, angles) for kn in pair]
    return Workload(ops, WARMUP, {"first": knot_name(pair[0])})


def alpha_sweep(seed: int) -> Workload:
    """alpha_K of ALPHA_PER_ROW seeded knots from each k of the criterion-02
    grid, in seeded order.  Drawing per k keeps the mix of cheap (small k)
    and dear (large k) knots the same for every seed."""
    rnd = random.Random(seed)
    rows: dict[int, list] = {}
    for kn in pool(ALPHA_RANGE, "alpha-sweep"):
        rows.setdefault(kn[0], []).append(kn)
    knots = [kn for k in sorted(rows) for kn in rnd.sample(rows[k], ALPHA_PER_ROW)]
    rnd.shuffle(knots)
    return Workload([Op("alpha_K", kn) for kn in knots], WARMUP)


def cli(seed: int) -> Workload:
    """CLI_COLDS commands, roots / riley --zpoly / riley -z in turn and one in
    CLI_ALPHA_EVERY an alpha-k, each run once cold and replayed two commands
    later.  Knots, angles and z come from the seed; every cold command has
    its own cache key.

    The cold alpha-k runs (about 0.6 s against 0.26 s) are five, half the
    ten samples beyond op_tail_s, so the tail falls inside the cluster of
    cheap commands.  With nine, it fell on the cluster's edge, where one
    slow cheap command moved it by 25%."""
    rnd = random.Random(seed)
    knots = pool(CLI_RANGE, "cli")
    # distinct: alpha-k is keyed on the knot
    alpha_knots = iter(rnd.sample(knots, CLI_COLDS // CLI_ALPHA_EVERY))
    colds: list[tuple[str, ...]] = []
    for i in range(CLI_COLDS):
        if i % CLI_ALPHA_EVERY == CLI_ALPHA_EVERY - 1:
            k, n = next(alpha_knots)
            colds.append(("alpha-k", "-k", str(k), "-n", str(n)))
            continue
        k, n = rnd.choice(knots)
        base = ("-k", str(k), "-n", str(n))
        omega = round(rnd.uniform(0.1, 3.0), 6)
        m = complex(math.cos(omega / 2), math.sin(omega / 2))
        m_arg = ("--M", f"{m.real!r},{m.imag!r}")
        kind = ("roots", "zpoly", "values")[i % 3]
        if kind == "roots":
            colds.append(("roots", *base, "--omega", repr(omega)))
        elif kind == "zpoly":
            colds.append(("riley", *base, "--zpoly", *m_arg))
        else:
            z = f"{round(rnd.uniform(-2, 2), 6)!r},{round(rnd.uniform(-2, 2), 6)!r}"
            colds.append(("riley", *base, *m_arg, "-z", z))
    ops: list[Op] = []
    cold_at: list[int] = []
    for i in range(len(colds) + 2):
        if i < len(colds):
            cold_at.append(len(ops))
            ops.append(Op("cli", argv=colds[i]))
        if i >= 2:
            ops.append(Op("cli", argv=colds[i - 2], replay_of=cold_at[i - 2]))
    k, n = WARMUP_KNOT
    warm = Op("cli", argv=("roots", "-k", str(k), "-n", str(n), "--omega", "1.0", "--no-cache"))
    return Workload(ops, warm)


def known_failures(seed: int) -> Workload:
    """Every known failure, in file order (the seed is not used)."""
    ops = [
        Op("alpha_K" if f["workload"] == "alpha-sweep" else "volume", (f["k"], f["n"]))
        for f in KNOWN_FAILURES
    ]
    return Workload(ops, WARMUP)


GENERATORS = {
    "census": census,
    "curve": curve,
    "alpha-sweep": alpha_sweep,
    "cli": cli,
    "known-failures": known_failures,
}


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

CLI_MAIN = "from dtvol.cli import main; main()"


@dataclass
class CliRun:
    returncode: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Performs operations.  The package is looked up through its modules at
    call time, so that wrappers installed by a traced run are the ones called.

    CLI commands share the cache directory ``cache_root``, which starts
    empty.  With ``trace_dir`` set, each command runs under cli_child.py,
    which writes its spans there as ``<op index>.json``."""

    def __init__(self, env: dict, cache_root: Path, trace_dir: Path | None = None):
        self.env = env
        self.cache_root = cache_root
        self.trace_dir = trace_dir

    def run(self, op: Op, index: int = 0):
        from dtvol import KnotParam, solver, volume

        if op.kind == "volume":
            return volume.cone_volume(KnotParam(*op.knot), 0.0, VOLUME_TOL)
        if op.kind == "warmup":
            return volume.cone_volume(KnotParam(*op.knot), 0.0, 1e-6, step=0.05)
        if op.kind == "curve":
            return volume.volume_curve(KnotParam(*op.knot), list(op.angles), VOLUME_TOL)
        if op.kind == "alpha_K":
            return solver.find_alpha_K(KnotParam(*op.knot))
        if op.kind == "cli":
            env = {**self.env, "DTVOL_CACHE_DIR": str(self.cache_root)}
            if self.trace_dir is None:
                argv = [sys.executable, "-c", CLI_MAIN, *op.argv]
            else:
                spans = self.trace_dir / f"{index}.json"
                argv = [sys.executable, str(HERE / "cli_child.py"), str(spans), *op.argv]
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=120)
            return CliRun(proc.returncode, proc.stdout, proc.stderr)
        raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_alpha(a: float) -> str | None:
    if not (ALPHA_LO <= a < math.pi):
        return f"alpha_K = {a!r} outside [2pi/3 - 1e-4, pi)"
    return None


def _check_volume(v: float) -> str | None:
    if not (0.0 < v < BORROMEAN):
        return f"volume {v!r} outside (0, {BORROMEAN})"
    return None


class Checker:
    """Checks each operation's output; remembers results for the pairwise
    checks (J(k,l) against J(l,k), a replay against its cold run)."""

    def __init__(self):
        self.fig8 = lobachevsky_fig8()
        self._seen: dict[tuple, object] = {}
        self._cold: dict[int, CliRun] = {}

    def check(self, index: int, op: Op, out) -> str | None:
        """None when ``out`` passes, else the reason it fails."""
        if op.kind == "volume":
            return self._volume(op, out)
        if op.kind == "curve":
            return self._curve(op, out)
        if op.kind == "alpha_K":
            return self._alpha(op, out)
        return self._cli(index, op, out)

    def _pair(self, key, value, compare) -> str | None:
        self._seen[key] = value
        knot = key[1]
        other = partner(knot)
        if other is None or (key[0], other, *key[2:]) not in self._seen:
            return None
        return compare(self._seen[(key[0], other, *key[2:])], knot, other)

    def _volume(self, op: Op, res) -> str | None:
        why = _check_volume(res.volume) or _check_alpha(res.alpha_K)
        if why:
            return why
        if op.knot == FIG8 and abs(res.volume - self.fig8) > FIG8_TOL:
            return f"figure-eight volume {res.volume!r} != 6 Lambda(pi/3) = {self.fig8!r}"

        def compare(prev, knot, other):
            dv, da = abs(prev.volume - res.volume), abs(prev.alpha_K - res.alpha_K)
            if dv > SYM_TOL or da > SYM_TOL:
                return (f"{knot_name(knot)} vs {knot_name(other)}: |dV| = {dv:.3e}, "
                        f"|d alpha_K| = {da:.3e} (limit {SYM_TOL:.0e})")
            return None

        return self._pair(("volume", op.knot), res, compare)

    def _curve(self, op: Op, results) -> str | None:
        if [r.alpha for r in results] != list(op.angles):
            return "curve angles differ from the requested grid"
        a_k = results[0].alpha_K
        why = _check_alpha(a_k)
        if why:
            return why
        prev = math.inf
        for r in results:
            if r.alpha >= a_k:
                if r.volume != 0.0:
                    return f"volume {r.volume!r} at alpha {r.alpha:.6f} >= alpha_K {a_k:.6f}"
            elif _check_volume(r.volume):
                return f"at alpha {r.alpha:.6f}: {_check_volume(r.volume)}"
            if r.volume > prev + VOLUME_TOL:
                return f"curve increases at alpha {r.alpha:.6f}: {prev!r} -> {r.volume!r}"
            prev = r.volume

        def compare(other_results, knot, other):
            dv = max(abs(x.volume - y.volume) for x, y in zip(other_results, results))
            da = abs(other_results[0].alpha_K - a_k)
            if dv > SYM_TOL or da > SYM_TOL:
                return (f"{knot_name(knot)} vs {knot_name(other)} curves: max |dV| = "
                        f"{dv:.3e}, |d alpha_K| = {da:.3e} (limit {SYM_TOL:.0e})")
            return None

        return self._pair(("curve", op.knot, op.angles), results, compare)

    def _alpha(self, op: Op, a: float) -> str | None:
        why = _check_alpha(a)
        if why:
            return why

        def compare(prev, knot, other):
            if abs(prev - a) > SYM_TOL:
                return (f"{knot_name(knot)} vs {knot_name(other)}: |d alpha_K| = "
                        f"{abs(prev - a):.3e} (limit {SYM_TOL:.0e})")
            return None

        return self._pair(("alpha_K", op.knot), a, compare)

    def _cli(self, index: int, op: Op, run: CliRun) -> str | None:
        if run.returncode != 0:
            err = run.stderr.decode(errors="replace").strip().splitlines()
            return f"exit code {run.returncode}: {err[-1] if err else ''}"
        if op.replay_of is None:
            self._cold[index] = run
            try:
                body = json.loads(run.stdout)
            except ValueError:
                return "stdout is not JSON"
            if op.argv[0] == "alpha-k":
                return _check_alpha(body["alpha_K"])
            if not body:
                return "empty coefficient or root list"
            return None
        cold = self._cold.get(op.replay_of)
        if cold is None:
            return "replay of a cold run that failed"
        if run.stdout != cold.stdout:
            return "replayed stdout differs from the cold run's"
        return None
