"""Command-line front end: Riley polynomial evaluation, root dumps, volumes,
volume curves, alpha_K, and the built-in cross-validation checks.

Outputs are deterministic for fixed inputs and sources; results of the
compute commands are cached on disk (JSON files keyed by a hash of command,
canonicalized arguments, artifact version and the package's module sources,
so results of other code are never replayed).  DTVOL_CACHE_DIR overrides the
cache location.  Exit codes: 0 ok, 2 usage, 3 non-hyperbolic, 4 numerical
failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import click
import numpy as np

from . import __version__
from .riley import riley_recursive, riley_zpoly
from .slrep import RepPoint, riley_poly_value
from .solver import (
    ContinuationAmbiguousError,
    NonHyperbolicError,
    find_alpha_K,
    geometric_branch,
    omega_to_M,
    riley_roots,
)
from .volume import (
    MIN_TOL,
    QuadratureNotConvergedError,
    branch_csv_rows,
    cone_volume,
    seed_angle,
    volume_curve,
)
from .words import KnotParam, TwoBridgeParams, jk_word, twobridge_word

EXIT_NONHYPERBOLIC = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def parse_complex(text: str) -> complex:
    """Parse the CLI complex format "re,im" (or a bare real part); both parts
    must be finite numbers."""
    parts = text.split(",")
    try:
        if len(parts) > 2:
            raise ValueError
        z = complex(*map(float, parts))
    except ValueError:
        raise click.UsageError(f"complex values are 're,im', got {text!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise click.UsageError(f"complex values must be finite, got {text!r}")
    return z


def _finite(ctx, param, value):
    """Option callback: NaN and infinities are usage errors."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"must be a finite number, got {value}")
    return value


def _tolerance(ctx, param, value):
    """Option callback: a finite tolerance >= MIN_TOL (NaN fails the test)."""
    if not MIN_TOL <= value < math.inf:
        raise click.BadParameter(f"must be a finite number >= {MIN_TOL:g}, got {value}")
    return value


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Cached invocation: parameters, version, outputs, and wall time."""

    command: str
    params: dict
    version: str
    payload: str
    files: dict = field(default_factory=dict)  # path -> content
    wall_time: float = 0.0


def _cache_dir() -> Path:
    env = os.environ.get("DTVOL_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "dtvol"
    return base


@lru_cache(maxsize=1)
def _source_fingerprint() -> str:
    """sha256 over the package's module sources, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_key(command: str, params: dict) -> str:
    canon = json.dumps(
        {
            "command": command,
            "params": params,
            "version": __version__,
            "source": _source_fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _cache_load(command: str, params: dict) -> RunRecord | None:
    path = _cache_dir() / f"{_cache_key(command, params)}.json"
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
        return RunRecord(**data)
    except (json.JSONDecodeError, TypeError, ValueError):
        return None


def _cache_store(record: RunRecord) -> None:
    cdir = _cache_dir()
    cdir.mkdir(parents=True, exist_ok=True)
    path = cdir / f"{_cache_key(record.command, record.params)}.json"
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(asdict(record), fh)
        os.replace(tmp, path)  # atomic under concurrent writers
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(record: RunRecord) -> None:
    for fname, content in record.files.items():
        Path(fname).write_text(content)
    click.echo(record.payload, nl=False)


def _run_cached(command: str, params: dict, compute, no_cache: bool) -> None:
    """Replay a cached record byte-identically or compute and store one."""
    if not no_cache:
        hit = _cache_load(command, params)
        if hit is not None:
            _emit(hit)
            return
    t0 = time.perf_counter()
    payload, files = compute()
    record = RunRecord(
        command=command,
        params=params,
        version=__version__,
        payload=payload,
        files=files,
        wall_time=time.perf_counter() - t0,
    )
    if not no_cache:
        _cache_store(record)
    _emit(record)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Hyperbolic cone-manifold volumes of double twist knots J(k,2n)."""


def _knot_params(k: int, n: int) -> KnotParam:
    try:
        return KnotParam(k, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


_common = [
    click.option("-k", "k", type=int, required=True, help="first twist parameter, k >= 2"),
    click.option("-n", "n", type=int, required=True, help="half the second twist parameter (the knot is J(k,2n))"),
    click.option("--no-cache", is_flag=True, help="bypass the on-disk result cache"),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command()
@common_options
@click.option("--M", "m_text", default="1,0", show_default=True, help="meridian eigenvalue, 're,im'")
@click.option("--zpoly", is_flag=True, help="print the coefficients of Phi(M, .) in z")
@click.option("-z", "z_texts", multiple=True, help="evaluate Phi at these z values ('re,im'), repeatable")
def riley(k: int, n: int, m_text: str, zpoly: bool, z_texts: tuple[str, ...], no_cache: bool) -> None:
    """Riley polynomial of J(k,2n): coefficients or values.

    Coefficients are printed as a JSON array of [re, im] pairs, constant
    term first.
    """
    knot = _knot_params(k, n)
    M = parse_complex(m_text)
    if M == 0:
        raise click.UsageError("M must be nonzero")
    if not zpoly and not z_texts:
        raise click.UsageError("pass --zpoly and/or -z re,im")
    zs = [parse_complex(t) for t in z_texts]
    params = {
        "k": knot.k,
        "n": knot.n,
        "M": _complex_pair(M),
        "zpoly": zpoly,
        "z": [_complex_pair(z) for z in zs],
    }

    def compute():
        out = {}
        if zpoly:
            out["coeffs"] = riley_zpoly(knot.k, knot.n, M).as_pairs()
        if zs:
            out["values"] = [
                _complex_pair(riley_recursive(knot.k, knot.n, RepPoint(M, z)))
                for z in zs
            ]
        body = out["coeffs"] if (zpoly and not zs) else out
        return json.dumps(body) + "\n", {}

    _run_cached("riley", params, compute, no_cache)


@main.command()
@common_options
@click.option("--M", "m_text", default=None, help="meridian eigenvalue, 're,im'")
@click.option("--omega", type=float, default=None, callback=_finite, help="cone angle; sets M = e^{i omega/2}")
def roots(k: int, n: int, m_text: str | None, omega: float | None, no_cache: bool) -> None:
    """All roots of Phi(M, .), as a JSON array of [re, im] pairs."""
    knot = _knot_params(k, n)
    if (m_text is None) == (omega is None):
        raise click.UsageError("pass exactly one of --M or --omega")
    M = parse_complex(m_text) if m_text is not None else omega_to_M(omega)
    if M == 0:
        raise click.UsageError("M must be nonzero")
    params = {"k": knot.k, "n": knot.n, "M": _complex_pair(M)}

    def compute():
        rts = riley_roots(knot, M)
        ordered = sorted(map(complex, rts), key=lambda z: (z.real, z.imag))
        return json.dumps([_complex_pair(z) for z in ordered]) + "\n", {}

    _run_with_numeric_errors("roots", params, compute, no_cache)


def _volume_payload(result) -> str:
    return json.dumps(result.to_dict()) + "\n"


def _curve_csv(results) -> str:
    lines = ["alpha,volume,quad_error"]
    for r in results:
        lines.append(f"{_fmt(r.alpha)},{_fmt(r.volume)},{_fmt(r.quad_error)}")
    return "\n".join(lines) + "\n"


def _branch_csv(branch) -> str:
    lines = ["omega,re_z,im_z,re_L,im_L,logabsL"]
    for row in branch_csv_rows(branch):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


@main.command()
@common_options
@click.option("--alpha", type=float, default=0.0, show_default=True, help="cone angle in radians (0 = complete structure)")
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance, help="quadrature tolerance, >= 1e-12")
@click.option("--curve", "curve_path", type=click.Path(dir_okay=False), default=None, help="also write a volume-curve CSV here (plus a .branch.csv)")
@click.option("--samples", type=int, default=50, show_default=True, help="number of curve samples")
def volume(k: int, n: int, alpha: float, tol: float, curve_path: str | None, samples: int, no_cache: bool) -> None:
    """Cone-manifold volume Vol(X_{J(k,2n)}(alpha))."""
    knot = _knot_params(k, n)
    if not (0.0 <= alpha <= math.pi):
        raise click.UsageError(f"alpha must lie in [0, pi], got {alpha}")
    if samples < 2:
        raise click.UsageError("--samples must be >= 2")
    params = {
        "k": knot.k,
        "n": knot.n,
        "alpha": alpha,
        "tol": tol,
        "curve": bool(curve_path),
        "samples": samples if curve_path else None,
    }

    def compute():
        # the headline volume and the curve share one branch
        branch = geometric_branch(knot, seed_angle(alpha)) if curve_path else None
        result = cone_volume(knot, alpha, tol, branch=branch)
        files = {}
        if curve_path:
            alphas = list(np.linspace(max(alpha, 1e-4), math.pi, samples))
            curve = [
                cone_volume(knot, a, tol, branch=branch) for a in alphas
            ]
            files[curve_path] = _curve_csv(curve)
            files[str(Path(curve_path).with_suffix(".branch.csv"))] = _branch_csv(branch)
        return _volume_payload(result), files

    _run_with_numeric_errors("volume", params, compute, no_cache)


@main.command()
@common_options
@click.option("--alpha-min", type=float, default=1e-4, show_default=True)
@click.option("--alpha-max", type=float, default=math.pi, show_default="pi")
@click.option("--samples", type=int, default=50, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance, help="quadrature tolerance, >= 1e-12")
@click.option("-o", "out_path", type=click.Path(dir_okay=False), required=True, help="output CSV path")
def curve(k: int, n: int, alpha_min: float, alpha_max: float, samples: int, tol: float, out_path: str, no_cache: bool) -> None:
    """Volume curve over an alpha grid, written as CSV (alpha,volume,quad_error)."""
    knot = _knot_params(k, n)
    if not (0 <= alpha_min < alpha_max <= math.pi + 1e-12):
        raise click.UsageError("need 0 <= alpha-min < alpha-max <= pi")
    if samples < 2:
        raise click.UsageError("--samples must be >= 2")
    params = {
        "k": knot.k,
        "n": knot.n,
        "alpha_min": alpha_min,
        "alpha_max": min(alpha_max, math.pi),
        "samples": samples,
        "tol": tol,
        "out": os.path.abspath(out_path),
    }

    def compute():
        alphas = list(np.linspace(alpha_min, min(alpha_max, math.pi), samples))
        results = volume_curve(knot, alphas, tol)
        return "", {out_path: _curve_csv(results)}

    _run_with_numeric_errors("curve", params, compute, no_cache)


@main.command(name="alpha-k")
@common_options
def alpha_k(k: int, n: int, no_cache: bool) -> None:
    """Euclidean transition angle alpha_K of J(k,2n), as JSON."""
    knot = _knot_params(k, n)
    params = {"k": knot.k, "n": knot.n}

    def compute():
        value = find_alpha_K(knot)
        return json.dumps({"k": knot.k, "n": knot.n, "alpha_K": value}) + "\n", {}

    _run_with_numeric_errors("alpha-k", params, compute, no_cache)


@main.command(name="compare-words")
@click.option("-p", type=int, required=True, help="two-bridge normal-form p (odd)")
@click.option("-q", type=int, required=True, help="two-bridge normal-form q (odd, coprime, |q| < p)")
@click.option("-k", "k", type=int, required=True)
@click.option("-n", "n", type=int, required=True)
@click.option("--samples", type=int, default=20, show_default=True)
def compare_words(p: int, q: int, k: int, n: int, samples: int) -> None:
    """Compare the Riley polynomial built from the two-bridge word b(p,q)
    against the J(k,2n) closed form at random points (exploratory: the
    b(p,q) <-> J(k,2n) correspondence is not computed by this tool)."""
    try:
        word = twobridge_word(TwoBridgeParams(p, q))
        knot = KnotParam(k, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    from .riley import riley_closed

    rng = np.random.default_rng(7)
    rows = []
    for _ in range(samples):
        pt = RepPoint(
            complex(rng.uniform(0.4, 1.4), rng.uniform(-0.8, 0.8)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        a = riley_poly_value(word, pt)
        b = riley_closed(knot, pt)
        rows.append((a, b))
    spread = max(abs(a - b) / max(1.0, abs(b)) for a, b in rows)
    ratios = [a / b for a, b in rows if abs(b) > 1e-12]
    click.echo(
        json.dumps(
            {
                "word": word.ascii(),
                "knot": {"k": knot.k, "n": knot.n},
                "max_rel_difference": spread,
                "ratio_first": _complex_pair(ratios[0]) if ratios else None,
                "equal_to_1e-10": bool(spread < 1e-10),
            }
        )
    )


def _run_with_numeric_errors(command: str, params: dict, compute, no_cache: bool) -> None:
    try:
        _run_cached(command, params, compute, no_cache)
    except NonHyperbolicError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NONHYPERBOLIC)
    except (ContinuationAmbiguousError, QuadratureNotConvergedError, ArithmeticError) as exc:
        click.echo(f"error: numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------


def _check_triple_equivalence(rng) -> tuple[bool, str]:
    from .slrep import le_poly_value, mednykh_poly_value

    worst = 0.0
    words = [jk_word(kk) for kk in range(2, 9)]
    words += [
        twobridge_word(TwoBridgeParams(p, q))
        for p, q in [(3, 1), (5, 3), (7, 3), (9, 5), (13, 3)]
    ]
    for w in words:
        for _ in range(8):
            pt = RepPoint(
                complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            if abs(pt.r) < 1e-3:
                continue
            r = riley_poly_value(w, pt)
            l = le_poly_value(w, pt)
            m = mednykh_poly_value(w, pt)
            s = max(1.0, abs(r))
            worst = max(worst, abs(r - l) / s, abs(r - m) / s)
    return worst < 1e-10, f"max relative spread {worst:.2e}"


def _check_closed_vs_recursive(rng) -> tuple[bool, str]:
    from .riley import riley_closed

    worst = 0.0
    for kk in range(2, 10):
        for nn in (-4, -2, -1, 1, 2, 4):
            for _ in range(6):
                pt = RepPoint(
                    complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                    complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
                )
                a = riley_closed(KnotParam(kk, nn), pt)
                b = riley_recursive(kk, nn, pt)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst < 1e-10, f"max relative difference {worst:.2e}"


def _check_prop_w(rng) -> tuple[bool, str]:
    from .riley import prop_w_matrix, riley_coefficients
    from .slrep import rho_word

    worst = 0.0
    worst_tr = 0.0
    for kk in range(2, 10):
        for _ in range(6):
            pt = RepPoint(
                complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            wm = prop_w_matrix(kk, pt)
            dm = rho_word(jk_word(kk), pt)
            worst = max(worst, wm.max_abs_diff(dm))
            t = riley_coefficients(kk, pt).t
            worst_tr = max(worst_tr, abs(wm.trace() - t))
    return (worst < 1e-10 and worst_tr < 1e-12), (
        f"max entry diff {worst:.2e}, max trace diff {worst_tr:.2e}"
    )


def _check_fig8_coincidence(rng) -> tuple[bool, str]:
    from .riley import riley_even, riley_odd

    worst = 0.0
    for _ in range(50):
        pt = RepPoint(
            complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
            complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
        )
        worst = max(worst, abs(riley_odd(1, 1, pt) - riley_even(1, -1, pt)))
    return worst < 1e-12, f"max |difference| {worst:.2e}"


def _check_volume_symmetry() -> tuple[bool, str]:
    alphas = [0.3, 1.0, 1.7]
    va = volume_curve(KnotParam(2, 2), alphas, 1e-9)
    vb = volume_curve(KnotParam(4, 1), alphas, 1e-9)
    worst = max(abs(x.volume - y.volume) for x, y in zip(va, vb))
    return worst < 1e-8, f"J(2,4) vs J(4,2): max |diff| {worst:.2e}"


def _check_volume_oracle() -> tuple[bool, str]:
    from scipy.integrate import quad

    lob = quad(lambda t: -np.log(np.abs(2.0 * np.sin(t))), 0.0, np.pi / 3.0,
               limit=400, epsabs=1e-14)[0]
    res = cone_volume(KnotParam(2, -1), 1e-4, 1e-9)
    diff = abs(res.volume - 6.0 * lob)
    return diff < 1e-6, f"figure-eight vs 6*Lob(pi/3): |diff| {diff:.2e}"


def _check_self_consistency() -> tuple[bool, str]:
    worst = 0.0
    for kk, nn in [(2, -1), (4, 1)]:
        knot = KnotParam(kk, nn)
        a = cone_volume(knot, 0.5, 1e-9)
        b = cone_volume(knot, 0.5, 1e-9, rule="simpson")
        c = cone_volume(knot, 0.5, 1e-9, step=0.0025)
        d = cone_volume(knot, 0.5, 1e-9, form="recursive")
        worst = max(
            worst,
            abs(b.volume - a.volume),
            abs(c.volume - a.volume),
            abs(d.volume - a.volume),
        )
    return worst < 1e-8, f"max spread across rule/step/form {worst:.2e}"


@main.command()
@click.option("--quick", "mode", flag_value="quick", default=True, help="algebraic cross-validation only (fast)")
@click.option("--full", "mode", flag_value="full", help="also run the volume oracle suites")
def check(mode: str) -> None:
    """Cross-validation report; exits nonzero if any suite fails."""
    rng = np.random.default_rng(20240201)
    suites = [
        ("riley = le = mednykh", lambda: _check_triple_equivalence(rng)),
        ("closed form = recursive form", lambda: _check_closed_vs_recursive(rng)),
        ("closed-form rho(w) = matrix product", lambda: _check_prop_w(rng)),
        ("figure-eight presentation coincidence", lambda: _check_fig8_coincidence(rng)),
    ]
    if mode == "full":
        suites += [
            ("volume symmetry J(2,4) = J(4,2)", _check_volume_symmetry),
            ("figure-eight volume oracle", _check_volume_oracle),
            ("volume self-consistency (rule/step/form)", _check_self_consistency),
        ]
    failures = 0
    for name, fn in suites:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed suite is a failure, not an abort
            ok, detail = False, f"raised {exc!r}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        click.echo(f"[{status}] {name:<42} {detail}")
    if failures:
        click.echo(f"{failures} suite(s) failed", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
