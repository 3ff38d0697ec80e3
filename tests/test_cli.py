import json
import math

import pytest
from click.testing import CliRunner

from dtvol.cli import main, parse_complex

from oracles import FIG8_VOLUME


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("DTVOL_CACHE_DIR", str(tmp_path / "cache"))
    return CliRunner()


def test_parse_complex():
    assert parse_complex("1,0") == 1
    assert parse_complex("-0.5,2") == -0.5 + 2j
    assert parse_complex("3") == 3


def test_riley_zpoly(runner):
    res = runner.invoke(main, ["riley", "-k", "2", "-n", "-1", "--M", "1,0", "--zpoly"])
    assert res.exit_code == 0
    assert json.loads(res.output) == [[3.0, 0.0], [-3.0, 0.0], [1.0, 0.0]]
    res = runner.invoke(main, ["riley", "-k", "2", "-n", "1", "--M", "1,0", "--zpoly"])
    assert json.loads(res.output) == [[3.0, 0.0], [-1.0, 0.0]]


def test_riley_values(runner):
    res = runner.invoke(
        main, ["riley", "-k", "2", "-n", "-1", "--M", "1,0", "-z", "0,0", "-z", "1,0"]
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["values"] == [[3.0, 0.0], [1.0, 0.0]]


def test_riley_rejects_n_zero(runner):
    res = runner.invoke(main, ["riley", "-k", "3", "-n", "0", "--zpoly"])
    assert res.exit_code == 2


def test_roots_command(runner):
    res = runner.invoke(main, ["roots", "-k", "2", "-n", "-1", "--M", "1,0"])
    assert res.exit_code == 0
    roots = [complex(re, im) for re, im in json.loads(res.output)]
    assert roots[0] == pytest.approx(1.5 - 0.8660254037844386j)
    assert roots[1] == pytest.approx(1.5 + 0.8660254037844386j)
    res = runner.invoke(main, ["roots", "-k", "2", "-n", "-1"])
    assert res.exit_code == 2  # needs --M or --omega


def test_volume_command_and_cache(runner):
    args = ["volume", "-k", "2", "-n", "-1", "--alpha", "0", "--tol", "1e-9"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["volume"] == pytest.approx(FIG8_VOLUME, abs=1e-6)
    assert payload["alpha_K"] == pytest.approx(2 * math.pi / 3, abs=1e-6)
    # byte-identical replay from the cache
    res2 = runner.invoke(main, args)
    assert res2.output == res.output


def test_volume_trefoil_exit_code(runner):
    res = runner.invoke(main, ["volume", "-k", "2", "-n", "1", "--alpha", "1.0"])
    assert res.exit_code == 3
    assert "non-hyperbolic" in res.output or "non-hyperbolic" in (res.stderr or "")


def test_volume_curve_files(runner, tmp_path, monkeypatch):
    import dtvol.cli
    import dtvol.volume

    builds = []

    def counting(build):
        def wrapped(*args, **kwargs):
            builds.append(args[0])
            return build(*args, **kwargs)

        return wrapped

    for module in (dtvol.cli, dtvol.volume):
        build = counting(module.geometric_branch)
        monkeypatch.setattr(module, "geometric_branch", build)
    out = tmp_path / "curve.csv"
    res = runner.invoke(
        main,
        ["volume", "-k", "2", "-n", "-1", "--alpha", "0.5", "--tol", "1e-8",
         "--curve", str(out), "--samples", "6"],
    )
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,volume,quad_error"
    assert len(lines) == 7
    vols = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(vols, vols[1:]))
    branch_csv = out.with_suffix(".branch.csv")
    assert branch_csv.read_text().startswith("omega,re_z,im_z,re_L,im_L,logabsL")
    # the headline volume and the curve share one branch
    assert len(builds) == 1


def test_cache_key_tracks_sources(runner, tmp_path, monkeypatch):
    import dtvol.cli

    args = ["riley", "-k", "2", "-n", "-1", "--zpoly"]
    cache = tmp_path / "cache"
    assert runner.invoke(main, args).exit_code == 0
    assert runner.invoke(main, args).exit_code == 0
    assert len(list(cache.glob("*.json"))) == 1  # the replay was a hit
    # other module sources: the same command is a miss, computed and stored
    monkeypatch.setattr(dtvol.cli, "_source_fingerprint", lambda: "0" * 64)
    assert runner.invoke(main, args).exit_code == 0
    assert len(list(cache.glob("*.json"))) == 2


def test_curve_command(runner, tmp_path):
    out = tmp_path / "c.csv"
    res = runner.invoke(
        main,
        ["curve", "-k", "4", "-n", "1", "--samples", "5", "--tol", "1e-8",
         "-o", str(out)],
    )
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6


def test_alpha_k_command(runner):
    res = runner.invoke(main, ["alpha-k", "-k", "2", "-n", "-1"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["alpha_K"] == pytest.approx(2 * math.pi / 3, abs=1e-4)


def test_compare_words_fig8(runner):
    res = runner.invoke(
        main, ["compare-words", "-p", "5", "-q", "3", "-k", "2", "-n", "-1"]
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["word"] == "aBAb"
    assert out["equal_to_1e-10"] is True


def test_check_quick(runner):
    res = runner.invoke(main, ["check", "--quick"])
    assert res.exit_code == 0
    assert res.output.count("[PASS]") == 4
    assert "[FAIL]" not in res.output
