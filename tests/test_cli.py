import functools
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from apollonian import cli, congruence, orbit, spectral
from apollonian.cli import FrozenMismatch, FrozenRegistry


def run(args):
    return cli.main(args)


def test_gasket_command(tmp_path):
    out = tmp_path / "report.json"
    snap = tmp_path / "bits.bin"
    rc = run(["gasket", "--limit", "100", "--out", str(out),
              "--snapshot", str(snap)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "gasket"
    assert rep["results"]["curvatures"] == [21, 24, 28, 40, 52, 61, 76, 85, 96]
    cs = orbit.CurvatureSet.load(snap)
    assert set(cs.values().tolist()) == {21, 24, 28, 40, 52, 61, 76, 85, 96}


def test_gasket_invalid_root():
    assert run(["gasket", "--root", "1,2,3,4", "--limit", "10"]) == 2
    assert run(["gasket", "--root", "1,2,3"]) == 2


def test_admissible_command(tmp_path, capsys):
    rc = run(["admissible", "--q", "24,1,2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["24"] == [0, 4, 12, 13, 16, 21]
    assert rep["results"]["1"] == [0]
    assert rep["results"]["2"] == [0, 1]


def test_admissible_exit_codes(monkeypatch, capsys):
    for bad in ("0", "x", "24,-3"):
        assert run(["admissible", "--q", bad]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and bad in err

    def over_cap(q, root):
        raise orbit.CapExceededError("closure exceeded cap")

    monkeypatch.setattr(congruence, "admissible_classes", over_cap)
    assert run(["admissible", "--q", "24"]) == 3
    assert capsys.readouterr().err.strip() == "closure exceeded cap"


@pytest.mark.parametrize("argv", [
    ["expsum", "--q0", "4", "--r", "2"],
    ["expsum", "--q0", "3", "--form", "x"],
    ["admissible", "--root", "x"],
    ["gasket", "--root", "1,2", "--limit", "10"],
    ["singular", "--n", "96", "--pcut", "1"],
    ["gasket", "--limit", "100", "--threads", "0"],
    ["gasket", "--limit", "100", "--threads", "-3"],
    ["gasket", "--limit", "0"],
    ["spectral", "--q", "x"],
    ["delta-fit", "--points", "0"],
    ["delta-fit", "--points", "1"],
    ["verify", "--modules", "nosuch"],
    ["verify", "--modules", "core,nosuch"],
    ["gasket", "--limit", "100", "--snapshot", "/nonexistent/x"],
])
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err


def test_gasket_snapshot_checked_before_walk(tmp_path, monkeypatch, capsys):
    def walk(*args, **kw):
        raise AssertionError("the walk ran before the snapshot path was checked")

    monkeypatch.setattr(orbit, "enumerate_curvatures", walk)
    for bad in (tmp_path / "missing" / "bits.bin", tmp_path):
        assert run(["gasket", "--snapshot", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err


def test_spectral_non_convergence_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "markov_spectrum",
                        functools.partial(spectral.markov_spectrum, max_iter=2))
    assert run(["spectral", "--q", "5"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "did not converge" in err, err


def test_spectral_imports_no_scipy():
    # scipy is a test-only extra: the package path must not import it
    code = ("import contextlib, io, sys; from apollonian import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['spectral', '--q', '5'])\n"
            "print(rc, 'scipy' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert out.stdout.split() == ["0", "False"], out.stderr


@pytest.mark.parametrize("argv,flag", [
    (["delta-fit"], "--threads"), (["verify"], "--root"), (["spectral"], "--root"),
    (["expsum", "--q0", "3"], "--seed"), (["gasket"], "--seed"),
    (["singular", "--n", "5"], "--threads"),
])
def test_flags_only_where_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_expsum_command(capsys):
    rc = run(["expsum", "--q0", "3", "--form", "10,7,17,-11"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["results"]["sf_direct"]["re"] + 1 / 3) < 1e-9
    assert rep["results"]["agreement"] < 1e-9


def test_singular_command(capsys):
    rc = run(["singular", "--n", "5"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["singular_series"] == 0.0
    assert rep["results"]["note"] == "non-admissible"


def test_spectral_command(capsys):
    rc = run(["spectral", "--q", "4", "--check", "transference"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    entry = rep["results"]["4"]
    assert entry["matvecs"] > 0
    assert entry["status"] == "PASS"
    assert entry["transference"]["holds"] is True


def test_circle_command(tmp_path):
    out = tmp_path / "circle.json"
    rc = run(["circle", "--t1", "8", "--t2", "8", "--x", "16",
              "--grid", str(1 << 14), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["decomposition_residual"] < 1e-6


def test_verify_roundtrip(tmp_path, capsys):
    reg = tmp_path / "frozen.json"
    assert run(["verify", "--freeze", "--registry", str(reg)]) == 0
    capsys.readouterr()
    assert run(["verify", "--registry", str(reg)]) == 0
    capsys.readouterr()
    # tamper with the registry: comparisons must now fail with exit 1
    data = json.loads(reg.read_text())
    name = "verify.singular_series_96"
    data["constants"][name]["value"] += 1.0
    reg.write_text(json.dumps(data))
    assert run(["verify", "--registry", str(reg)]) == 1
    capsys.readouterr()
    # partial run touching only one module suite
    assert run(["verify", "--modules", "core", "--registry", str(reg)]) == 0


def test_registry_ci_mode(tmp_path):
    reg = FrozenRegistry(tmp_path / "r.json", ci=True)
    reg.record("x", 1.0)
    with pytest.raises(FrozenMismatch):
        reg.check()


def test_render(tmp_path):
    out = tmp_path / "g.svg"
    assert run(["render", "--depth", "0", "--out", str(out)]) == 0
    tree = ET.parse(out)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    circles = tree.getroot().findall(".//svg:circle", ns)
    assert len(circles) == 4
    assert run(["render", "--depth", "4", "--out", str(out)]) == 0
    tree = ET.parse(out)  # well-formed XML
    labels = [int(t.text) for t in tree.getroot().findall(".//svg:text", ns)]
    small = sorted(v for v in labels if 1 <= v <= 100)
    expect = orbit.enumerate_curvatures((-11, 21, 24, 28), 100).values()
    assert set(small) <= set(expect.tolist()) | {0}
    assert run(["render", "--root", "1,2,3,4"]) == 2


def test_render_radii_tangency(tmp_path):
    # positions solve the tangency system: check pairwise distances
    from apollonian.cli import _root_positions
    circles = _root_positions((-11, 21, 24, 28))
    b1, z1 = circles[0]
    for bi, zi in circles[1:]:
        assert abs(abs(zi - z1) - (1 / abs(b1) - 1 / bi)) < 1e-12
    for i in range(1, 4):
        for j in range(i + 1, 4):
            bi, zi = circles[i]
            bj, zj = circles[j]
            assert abs(abs(zi - zj) - (1 / bi + 1 / bj)) < 1e-9
