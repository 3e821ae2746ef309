import contextlib
import functools
import io
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apollonian import cli, congruence, orbit, spectral
from apollonian.cli import FrozenMismatch, FrozenRegistry


def run(args):
    return cli.main(args)


def run_child(*args, **kw):
    """python *args in a fresh interpreter that imports the package from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), **kw)


def child_report(argv):
    """cli.main(argv) in a fresh interpreter: its exit code, its report's
    results and the child's peak RSS in kB.  The child reports the peak of
    its own address space: RUSAGE_CHILDREN here would mix in the other
    children of this process, and the child's ru_maxrss keeps the peak of
    this process, which it inherits across the exec."""
    code = ("import contextlib, io, json, re, sys; from apollonian import cli\n"
            "buf = io.StringIO()\n"
            "with contextlib.redirect_stdout(buf):\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "res = json.loads(buf.getvalue())['results']\n"
            "hwm = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())\n"
            "print(json.dumps([rc, res, int(hwm.group(1))]))")
    out = run_child("-c", code, *argv, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


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


def test_gasket_stages(tmp_path, capsys):
    snap = tmp_path / "bits.bin"
    assert run(["gasket", "--limit", "10000", "--threads", "2",
                "--snapshot", str(snap)]) == 0
    rep = json.loads(capsys.readouterr().out)
    stages = rep["stages"]
    assert set(stages) == {"walk", "census", "snapshot"}
    assert stages["walk"]["items"] == orbit.enumerate_curvatures((-11, 21, 24, 28),
                                                                 10000).rows
    assert stages["census"]["items"] == 10000
    assert stages["snapshot"]["items"] == 1250
    for entry in stages.values():
        assert entry["s"] >= 0 and entry["peak_rss_mb"] > 0
    assert rep["elapsed_s"] is not None
    assert rep["config"]["threads"] == 2


def test_gasket_threads_default_to_available_cpus(capsys):
    assert run(["gasket", "--limit", "100"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["threads"] == len(os.sched_getaffinity(0))


def test_gasket_invalid_root():
    assert run(["gasket", "--root", "1,2,3,4", "--limit", "10"]) == 2
    assert run(["gasket", "--root", "1,2,3"]) == 2


def test_negative_root_needs_equals_form(capsys):
    # after a space, argparse would read "-2,3,6,7" as a flag
    assert run(["gasket", "--limit", "100", "--root=-2,3,6,7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["results"]["curvatures"]) == 28


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
    ["circle", "--grid", "0"],
    ["circle", "--k0", "0"],
    ["singular", "--n", "96", "--depth", "-1"],
    ["delta-fit", "--ymin", "-5"],
    ["delta-fit", "--ymax", "0"],
    ["delta-fit", "--ymin", "100", "--ymax", "100.000001", "--points", "3"],
    ["delta-fit", "--points", "-3"],
    ["delta-fit", "--ymin", "inf"],
    ["expsum", "--q0", "3", "--form", "1,2,3"],
    # a form imprimitive at 3 has no unimodular shear for the closed form
    ["expsum", "--q0", "3", "--form", "3,0,3,3"],
    # the Moebius sum over u < U is empty below U = 2
    ["circle", "--u", "1"],
    ["circle", "--u", "-1"],
    ["render", "--depth", "-1"],
    # N/K0 overflows to inf, and the bump to NaN, which passed the quadrature check
    ["circle", "--k0", "1e-320"],
    # every command that reads --root checks it: off the cone, then imprimitive
    ["admissible", "--root", "1,2,3,4"],
    ["singular", "--n", "5", "--root", "1,2,3,4"],
    ["admissible", "--root=-22,42,48,56"],
    ["singular", "--n", "5", "--root=-22,42,48,56"],
    ["gasket", "--limit", "100", "--root=-22,42,48,56"],
])
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err


def test_internal_value_error_exits_1(monkeypatch, capsys):
    # only InputError is bad input; any other ValueError is a fault
    def broken(q, root):
        raise ValueError("not a user error")

    monkeypatch.setattr(congruence, "admissible_classes", broken)
    assert run(["admissible", "--q", "24"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "internal error: ValueError: not a user error"


def test_gasket_snapshot_checked_before_walk(tmp_path, monkeypatch, capsys):
    def walk(*args, **kw):
        raise AssertionError("the walk ran before the snapshot path was checked")

    monkeypatch.setattr(orbit, "enumerate_curvatures", walk)
    for bad in (tmp_path / "missing" / "bits.bin", tmp_path):
        assert run(["gasket", "--snapshot", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err


def test_delta_fit_radii_checked_before_count(monkeypatch, capsys):
    # a negative radius used to reach LAPACK, whose Fortran error lines
    # capsys cannot see: the count must not run at all
    def count(*args, **kw):
        raise AssertionError("the norm-ball count ran before the radii were checked")

    monkeypatch.setattr(orbit, "norm_ball_count", count)
    for flag, bad in (("--ymin", "-5"), ("--ymax", "0")):
        assert run(["delta-fit", flag, bad]) == 2
        assert flag in capsys.readouterr().err


def test_circle_grid_checked_before_family(monkeypatch, capsys):
    # the default grid cannot resolve the spikes at n_scale = 32 * 32 * 96^2
    def build(*args, **kw):
        raise AssertionError("the family was built before the grid was checked")

    monkeypatch.setattr(orbit, "build_family", build)
    assert run(["circle", "--t1", "32", "--t2", "32", "--x", "96"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "refine the grid" in err


def test_circle_q0cap_0_exits_2():
    # the dyadic minor-arc blocks doubled q from 0 forever; a subprocess
    # with a timeout fails instead of hanging the suite
    out = run_child("-m", "apollonian", "circle", "--q0cap", "0",
                    "--t1", "8", "--t2", "8", "--x", "8", timeout=120)
    assert out.returncode == 2
    assert len(out.stderr.splitlines()) == 1 and "--q0cap" in out.stderr, out.stderr


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
    out = run_child("-c", code, timeout=120)
    assert out.stdout.split() == ["0", "False"], out.stderr


def test_spectral_alternation_memory():
    # set products through generator permutations, not |H| x |G| tables
    # (672 MB peak at q = 7 with the tables)
    rc, res, peak_kb = child_report(["spectral", "--q", "7", "--check", "alternation"])
    entry = res["7"]
    assert (rc, entry["alternation_k"], entry["set_sizes"]) == (0, 2, [8064, 117600])
    assert peak_kb < 200 * 1024


def test_spectral_memory():
    # the block solve updates two (3b, n) arrays in place and the process
    # peaks at about 70 MB; the bound leaves room for platform variation
    rc, res, peak_kb = child_report(["spectral", "--q", "5,7"])
    assert (rc, res["5"]["group_order"], res["7"]["group_order"],
            res["7"]["matvecs"]) == (0, 14_400, 117_600, 153)
    assert peak_kb < 80 * 1024


def test_circle_memory():
    # chunked sorted arrays, not dicts of every represented integer (198 MB
    # peak with the dicts)
    rc, res, peak_kb = child_report(["circle", "--t1", "32", "--t2", "32", "--x", "32"])
    assert (rc, res["family_size"], res["support_size"]) == (0, 3180, 560_345)
    assert peak_kb < 160 * 1024


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv", [
    # the (x, y) box of 2e10 points: 149 GiB for the grid
    ["circle", "--x", "200000"],
    # 3120^2 shell pairs: 1.05 GiB for the products alone
    ["circle", "--t1", "1024", "--t2", "1024", "--x", "8"],
])
def test_circle_over_cap_exits_3_before_allocating(argv):
    # under a 3 GB address-space limit the allocation itself would fail,
    # so only a check made before it can exit 3
    out = run_child("-m", "apollonian", *argv, timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert len(out.stderr.splitlines()) == 1 and "cap" in out.stderr, out.stderr
    assert "Traceback" not in out.stderr


def test_render_over_cap_exits_3_before_building():
    # without the check, depth 40 would keep 4 * 3^39 circles: under the
    # 3 GB address-space limit only a check made before the tree can exit 3
    out = run_child("-m", "apollonian", "render", "--depth", "40", timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"--depth 40 is above the cap {cli.RENDER_DEPTH_CAP}"


def test_spectral_over_cap_exits_3():
    # q = 13 has 4,769,856 elements, past the closure cap: the closure stops
    # at the cap, before the permutations and blocks that scale with it
    out = run_child("-m", "apollonian", "spectral", "--q", "13", timeout=120,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"closure exceeded cap {spectral.CLOSURE_CAP}", out.stderr


def test_verify_prints_frozen_margins(tmp_path, capsys):
    reg = tmp_path / "frozen.json"
    assert run(["verify", "--modules", "expsums", "--freeze", "--registry", str(reg)]) == 0
    capsys.readouterr()
    assert run(["verify", "--modules", "expsums", "--registry", str(reg)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "frozen:" in ln]
    assert len(lines) == 1
    assert lines[0].startswith("  [PASS] expsums: singular series at 96 frozen: value ")
    assert "frozen 2.44438" in lines[0] and "tolerance left" in lines[0]
    # a value off by more than its tolerance fails only its own line
    data = json.loads(reg.read_text())
    data["constants"]["verify.singular_series_96"]["value"] += 1.0
    reg.write_text(json.dumps(data))
    assert run(["verify", "--modules", "expsums,spectral", "--registry", str(reg)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] expsums: singular series at 96 frozen" in out
    assert "[PASS] spectral: lambda1(4) frozen: value " in out


@pytest.mark.parametrize("argv,flag", [
    (["delta-fit"], "--threads"), (["verify"], "--root"), (["spectral"], "--root"),
    (["expsum", "--q0", "3"], "--seed"), (["gasket"], "--seed"),
    (["singular", "--n", "5"], "--threads"),
    # only delta-fit has a table for --format csv to print
    (["gasket"], "--format"), (["admissible"], "--format"),
    (["expsum", "--q0", "3"], "--format"), (["singular", "--n", "5"], "--format"),
    (["spectral"], "--format"), (["circle"], "--format"), (["verify"], "--format"),
    (["render"], "--format"),
])
def test_flags_only_where_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _opt(flag, values):
    # --flag=value, as argparse reads "-1e-05" after a space as a flag
    return values.map(lambda v: f"{flag}={v!r}")


def _ints(flag, lo, hi):
    return _opt(flag, st.integers(lo, hi))


def _floats(flag, lo, hi):
    return _opt(flag, st.floats(lo, hi))


# cheap commands with every numeric flag drawn over a range holding 0 and
# negative values; circle runs on the smallest family
CHEAP_ARGV = st.one_of(
    st.tuples(st.just("admissible"), _ints("--q", -3, 30)),
    st.tuples(st.just("expsum"), _ints("--q0", -3, 30), _ints("--r", -5, 30)),
    st.tuples(st.just("singular"), _ints("--n", -100, 1000), _ints("--pcut", -3, 7),
              _ints("--depth", -2, 2)),
    st.tuples(st.just("delta-fit"), _floats("--ymin", -10, 300),
              _floats("--ymax", -10, 300), _ints("--points", -3, 30)),
    st.tuples(st.just("circle"), st.just("--t1=8"), st.just("--t2=8"), st.just("--x=8"),
              _ints("--q0cap", -3, 12), _ints("--grid", -3, 4096),
              _floats("--k0", -10, 1000)),
).map(list)


@settings(max_examples=80, deadline=None)
@given(CHEAP_ARGV)
def test_exit_code_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(argv)
    err = err.getvalue()
    assert rc in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if rc:
        assert len(err.splitlines()) == 1, (argv, err)


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
    assert set(entry["stages"]) == {"closure_s", "permutations_s", "solve_s"}
    assert all(v >= 0 for v in entry["stages"].values())
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
