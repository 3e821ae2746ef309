import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apollonian import cli, congruence, expsums, orbit, spectral
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
    results (its stdout, for a command that writes no report) and the
    child's peak RSS in kB.  The child reports the peak of
    its own address space: RUSAGE_CHILDREN here would mix in the other
    children of this process, and the child's ru_maxrss keeps the peak of
    this process, which it inherits across the exec."""
    code = ("import contextlib, io, json, re, sys; from apollonian import cli\n"
            "buf = io.StringIO()\n"
            "with contextlib.redirect_stdout(buf):\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "out = buf.getvalue()\n"
            "res = json.loads(out)['results'] if out.startswith('{') else out\n"
            "hwm = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())\n"
            "print(json.dumps([rc, res, int(hwm.group(1))]))")
    out = run_child("-c", code, *argv, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def threads_after_import(**blas_env):
    """The threads of a fresh interpreter that has imported apollonian.cli,
    with blas_env as the only BLAS thread settings of its environment."""
    code = "import os, apollonian.cli; print(len(os.listdir('/proc/self/task')))"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


needs_task_dir = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                    reason="no /proc/self/task to count threads")


@needs_task_dir
def test_import_starts_no_blas_thread():
    # numpy's OpenBLAS would start one helper thread per CPU at import
    assert threads_after_import() == 1


@needs_task_dir
@pytest.mark.skipif(cli._available_cpus() < 2, reason="one CPU: OpenBLAS starts no helper")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_caller_blas_threads_win(var):
    assert threads_after_import(**{var: "2"}) == 2


def assert_stage_cpu_within_report(rep):
    """Each stage's CPU seconds are at least 0 and sum to no more than the
    report's cpu_s, the process's CPU since start-up (each value is rounded
    to the millisecond, so each may read 0.5 ms high)."""
    cpu = [entry["cpu_s"] for entry in rep["stages"].values()]
    assert all(c >= 0 for c in cpu)
    assert sum(cpu) <= rep["cpu_s"] + 0.0005 * (len(cpu) + 1)


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
    threads = min(2, cli._available_cpus())
    assert run(["gasket", "--limit", "10000", "--threads", str(threads),
                "--snapshot", str(snap)]) == 0
    rep = json.loads(capsys.readouterr().out)
    stages = rep["stages"]
    assert set(stages) == {"walk", "census", "snapshot"}
    assert stages["walk"]["items"] == orbit.enumerate_curvatures((-11, 21, 24, 28),
                                                                 10000).rows
    assert stages["census"]["items"] == 10000
    assert stages["snapshot"]["items"] == 1250
    for entry in stages.values():
        assert set(entry) == {"s", "cpu_s", "items", "peak_rss_mb"}
        assert entry["s"] >= 0 and entry["peak_rss_mb"] > 0
    assert rep["elapsed_s"] is not None
    assert rep["config"]["threads"] == threads
    assert_stage_cpu_within_report(rep)


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
    # mod a prime above 3 every residue occurs, read off the orbit mod 1
    assert run(["admissible", "--q", "251"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["251"] == list(range(251))


def test_admissible_exit_codes(monkeypatch, capsys):
    for bad in ("0", "x", "24,-3"):
        assert run(["admissible", "--q", bad]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and bad in err

    def over_cap(q, root):
        raise orbit.CapExceededError("closure exceeded cap")

    # a modulus whose products pass int64 is refused before any arithmetic:
    # 1e20 gave an OverflowError traceback, 3e9 ran 16 s of wrapped int64
    for huge in ("100000000000000000000", "3000000000"):
        assert run(["admissible", "--q", huge]) == 3
        err = capsys.readouterr().err
        assert err.strip() == f"modulus {huge} is above the cap {congruence.ORBIT_MODULUS_CAP}"

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
    ["spectral", "--q", "5", "--seed", "-1"],
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
    # --out must name a file in an existing directory: checked before any
    # command runs, so gasket does not walk first
    ["render", "--out", "/nonexistent/g.svg"],
    ["render", "--depth", "0", "--out", "."],
    ["gasket", "--limit", "100", "--out", "/nonexistent/r.json"],
    ["gasket", "--limit", "100", "--out", "."],
    ["admissible", "--out", "/nonexistent/r.json"],
    ["admissible", "--out", "."],
    # n outside int64
    ["singular", "--n", "100000000000000000000"],
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
    for flag in ("--snapshot", "--out"):
        for bad in (tmp_path / "missing" / "bits.bin", tmp_path):
            assert run(["gasket", flag, str(bad)]) == 2
            assert f"{flag} {bad}" in capsys.readouterr().err


def test_gasket_threads_above_cpus_exit_2(monkeypatch, capsys):
    # each thread past the first is an OS thread: more than the CPUs is
    # refused before the walk starts any
    def walk(*args, **kw):
        raise AssertionError("the walk ran before --threads was checked")

    monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
    monkeypatch.setattr(orbit, "enumerate_curvatures", walk)
    assert run(["gasket", "--limit", "100", "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "--threads 2 is above the 1 CPUs this process may run on"


def test_delta_fit_radii_checked_before_count(monkeypatch, capsys):
    # a negative radius used to reach LAPACK, whose Fortran error lines
    # capsys cannot see: the count must not run at all
    def count(*args, **kw):
        raise AssertionError("the norm-ball count ran before the radii were checked")

    monkeypatch.setattr(orbit, "norm_ball_count", count)
    for flag, bad in (("--ymin", "-5"), ("--ymax", "0")):
        assert run(["delta-fit", flag, bad]) == 2
        assert flag in capsys.readouterr().err


def test_delta_fit_csv_prints_only_the_table(monkeypatch, capsys):
    argv = ["delta-fit", "--ymin", "20", "--ymax", "200", "--points", "7"]
    assert run(argv) == 0
    table = json.loads(capsys.readouterr().out)["results"]["table"]

    # the csv path builds no JSON text
    def dumps(*args, **kw):
        raise AssertionError("the JSON report was serialised for --format csv")

    monkeypatch.setattr(cli.json, "dumps", dumps)
    assert run(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{y},{c}" for y, c in table]


def test_delta_fit_stages_within_elapsed(capsys):
    assert run(["delta-fit", "--ymin", "20", "--ymax", "200", "--points", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    stages = rep["stages"]
    assert set(stages) == {"walk", "fit"}
    # the walk's items are the elements of Gamma in the largest ball
    assert stages["walk"]["items"] == rep["results"]["table"][-1][1] > 0
    assert stages["fit"]["items"] == 7
    for entry in stages.values():
        assert set(entry) == {"s", "cpu_s", "items", "peak_rss_mb"}
        assert entry["s"] >= 0 and entry["peak_rss_mb"] > 0
    # every value is rounded to the millisecond, so each may read 0.5 ms high
    total = sum(entry["s"] for entry in stages.values())
    assert total <= rep["elapsed_s"] + 0.0005 * (len(stages) + 1)
    assert_stage_cpu_within_report(rep)


def test_circle_help_reads_the_pair_cap(monkeypatch, capsys):
    monkeypatch.setattr(orbit, "FAMILY_PAIR_CAP", 143)
    with pytest.raises(SystemExit):
        run(["circle", "--help"])
    assert "more than 143 shell pairs" in " ".join(capsys.readouterr().out.split())


def _descartes_root(n):
    """The root -n, n + 1, n(n + 1), n(n + 1) + 1, as --root text and as a tuple."""
    root = (-n, n + 1, n * (n + 1), n * (n + 1) + 1)
    return "--root=" + ",".join(map(str, root)), root


def test_roots_past_int64(capsys):
    # entries near 1e20: the orbit of the root mod q is that of any root
    # congruent to it mod q, here the root at n = 1e10 mod 840 = lcm(8, 3, 5, 7)
    n = 10**10
    big, root = _descartes_root(n)
    twin, _ = _descartes_root(n % 840 or 840)
    reports = []
    for flag in (big, twin):
        assert run(["admissible", flag, "--q", "24,5,7,8"]) == 0
        reports.append(json.loads(capsys.readouterr().out)["results"])
        assert run(["singular", flag, "--n", "5"]) == 0
        reports.append(json.loads(capsys.readouterr().out)["results"])
    assert reports[:2] == reports[2:]
    # no curvature of this gasket is at most 1000, so every admissible
    # integer there is an exception
    assert run(["gasket", big, "--limit", "1000"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    classes = set(reports[2]["24"])
    assert res["curvature_count"] == 0
    assert res["exception_count"] == res["admissible_count"] == sum(
        k % 24 in classes for k in range(1, 1001))
    # the family's entries would pass int64: refused before any product, and
    # at n = 1e9, where the quadruples used to wrap silently
    for n in (10**10, 10**9):
        flag, root = _descartes_root(n)
        assert run(["circle", flag, "--t1", "8", "--t2", "8"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(root) in err and "int64" in err, err


def test_circle_grid_checked_before_family(monkeypatch, capsys):
    # the default grid cannot resolve the spikes at n_scale = 32 * 32 * 96^2
    def build(*args, **kw):
        raise AssertionError("the family was built before the grid was checked")

    monkeypatch.setattr(orbit, "build_family", build)
    assert run(["circle", "--t1", "32", "--t2", "32", "--x", "96"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "refine the grid" in err


@pytest.mark.parametrize("t", [4, 5, 10])
def test_circle_empty_shell_exits_2_before_the_bump(t, monkeypatch, capsys):
    # no element of Gamma has its norm in (T, 2T) at T = 4, 5 and 10
    def bump(*args, **kw):
        raise AssertionError("the bump was built for an empty family")

    monkeypatch.setattr(expsums, "bump_on_grid", bump)
    assert run(["circle", "--t1", "8", "--t2", str(t), "--x", "8"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert f"--t2 {t}: the norm shell {t} < ||gamma|| < {2 * t} is empty" in err


def test_circle_empty_anchor_cut_exits_2(monkeypatch, capsys):
    # no root and shells at hand leave the cut empty, so the built family is
    # cut to its first zero members
    build = orbit.build_family

    def build_empty(*args, **kw):
        fam = build(*args, **kw)
        return orbit.Family(fam.root, fam.t1, fam.t2, fam.g1_index[:0], fam.g2_index[:0],
                            fam.shell1, fam.shell2, fam.quads[:0], fam.a[:0],
                            fam.forms[:0])

    monkeypatch.setattr(orbit, "build_family", build_empty)
    assert run(["circle", "--t1", "8", "--t2", "8", "--x", "8"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "anchor cut" in err, err


def test_circle_stages_within_elapsed(capsys):
    assert run(["circle", "--t1", "8", "--t2", "8", "--x", "32"]) == 0
    rep = json.loads(capsys.readouterr().out)
    stages = rep["stages"]
    assert set(stages) == {"bump", "family", "representation", "decomposition",
                           "minor_arcs"}
    # 96 members at the 192 live points of the X = 32 box
    assert rep["results"]["family_size"] == stages["family"]["items"] == 96
    assert stages["representation"]["items"] == 96 * 192
    assert stages["bump"]["items"] == stages["decomposition"]["items"] == 1 << 16
    assert stages["minor_arcs"]["items"] == 1 << 12
    for entry in stages.values():
        assert set(entry) == {"s", "cpu_s", "items", "peak_rss_mb"}
        assert entry["s"] >= 0 and entry["peak_rss_mb"] > 0
    # every value is rounded to the millisecond, so each may read 0.5 ms high
    total = sum(entry["s"] for entry in stages.values())
    assert total <= rep["elapsed_s"] + 0.0005 * (len(stages) + 1)
    assert_stage_cpu_within_report(rep)


def test_circle_q0cap_0_exits_2():
    # the dyadic minor-arc blocks doubled q from 0 forever; a subprocess
    # with a timeout fails instead of hanging the suite
    out = run_child("-m", "apollonian", "circle", "--q0cap", "0",
                    "--t1", "8", "--t2", "8", "--x", "8", timeout=120)
    assert out.returncode == 2
    assert len(out.stderr.splitlines()) == 1 and "--q0cap" in out.stderr, out.stderr


def test_spectral_non_convergence_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "EIGEN_MAX_ITER", 2)
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
    # the block solve updates two (3b, n/2) arrays in place and the process
    # peaks at about 65 MB; the bound leaves room for platform variation
    rc, res, peak_kb = child_report(["spectral", "--q", "5,7"])
    assert (rc, res["5"]["group_order"], res["7"]["group_order"],
            res["7"]["matvecs"]) == (0, 14_400, 117_600, 147)
    assert peak_kb < 80 * 1024


def test_circle_memory():
    # one 8-byte key per (member, point) pair, sorted in place, and no
    # witnesses unless read: the process peaks at about 60 MB (77 MB with an
    # argsort of the values, 198 MB with dicts of every represented integer)
    rc, res, peak_kb = child_report(["circle", "--t1", "32", "--t2", "32", "--x", "32"])
    assert (rc, res["family_size"], res["support_size"]) == (0, 3180, 560_345)
    assert peak_kb < 72 * 1024


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv", [
    # the (x, y) box of 2e10 points: 149 GiB for the grid
    ["circle", "--x", "200000"],
    # 3120^2 shell pairs: 1.05 GiB for the products alone
    ["circle", "--t1", "1024", "--t2", "1024", "--x", "8"],
    # about 100 GB at 100 bytes a grid point
    ["circle", "--t1", "8", "--t2", "8", "--x", "8", "--grid", "1000000000"],
    # the norm-shell walk to 4e20 would keep every element it meets, up to
    # its 50M-element cap (about 6.4 GB of 4x4 matrices)
    ["circle", "--t1", "100000000000000000000", "--t2", "32", "--x", "4"],
    # a root with entries near 1e12: its values span about 8e16 integers, so
    # 864 pairs need keys past the int64 range
    ["circle", "--root=-1000000,1000001,1000001000000,1000001000001",
     "--t1", "8", "--t2", "8", "--x", "8"],
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


def test_gasket_over_cap_exits_3_before_allocating():
    # the check comes before the walk allocates anything: at 4e9 the bitset
    # alone takes 0.5 GB, and the walk's int64 columns come on top of it
    out = run_child("-m", "apollonian", "gasket", "--limit", "4000000000", timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"--limit 4000000000 is above the cap {cli.GASKET_LIMIT_CAP}"


two_cpus = pytest.mark.skipif(cli._available_cpus() < 2, reason="--threads 2 needs 2 CPUs")


@pytest.mark.parametrize("threads", [1, pytest.param(2, marks=two_cpus)])
def test_gasket_out_of_memory_exits_3(threads):
    # 1e9 is under the cap, but its 125 MB bitset (an np.zeros with one
    # worker, a shared mapping with two) does not fit in an address space
    # held to the size it had after the import plus 64 MB
    code = ("import re, resource, sys\n"
            "from apollonian import cli\n"
            "vm = int(re.search(r'VmSize:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
            "limit = (vm << 10) + (64 << 20)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    out = run_child("-c", code, "gasket", "--limit", "1000000000", "--threads", str(threads),
                    timeout=60)
    assert out.returncode == 3, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 2 and lines[1].startswith("out of memory: "), out.stderr
    assert lines[0].startswith("warning: --limit 1000000000 is above the default")


def test_worker_memory_error_exits_3(monkeypatch, capsys):
    # a MemoryError raised in a forked worker is shipped back and exits 3
    caller = os.getpid()
    step = orbit._step

    def failing(*args):
        if os.getpid() != caller:
            raise MemoryError("a worker ran out")
        return step(*args)

    monkeypatch.setattr(orbit, "_step", failing)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    assert run(["gasket", "--limit", "1000000", "--threads", "2"]) == 3
    assert capsys.readouterr().err == "out of memory: a worker ran out\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gasket_cpu_counts_the_workers():
    # the report's cpu_s counts the forked workers: within 10 % of the CPU
    # that os.wait4 reads for the whole command, workers included.  The
    # interpreter's exit after the report takes 0.03-0.05 s, a tenth of
    # the command's CPU at 3e6, so the walk runs to 1e7 (about 1 s of CPU)
    threads = min(2, cli._available_cpus())
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen([sys.executable, "-m", "apollonian", "gasket", "--limit", "10000000",
                             "--threads", str(threads)], stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    timer = threading.Timer(120, proc.kill)  # a hung walk fails the test below
    timer.start()
    try:
        rep = json.loads(proc.stdout.read() or "null")
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    cpu = ru.ru_utime + ru.ru_stime
    assert abs(rep["cpu_s"] - cpu) <= 0.1 * cpu, (rep["cpu_s"], cpu)
    assert rep["stages"]["walk"]["cpu_s"] <= rep["cpu_s"]


def test_delta_fit_over_cap_exits_3_before_allocating():
    # 1e9 radii would take about 580 GB through the report's table
    out = run_child("-m", "apollonian", "delta-fit", "--points", "1000000000", timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"--points 1000000000 is above the cap {cli.DELTA_FIT_POINTS_CAP}"


@pytest.mark.parametrize("pcut", ["100000001", "100000000000000000000"])
def test_singular_pcut_over_cap_exits_3(pcut):
    # the sieve takes a byte per integer up to --pcut: at 1e20 it could not
    # be allocated under the 3 GB address-space limit, so only a check made
    # before it can exit 3
    out = run_child("-m", "apollonian", "singular", "--n", "5", "--pcut", pcut, timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"prime cutoff {pcut} is above the cap {expsums.PRIME_CUTOFF_CAP}"


@pytest.mark.parametrize("q0", ["20001", "100000000000000000000"])
def test_expsum_over_cap_exits_3_before_allocating(q0):
    # sf_direct tallies q0^2 residue pairs into q0 counts: at 1e20 the counts
    # alone could not be allocated, and at 20,001 the tally takes about 8 s
    out = run_child("-m", "apollonian", "expsum", "--q0", q0, timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"--q0 {q0} is above the cap {cli.EXPSUM_Q0_CAP}"


def test_spectral_over_cap_exits_3():
    # q = 13 has 4,769,856 elements, past the closure cap: the closure stops
    # at the cap, before the permutations and blocks that scale with it
    out = run_child("-m", "apollonian", "spectral", "--q", "13", timeout=120,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == f"closure exceeded cap {spectral.CLOSURE_CAP}", out.stderr


def test_admissible_over_cap_exits_3():
    # mod 10^8 the default root has 37,500,000 admissible classes, about
    # 4.9 GB listed: the count is refused before the listing is allocated
    out = run_child("-m", "apollonian", "admissible", "--q", "100000000", timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == (f"37500000 admissible classes mod 100000000 are above "
                                  f"the cap {congruence.ADMISSIBLE_CLASSES_CAP}"), out.stderr
    assert len(out.stderr.splitlines()) == 1


def test_admissible_sum_over_cap_exits_3():
    # 6,000,000 and 6,000,006 classes are each under the cap, but every
    # listing is held until the report is written: about 1.6 GB together,
    # refused by their sum before the first is listed
    out = run_child("-m", "apollonian", "admissible", "--q", "24000000,24000024", timeout=60,
                    preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.strip() == (f"12000006 admissible classes mod 24000000,24000024 are "
                                  f"above the cap {congruence.ADMISSIBLE_CLASSES_CAP}"), out.stderr
    assert len(out.stderr.splitlines()) == 1


def _shipped_copy(tmp_path, monkeypatch):
    """A copy of the shipped frozen constants that verify reads in its place."""
    reg = tmp_path / "frozen.json"
    reg.write_text(cli.FROZEN.read_text())
    monkeypatch.setattr(cli, "FROZEN", reg)
    return reg


def _tamper(reg, name):
    data = json.loads(reg.read_text())
    data["constants"][name]["value"] += 1.0
    reg.write_text(json.dumps(data))


def test_verify_prints_frozen_margins(tmp_path, monkeypatch, capsys):
    reg = _shipped_copy(tmp_path, monkeypatch)
    assert run(["verify", "--modules", "expsums"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "frozen:" in ln]
    assert len(lines) == 1
    assert lines[0].startswith("  [PASS] expsums: singular series at 96 frozen: value ")
    assert "frozen 2.44438" in lines[0] and "tolerance left" in lines[0]
    # a value off by more than its tolerance fails only its own line
    _tamper(reg, "verify.singular_series_96")
    assert run(["verify", "--modules", "expsums,spectral"]) == 1
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
    # the frozen registry is read-only and verify's random points are fixed
    (["verify"], "--seed"), (["verify"], "--freeze"), (["verify"], "--ci"),
    (["verify"], "--registry"),
])
def test_flags_only_where_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gasket", "--limit", "abc"],
    ["gasket", "--root", "-2,3,6,7"],
    ["nosuch"],
    ["spectral", "--check", "nosuch"],
    [],
])
def test_usage_error_exits_2_with_one_line(argv, capsys):
    # argparse's own errors printed two lines of usage before the message
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("apollonian"), err
    assert ": error: " in err


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
    # 5 is not admissible mod 24 (its class mod 3 is missed); the series
    # truncated at 2 has no factor at 3 and stays 4.0, and the note follows
    # the class mod 24, not the truncated series
    for pcut, series in ((13, 0.0), (2, 4.0)):
        rc = run(["singular", "--n", "5", "--pcut", str(pcut)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["singular_series"] == series
        assert rep["results"]["admissible"] is False
        assert rep["results"]["note"] == "non-admissible"


def test_spectral_command(capsys):
    rc = run(["spectral", "--q", "4", "--check", "transference"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    entry = rep["results"]["4"]
    # G/{+-I} mod 4 has 8 elements, so the dense branch runs
    assert entry["matvecs"] == 0
    assert set(rep["stages"]["4"]) == {"closure_s", "permutations_s", "solve_s",
                                       "transference_s"}
    assert all(v >= 0 for v in rep["stages"]["4"].values())
    assert entry["status"] == "PASS"
    assert entry["transference"]["holds"] is True


def test_spectral_transference_trivial_quotient(capsys):
    # mod 1 the group has one element and no eigenvalue below 1, so its
    # lambda1 reads -1.0, as for a trivial H1 or H2
    assert run(["spectral", "--q", "1", "--check", "transference"]) == 0
    entry = json.loads(capsys.readouterr().out)["results"]["1"]
    assert (entry["group_order"], entry["eigenvalues"], entry["status"]) == (1, [1.0], "PASS")


def test_spectral_stages_within_elapsed(capsys):
    assert run(["spectral", "--q", "3,5", "--check", "alternation"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep["stages"]) == set(rep["results"]) == {"3", "5"}
    stages = [v for e in rep["stages"].values() for v in e.values()]
    assert all("alternation_s" in e for e in rep["stages"].values())
    # every value is rounded to the millisecond, so each may read 0.5 ms high
    assert sum(stages) <= rep["elapsed_s"] + 0.0005 * (len(stages) + 1)
    assert rep["cpu_s"] > 0


def test_spectral_results_repeat(capsys):
    # the per-modulus seconds sit in stages, outside results, so two runs
    # give equal results
    reports = []
    for _ in range(2):
        assert run(["spectral", "--q", "5"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["results"] == reports[1]["results"]
    assert set(reports[0]["stages"]["5"]) == {"closure_s", "permutations_s", "solve_s"}


def test_circle_command(tmp_path):
    out = tmp_path / "circle.json"
    rc = run(["circle", "--t1", "8", "--t2", "8", "--x", "16",
              "--grid", str(1 << 14), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["decomposition_residual"] < 1e-6


def test_verify_roundtrip(tmp_path, monkeypatch, capsys):
    reg = _shipped_copy(tmp_path, monkeypatch)
    assert run(["verify"]) == 0
    capsys.readouterr()
    # tamper with the registry: comparisons must now fail with exit 1, and
    # the report still lists every check
    _tamper(reg, "verify.singular_series_96")
    assert run(["verify"]) == 1
    out = capsys.readouterr().out
    checks = json.loads(out[out.index("\n{") + 1:])["results"]["checks"]
    assert checks["expsums: singular series at 96 frozen"] is False
    assert sum(checks.values()) == len(checks) - 1
    # partial run touching only one module suite
    assert run(["verify", "--modules", "core"]) == 0


def test_registry_missing_name_raises():
    reg = FrozenRegistry(cli.FROZEN)
    with pytest.raises(FrozenMismatch, match="x: value 1.0, missing from the registry"):
        reg.check("x", 1.0)
    assert reg.check("verify.lambda1_q4", 0.2) == 0.2


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
    # positions solve the tangency system: check pairwise distances.  In the
    # other roots a third center lies on the line through the first two, where
    # rounding before the square root put it 1e-8 off the tangency
    from apollonian.cli import _root_positions
    for root in ((-11, 21, 24, 28), (-2, 3, 6, 7), (-4, 5, 20, 21), (-5, 6, 30, 31),
                 (-10, 14, 35, 39)):
        circles = _root_positions(root)
        b1, z1 = circles[0]
        for bi, zi in circles[1:]:
            assert abs(abs(zi - z1) - (1 / abs(b1) - 1 / bi)) < 1e-12, root
        for i in range(1, 4):
            for j in range(i + 1, 4):
                bi, zi = circles[i]
                bj, zj = circles[j]
                assert abs(abs(zi - zj) - (1 / bi + 1 / bj)) < 1e-9, root


def reference_render(root, depth, size=800):
    """The SVG from a walk of one (4, 3) array per node of the reflection
    tree, each replacing one slot of its parent but the one last replaced."""
    state = np.array([[b, b * z.real, b * z.imag] for b, z in cli._root_positions(root)])
    seen = [tuple(row) for row in state]
    frontier = [(state, -1)]
    for _ in range(depth):
        nxt = []
        for st, last in frontier:
            s = st.sum(axis=0)
            for i in range(4):
                if i == last:
                    continue
                child = st.copy()
                child[i] = 2 * (s - st[i]) - st[i]
                nxt.append((child, i))
                seen.append(tuple(child[i]))
        frontier = nxt
    scale = size / (2.2 / abs(root[0]))
    cx = cy = size / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for b, bx, by in seen:
        if b == 0:
            continue
        r = abs(1 / b) * scale
        x = cx + (bx / b) * scale
        y = cy + (by / b) * scale
        parts.append(
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="none" '
            f'stroke="black" stroke-width="0.6"/>')
        if r > 9:
            parts.append(
                f'<text x="{x:.3f}" y="{y + 3:.3f}" font-size="{max(r / 3, 6):.0f}" '
                f'text-anchor="middle">{int(round(b))}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("root", [(-11, 21, 24, 28), (-1, 2, 2, 3), (-2, 3, 6, 7)])
def test_render_matches_reference(root):
    for depth in range(9):
        buf = io.StringIO()
        count = cli.render_svg(root, depth, buf)
        want = reference_render(root, depth)
        assert buf.getvalue() == want, depth
        assert count == want.count("<circle") == 2 * 3 ** depth + 2


def test_render_memory(tmp_path):
    # one (k, 4, 3) array a level, written as it is formed: the walk of one
    # array a node, joined into one string, peaked at 257 MB
    out = tmp_path / "g.svg"
    rc, res, peak_kb = child_report(["render", "--depth", "11", "--out", str(out)])
    assert rc == 0 and "354296 circles" in res
    assert out.stat().st_size > 30 << 20
    assert peak_kb < 150 * 1024
