"""Command-line reports: census, admissibility, delta fit, exponential sums,
singular series, spectra, the circle-method toy harness, invariant
verification, and an SVG rendering of the gasket.

Reports are deterministic JSON with sorted keys.  Empirically measured
constants (stand-ins for implicit big-O constants) live in a frozen
registry shipped with the package, data/frozen.json; verify compares
against it within the declared tolerances and never writes it.

Exit codes: 0 pass, 1 invariant failure, 2 invalid input, 3 resource cap.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, congruence, core, expsums, forms, orbit, spectral

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

GASKET_DEFAULT_LIMIT = 10**8
# `gasket` at the default limit on a 2-CPU machine: 7.0-7.3 s wall,
# 13.0-13.6 s CPU and 56 MB with two worker processes, 12.0-12.6 s and
# 54 MB with --threads 1 (two runs each, alternated with the previous walk,
# which read 8.9-9.3 s and 14.6-16.6 s on the same machine)
GASKET_DEFAULT_COST = ("about 7 s and 56 MB peak RSS on 2 CPUs "
                       "(about 12 s with --threads 1)")
# the walk marks about one quadruple per circle of curvature at most N, a
# count that grows like N^delta, delta = 1.3057 (McMullen): 1.02e8 at 3e7,
# 4.90e8 at 1e8 and 3.00e9 at 4e8, at 23-28 ns of CPU each (41 ns at 4e8,
# whose columns are int64).  The N/8-byte bitset, shared by the workers, is
# the only array of the walk and the census that grows with N; the rest is
# each worker's stack and blocks, a few MB, on about 40 MB of interpreter
# and modules: 46 MB at 3e7, 56 MB at 1e8 and 104 MB at 4e8 on 2 CPUs
GASKET_GROWTH = ("time grows like N^1.31 and memory like N/8 bytes plus the walk's "
                 "stack: 4e8 took 65 s and 0.10 GB on 2 CPUs")
# past N = 3.58e8 the columns are int64 (orbit._column_dtype), which doubles
# the stack: 8e8 (7.41e9 quadruples) peaks at 157 MB and 1e9 (9.91e9) at
# 180 MB on 2 CPUs, in 169 s and 198 s (one run each, with the walk before
# leaves were marked in their parent's block, which read 108 MB to this
# walk's 104 MB at 4e8); no larger N was measured, so one exits 3 before the
# bitset is allocated
GASKET_LIMIT_CAP = 10**9
# `delta-fit` reports one (Y, count) row per point, about 580 bytes each
# through the report: 1e6 points take about 10 s and 0.61 GB on a 2-CPU
# machine, so more exit 3 before the radii are allocated
DELTA_FIT_POINTS_CAP = 10**6
# `expsum` tallies all q0^2 residue pairs in sf_direct, in chunks of 2^22: q0
# = 10,007 takes 1.9 s, 20,011 8.1 s and 30,000 18 s, each near 0.16 GB on a
# 2-CPU machine, so a larger q0 exits 3 before the tally
EXPSUM_Q0_CAP = 20_000
# `circle` keeps about 100 bytes per grid point (the bump, the folded weights
# and their transforms) on top of the family and its representation numbers:
# at 2^22 points it takes 4 s and 0.47 GB on a 2-CPU machine with the T = 8
# family at X = 8, 6.5 s and 0.85 GB with T = 32 at X = 160 (16.3M pairs)
# and 6.6 s and 1.05 GB with T1 = 632, T2 = 1024 at X = 5 (the largest
# family, 11.0M pairs); 2^23 would add about 0.4 GB to each
CIRCLE_GRID_CAP = 1 << 22
# `render` holds two levels of the reflection tree, 4 * 3^(depth - 1) nodes at
# the last, as float arrays and writes the circles as it goes, so time, memory
# and the file grow about 3x per level: depth 11 takes about 1.2 s and 105 MB,
# 12 about 3.3 s and 184 MB, 13 about 7-9 s and 454 MB for a 293 MB file on a
# 2-CPU machine, and 14 would need about 1.3 GB
RENDER_DEPTH_CAP = 13
# side of render's square SVG canvas in pixels, read at each call of
# render_svg: render and demo 09 reach it
RENDER_SIZE = 800


# the constants that verify compares against, shipped with the package
FROZEN = resources.files("apollonian") / "data" / "frozen.json"


class FrozenMismatch(AssertionError):
    pass


class FrozenRegistry:
    """Measured constants frozen in a JSON file, each with its tolerance.

    The file is read once and never written: a new constant is added to it
    by hand, with its tolerance.  margins maps each checked name to one
    line: the measured value, the frozen value and the tolerance left."""

    def __init__(self, path):
        self.data = json.loads(path.read_text())["constants"]
        self.margins = {}

    def check(self, name: str, value):
        """Return value; raise FrozenMismatch with its margin line when it is
        outside the frozen tolerance or the name is not in the file."""
        if isinstance(value, np.integer):
            value = int(value)
        if isinstance(value, np.floating):
            value = float(value)
        if name not in self.data:
            self.margins[name] = f"value {value!r}, missing from the registry"
            raise FrozenMismatch(f"{name}: {self.margins[name]}")
        ref = self.data[name]
        rv = ref["value"]
        if isinstance(rv, (int, float)) and isinstance(value, (int, float)):
            tol = ref["atol"] + ref["rtol"] * abs(rv)
            ok = abs(value - rv) <= tol
            self.margins[name] = (f"value {value!r}, frozen {rv!r}, tolerance left "
                                  f"{tol - abs(value - rv):.3g} of {tol:.3g}")
        else:
            ok = value == rv
            self.margins[name] = f"value {value!r}, frozen {rv!r}, exact"
        if not ok:
            raise FrozenMismatch(f"{name}: {self.margins[name]}")
        return value


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set)):
        return [_jsonable(v) for v in sorted(x) if isinstance(x, set)] if isinstance(x, set) \
            else [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


def emit_report(command: str, config: dict, results: dict, out=None,
                fmt: str = "json", t0: float | None = None,
                stages: dict | None = None) -> dict:
    """stages, when given, holds the run's timings: a StageRecorder's
    stages, or for spectral the seconds of each step per modulus.  It sits
    beside elapsed_s, outside results, because it changes from run to run,
    so two runs of one command give equal results.  cpu_s is `_cpu_s()`,
    the CPU seconds spent so far by the process and its reaped children
    (the walk's workers), interpreter start-up and imports included."""
    config = {k: v for k, v in config.items() if not callable(v)}
    report = {
        "command": command,
        "config": _jsonable(config),
        "results": _jsonable(results),
        "version": __version__,
        "elapsed_s": round(time.time() - t0, 3) if t0 else None,
        "cpu_s": round(_cpu_s(), 3),
    }
    if stages is not None:
        report["stages"] = stages
    if fmt == "csv" and isinstance(results.get("table"), list):
        text = "\n".join(",".join(str(c) for c in row) for row in results["table"])
    else:
        text = json.dumps(report, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return report


def _parse_root(s: str):
    """The --root quadruple, checked to be on the Descartes cone, primitive
    and reduced."""
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 4:
        raise core.InputError(f"--root must be four integers a,b,c,d, got {s!r}")
    return core.validate_root(parts)


def _parse_qs(s: str):
    try:
        qs = [int(x) for x in s.split(",")]
        if min(qs) >= 1:
            return qs
    except ValueError:
        pass
    raise core.InputError(f"--q must be a comma-separated list of positive integers, got {s!r}")


def _available_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot restrict a process to some."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_s():
    """User and system CPU seconds of this process, every thread, and of its
    reaped children (os.times, to the clock tick): the walk reaps its forked
    workers before it returns, so their CPU counts in the stage that ran them."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _peak_rss_mb():
    """Peak resident memory in MB of this process or of the largest of its
    reaped children, or None where the platform has no getrusage.
    ru_maxrss is in KB, but in bytes on macOS."""
    try:
        import resource
    except ImportError:
        return None
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return round(max(resource.getrusage(who).ru_maxrss for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / unit, 1)


class StageRecorder:
    """The stages block of a report.  Each call records the stage that ran
    since the previous call (or since the recorder was made): its seconds,
    its CPU seconds (`_cpu_s`: the process, every thread, user and system,
    and the workers it reaped), the items it processed and the peak RSS
    after it (`_peak_rss_mb`)."""

    def __init__(self):
        self.stages = {}
        self._start = time.time()
        self._cpu_start = _cpu_s()

    def __call__(self, name: str, items: int) -> None:
        end, cpu_end = time.time(), _cpu_s()
        self.stages[name] = {"s": round(end - self._start, 3),
                             "cpu_s": round(cpu_end - self._cpu_start, 3),
                             "items": int(items), "peak_rss_mb": _peak_rss_mb()}
        self._start, self._cpu_start = end, cpu_end


def cmd_gasket(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    if args.limit < 1:
        raise core.InputError(f"--limit must be at least 1, got {args.limit}")
    if args.limit > GASKET_LIMIT_CAP:
        raise orbit.CapExceededError(f"--limit {args.limit} is above the cap {GASKET_LIMIT_CAP}")
    if args.limit > GASKET_DEFAULT_LIMIT:
        print(f"warning: --limit {args.limit} is above the default 1e8, which "
              f"takes {GASKET_DEFAULT_COST}; {GASKET_GROWTH}", file=sys.stderr)
    cpus = _available_cpus()
    if args.threads is None:
        args.threads = cpus
    elif args.threads > cpus:
        raise core.InputError(f"--threads {args.threads} is above the {cpus} CPUs "
                              f"this process may run on")
    adm = congruence.admissible_classes(24, root)
    stage = StageRecorder()
    cs = orbit.enumerate_curvatures(root, args.limit, threads=args.threads)
    stage("walk", cs.rows)
    rep = orbit.census(cs, adm)
    stage("census", cs.n_max)
    if args.snapshot:
        cs.save(args.snapshot)
        stage("snapshot", cs.bits.size)
    results = {
        "residue_counts": rep.residue_counts,
        "curvature_count": rep.curvature_count,
        "admissible_count": rep.admissible_count,
        "exception_count": int(rep.exceptions.size),
        "exceptions_head": rep.exceptions[:50],
        "dyadic_exceptions": rep.dyadic_exceptions,
        "density": rep.density,
    }
    if args.limit <= 1000:
        results["curvatures"] = cs.values()
    emit_report("gasket", vars(args), results, args.out, t0=t0, stages=stage.stages)
    return EXIT_OK


def cmd_admissible(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    qs = _parse_qs(args.q)
    # every listing is held until the report is written, so the cap bounds
    # their sum, checked before the first is listed
    total = sum(congruence.admissible_count(q, root) for q in qs)
    if total > congruence.ADMISSIBLE_CLASSES_CAP:
        raise orbit.CapExceededError(
            f"{total} admissible classes mod {','.join(map(str, qs))} are above "
            f"the cap {congruence.ADMISSIBLE_CLASSES_CAP}")
    results = {str(q): sorted(congruence.admissible_classes(q, root)) for q in qs}
    emit_report("admissible", vars(args), results, args.out, t0=t0)
    return EXIT_OK


def cmd_delta_fit(args) -> int:
    t0 = time.time()
    for flag, y in (("--ymin", args.ymin), ("--ymax", args.ymax)):
        if not 0 < y < math.inf:
            raise core.InputError(f"{flag} must be positive and finite, got {y}")
    if args.points < 2:
        raise core.InputError(f"--points must be at least 2 to fit a slope, got {args.points}")
    if args.points > DELTA_FIT_POINTS_CAP:
        raise orbit.CapExceededError(
            f"--points {args.points} is above the cap {DELTA_FIT_POINTS_CAP}")
    stage = StageRecorder()
    ys = np.geomspace(args.ymin, args.ymax, args.points)
    table = orbit.norm_ball_count(ys)
    stage("walk", table.counts[-1])
    delta = orbit.fit_delta(table)
    stage("fit", args.points)
    results = {
        "delta": delta,
        "table": [[float(y), int(c)] for y, c in zip(table.ys, table.counts)],
    }
    emit_report("delta-fit", vars(args), results, args.out, args.format, t0,
                stages=stage.stages)
    return EXIT_OK


def _parse_form(s: str) -> forms.ShiftedForm:
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 4:
        raise core.InputError(f"--form must be four integers A,B,C,a, got {s!r}")
    return forms.ShiftedForm(*parts)


def cmd_expsum(args) -> int:
    t0 = time.time()
    f = _parse_form(args.form)
    if args.q0 > EXPSUM_Q0_CAP:
        raise orbit.CapExceededError(f"--q0 {args.q0} is above the cap {EXPSUM_Q0_CAP}")
    val = expsums.sf_direct(f, args.q0, args.r, args.n, args.m)
    results = {"sf_direct": val}
    if args.q0 % 2 == 1:
        results["sf_closed"] = expsums.sf_closed(f, args.q0, args.r, args.n, args.m)
        results["agreement"] = abs(results["sf_closed"] - val)
    emit_report("expsum", vars(args), results, args.out, t0=t0)
    return EXIT_OK


def cmd_singular(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    if args.depth < 1:
        raise core.InputError(f"--depth must be at least 1, got {args.depth}")
    val = expsums.singular_series(args.n, root, args.pcut)
    admissible = congruence.is_admissible(args.n, root)
    results = {
        "n": args.n,
        "singular_series": val,
        "admissible": admissible,
        "note": "admissible" if admissible else "non-admissible",
    }
    emit_report("singular", vars(args), results, args.out, t0=t0)
    return EXIT_OK


def cmd_spectral(args) -> int:
    t0 = time.time()
    if args.seed < 0:
        raise core.InputError(f"--seed must be a non-negative integer, got {args.seed}")
    results, timings = {}, {}
    for q in _parse_qs(args.q):
        entry = {}
        spec = spectral.markov_spectrum(q, seed=args.seed)
        entry["group_order"] = spec.group_order
        entry["s_size"] = spec.s_size
        entry["eigenvalues"] = list(spec.eigenvalues)
        entry["matvecs"] = spec.matvecs
        stages = dict(spec.stages)
        t1 = time.perf_counter()
        if args.check == "transference":
            rep = spectral.transference_check(spec)
            entry["transference"] = {
                "k": rep.k_alt, "lhs": rep.lhs, "rhs": rep.rhs,
                "holds": rep.holds,
            }
            entry["status"] = "PASS" if rep.holds else "FAIL"
        if args.check == "alternation":
            k, sizes = spectral.alternation_length(q)
            entry["alternation_k"] = k
            entry["set_sizes"] = sizes
        if args.check != "spectrum":
            stages[f"{args.check}_s"] = time.perf_counter() - t1
        timings[str(q)] = {k: round(v, 3) for k, v in stages.items()}
        results[str(q)] = entry
    emit_report("spectral", vars(args), results, args.out, t0=t0, stages=timings)
    if args.check == "transference" and not all(
            v.get("transference", {}).get("holds", True) for v in results.values()):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_circle(args) -> int:
    t0 = time.time()
    stage = StageRecorder()
    root = _parse_root(args.root)
    for flag, v in (("--q0cap", args.q0cap), ("--grid", args.grid), ("--k0", args.k0)):
        if not v > 0:
            raise core.InputError(f"{flag} must be positive, got {v}")
    # the caps, then the shells and the grid, are checked before the family
    # is built; the shells are enumerated again by build_family, which costs
    # about 1.4 ms at T1 = T2 = 32
    if args.grid > CIRCLE_GRID_CAP:
        raise orbit.CapExceededError(f"--grid {args.grid} is above the cap {CIRCLE_GRID_CAP}")
    expsums.box_axes(args.x)
    for flag, t, shell in zip(("--t1", "--t2"), (args.t1, args.t2),
                              orbit.norm_shells(args.t1, args.t2)):
        if not shell.shape[0]:
            raise core.InputError(f"{flag} {t}: the norm shell {t} < ||gamma|| < {2 * t} "
                                  f"is empty, so the family is empty")
    n_scale = args.t1 * args.t2 * args.x * args.x
    bump = expsums.bump_on_grid(n_scale, args.q0cap, args.k0, args.grid)
    stage("bump", args.grid)
    fam = orbit.build_family(root, args.t1, args.t2)
    if not len(fam):
        raise core.InputError(f"the anchor cut a > T1 T2 / 100 leaves no member of the "
                              f"family at --t1 {args.t1} --t2 {args.t2}")
    stage("family", len(fam))
    rep = expsums.representation_number(fam, args.x, args.u if args.u else None)
    stage("representation", rep.pairs)
    dec = expsums.major_arc_decomposition(rep, bump)
    resid = float(np.abs(dec.major + dec.error - dec.folded).max())
    stage("decomposition", dec.grid)
    minor_grid = min(args.grid, 1 << 12)
    minor = expsums.minor_arc_report(rep, n_scale, args.q0cap, args.k0,
                                     minor_grid, args.x * fam.t)
    stage("minor_arcs", minor_grid)
    results = {
        "family_size": len(fam),
        "support_size": rep.values.size,
        "total_mass": rep.total_mass(),
        "n_scale": n_scale,
        "decomposition_residual": resid,
        "minor_arc_report": minor,
    }
    emit_report("circle", vars(args), results, args.out, t0=t0, stages=stage.stages)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    registry = FrozenRegistry(FROZEN)
    known = ("core", "orbit", "congruence", "forms", "expsums", "spectral")
    mods = args.modules.split(",") if args.modules else known
    unknown = [m for m in mods if m not in known]
    if unknown:
        raise core.InputError(f"--modules: unknown {','.join(unknown)}; "
                              f"choose from {','.join(known)}")
    root = core.DEFAULT_ROOT
    rng = np.random.default_rng(0)
    checks = []

    def check(name, ok, detail=None):
        checks.append((name, bool(ok)))
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    def frozen_check(label, name, value):
        ok = True
        try:
            registry.check(name, value)
        except FrozenMismatch:
            ok = False
        check(label, ok, registry.margins[name])

    if "core" in mods:
        ok = core.descartes_form(root) == 0
        for _ in range(200):
            v = _random_cone_point(rng)
            ok &= all(core.descartes_form(core.apply_reflection(i, v)) == 0
                      for i in (1, 2, 3, 4))
        check("core: reflections preserve the cone", ok)
        ok = all(core.xi(x, y)[3] == core.w_vector(x, y)
                 for (x, y) in ((0, 1), (1, 1), (2, -3), (-4, 9)))
        check("core: xi bottom rows", ok)
        ok = all(core.in_gamma(core.iota(g)) for g in core.SPIN_PREIMAGE_GENERATORS)
        check("core: spin preimage generators land in Gamma", ok)
    if "orbit" in mods:
        cs = orbit.enumerate_curvatures(root, 100)
        ok = set(cs.values().tolist()) == {21, 24, 28, 40, 52, 61, 76, 85, 96}
        check("orbit: curvature set at 100", ok)
    if "congruence" in mods:
        ok = sorted(congruence.admissible_classes(24, root)) == [0, 4, 12, 13, 16, 21]
        check("congruence: admissible classes mod 24", ok)
        ok = congruence.quotient_order(6) == congruence.quotient_order(2) * congruence.quotient_order(3)
        check("congruence: multiplicativity at 6", ok)
    if "forms" in mods:
        f = forms.extract_form(core.IDENTITY, root)
        ok = (f.A, f.B, f.C, f.a) == (10, 7, 17, -11) and forms.evaluate(f, 1, 1) == 96
        check("forms: identity form and value", ok)
    if "expsums" in mods:
        f = forms.ShiftedForm(10, 7, 17, -11)
        ok = abs(expsums.sf_direct(f, 3, 1, 0, 0) + 1 / 3) < 1e-9
        from math import gcd as _g
        for q0 in (3, 5, 7, 9, 15):
            for r in range(1, q0):
                if _g(r, q0) != 1:
                    continue
                for (n, m) in ((0, 0), (1, 2), (3, 1)):
                    ok &= abs(expsums.sf_closed(f, q0, r, n, m)
                              - expsums.sf_direct(f, q0, r, n, m)) < 1e-9
        check("expsums: closed form vs direct sum", ok)
        frozen_check("expsums: singular series at 96 frozen", "verify.singular_series_96",
                     expsums.singular_series(96, root))
    if "spectral" in mods:
        ok = spectral.generator_correspondence_check()["all_match"]
        check("spectral: generator correspondence", ok)
        frozen_check("spectral: lambda1(4) frozen", "verify.lambda1_q4",
                     spectral.markov_spectrum(4).eigenvalues[1])

    ok_all = all(ok for _, ok in checks)
    emit_report("verify", vars(args), {"checks": {n: ok for n, ok in checks}},
                args.out, t0=t0)
    return EXIT_OK if ok_all else EXIT_INVARIANT


def _random_cone_point(rng) -> tuple:
    word = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 8)))]
    return core.apply_word(word, core.DEFAULT_ROOT)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _root_positions(root):
    """Curvatures and centers of the four root circles; the first is the bounding
    circle (negative curvature), centered at the origin, and the second is
    centered on the positive real axis.  The other two centers are solved
    exactly and rounded once; of their four mirror choices the first with
    the smallest tangency residual is kept."""
    b1, b2, b3, b4 = root
    if b1 >= 0 or min(b2, b3, b4) <= 0:
        raise core.InputError("expected one bounding circle and three positive")
    r1, r2, r3, r4 = (Fraction(1, abs(b)) for b in root)
    z3, z4 = (_tangent_point(r1, r2, r) for r in (r3, r4))
    resid, z3, z4 = min(((abs(abs(p - q) - float(r3 + r4)), p, q)
                         for p in (z3, z3.conjugate()) for q in (z4, z4.conjugate())),
                        key=lambda t: t[0])
    if resid >= 1e-9:
        raise core.InputError("could not realize the root quadruple")
    return [(b1, 0j), (b2, complex(r1 - r2)), (b3, z3), (b4, z4)]


def _tangent_point(r1, r2, r):
    """Center of a circle of radius r inside the circle of radius r1 about
    the origin and outside the circle of radius r2 about (r1 - r2, 0)."""
    d, d1, d2 = r1 - r2, r1 - r, r2 + r
    x = (d * d + d1 * d1 - d2 * d2) / (2 * d)
    return complex(x, math.sqrt(d1 * d1 - x * x))


def render_svg(root, depth: int, fh) -> int:
    """Write the SVG of the gasket to the open text file fh and return the
    number of circles drawn.  The swap reflections act linearly on the
    curvature-times-center coordinates (b, b x, b y), so each level of the
    reflection tree is one (k, 4, 3) array; a node's children replace each
    slot but the one last replaced."""
    size = RENDER_SIZE
    scale, c = size / (2.2 / abs(root[0])), size / 2

    def draw(circles):
        for lo in range(0, len(circles), 1 << 16):
            b, bx, by = circles[lo:lo + (1 << 16)].T
            lines = []
            for x, y, r, bi in zip((c + (bx / b) * scale).tolist(),
                                   (c + (by / b) * scale).tolist(),
                                   (np.abs(1 / b) * scale).tolist(), b.tolist()):
                lines.append(f'\n<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="none" '
                             f'stroke="black" stroke-width="0.6"/>')
                if r > 9:
                    lines.append(f'\n<text x="{x:.3f}" y="{y + 3:.3f}" '
                                 f'font-size="{max(r / 3, 6):.0f}" '
                                 f'text-anchor="middle">{int(round(bi))}</text>')
            fh.write("".join(lines))
        return len(circles)

    level = np.array([[[b, b * z.real, b * z.imag] for b, z in _root_positions(root)]])
    last = np.array([-1])
    fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">\n'
             '<rect width="100%" height="100%" fill="white"/>')
    count = draw(level[0])
    for _ in range(depth):
        node, last = np.nonzero(last[:, None] != np.arange(4))
        rows = np.arange(node.size)
        fresh = level.sum(axis=1)[node]
        level = level[node]
        old = level[rows, last]
        # 2 (s - old) - old in place, s the parent's sum
        fresh -= old
        fresh *= 2
        fresh -= old
        level[rows, last] = fresh
        count += draw(fresh)
    fh.write("\n</svg>")
    return count


def cmd_render(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    # checked before the output file is opened, so a bad depth leaves it as it was
    if args.depth < 0:
        raise core.InputError(f"--depth must be >= 0, got {args.depth}")
    if args.depth > RENDER_DEPTH_CAP:
        raise orbit.CapExceededError(f"--depth {args.depth} is above the cap {RENDER_DEPTH_CAP}")
    with open(args.out, "w") as fh:
        count = render_svg(root, args.depth, fh)
    print(f"wrote {args.out} ({count} circles, {time.time() - t0:.2f}s)")
    return EXIT_OK


def _add_common(p, root=False):
    if root:
        p.add_argument("--root", default=",".join(map(str, core.DEFAULT_ROOT)),
                       help="root quadruple a,b,c,d (default %(default)s); its "
                            "first entry is at most 0, so pass it as "
                            "--root=-2,3,6,7, not --root -2,3,6,7")
    p.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line 'prog: error: message' and exit
    2; the subcommand parsers are made of the same class."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    ap = _Parser(prog="apollonian", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gasket", help="curvature census up to a bound")
    _add_common(p, root=True)
    p.add_argument("--limit", type=int, default=GASKET_DEFAULT_LIMIT,
                   help=f"bound N (default 1e8: {GASKET_DEFAULT_COST}); "
                        f"{GASKET_GROWTH}; above {GASKET_LIMIT_CAP:,} (about 0.2 GB on 2 CPUs) "
                        f"exits 3")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes sharing the tree walk, at most the CPUs this "
                        "process may run on (os.sched_getaffinity, else "
                        "os.cpu_count); default: all of them")
    p.add_argument("--snapshot", default=None, help="write the bitset file")
    p.set_defaults(func=cmd_gasket)

    p = sub.add_parser("admissible", help="admissible residue classes")
    _add_common(p, root=True)
    p.add_argument("--q", default="24",
                   help=f"comma-separated moduli; the classes mod q are read off "
                        f"the orbit mod gcd(q, 24), a quarter of q for the default "
                        f"root when 24 divides q, at about 130 bytes a class: "
                        f"4,000,002 take about 6 s and 0.57 GB, and more than "
                        f"{congruence.ADMISSIBLE_CLASSES_CAP:,} over all the moduli "
                        f"(about 14 s and 1.33 GB at the cap) exit 3, as does q above "
                        f"{congruence.ORBIT_MODULUS_CAP:,}")
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("delta-fit", help="norm-ball growth exponent")
    _add_common(p)
    p.add_argument("--ymin", type=float, default=100.0)
    p.add_argument("--ymax", type=float, default=10000.0)
    p.add_argument("--points", type=int, default=25,
                   help=f"radii Y in the fit; above {DELTA_FIT_POINTS_CAP:,} (about "
                        f"10 s and 0.61 GB) exit 3")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv prints the (Y, count) table alone")
    p.set_defaults(func=cmd_delta_fit)

    p = sub.add_parser("expsum", help="local exponential sum values")
    _add_common(p)
    p.add_argument("--form", default="10,7,17,-11")
    p.add_argument("--q0", type=int, required=True,
                   help=f"modulus; time grows like q0^2, and above {EXPSUM_Q0_CAP:,} "
                        f"(about 8 s) exits 3")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("singular", help="singular series value")
    _add_common(p, root=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pcut", type=int, default=13,
                   help=f"primes up to this cutoff; above "
                        f"{expsums.PRIME_CUTOFF_CAP:,} (about 2.7 s and 0.39 GB) exits 3")
    p.add_argument("--depth", type=int, default=1,
                   help="at least 1; changes no factor (the 2- and 3-factors are "
                        "read mod 8 and mod 3, the others in closed form)")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("spectral", help="quotient spectra and transference")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", default="2,3,4",
                   help=f"comma-separated moduli; a quotient of more than "
                        f"{spectral.CLOSURE_CAP:,} classes {{g, -g}} exits 3 (q = 11 "
                        f"has 885,720 and takes about 15 s and 0.24 GB)")
    p.add_argument("--check", choices=("spectrum", "transference", "alternation"),
                   default="spectrum")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("circle", help="toy circle-method decomposition")
    _add_common(p, root=True)
    p.add_argument("--t1", type=int, default=8,
                   help=f"norm shell of gamma1; above {orbit.SHELL_T_CAP:,} (for "
                        f"--t1 or --t2), or with --t2 more than "
                        f"{orbit.FAMILY_PAIR_CAP:,} shell pairs (the family alone about "
                        f"0.33 GB), exit 3; an empty shell or family exits 2")
    p.add_argument("--t2", type=int, default=8)
    p.add_argument("--x", type=int, default=32,
                   help=f"box scale X; members times live (x, y) points above "
                        f"{expsums.REPRESENTATION_CAP:,} (32-36 bytes each: "
                        f"0.85-1.05 GB near the cap with --grid 4194304) exit 3, and so "
                        f"do values too wide for the int64 keys (roots with entries "
                        f"near 1e12)")
    p.add_argument("--u", type=int, default=0,
                   help="Moebius truncation U >= 2: sum mu(u) over u | (2x, y), u < U, "
                        "in place of gcd(2x, y) = 1; 0 (default) keeps the exact gcd")
    p.add_argument("--q0cap", type=int, default=8)
    p.add_argument("--k0", type=float, default=64.0)
    p.add_argument("--grid", type=int, default=1 << 16,
                   help=f"points of the uniform grid on the circle; above "
                        f"{CIRCLE_GRID_CAP:,} (about 1.05 GB at --t1 632 --t2 1024 "
                        f"--x 5) exit 3")
    p.set_defaults(func=cmd_circle)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    _add_common(p)
    p.add_argument("--modules", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG of the gasket")
    _add_common(p, root=True)
    p.add_argument("--depth", type=int, default=4,
                   help=f"levels of the reflection tree; above {RENDER_DEPTH_CAP} "
                        f"(about 9 s, 0.45 GB and a 293 MB file) exit 3")
    p.set_defaults(func=cmd_render, out="gasket.svg")

    args = ap.parse_args(argv)
    try:
        # checked before the command runs, which for gasket takes minutes
        for flag in ("out", "snapshot"):
            path = getattr(args, flag, None)
            if path and (os.path.isdir(path) or not os.access(Path(path).parent, os.W_OK)):
                raise core.InputError(f"--{flag} {path} is not a writable file path")
        return args.func(args)
    except orbit.CapExceededError as e:
        print(e, file=sys.stderr)
        return EXIT_RESOURCE
    except core.InputError as e:  # bad input found below the argument parser
        print(e, file=sys.stderr)
        return EXIT_INPUT
    except spectral.EigensolverError as e:
        print(e, file=sys.stderr)
        return EXIT_INVARIANT
    except (MemoryError, OSError) as e:  # a worker's MemoryError included
        if isinstance(e, OSError) and e.errno != errno.ENOMEM:
            raise
        print(f"out of memory: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as e:  # any other ValueError is a fault of the program
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
