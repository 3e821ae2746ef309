"""Command-line reports: census, admissibility, delta fit, exponential sums,
singular series, spectra, the circle-method toy harness, invariant
verification, and an SVG rendering of the gasket.

Reports are deterministic JSON with sorted keys.  Empirically measured
constants (stand-ins for implicit big-O constants) live in a frozen
registry: the first run with --freeze writes them, later runs compare
within the declared tolerances, and --ci forbids writes.

Exit codes: 0 pass, 1 invariant failure, 2 invalid input, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, congruence, core, expsums, forms, orbit, spectral

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

DEFAULT_ROOT = (-11, 21, 24, 28)
GASKET_DEFAULT_LIMIT = 10**8
# `gasket` at the default limit with one thread, measured on a 2-CPU machine
GASKET_DEFAULT_COST = "about 55 s and 0.35 GB peak RSS on a 2-CPU machine"
# `render` keeps every circle of the reflection tree, 4 * 3^(depth - 1) at the
# last level, so memory grows about 2.8x per level: depth 10 takes about 2 s
# and 105 MB, 11 about 4.5 s and 257 MB, 12 about 15 s and 713 MB on a 2-CPU
# machine, and 13 would need about 2 GB
RENDER_DEPTH_CAP = 12


def _default_registry_path() -> Path:
    cache = os.environ.get("APOLLO_CACHE_DIR")
    if cache:
        return Path(cache) / "frozen.json"
    try:
        return Path(str(resources.files("apollonian").joinpath("data/frozen.json")))
    except Exception:
        return Path("apollonian_frozen.json")


class FrozenMismatch(AssertionError):
    pass


class FrozenRegistry:
    """First run records constants; later runs regress against them.

    margins maps each recorded name to one line: the measured value, the
    frozen value and the tolerance left."""

    def __init__(self, path, freeze: bool = False, ci: bool = False):
        self.path = Path(path)
        self.freeze = freeze
        self.ci = ci
        self.data = {}
        self.dirty = False
        self.mismatches = []
        self.margins = {}
        if self.path.exists():
            self.data = json.loads(self.path.read_text()).get("constants", {})

    def record(self, name: str, value, rtol: float = 0.0, atol: float = 0.0):
        if isinstance(value, (np.integer,)):
            value = int(value)
        if isinstance(value, (np.floating,)):
            value = float(value)
        if name not in self.data or self.freeze:
            if self.ci and name not in self.data:
                self.mismatches.append(f"{name}: missing from registry in CI mode")
                self.margins[name] = f"value {value!r}, missing from the registry"
                return value
            self.data[name] = {"value": value, "rtol": rtol, "atol": atol}
            self.dirty = True
            self.margins[name] = f"value {value!r} frozen now (rtol {rtol}, atol {atol})"
            return value
        ref = self.data[name]
        rv = ref["value"]
        tol = ref.get("atol", 0.0) + ref.get("rtol", 0.0) * abs(rv if isinstance(rv, (int, float)) else 0)
        if isinstance(rv, (int, float)) and isinstance(value, (int, float)):
            if abs(value - rv) > tol:
                self.mismatches.append(f"{name}: got {value}, frozen {rv} (tol {tol})")
            self.margins[name] = (f"value {value!r}, frozen {rv!r}, tolerance left "
                                  f"{tol - abs(value - rv):.3g} of {tol:.3g}")
        else:
            if value != rv:
                self.mismatches.append(f"{name}: got {value!r}, frozen {rv!r}")
            self.margins[name] = f"value {value!r}, frozen {rv!r}, exact"
        return value

    def save(self):
        if self.ci:
            if self.dirty:
                raise FrozenMismatch("registry writes are forbidden in CI mode")
            return
        if self.dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(
                {"version": 1, "constants": self.data}, indent=1, sort_keys=True))
            self.dirty = False

    def check(self):
        if self.mismatches:
            raise FrozenMismatch("; ".join(self.mismatches))


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
                fmt: str = "json", t0: float | None = None) -> dict:
    config = {k: v for k, v in config.items() if not callable(v)}
    report = {
        "command": command,
        "config": _jsonable(config),
        "results": _jsonable(results),
        "version": __version__,
        "elapsed_s": round(time.time() - t0, 3) if t0 else None,
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    if fmt == "csv" and isinstance(results.get("table"), list):
        rows = results["table"]
        lines = [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return report


def _parse_root(s: str):
    try:
        parts = tuple(int(x) for x in s.split(","))
        if len(parts) == 4:
            return parts
    except ValueError:
        pass
    raise core.InputError(f"--root must be four integers a,b,c,d, got {s!r}")


def _parse_qs(s: str):
    try:
        qs = [int(x) for x in s.split(",")]
        if min(qs) >= 1:
            return qs
    except ValueError:
        pass
    raise core.InputError(f"--q must be a comma-separated list of positive integers, got {s!r}")


def cmd_gasket(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    if core.descartes_form(root) != 0:
        raise core.InputError(f"root {root} violates the Descartes relation")
    if args.limit < 1:
        raise core.InputError(f"--limit must be at least 1, got {args.limit}")
    # checked before the walk, which at the default limit takes minutes
    if args.snapshot and (os.path.isdir(args.snapshot)
                          or not os.access(Path(args.snapshot).parent, os.W_OK)):
        raise core.InputError(f"--snapshot {args.snapshot} is not a writable file path")
    if args.limit > GASKET_DEFAULT_LIMIT:
        print(f"warning: --limit {args.limit} is above the default 1e8, which "
              f"takes {GASKET_DEFAULT_COST}; time and memory grow about "
              f"linearly with the limit", file=sys.stderr)
    adm = congruence.admissible_classes(24, root)
    cs = orbit.enumerate_curvatures(root, args.limit, threads=args.threads)
    rep = orbit.census(cs, adm)
    if args.snapshot:
        cs.save(args.snapshot)
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
    emit_report("gasket", vars(args), results, args.out, t0=t0)
    return EXIT_OK


def cmd_admissible(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    qs = _parse_qs(args.q)
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
    ys = np.geomspace(args.ymin, args.ymax, args.points)
    table = orbit.norm_ball_count(ys)
    delta = orbit.fit_delta(table)
    results = {
        "delta": delta,
        "table": [[float(y), int(c)] for y, c in zip(table.ys, table.counts)],
    }
    emit_report("delta-fit", vars(args), results, args.out, args.format, t0)
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
    val = expsums.singular_series(args.n, root, args.pcut, args.depth)
    results = {
        "n": args.n,
        "singular_series": val,
        "admissible": congruence.is_admissible(args.n, root),
        "note": "non-admissible" if val == 0 else "admissible",
    }
    emit_report("singular", vars(args), results, args.out, t0=t0)
    return EXIT_OK


def cmd_spectral(args) -> int:
    t0 = time.time()
    results = {}
    for q in _parse_qs(args.q):
        entry = {}
        spec = spectral.markov_spectrum(q, seed=args.seed)
        entry["group_order"] = spec.group_order
        entry["s_size"] = spec.s_size
        entry["eigenvalues"] = list(spec.eigenvalues)
        entry["matvecs"] = spec.matvecs
        entry["stages"] = {k: round(v, 3) for k, v in spec.stages.items()}
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
        results[str(q)] = entry
    emit_report("spectral", vars(args), results, args.out, t0=t0)
    if args.check == "transference" and not all(
            v.get("transference", {}).get("holds", True) for v in results.values()):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_circle(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    for flag, v in (("--q0cap", args.q0cap), ("--grid", args.grid), ("--k0", args.k0)):
        if not v > 0:
            raise core.InputError(f"{flag} must be positive, got {v}")
    fam = orbit.build_family(root, args.t1, args.t2)
    rep = expsums.representation_number(fam, args.x, args.u if args.u else None)
    n_scale = fam.t * args.x * args.x
    dec = expsums.major_arc_decomposition(rep, n_scale, args.q0cap, args.k0, args.grid)
    resid = float(np.abs(dec.major + dec.error - dec.folded).max())
    minor = expsums.minor_arc_report(rep, n_scale, args.q0cap, args.k0,
                                     min(args.grid, 1 << 12), args.x * fam.t)
    results = {
        "family_size": len(fam),
        "support_size": rep.values.size,
        "total_mass": rep.total_mass(),
        "n_scale": n_scale,
        "decomposition_residual": resid,
        "minor_arc_report": minor,
    }
    emit_report("circle", vars(args), results, args.out, t0=t0)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    registry = FrozenRegistry(args.registry or _default_registry_path(),
                              freeze=args.freeze, ci=args.ci)
    known = ("core", "orbit", "congruence", "forms", "expsums", "spectral")
    mods = args.modules.split(",") if args.modules else known
    unknown = [m for m in mods if m not in known]
    if unknown:
        raise core.InputError(f"--modules: unknown {','.join(unknown)}; "
                              f"choose from {','.join(known)}")
    root = DEFAULT_ROOT
    rng = np.random.default_rng(args.seed)
    checks = []

    def check(name, ok, detail=None):
        checks.append((name, bool(ok)))
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    def frozen_check(label, name, value, **tolerance):
        before = len(registry.mismatches)
        registry.record(name, value, **tolerance)
        check(label, len(registry.mismatches) == before, registry.margins[name])

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
                     expsums.singular_series(96, root), rtol=1e-9)
    if "spectral" in mods:
        ok = spectral.generator_correspondence_check()["all_match"]
        check("spectral: generator correspondence", ok)
        frozen_check("spectral: lambda1(4) frozen", "verify.lambda1_q4",
                     spectral.markov_spectrum(4).eigenvalues[1], atol=1e-6)

    try:
        registry.check()
        registry.save()
    except FrozenMismatch as e:
        print(f"frozen-constant mismatch: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    ok_all = all(ok for _, ok in checks)
    emit_report("verify", vars(args), {"checks": {n: ok for n, ok in checks}},
                args.out, t0=t0)
    return EXIT_OK if ok_all else EXIT_INVARIANT


def _random_cone_point(rng) -> tuple:
    word = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 8)))]
    return core.apply_word(word, DEFAULT_ROOT)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _root_positions(root):
    """Centers and radii of the four root circles; the first is the bounding
    circle (negative curvature), centered at the origin."""
    b1, b2, b3, b4 = root
    if b1 >= 0 or min(b2, b3, b4) <= 0:
        raise core.InputError("expected one bounding circle and three positive")
    r1, r2, r3, r4 = (1 / abs(b1), 1 / b2, 1 / b3, 1 / b4)
    z1 = 0 + 0j
    z2 = complex(r1 - r2, 0)
    z3 = _tangent_point(z1, r1, True, z2, r2, False, r3)
    z4a = _tangent_point(z1, r1, True, z2, r2, False, r4)
    z4b = None
    # two candidates (mirror images); pick the one tangent to circle 3
    for cand in (z4a, np.conj(z4a)):
        if abs(abs(cand - z3) - (r3 + r4)) < 1e-9:
            z4b = cand
            break
    if z4b is None:
        # circle 3 mirror choice instead
        z3 = np.conj(z3)
        for cand in (z4a, np.conj(z4a)):
            if abs(abs(cand - z3) - (r3 + r4)) < 1e-9:
                z4b = cand
                break
    if z4b is None:
        raise core.InputError("could not realize the root quadruple")
    return [(b1, z1), (b2, z2), (b3, z3), (b4, z4b)]


def _tangent_point(z1, r1, inside1, z2, r2, inside2, r):
    """Center of a circle of radius r tangent to both given circles."""
    d1 = r1 - r if inside1 else r1 + r
    d2 = r2 - r if inside2 else r2 + r
    d = abs(z2 - z1)
    x = (d * d + d1 * d1 - d2 * d2) / (2 * d)
    y2 = d1 * d1 - x * x
    y = math.sqrt(max(y2, 0.0))
    u = (z2 - z1) / d
    return z1 + u * complex(x, y)


def render_svg(root, depth: int, size: int = 800) -> str:
    """SVG of the gasket: the reflection tree acts on curvature and
    curvature-times-center coordinates jointly."""
    if depth < 0:
        raise core.InputError(f"--depth must be >= 0, got {depth}")
    if depth > RENDER_DEPTH_CAP:
        raise orbit.CapExceededError(f"--depth {depth} is above the cap {RENDER_DEPTH_CAP}")
    circles = _root_positions(root)
    state = np.array(
        [[b, b * z.real, b * z.imag] for b, z in circles], dtype=float)
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


def cmd_render(args) -> int:
    t0 = time.time()
    root = _parse_root(args.root)
    if core.descartes_form(root) != 0:
        raise core.InputError(f"root {root} violates the Descartes relation")
    svg = render_svg(root, args.depth)
    out = args.out or "gasket.svg"
    Path(out).write_text(svg)
    print(f"wrote {out} ({time.time() - t0:.2f}s)")
    return EXIT_OK


def _add_common(p, root=False, seed=False):
    if root:
        p.add_argument("--root", default="-11,21,24,28")
    p.add_argument("--out", default=None)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="apollonian",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gasket", help="curvature census up to a bound")
    _add_common(p, root=True)
    p.add_argument("--limit", type=int, default=GASKET_DEFAULT_LIMIT,
                   help=f"bound N (default 1e8: {GASKET_DEFAULT_COST})")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--snapshot", default=None, help="write the bitset file")
    p.set_defaults(func=cmd_gasket)

    p = sub.add_parser("admissible", help="admissible residue classes")
    _add_common(p, root=True)
    p.add_argument("--q", default="24")
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("delta-fit", help="norm-ball growth exponent")
    _add_common(p)
    p.add_argument("--ymin", type=float, default=100.0)
    p.add_argument("--ymax", type=float, default=10000.0)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv prints the (Y, count) table alone")
    p.set_defaults(func=cmd_delta_fit)

    p = sub.add_parser("expsum", help="local exponential sum values")
    _add_common(p)
    p.add_argument("--form", default="10,7,17,-11")
    p.add_argument("--q0", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("singular", help="singular series value")
    _add_common(p, root=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pcut", type=int, default=13)
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("spectral", help="quotient spectra and transference")
    _add_common(p, seed=True)
    p.add_argument("--q", default="2,3,4",
                   help=f"comma-separated moduli; a quotient of more than "
                        f"{spectral.CLOSURE_CAP:,} elements exits 3 (q = 11 has "
                        f"1,771,440 and takes about 90 s and 0.5 GB)")
    p.add_argument("--check", choices=("spectrum", "transference", "alternation"),
                   default="spectrum")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("circle", help="toy circle-method decomposition")
    _add_common(p, root=True)
    p.add_argument("--t1", type=int, default=8,
                   help=f"norm shell of gamma1; with --t2, more than "
                        f"{orbit.FAMILY_PAIR_CAP:,} shell pairs (about 1.4 GB) exit 3")
    p.add_argument("--t2", type=int, default=8)
    p.add_argument("--x", type=int, default=32,
                   help=f"box scale X; members times live (x, y) points above "
                        f"{expsums.REPRESENTATION_CAP:,} (about 1.2 GB) exit 3")
    p.add_argument("--u", type=int, default=0,
                   help="Moebius truncation U >= 2: sum mu(u) over u | (2x, y), u < U, "
                        "in place of gcd(2x, y) = 1; 0 (default) keeps the exact gcd")
    p.add_argument("--q0cap", type=int, default=8)
    p.add_argument("--k0", type=float, default=64.0)
    p.add_argument("--grid", type=int, default=1 << 16)
    p.set_defaults(func=cmd_circle)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    _add_common(p, seed=True)
    p.add_argument("--modules", default=None)
    p.add_argument("--registry", default=None)
    p.add_argument("--freeze", action="store_true")
    p.add_argument("--ci", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG of the gasket")
    _add_common(p, root=True)
    p.add_argument("--depth", type=int, default=4,
                   help=f"levels of the reflection tree; above {RENDER_DEPTH_CAP} "
                        f"(about 15 s and 0.7 GB) exit 3")
    p.set_defaults(func=cmd_render)

    args = ap.parse_args(argv)
    try:
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
    except ValueError as e:  # any other ValueError is a fault of the program
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
