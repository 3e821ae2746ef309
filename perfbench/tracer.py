"""Run one `apollonian` CLI command in-process with layer spans.

Usage: python perfbench/tracer.py <cli arguments...>

The public functions named in SPANNED are replaced, as module attributes,
by wrappers that record a span (name, start, end, parent span, growth of
the RSS high-water mark) plus exact counts taken from arguments and return
values.  The package source is not edited: calls inside a module resolve
through its globals, so they reach the wrappers too (for example
`spectral._closure_cached -> closure_sl2` and
`expsums._slot_factor_table -> congruence.vector_orbit`).

Spans are kept in memory.  When the command ends, one JSON object with the
exit code, the command's own stdout and the spans is written to stdout.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import resource
import sys
import time

from apollonian import cli, congruence, expsums, orbit, spectral

MODULES = {"orbit": orbit, "congruence": congruence, "spectral": spectral,
           "expsums": expsums, "cli": cli}

SPANNED = {
    "orbit": ("enumerate_curvatures", "census", "enumerate_gamma",
              "norm_ball_count", "build_family"),
    "congruence": ("vector_orbit", "admissible_classes", "quotient_closure"),
    "spectral": ("closure_sl2", "markov_spectrum"),
    "expsums": ("singular_series_sweep", "representation_number",
                "fold_weights", "major_arc_decomposition",
                "minor_arc_report", "sf_direct"),
    "cli": ("emit_report",),
}

# exact counts per span, from the return value
COUNTS = {
    "orbit.enumerate_curvatures": {"curvatures": lambda r: r.count()},
    "orbit.census": {"exceptions": lambda r: int(r.exceptions.size)},
    "orbit.enumerate_gamma": {"elements": lambda r: int(r[0].size)},
    "orbit.build_family": {"members": lambda r: len(r)},
    "congruence.vector_orbit": {"points": lambda r: int(r.shape[0])},
    "spectral.closure_sl2": {"elements": lambda r: int(r.order)},
    "spectral.markov_spectrum": {"group_order": lambda r: int(r.group_order)},
    "expsums.representation_number": {"support": lambda r: len(r.values)},
}

# argument key per span, from the arguments bound to the signature, for the
# distinct/calls waste ratio
KEYS = {
    "congruence.vector_orbit":
        lambda a: [[int(x) for x in a["root"]], int(a["q"])],
}


def _hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self):
        for mod_name, names in SPANNED.items():
            module = MODULES[mod_name]
            for name in names:
                setattr(module, name, self._wrap(f"{mod_name}.{name}",
                                                 getattr(module, name)))

    def _wrap(self, label, fn):
        counts = COUNTS.get(label, {})
        key = KEYS.get(label)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kw):
            parent = self._stack[-1] if self._stack else None
            rec = {"id": len(self.spans), "name": label,
                   "parent": parent["id"] if parent else None, "child_s": 0.0}
            self.spans.append(rec)
            self._stack.append(rec)
            hwm0 = _hwm_mb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                rec.update(start=t0, end=t1,
                           rss_hwm_delta_mb=_hwm_mb() - hwm0)
            if counts:
                rec["counts"] = {c: f(result) for c, f in counts.items()}
            if key:
                bound = sig.bind(*args, **kw)
                bound.apply_defaults()
                rec["key"] = key(bound.arguments)
            if parent is not None:
                # the parent's self time excludes this span and the count
                # extraction done after it
                parent["child_s"] += time.perf_counter() - t0
            return result

        return span


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    for rec in tracer.spans:
        rec["self_s"] = rec["end"] - rec["start"] - rec.pop("child_s")
    json.dump({"exit": code, "stdout": out.getvalue(), "spans": tracer.spans},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
