"""Benchmark of the `apollonian` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload census|spectral|local --seed N \
        --seconds S --trace 0|1

Every command runs in a fresh `python -m apollonian` process, one at a time
(a closed loop with one client), so the package's in-process caches start
cold as they do for a user.  A round is the workload's list of commands;
rounds repeat until the next one would end past --seconds.

--trace 0 prints the end-to-end metrics: median round wall time, median
round CPU time of the children, the largest child peak RSS, and the median
fresh-interpreter `import apollonian.cli` time.  --trace 1 alternates an
untraced round with the same round run through perfbench/tracer.py and
prints the per-layer metrics named in BENCHMARK.json, plus the tracing
overhead.  Every command's output is checked; a nonzero exit, a timeout or
a failed check counts as a failed operation.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0          # the whole run ends within 180 s
SETUP_SAMPLES = 7
ADMISSIBLE_24 = {0, 4, 12, 13, 16, 21}   # curvature classes mod 24 of the root gasket


# workload -> the commands of one round, drawn from the seeded generator
ROUNDS = {
    "census": lambda rng: [["gasket", "--limit", "30000000"]],
    "spectral": lambda rng: [
        ["spectral", "--q", "5,7", "--seed", str(rng.randrange(2**31))]],
    "local": lambda rng: [
        ["singular", "--n", str(rng.randint(1, 10**6)), "--pcut", "7", "--depth", "2"],
        ["delta-fit", "--ymax", "3000"],
        ["circle", "--t1", "32", "--t2", "32", "--x", "32"]],
}
# reference commands run once per run, outside the timed rounds
PROBES = {"local": [["singular", "--n", "96", "--pcut", "7", "--depth", "2"]]}


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def _frozen(name):
    path = ROOT / "tests" / "frozen.json"
    return json.loads(path.read_text())["constants"][name]["value"]


def check_gasket(argv, res):
    errs = []
    if res["curvature_count"] != 7_474_831:
        errs.append(f"curvature_count {res['curvature_count']} != 7474831")
    if res["exception_count"] != 25_169:
        errs.append(f"exception_count {res['exception_count']} != 25169")
    classes = {int(k) for k in res["residue_counts"]}
    if not classes <= ADMISSIBLE_24:
        errs.append(f"residue classes {sorted(classes)} outside {sorted(ADMISSIBLE_24)}")
    if sum(res["residue_counts"].values()) != res["curvature_count"]:
        errs.append("residue counts do not sum to curvature_count")
    if res["curvature_count"] + res["exception_count"] != res["admissible_count"]:
        errs.append("curvatures + exceptions != admissible_count")
    return errs


def check_spectral(argv, res):
    refs = {
        "5": (_frozen("spectral.order_q5"), _frozen("spectral.s_size_q5"),
              _frozen("acceptance.lambda1_q5")),
        "7": (117_600, 12, 0.8733854487),
    }
    errs = []
    for q, (order, s_size, lam1) in refs.items():
        entry = res[q]
        if entry["group_order"] != order:
            errs.append(f"q={q}: group_order {entry['group_order']} != {order}")
        if entry["s_size"] != s_size:
            errs.append(f"q={q}: s_size {entry['s_size']} != {s_size}")
        if abs(entry["eigenvalues"][1] - lam1) > 1e-6:
            errs.append(f"q={q}: lambda1 {entry['eigenvalues'][1]} != {lam1} +- 1e-6")
    return errs


def check_singular(argv, res):
    n = int(argv[argv.index("--n") + 1])
    val = res["singular_series"]
    if n == 96 and abs(val - 2.45) > 1e-9:
        return [f"singular series at 96 is {val}, expected 2.45"]
    if (val > 0) != (n % 24 in ADMISSIBLE_24):
        return [f"singular series at n={n} (n mod 24 = {n % 24}) is {val}"]
    return []


def check_delta_fit(argv, res):
    errs = []
    if res["table"][-1][1] != 9_325:
        errs.append(f"last count {res['table'][-1][1]} != 9325")
    if not 1.2 <= res["delta"] <= 1.4:
        errs.append(f"delta {res['delta']} outside [1.2, 1.4]")
    return errs


def check_circle(argv, res):
    errs = []
    if res["family_size"] != 3_180:
        errs.append(f"family_size {res['family_size']} != 3180")
    if res["support_size"] != 560_345:
        errs.append(f"support_size {res['support_size']} != 560345")
    if not res["decomposition_residual"] < 1e-9:
        errs.append(f"decomposition_residual {res['decomposition_residual']} >= 1e-9")
    return errs


CHECKS = {"gasket": check_gasket, "spectral": check_spectral,
          "singular": check_singular, "delta-fit": check_delta_fit,
          "circle": check_circle}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    """One finished child process: wall time, its own rusage and its output."""
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, timeout) -> Child:
    """Run argv with the checkout's src/ on the path; kill it after timeout s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = [], []
    readers = [threading.Thread(target=lambda f, sink: sink.append(f.read()),
                                args=pair)
               for pair in ((proc.stdout, out), (proc.stderr, err))]
    for r in readers:
        r.start()
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        # os.wait4 reaps the child and returns the rusage of that child alone
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, wall_s, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0, out[0].decode(), err[0].decode())


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def fail(self, argv, msg):
        self.failures.append(f"{' '.join(argv)}: {msg}")

    def command(self, argv, traced):
        """Run one CLI command; returns (Child, spans or None), or None on failure."""
        self.attempted += 1
        prog = [str(HERE / "tracer.py")] if traced else ["-m", "apollonian"]
        child = run_child([sys.executable] + prog + argv,
                          self.deadline - time.perf_counter())
        if child.exit != 0:
            self.fail(argv, f"exit {child.exit}: {child.stderr.strip()[-500:]}")
            return None
        spans = None
        text = child.stdout
        try:
            if traced:
                payload = json.loads(text)
                if payload["exit"] != 0:
                    self.fail(argv, f"exit {payload['exit']}")
                    return None
                spans, text = payload["spans"], payload["stdout"]
            errs = CHECKS[argv[0]](argv, json.loads(text)["results"])
        except (ValueError, KeyError, IndexError, TypeError) as e:
            errs = [f"unreadable output: {e!r}"]
        if errs:
            self.fail(argv, "; ".join(errs))
            return None
        return child, spans

    def round(self, cmds, traced):
        """Run the round's commands in sequence; None if any failed."""
        out = []
        for argv in cmds:
            r = self.command(argv, traced)
            if r is None:
                return None
            out.append(r)
        return out


def setup_seconds(runner, samples):
    """Wall times of fresh interpreters importing apollonian.cli from SRC."""
    argv = [sys.executable, "-c",
            "import apollonian.cli, sys; sys.stdout.write(apollonian.cli.__file__)"]
    times = []
    for _ in range(samples):
        child = run_child(argv, runner.deadline - time.perf_counter())
        if child.exit != 0 or Path(child.stdout).resolve() != SRC / "apollonian" / "cli.py":
            sys.exit(f"cannot import apollonian.cli from {SRC}: {child.stderr.strip()}")
        times.append(child.wall_s)
    return times


def aggregate_spans(spans):
    """Per-layer metrics of one round from its spans."""
    out = {}
    keys = {}
    for s in spans:
        name = s["name"]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for metric in ("self_s", "rss_hwm_delta_mb"):
            out[f"{name}.{metric}"] = out.get(f"{name}.{metric}", 0.0) + s[metric]
        for c, v in s.get("counts", {}).items():
            out[f"{name}.{c}"] = out.get(f"{name}.{c}", 0) + v
        if "key" in s:
            keys.setdefault(name, set()).add(json.dumps(s["key"]))
    for name, ks in keys.items():
        out[f"{name}.distinct"] = len(ks)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "apollonian" / "cli.py").is_file():
        sys.exit(f"no apollonian package under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    runner = Runner(start + DEADLINE_S)
    # the first import writes bytecode caches, which users do not pay per call
    setup = setup_seconds(runner, 1 if args.trace else SETUP_SAMPLES + 1)[1:]
    rng = random.Random(args.seed)

    rounds, traced_rounds = [], []
    t0 = time.perf_counter()
    while True:
        cmds = ROUNDS[args.workload](rng)
        r = runner.round(cmds, traced=False)
        if r is None:
            break
        rounds.append(r)
        if args.trace:
            t = runner.round(cmds, traced=True)
            if t is None:
                break
            traced_rounds.append(t)
        mean_round_s = (time.perf_counter() - t0) / len(rounds)
        if time.perf_counter() - t0 + mean_round_s > args.seconds:
            break
    for argv in PROBES.get(args.workload, []):
        runner.command(argv, traced=False)

    correct = not runner.failures
    values = {}
    if rounds:
        walls = [sum(c.wall_s for c, _ in r) for r in rounds]
        values.update(
            wall_s=statistics.median(walls),
            cpu_s=statistics.median(sum(c.cpu_s for c, _ in r) for r in rounds),
            peak_rss_mb=max(c.rss_mb for r in rounds for c, _ in r),
        )
    if setup:
        values["setup_s"] = statistics.median(setup)
    if traced_rounds:
        per_round = [aggregate_spans([s for _, spans in r for s in spans])
                     for r in traced_rounds]
        for name in set().union(*per_round):
            vals = [p.get(name, 0) for p in per_round]
            if isinstance(vals[0], int) and len(set(vals)) > 1:
                correct = False
                print(f"exact count {name} differs between rounds: {vals}", file=sys.stderr)
            values[name] = statistics.median(vals)
        traced_wall = statistics.median(sum(c.wall_s for c, _ in r) for r in traced_rounds)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead"] = traced_wall / values["wall_s"]

    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct and bool(rounds),
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
