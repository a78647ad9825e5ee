"""matform benchmark: runs one workload through the `matform` CLI.

    python3 bench/run.py --workload prove_symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every task is a fresh
`python -m matform.cli` process with PYTHONPATH pointing at the checkout's
`src/`, started one at a time from this process.  Untraced runs (--trace 0)
report the end-to-end metrics; traced runs (--trace 1) run the workload
under bench/trace_child.py and report per-layer metrics plus the tracing
overhead.  Every task's answer is checked after its process has ended.
Untraced times are scaled by the probe that bench/launcher.py times beside
each process (see `scaled`).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A readable table goes to stderr and
the full record, with one row per task, to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from launcher import PROBE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 11
OUT = BENCH / "results"
MARK = "BENCH-SPANS "  # see trace_child.py


# -- processes -----------------------------------------------------------------

class Execution:
    """One finished child process."""

    def __init__(self, seconds, status, timed_out, stdout, stderr, maxrss_kb,
                 probe_s):
        self.seconds = seconds
        self.status = status          # exit code, or -signal
        self.timed_out = timed_out
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_mb = maxrss_kb / 1024.0
        self.probe_s = probe_s        # median probe time while it ran


class Launcher:
    """Starts task processes one at a time through bench/launcher.py."""

    def __init__(self, env):
        OUT.mkdir(exist_ok=True)
        tag = f"task{os.getpid()}"  # runs in one checkout must not share them
        self.out, self.err = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(BENCH / "launcher.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, argv, limit: float) -> Execution:
        request = {"argv": argv, "limit": limit,
                   "stdout": str(self.out), "stderr": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("task launcher exited")
        got = json.loads(line)
        return Execution(got["seconds"], got["status"], got["timed_out"],
                         self.out.read_bytes(),
                         self.err.read_text(errors="replace"),
                         got["maxrss_kb"], got["probe_s"])

    def close(self, ok=True):
        """End the launcher: after its current task when `ok`, else at once
        (its running task is killed)."""
        if not ok:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in (self.out, self.err):
            path.unlink(missing_ok=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # so per-layer counts repeat exactly
    return env


def matform_argv(task_argv, traced: bool):
    if traced:
        return [sys.executable, str(BENCH / "trace_child.py"), *task_argv]
    return [sys.executable, "-m", "matform.cli", *task_argv]


# -- tasks -----------------------------------------------------------------------

def judge(task, ex: Execution, negate: bool):
    """(failure reason or None, wrong answer?) for one finished task."""
    if ex.timed_out:
        return "time-out", False
    try:
        obj = json.loads(ex.stdout)
    except ValueError:
        obj = None
    if obj is not None:
        try:
            reason = task.check(obj)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed answer ({type(exc).__name__}: {exc})"
        if negate:  # deliberately wrong expected answer
            reason = None if reason else "expected answer negated"
        if reason:
            return f"wrong answer: {reason}", True
    if ex.status != task.exit_code:
        last = ex.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {ex.status} (expected {task.exit_code}): {last[0][:120]}", False
    if obj is None:
        return "stdout is not one JSON document", False
    if "Traceback (most recent call last)" in ex.stderr:
        return "traceback on stderr", False
    return None, False


def run_pass(wl, launcher, traced=False, negate_first=False, setup_times=None):
    """Run the workload's tasks once.  With `setup_times`, also take
    SETUP_REPS set-up samples spread evenly through the pass."""
    rows = []
    n = len(wl.tasks)
    sample_before = [i * n // SETUP_REPS for i in range(SETUP_REPS)]
    for index, task in enumerate(wl.tasks):
        if setup_times is not None:
            for _ in range(sample_before.count(index)):
                setup_times.append(setup_sample(launcher))
        ex = launcher.run(matform_argv(task.argv, traced), wl.limit)
        spans = None
        if traced:
            # the summary line precedes any traceback of a crashed command
            lines = ex.stderr.splitlines()
            marks = [i for i, l in enumerate(lines) if l.startswith(MARK)]
            if marks:
                spans = json.loads(lines[marks[-1]][len(MARK):])
                del lines[marks[-1]]
                ex.stderr = "\n".join(lines)
        reason, wrong = judge(task, ex, negate_first and index == 0)
        rows.append({"task": task.id, "argv": task.argv, "kind": task.kind,
                     "work": task.work,
                     # traced times stay raw, comparable with the spans
                     "seconds": ex.seconds if traced else scaled(ex),
                     "raw_s": ex.seconds, "probe_s": ex.probe_s,
                     "exit": ex.status, "maxrss_mb": ex.maxrss_mb,
                     "stdout_bytes": len(ex.stdout), "failure": reason,
                     "wrong_answer": wrong, "traced": traced, "spans": spans})
    return rows


def scaled(ex: Execution) -> float:
    """Wall time on a machine where the launcher's probe takes PROBE_S.

    The CPU of a shared host runs up to ~1.7x slower for stretches of
    seconds to minutes, and the probe, timed beside the process while it
    runs, slows down with it."""
    return ex.seconds * PROBE_S / ex.probe_s


# -- metrics -----------------------------------------------------------------

def end_to_end(rows) -> dict:
    times = [r["seconds"] for r in rows]
    ok = [r for r in rows if r["failure"] is None]
    solve = [r for r in rows if r["kind"] == "solve"]
    search = [r for r in rows if r["kind"] == "search"]

    def rate(group):
        spent = sum(r["seconds"] for r in group)
        done = sum(r["work"] for r in group if r["failure"] is None)
        return done / spent if spent else None

    return {
        "wall_s": sum(times),
        "task_s.geomean": math.exp(statistics.fmean(map(math.log, times))),
        "task_s.max": max(times),
        # a killed task's RSS only shows how far it got before the limit
        "peak_rss_mb": max((r["maxrss_mb"] for r in rows
                            if r["failure"] != "time-out"), default=0.0),
        "passed_frac": len(ok) / len(rows),
        "failed_frac": 1 - len(ok) / len(rows),
        "iterates_per_s": rate(solve),
        "points_per_s": rate(search),
    }


SPAN_METRICS = {  # metric -> (span name, field: 0 calls, 2 self seconds)
    "polyring.mul.calls": ("polyring.mul", 0),
    "polyring.mul.self_s": ("polyring.mul", 2),
    "polyring.substitute.calls": ("polyring.substitute", 0),
    "polyring.substitute.self_s": ("polyring.substitute", 2),
    "polyring.det.calls": ("polyring.det", 0),
    "polyring.det.self_s": ("polyring.det", 2),
    "polyring.matmul.self_s": ("polyring.matmul", 2),
    "polyring.int_det.calls": ("polyring.int_det", 0),
    "polyring.int_det.self_s": ("polyring.int_det", 2),
    "linstruct.closure.calls": ("linstruct.closure", 0),
    "linstruct.closure.self_s": ("linstruct.closure", 2),
    "linstruct.instantiate.self_s": ("linstruct.instantiate", 2),
    "linstruct.extract.self_s": ("linstruct.extract", 2),
    "linstruct.specialize.self_s": ("linstruct.specialize", 2),
    "linstruct.form.calls": ("linstruct.form", 0),
    "linstruct.matrix_of.calls": ("linstruct.matrix_of", 0),
    "linstruct.matrix_of.self_s": ("linstruct.matrix_of", 2),
    "compose.verify.calls": ("compose.verify", 0),
    "compose.verify.self_s": ("compose.verify", 2),
    "compose.apply.calls": ("compose.apply", 0),
    "compose.apply.self_s": ("compose.apply", 2),
    "compose.from_forms.self_s": ("compose.from_forms", 2),
    "compose.invert.self_s": ("compose.invert", 2),
    "catalog.family.self_s": ("catalog.family", 2),
    "catalog.form.self_s": ("catalog.form", 2),
    "catalog.pair_map.self_s": ("catalog.pair_map", 2),
    "catalog.triple_map.self_s": ("catalog.triple_map", 2),
    "catalog.evaluate.calls": ("catalog.evaluate", 0),
    "catalog.evaluate.self_s": ("catalog.evaluate", 2),
    "dioph.sequence.self_s": ("dioph.sequence", 2),
    "dioph.search.self_s": ("dioph.search", 2),
    "cli.main.self_s": ("cli.main", 2),
}
COUNTER_METRICS = ("polyring.mul.term_pairs", "polyring.det.out_terms",
                   "compose.route.expand", "compose.route.matrix",
                   "dioph.sequence.iterates", "dioph.search.points")


def per_layer(traced_rows) -> dict:
    summaries = [r["spans"] for r in traced_rows if r["spans"] is not None]
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        metrics[metric] = sum(s["spans"].get(span, [0, 0.0, 0.0])[field]
                              for s in summaries)

    def counter(name):
        return sum(s["counters"].get(name, 0) for s in summaries)

    for name in COUNTER_METRICS:
        metrics[name] = counter(name)
    metrics["dioph.sequence.max_bits"] = max(
        [s["counters"].get("dioph.sequence.max_bits", 0) for s in summaries],
        default=0)
    points = metrics["dioph.search.points"]
    metrics["dioph.search.hit_ratio"] = (
        counter("dioph.search.hits") / points if points else 0.0)
    forms = metrics["linstruct.form.calls"]
    metrics["linstruct.form.hit_ratio"] = (
        1 - counter("linstruct.form.dets") / forms if forms else 0.0)
    metrics["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in traced_rows
                                      if r["spans"] is not None)
    startup = [r["seconds"] - r["spans"]["spans"]["cli.main"][1]
               for r in traced_rows
               if r["spans"] is not None and "cli.main" in r["spans"]["spans"]]
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    # traced wall time over the same time less what tracing added, minus 1
    added = sum(s["overhead_s"] for s in summaries)
    traced_s = sum(r["seconds"] for r in traced_rows if r["spans"] is not None)
    metrics["trace.overhead_frac"] = (added / (traced_s - added)
                                      if traced_s > added else 0.0)
    return metrics


# -- set-up and provenance ------------------------------------------------------

def check_code_under_test(env):
    import matform
    here = Path(matform.__file__).resolve()
    probe = subprocess.run(
        [sys.executable, "-c", "import matform; print(matform.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    child = Path(probe.stdout.strip() or "/").resolve()
    for where in (here, child):
        if SRC.resolve() not in where.parents:
            raise SystemExit(f"matform resolves to {where}, outside {SRC}")


def setup_sample(launcher) -> float:
    """Wall time of one fresh `matform list-families` process."""
    ex = launcher.run(matform_argv(["list-families"], False), 120)
    try:
        names = [e["name"] for e in json.loads(ex.stdout)]
    except (ValueError, TypeError, KeyError):
        names = []
    if ex.status != 0 or len(names) != 10:
        raise SystemExit(f"list-families failed: {ex.stderr[-300:]}")
    return scaled(ex)


def provenance(wl, trace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    # names the code under test also where the checkout is not a repository
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(f"{path.relative_to(SRC)}\0".encode() + path.read_bytes())
    return {"workload": wl.name, "seed": wl.seed, "trace": trace,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "task_limit_s": wl.limit,
            "probe_s": PROBE_S,
            "params": {k: list(v) for k, v in wl.params.items()},
            "src": str(SRC)}


# -- main ------------------------------------------------------------------------

# reported in the table and the results file, not in the result line
UNGATED_UNITS = {"failed_frac": "ratio", "iterates_per_s": "1/s",
                 "points_per_s": "1/s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("prove_symbolic", "prove_numeric", "solve_search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat whole passes while another fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small task per workload (the benchmark's own test)")
    ap.add_argument("--negate-expected", action="store_true",
                    help="negate the first task's expected answer (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "matform" / "__init__.py").is_file():
        print(f"error: no matform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    # sequence values can exceed CPython's default int/str digit limit
    sys.set_int_max_str_digits(0)
    # let `finally` stop the task launcher when the run is terminated
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = child_env()
    check_code_under_test(env)
    build = workloads.smoke if args.smoke else workloads.build
    wl = build(args.workload, args.seed)
    launcher = Launcher(env)
    ok = False
    try:
        setup_sample(launcher)  # unmeasured: fills the bytecode cache
        setup_times = []
        passes = []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(
                wl, launcher, traced=bool(args.trace),
                negate_first=args.negate_expected,
                setup_times=None if passes or args.trace else setup_times))
            took = time.perf_counter() - t0
            if args.trace or time.perf_counter() - started + took > args.seconds:
                break
        ok = True
    finally:
        launcher.close(ok)

    rows = [r for p in passes for r in p]
    per_pass = [end_to_end(p) for p in passes]
    summary = {k: (statistics.median(v[k] for v in per_pass)
                   if per_pass[0][k] is not None else None)
               for k in per_pass[0]}
    summary["peak_rss_mb"] = max(v["peak_rss_mb"] for v in per_pass)
    summary["setup_s"] = (statistics.median(setup_times)
                          if setup_times else None)  # not sampled when traced
    # BENCHMARK.json names the metrics of the result line and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = per_layer(rows) if args.trace else summary
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    all_units = {**UNGATED_UNITS, **{m["name"]: m["unit"]
                                     for m in spec["end_to_end"]}}

    failed = [r for r in rows if r["failure"] is not None]
    known = workloads.KNOWN_SEED_FAILURES[wl.name]
    record = {**provenance(wl, args.trace),
              "passes": len(passes), "setup_runs_s": setup_times,
              "end_to_end": {k: {"value": v, "unit": all_units[k]}
                             for k, v in summary.items()},
              "metrics": metrics,
              "known_seed_failures": known, "rows": rows}
    stem = "smoke" if args.smoke else "BENCH"
    (OUT / f"{stem}_{wl.name}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))

    err = sys.stderr
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"commit={record['commit']} python={record['python']} "
          f"nproc={record['nproc']} limit={wl.limit}s passes={len(passes)}",
          file=err)
    for r in rows:
        mark = "ok" if r["failure"] is None else (
            "KNOWN " if r["task"] in known else "") + "FAIL " + r["failure"]
        print(f"  {'T' if r['traced'] else ' '} {r['seconds']:9.3f}s "
              f"(raw {r['raw_s']:8.3f}s) {r['maxrss_mb']:7.1f}MB  "
              f"{r['task']:32s} {mark}", file=err)
    for k, v in summary.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {k:16s} {shown} {all_units[k]}", file=err)
    print(f"  failed {len(failed)}/{len(rows)} "
          f"({sum(r['task'] not in known for r in failed)} not known at seed)",
          file=err)

    print(json.dumps({
        "correct": not any(r["wrong_answer"] for r in rows),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
