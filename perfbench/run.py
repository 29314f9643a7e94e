"""gtyangian benchmark: run one workload of `gtyangian` commands and report.

    python3 perfbench/run.py --workload family --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload large-spectrum --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Run from the repository root. A run is a series of whole passes over the
workload's job list, repeated until `--seconds` have gone by, at least two.
Each pass runs in a fresh single-threaded worker process, which imports
`gtyangian` and sends every job through `gtyangian.cli.main` as a closed loop:
the next job starts when the previous one returns. So every pass sees the
workload cold, as one run of the program does: reuse within a pass counts,
reuse across passes cannot happen. Every document is checked (exit code,
SHA-256 against the stored digests and against the other passes, the
workload's independent check). The last line of stdout is one JSON object
with the metrics; see README.md for their meaning.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

try:
    import gtyangian
except ImportError as exc:
    sys.exit(f"cannot import gtyangian from {SRC}: {exc}")
from gtyangian import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 11
# ten samples must lie beyond the p99, so only a workload of this many jobs has one
P99_MIN_SAMPLES = 1000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# worker: one pass in a fresh process


def run_job(job):
    """(seconds, stdout, failure or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an exception escaping main is a failed job, kept by type
        seconds = time.perf_counter() - t0
        return seconds, "", f"{type(exc).__name__} escaped main: {exc}"
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, out.getvalue(), f"exit {code}: {err.getvalue().strip()}"
    return seconds, out.getvalue(), None


def check_pass(name, jobs, expected, results):
    """SHA-256 of every document, and {job index: reason} for the jobs that
    failed, did not match their stored digest or fail the workload's
    independent check."""
    shas, fails, docs = [], {}, {}
    for i, (job, (_, text, failure)) in enumerate(zip(jobs, results)):
        sha = digest(text)
        shas.append(sha)
        if failure:
            fails[i] = failure
        elif expected[i] is not None and sha != expected[i]:
            fails[i] = "digest differs from the stored digest"
        else:
            docs[job] = json.loads(text)
    index = {job: i for i, job in enumerate(jobs)}
    for job, reason in workloads.CHECKS[name](docs).items():
        fails.setdefault(index[job], reason)
    return shas, fails


# Faults the smoke test injects into a worker's command handlers.
MEMO_DELAY_S = 0.05


def _inject(fault, hits):
    if fault == "raise":
        # an ArithmeticError escapes main, as a PoleError from the engine does
        def raising(args):
            raise ZeroDivisionError("injected fault")

        cli.HANDLERS["patterns"] = raising
    elif fault == "memo":
        # a process-level cache of whole results, each miss made expensive
        for cmd, handler in list(cli.HANDLERS.items()):
            def memo(args, handler=handler, cache={}):
                key = repr(sorted(vars(args).items()))
                if key in cache:
                    hits.append(key)
                else:
                    time.sleep(MEMO_DELAY_S)
                    cache[key] = handler(args)
                return cache[key]

            cli.HANDLERS[cmd] = memo


def worker(spec) -> dict:
    """Run one pass of spec["jobs"] and check it; the timed loop does nothing
    but run the jobs, so it includes every collection the program triggers."""
    jobs = [tuple(job) for job in spec["jobs"]]
    hits = []
    _inject(spec.get("fault"), hits)
    trace = tracer.Tracer() if spec["trace"] else None
    results = []
    if trace:
        trace.install()
    try:
        t0 = time.perf_counter()
        for job in jobs:
            if trace:
                results.append(trace.run_job(job, lambda: run_job(job)))
            else:
                results.append(run_job(job))
        wall = time.perf_counter() - t0
    finally:
        if trace:
            trace.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shas, fails = check_pass(spec["name"], jobs, spec["expected"], results)
    out = {"wall": wall, "seconds": [r[0] for r in results], "shas": shas,
           "fails": sorted(fails.items()), "rss_mb": rss_mb, "memo_hits": len(hits)}
    if trace:
        values, commands = trace.summarize()
        out["trace"] = {"values": values, "commands": commands, "spans": len(trace.spans)}
    return out


# ---------------------------------------------------------------------------
# parent: passes, checks across passes, metrics


class Checker:
    """Counts failed job attempts of a run, and keeps each failing job's first
    reason for the report. A job fails in a pass if its worker says so or its
    document differs from the one of its first pass."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.seen = {}  # job -> SHA-256 of its first pass
        self.failures = {}
        self.attempted = 0
        self.failed = 0

    def add_pass(self, res):
        self.attempted += len(self.jobs)
        fails = {self.jobs[i]: reason for i, reason in res["fails"]}
        for job, sha in zip(self.jobs, res["shas"]):
            if sha != self.seen.setdefault(job, sha):
                fails.setdefault(job, "digest differs from the first pass")
        self.failed += len(fails)
        for job, reason in fails.items():
            self.failures.setdefault(job, reason)


def run_worker(spec) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                          input=json.dumps(spec), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"worker process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(name, jobs, expected, seconds, trace=False, fault=None, min_passes=2):
    """Whole passes, each in a fresh worker, until `seconds` have gone by and
    at least `min_passes` have run; with `trace`, untraced and traced passes
    in turn. Returns (checker, [worker result with "traced"])."""
    checker = Checker(jobs)
    spec = {"name": name, "jobs": jobs, "expected": expected, "fault": fault}
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < min_passes:
        traced = trace and len(passes) % 2 == 1
        res = run_worker(dict(spec, trace=traced))
        res["traced"] = traced
        checker.add_pass(res)
        passes.append(res)
    return checker, passes


def load_expected(name: str, h0: Fraction, jobs):
    with open(DIGESTS) as fh:
        stored = json.load(fh)[name][str(h0)]
    by_job = dict(zip(workloads.GENERATORS[name](h0), stored, strict=True))
    return [by_job[job] for job in jobs]


def measure_setup(name: str, seed: int):
    """Median wall time of a fresh process that imports gtyangian and
    generates the workload's jobs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def end_to_end(name, seed, jobs, untraced):
    """Every pass is cold, so the fastest is the least disturbed by other load
    on the machine; a job's latency is likewise its fastest pass."""
    latencies = [min(p["seconds"][i] for p in untraced) for i in range(len(jobs))]
    if len(latencies) < P99_MIN_SAMPLES:
        print(f"job_p99_s and job_p50_s: {len(latencies)} jobs, so job_p99_s reads as the "
              "slowest job and job_p50_s as the middle one; both restate wall_s")
    return {
        "setup_s": (measure_setup(name, seed), "s"),
        "wall_s": (min(p["wall"] for p in untraced), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p99_s": (statistics.quantiles(latencies, n=100, method="inclusive")[98], "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in untraced), "MB"),
    }


def per_layer(untraced, traced):
    """Median of each per-layer value over the traced passes; counts and
    sizes are the same in every pass."""
    runs = [p["trace"] for p in traced]
    values = {k: statistics.median(r["values"][k] for r in runs) for k in runs[0]["values"]}
    overhead = min(p["wall"] for p in traced) / min(p["wall"] for p in untraced) - 1
    values["trace.overhead_pct"] = 100 * overhead
    units = {n: u for n, u, _ in tracer.metric_names()}
    times = {n[:-2]: v for n, v in values.items() if n.endswith(".s")}
    slowest = max(times, key=times.get)
    print(f"spans per traced pass {runs[0]['spans']}; fastest untraced pass "
          f"{min(p['wall'] for p in untraced):.3f} s, fastest traced pass "
          f"{min(p['wall'] for p in traced):.3f} s, overhead {100 * overhead:.1f} %")
    print(f"slowest layer call: {slowest} ({times[slowest]:.3f} s per pass)")
    for cmd in sorted(runs[0]["commands"]):
        stage = {k: statistics.median(r["commands"][cmd][k] for r in runs)
                 for k in runs[0]["commands"][cmd]}
        top = sorted(stage.items(), key=lambda kv: -kv[1])[:6]
        print(f"  {cmd}: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    return {n: (values[n], units[n]) for n in units}


def run(args):
    name = args.workload
    h0, jobs = workloads.generate(name, args.seed)
    checker, passes = run_passes(name, jobs, load_expected(name, h0, jobs), args.seconds,
                                 trace=bool(args.trace))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    print(f"workload {name}  seed {args.seed}  h0 {h0}  gtyangian {gtyangian.__version__}  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    walls = {kind: ", ".join(f"{p['wall']:.3f}" for p in group) or "none"
             for kind, group in (("untraced", untraced), ("traced", traced))}
    print(f"{len(jobs)} jobs per pass; passes, each in a fresh process: "
          f"untraced {walls['untraced']} s; traced {walls['traced']} s")
    rate = checker.failed / checker.attempted
    print(f"error_rate {rate:.6f} ({checker.failed} of {checker.attempted} jobs failed)")
    for job, reason in sorted(checker.failures.items()):
        print(f"  FAILED {' '.join(job)}: {reason}")
    if traced:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(name, args.seed, jobs, untraced)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(result_line(checker.failed == 0, checker.attempted, checker.failed, metrics))
    return 0


# ---------------------------------------------------------------------------
# smoke mode: the benchmark's own test

SMOKE_JOBS = [
    ("tame", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "2|1", "--shift", "0"),
    ("noncross", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "2|1", "--shift", "0"),
    ("drinfeld", "--m", "1", "--n", "1", "--weight", "1|0", "--weight", "2|1", "--shift", "0"),
]
RAISING_JOB = ("patterns", "--m", "1", "--n", "1", "--weight", "1|0")


def smoke():
    """Two runs agree digest for digest, traced passes included; a corrupted
    stored digest and a job that raises are both counted as failures; a memo
    of whole results is reused within a pass but never across passes.
    Returns the exit code."""
    clean = [None] * len(SMOKE_JOBS)
    first, _ = run_passes("family", SMOKE_JOBS, clean, 0, trace=True)
    second, _ = run_passes("family", SMOKE_JOBS, clean, 0, trace=True)
    problems = []
    if first.failed or second.failed:
        problems.append(f"clean runs failed: {first.failures} {second.failures}")
    if first.seen != second.seen or len(first.seen) != len(SMOKE_JOBS):
        problems.append("two runs gave different digests")

    jobs = SMOKE_JOBS + [RAISING_JOB]
    corrupt = [first.seen[job] for job in SMOKE_JOBS] + [None]
    corrupt[0] = digest("not the document")
    bad, _ = run_passes("family", jobs, corrupt, 0, fault="raise", min_passes=1)
    rate = bad.failed / bad.attempted
    print(f"corrupted digest + raising job: error_rate {rate:.3f} ({bad.failures})")
    if set(bad.failures) != {SMOKE_JOBS[0], RAISING_JOB}:
        problems.append(f"expected exactly 2 failures, got {bad.failures}")
    elif not bad.failures[RAISING_JOB].startswith("ZeroDivisionError escaped main"):
        problems.append("the raising job's exception type was not recorded")

    # one job twice per pass: the memo must hit once in every pass, and every
    # pass must pay for each distinct job, so wall_s keeps the first pass's cost
    jobs = SMOKE_JOBS + [SMOKE_JOBS[0]]
    memo, passes = run_passes("family", jobs, [None] * len(jobs), 0, fault="memo", min_passes=3)
    hits = [p["memo_hits"] for p in passes]
    wall_s = min(p["wall"] for p in passes)
    print(f"memoised handlers: hits per pass {hits}, wall_s {wall_s:.3f} s, "
          f"first pass {passes[0]['wall']:.3f} s")
    if memo.failed or hits != [1] * len(passes):
        problems.append(f"a memo must hit exactly once per pass, got {hits} {memo.failures}")
    if wall_s < len(SMOKE_JOBS) * MEMO_DELAY_S:
        problems.append("a memo carried over from an earlier pass cut wall_s")
    for p in problems:
        print("SMOKE FAILED:", p)
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def record_digests():
    """Write the SHA-256 of every document of every workload at every shift on
    the grid, in generation order, after checking all of them."""
    out = {}
    for name in workloads.NAMES:
        out[name] = {}
        for h0 in workloads.SHIFT_GRID:
            jobs = workloads.GENERATORS[name](h0)
            checker, _ = run_passes(name, jobs, [None] * len(jobs), 0, min_passes=1)
            if checker.failed:
                print(f"{name} h0={h0}: {checker.failures}", file=sys.stderr)
                return 1
            out[name][str(h0)] = [checker.seen[job] for job in jobs]
            print(f"{name} h0={h0}: {len(jobs)} digests")
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's own test")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not gtyangian.__file__.startswith(SRC + os.sep):
        print(f"gtyangian imported from {gtyangian.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(json.load(sys.stdin))))
        return 0
    if args.smoke:
        return smoke()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        workloads.generate(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
