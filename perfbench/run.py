"""The hfplus benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload grid|ladder|cli --seed N
                             --seconds S --trace 0|1

Run it from anywhere; it uses the hfplus sources in src/ next to this
directory and needs nothing installed.  The workloads are described in
workloads.py.  Each pass of a workload runs in a fresh interpreter
(worker.py), so every pass starts with cold caches.  A run makes the
passes its workload needs (MIN_PASSES), more if they measured less than
S seconds, checks every answer (checks.py), prints a table, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, all measured with
tracing off.  Times are in scaled seconds: measured seconds times the
ratio of a nominal to the measured duration of a fixed reference task
run between queries (speed.py), which takes out the drift of a shared
machine's speed.  The table prints the unscaled figures as well.

    setup_s          s     median over several fresh interpreters of the
                           time from interpreter start until the inputs
                           are ready (ladder: includes parsing and
                           grading_solve of the generated knots), each
                           scaled by the reference runs of its process
    queries_per_s    1/s   queries completed per second of query time
    latency_p50_s    s     median query latency (a query's latency is its
                           median over the passes of the run)
    latency_tail_s   s     latency at the highest whole percentile with
                           at least ten samples beyond it (nearest rank);
                           the table names the percentile and the count
    peak_rss_mb      MB    peak resident memory of the process that runs
                           the queries (cli: of the largest command)

error_rate (failed or wrong queries over queries attempted) is printed
in the table; the JSON line carries it as "failed" and "attempted".

With --trace 1 a run makes one untraced pass and two traced passes of
the same inputs, and the metrics are the per-layer ones of tracing.py
(unscaled self times in s, and counts), plus trace.overhead_ratio
(traced over untraced scaled query time) and cli.interpreter_s /
cli.import_s (a bare interpreter start, and `import hfplus` beyond
it).  Every count must be the same in both traced passes, or the run
is not correct.

Exit status is 0 when a result line was printed, whether or not the
answers were correct, and nonzero (with no result line) when the
benchmark could not run, for example without src/hfplus.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("grid", "ladder", "cli")
# Passes a run makes at least.  Ladder has only 14 queries: four passes
# give ten samples beyond p78, and each query's latency is a median of
# four.
MIN_PASSES = {"grid": 1, "ladder": 4, "cli": 1}
SETUP_PROBES = 5
PROCESS_PROBES = 5
TRACED_PASSES = 2
# a run must end within 180 s
DEADLINE_S = 170


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def _run(self, cmd):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        # its own process group, so that a timeout also stops the worker's
        # child processes
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd[1:4])}")
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[1:4])} exited with "
                             f"{proc.returncode}:\n{err[-3000:]}")
        return out

    def worker(self, pass_no, *extra):
        t0 = time.monotonic_ns()
        out = self._run([sys.executable, WORKER, self.workload,
                         "--seed", str(self.seed), "--pass", str(pass_no),
                         "--t0", str(t0), "--out", self.out_dir, *extra])
        return json.loads(out.splitlines()[-1])

    def process_time(self, code):
        start = time.perf_counter()
        self._run([sys.executable, "-c", code])
        return time.perf_counter() - start


def scaled(one_pass):
    """The pass's query latencies in scaled seconds (see speed.py)."""
    ref = one_pass["reference_s"]
    at = one_pass["reference_at"]
    out = []
    for start, latency, before in zip(one_pass["starts"],
                                      one_pass["latencies"],
                                      one_pass["ref_before"]):
        near = {before, before + 1}
        near.update(j for j, t in enumerate(at)
                    if start - speed.WINDOW_S <= t
                    <= start + latency + speed.WINDOW_S)
        out.append(latency * speed.NOMINAL_S
                   / statistics.median(ref[j] for j in near))
    return out


def latency_stats(passes, latencies):
    """Median and tail of the per-query latencies of a run.

    Every pass runs the same queries, so a query's latency is its median
    over the passes.  The tail is the highest whole percentile (nearest
    rank) with at least ten measured samples beyond it.  Returns (p50,
    tail percentile, tail value, samples).
    """
    by_query = {}
    for one_pass, values in zip(passes, latencies):
        for answer, latency in zip(one_pass["answers"], values):
            by_query.setdefault(json.dumps(answer["query"]), []).append(
                latency)
    ordered = sorted(statistics.median(v) for v in by_query.values())
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if (n - rank) * len(passes) >= 10:
            return (statistics.median(ordered), pct, ordered[rank - 1],
                    n * len(passes))
    raise BenchError(f"{n} queries are too few for a latency tail")


def measure(runner, seconds):
    probes = [runner.worker(0, "--setup-only") for _ in range(SETUP_PROBES)]
    passes = []
    while (len(passes) < MIN_PASSES[runner.workload]
           or sum(sum(p["latencies"]) for p in passes) < seconds):
        passes.append(runner.worker(len(passes)))
    setups = [p["setup_s"] * speed.NOMINAL_S
              / statistics.median(p["reference_s"])
              for p in probes + passes]
    latencies = [scaled(p) for p in passes]
    flat = [x for values in latencies for x in values]
    p50, pct, tail_value, samples = latency_stats(passes, latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(flat) / sum(flat), "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    raw = [p["latencies"] for p in passes]
    raw_p50, _, raw_tail, _ = latency_stats(passes, raw)
    raw_total = sum(sum(values) for values in raw)
    reference = statistics.median(
        x for p in probes + passes for x in p["reference_s"])
    notes = [f"latency_tail_s is p{pct} of {samples} samples "
             f"({len(passes)} pass(es)); setup_s is the median of "
             f"{len(setups)} set-ups",
             f"unscaled: queries_per_s {len(flat) / raw_total:.6g}, "
             f"latency_p50_s {raw_p50:.6g}, latency_tail_s {raw_tail:.6g}; "
             f"reference task {reference * 1000:.4g} ms "
             f"(nominal {speed.NOMINAL_S * 1000:.4g} ms)"]
    return metrics, passes, notes, []


def measure_traced(runner):
    base = runner.worker(0)
    traced = []
    summaries = []
    for i in range(TRACED_PASSES):
        path = os.path.join(runner.out_dir, f"trace{i}")
        traced.append(runner.worker(0, "--trace", path))
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        summaries.append(tracing.summarize(tracing.load_spans(files)))
    problems = []
    counts = summaries[0][1]
    for other in summaries[1:]:
        for name, value in other[1].items():
            if value != counts[name]:
                problems.append(f"count {name} differs between traced "
                                f"passes: {counts[name]} vs {value}")
    metrics = {}
    for name in summaries[0][0]:
        metrics[name] = (statistics.median(s[0][name] for s in summaries),
                         "s")
    for name, value in counts.items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(scaled(t)) for t in traced)
        / sum(scaled(base)), "ratio")
    bare = []
    imported = []
    for _ in range(PROCESS_PROBES):
        bare.append(runner.process_time("pass"))
        imported.append(runner.process_time("import hfplus"))
    metrics["cli.interpreter_s"] = (statistics.median(bare), "s")
    metrics["cli.import_s"] = (
        statistics.median(imported) - statistics.median(bare), "s")
    notes = [f"per-layer times are medians of {TRACED_PASSES} traced "
             "passes; counts must agree between them"]
    return metrics, [base] + traced, notes, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hfplus", "__init__.py")):
        print(f"error: no hfplus sources at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        runner = Runner(args.workload, args.seed, out_dir)
        if args.trace:
            metrics, passes, notes, problems = measure_traced(runner)
        else:
            metrics, passes, notes, problems = measure(runner,
                                                       args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # the cli check reads JSON with the program's strip_provenance; the
    # import comes after the last child process, whose peak memory
    # would otherwise start from this process's
    sys.path.insert(0, SRC)
    answers = [a for p in passes for a in p["answers"]]
    failures = checks.CHECKS[args.workload](answers)
    problems = failures + problems
    for msg in problems[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'error_rate':34s} {len(failures) / len(answers):.6g} ratio "
          f"({len(failures)} of {len(answers)} queries)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(answers),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
