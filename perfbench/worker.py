"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass with PYTHONPATH set to the
checkout's src, so every pass starts with cold caches without the
benchmark touching any cache of the program.  The script sets up the
inputs, runs the queries one after another, and prints one JSON line:
set-up time, per-query latencies, durations of the reference task of
speed.py (run between queries), peak resident memory and the answers.

    python perfbench/worker.py grid|ladder|cli --seed N --pass K
        --t0 NS --out DIR [--setup-only] [--trace PATH]

--t0 is time.monotonic_ns() in the parent just before it started this
process (the clock is shared by all processes), so set-up time counts
interpreter start.  With --trace the hfplus layers are wrapped before
set-up and the spans are written to PATH (for cli: one file per
command inside the directory PATH).

    python perfbench/worker.py cli-command --trace PATH -- ARGS...

runs `hfplus ARGS...` in this process with tracing on; the traced cli
workload starts it instead of `python -m hfplus.cli`.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import speed
import staircase
import workloads


def _modules():
    from hfplus import acomplex, cfk, cli, detect, surgery
    return {"acomplex": acomplex, "cfk": cfk, "cli": cli,
            "detect": detect, "surgery": surgery}


def _install_tracer():
    from tracing import Tracer
    tracer = Tracer()
    tracer.install(_modules())
    return tracer


def comparable_json(result):
    """HFResult.comparable() with rationals as fraction strings."""
    p, q, orientation, records = result.comparable()
    return [p, q, orientation,
            [[i, str(d), [[str(deg), rank, list(tor)]
                          for deg, rank, tor in red], list(parity)]
             for i, d, red, parity in records]]


def _grid():
    from hfplus import cfk, detect, surgery
    knots = {name: cfk.builtin(name) for name in workloads.BUILTINS}
    queries = workloads.grid_queries()

    def run(query):
        name, p, q = query
        k = knots[name]
        result = surgery.hf_plus(k, p, q)
        score = detect.diagnostic_sum(k, p, q).score
        verdict = isomorphic = None
        if name in workloads.SMALL:
            verdict = detect.classify_surgery(k, p, q)
            isomorphic = [
                detect.compare(result, surgery.hf_plus(knots[other], p, q))
                .graded_isomorphic
                for other in workloads.BUILTINS if other != name]
        return result, score, verdict, isomorphic

    def answer(query, out):
        result, score, verdict, isomorphic = out
        return {"query": list(query),
                "comparable": comparable_json(result),
                "score": score, "verdict": verdict,
                "isomorphic": isomorphic}

    return queries, run, answer


def _ladder():
    from hfplus import cfk, surgery
    knots = {
        g: cfk.grading_solve(cfk.parse_text(
            staircase.staircase_text(staircase.torus_2_alexander(g))))
        for g in workloads.LADDER_GENERA}
    queries = workloads.ladder_queries()

    def run(query):
        g, p, q = query
        return surgery.hf_plus(knots[g], p, q)

    def answer(query, result):
        return {"query": list(query),
                "spin_c": [[r.index, str(r.d), r.total_reduced_rank]
                           for r in result.spin_c]}

    return queries, run, answer


def _cli(seed, pass_no, out_dir, trace_dir):
    for fname, g in workloads.CLI_FILES.items():
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(staircase.staircase_text(staircase.torus_2_alexander(g)))
    queries = workloads.cli_commands(seed, pass_no)
    counter = iter(range(len(queries)))

    def run(argv):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "hfplus.cli", *argv]
        else:
            span_file = os.path.join(trace_dir, f"{next(counter):04d}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "cli-command",
                   "--trace", span_file, "--", *argv]
        # the command's own cwd makes the file arguments bare names
        return subprocess.run(cmd, cwd=out_dir, capture_output=True,
                              text=True, timeout=120)

    def answer(argv, proc):
        return {"query": argv, "code": proc.returncode,
                "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}

    return queries, run, answer


def _cli_command(argv):
    trace_path = argv[argv.index("--trace") + 1]
    args = argv[argv.index("--") + 1:]
    tracer = _install_tracer()
    from hfplus import cli
    try:
        code = cli.main(args)
    finally:
        tracer.dump(trace_path)
    return code


def main(argv):
    if argv and argv[0] == "cli-command":
        return _cli_command(argv[1:])
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("grid", "ladder", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace and args.workload != "cli":
        tracer = _install_tracer()
    if args.workload == "grid":
        queries, run, answer = _grid()
    elif args.workload == "ladder":
        queries, run, answer = _ladder()
    else:
        if args.trace:
            os.makedirs(args.trace, exist_ok=True)
        queries, run, answer = _cli(args.seed, args.pass_no, args.out,
                                    args.trace)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    sampler = speed.Sampler()
    if args.setup_only:
        for _ in range(3):
            sampler.measure()
        print(json.dumps({"setup_s": setup_s,
                          "reference_s": sampler.durations}))
        return 0

    starts = []
    latencies = []
    ref_before = []
    outputs = []
    for query in queries:
        sampler.maybe()
        ref_before.append(len(sampler.durations) - 1)
        t = time.perf_counter()
        try:
            out = run(query)
        except Exception as exc:  # a failed query is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - t)
        starts.append(t)
        outputs.append(out)
    sampler.measure()

    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if args.workload == "cli"
                               else resource.RUSAGE_SELF)
    answers = []
    for query, out in zip(queries, outputs):
        if isinstance(out, Exception):
            answers.append({"query": list(query),
                            "error": f"{type(out).__name__}: {out}"})
        else:
            answers.append(answer(query, out))
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"setup_s": setup_s, "starts": starts,
                      "latencies": latencies,
                      "reference_s": sampler.durations,
                      "reference_at": sampler.times,
                      "ref_before": ref_before,
                      "peak_rss_mb": usage.ru_maxrss / 1024,
                      "answers": answers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
