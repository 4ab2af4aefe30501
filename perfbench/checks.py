"""Checks on every answer the workloads produce.

Each check returns one message per wrong query (an empty list when all
are right).  The references are independent of the pipeline where one
exists, and otherwise answers recorded from the program:

grid    comparable() equals the recorded answer; the unknot's d equals
        the lens-space recursion in staircase.py; scores, verdicts and
        comparisons meet the acceptance criteria (score q for the
        trefoils and the figure-eight, 0 for the unknot, at least 2q
        for torus_2_5; each genus <= 1 knot classified as itself and
        graded-distinct from every other builtin).
ladder  d equals the Ni-Wu formula in every Spin^c structure, and HF_red
        vanishes exactly on L-space slopes p/q >= 2g - 1.
cli     exit code 0; output equal to the recorded output (JSON after
        strip_provenance, and without the version string); unknot d by
        the lens recursion; scores and verdicts by the acceptance
        criteria.  Negative slopes are checked on the exit code and d
        only: their HF_red degrees and parity are known to be wrong at
        the recording commit, and a fix must not fail the benchmark.

The recorded answers are in expected/; record.py writes them.
"""

import json
import os
import re
from fractions import Fraction

import staircase
import workloads

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")

_D_LINE = re.compile(r"spin (\d+): d = (-?\d+(?:/\d+)?),")


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, name + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _slope(text):
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def _score_problem(name, q, score):
    if name == "unknot" and score != 0:
        return f"score {score}, expected 0"
    if name in workloads.SMALL[1:] and score != q:
        return f"score {score}, expected {q}"
    if name == "torus_2_5" and score < 2 * q:
        return f"score {score}, expected at least {2 * q}"
    return None


def _unknot_problem(p, q, d_by_index):
    want = {i: staircase.lens_d(p, q, i) for i in range(p)}
    if d_by_index != want:
        return "unknot d differs from the lens-space recursion"
    return None


def check_grid(answers):
    expected = load_expected("grid")
    failures = []
    for a in answers:
        name, p, q = a["query"]
        label = f"grid {name} {p}/{q}"
        if "error" in a:
            failures.append(f"{label}: {a['error']}")
            continue
        problems = []
        if a["comparable"] != expected[f"{name} {p}/{q}"]:
            problems.append("comparable() differs from the recorded answer")
        if name == "unknot":
            problems.append(_unknot_problem(
                p, q, {rec[0]: Fraction(rec[1])
                       for rec in a["comparable"][3]}))
        problems.append(_score_problem(name, q, a["score"]))
        if name in workloads.SMALL:
            if a["verdict"] != name:
                problems.append(f"classified as {a['verdict']}")
            if any(a["isomorphic"]):
                problems.append("graded-isomorphic to another builtin")
        problems = [m for m in problems if m]
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}")
    return failures


def check_ladder(answers):
    failures = []
    for a in answers:
        g, p, q = a["query"]
        label = f"ladder T(2,{2 * g + 1}) {p}/{q}"
        if "error" in a:
            failures.append(f"{label}: {a['error']}")
            continue
        alexander = staircase.torus_2_alexander(g)
        records = a["spin_c"]
        problems = []
        if sorted(r[0] for r in records) != list(range(p)):
            problems.append("Spin^c labels are not 0..p-1")
        for i, d, _ in records:
            if Fraction(d) != staircase.ni_wu_d(alexander, p, q, i):
                problems.append(f"d({i}) = {d} differs from Ni-Wu")
        l_space = sum(r[2] for r in records) == 0
        if l_space != staircase.is_l_space_slope(alexander, p, q):
            problems.append("HF_red = 0 disagrees with the L-space bound")
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}")
    return failures


def cli_key(argv):
    return " ".join(x for x in argv if x != "--json")


def cli_reference(argv, stdout):
    """What the cli check compares, from one command's output."""
    if argv[0] == "surgery":
        if "--json" in argv:
            from hfplus.cli import strip_provenance
            doc = strip_provenance(json.loads(stdout))
            doc.pop("version", None)
            d = [[r["index"], r["d"]] for r in doc["spin_c"]]
            return {"json": doc, "d": d}
        d = [[int(i), x] for i, x in _D_LINE.findall(stdout)]
        return {"text": stdout, "d": d}
    return {"text": stdout}


def check_cli(answers):
    expected = load_expected("cli")
    failures = []
    for a in answers:
        argv = a["query"]
        label = "cli hfplus " + " ".join(argv)
        if "error" in a:
            failures.append(f"{label}: {a['error']}")
            continue
        if a["code"] != 0:
            failures.append(f"{label}: exit code {a['code']}: "
                            f"{a['stderr'].strip()[-300:]}")
            continue
        want = expected[cli_key(argv)]
        try:
            got = cli_reference(argv, a["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"{label}: unreadable output: {exc}")
            continue
        problems = []
        kind, name = argv[0], argv[1]
        slope = argv[3] if kind == "compare" else (
            argv[2] if len(argv) > 2 else None)
        negative = slope is not None and slope.startswith("-")
        if negative:
            if got["d"] != want["d"]:
                problems.append("d differs from the recorded answer")
        else:
            form = "json" if "json" in got else "text"
            if got[form] != want[form]:
                problems.append("output differs from the recorded output")
        if kind == "surgery" and name == "unknot":
            p, q = _slope(slope)
            problems.append(_unknot_problem(
                p, q, {i: Fraction(x) for i, x in got["d"]}))
        if kind == "diagnose":
            score = re.search(r"^score = (-?\d+)", a["stdout"], re.M)
            problems.append(
                "no score line" if score is None else
                _score_problem(name, _slope(slope)[1], int(score.group(1))))
        if kind == "classify" and name in workloads.SMALL:
            if a["stdout"].strip() != f"classification: {name}":
                problems.append(f"verdict {a['stdout'].strip()!r}")
        if kind == "compare" and not a["stdout"].startswith("distinct"):
            problems.append("builtins reported graded-isomorphic")
        problems = [m for m in problems if m]
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}")
    return failures


CHECKS = {"grid": check_grid, "ladder": check_ladder, "cli": check_cli}
