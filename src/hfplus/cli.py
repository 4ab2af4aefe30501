"""Command-line front end.

Subcommands map one-to-one onto the library surface: list and show
the bundled complexes, print knot invariants, run a surgery and
report per-Spin^c results (as a table or as JSON with exact fraction
strings), score and classify, compare two surgeries, and validate a
complex file.

Exit codes: 0 on success, 1 when a computation fails (stabilization,
inconsistent input detected mid-run), 2 for usage errors, unreadable
slopes, or files that do not parse/validate.  validate itself exits 1
when it lists the violations of a file that parses.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .acomplex import alexander_polynomial, genus, hfk_hat
from .cfk import (BUILTIN_NAMES, builtin, grading_solve, parse_text,
                  serialize_text)
from .detect import classify_surgery, compare, diagnostic_sum
from .errors import CFKError, InvalidComplexError, ParseError
from .surgery import hf_plus

_PROVENANCE_KEYS = ("timing_ms", "sigma")


def _read(path):
    """The text of a complex file; ParseError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")


def _load(target):
    """A builtin name or a path to a complex file; gradings solved."""
    if target in BUILTIN_NAMES:
        k = builtin(target)
        return k, {"kind": "builtin", "name": target}
    text = _read(target)
    k = parse_text(text)
    if not k.graded:
        k = grading_solve(k)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return k, {"kind": "file", "name": os.path.basename(target),
               "digest": digest}


def _parse_slope(text):
    body = text.strip()
    try:
        if "/" in body:
            p_str, q_str = body.split("/", 1)
            p, q = int(p_str), int(q_str)
        else:
            p, q = int(body), 1
    except ValueError:
        raise ValueError(f"cannot read slope {text!r}; expected p/q")
    if q <= 0:
        raise ValueError("slope denominator must be a positive integer")
    if p == 0:
        raise ValueError("slope must be nonzero")
    return p, q


# ---------------------------------------------------------------------------
# document emission


def result_document(result, input_desc, timing_ms, diagnostic=None):
    """JSON-safe dict with every rational as an exact fraction string."""
    doc = {
        "tool": "hfplus",
        "version": __version__,
        "input": dict(input_desc),
        "slope": {"p": result.p, "q": result.q},
        "orientation": result.orientation,
        "spin_c": [
            {
                "index": r.index,
                "d": str(r.d),
                "hf_red": [
                    {"degree": str(deg), "rank": rank,
                     "torsion": list(torsion)}
                    for deg, rank, torsion in r.hf_red
                ],
                "parity": {"even": r.parity[0], "odd": r.parity[1]},
                "sigma": r.sigma,
            }
            for r in result.spin_c
        ],
        "total_reduced_rank": result.total_reduced_rank,
        "timing_ms": timing_ms,
    }
    if diagnostic is not None:
        doc["diagnostic"] = {
            "total_reduced_rank": diagnostic.total_reduced_rank,
            "d_deficit": str(diagnostic.d_deficit),
            "score": diagnostic.score,
        }
    return doc


def parse_document(text):
    """Inverse of emission: fraction strings come back as Fractions."""
    import json
    doc = json.loads(text)
    for rec in doc.get("spin_c", ()):
        rec["d"] = Fraction(rec["d"])
        for entry in rec.get("hf_red", ()):
            entry["degree"] = Fraction(entry["degree"])
            entry["torsion"] = list(entry["torsion"])
    if "diagnostic" in doc:
        doc["diagnostic"]["d_deficit"] = Fraction(doc["diagnostic"]["d_deficit"])
    return doc


def strip_provenance(doc):
    """Drop timing and the window width before comparing runs.

    sigma is reporting provenance: the mathematical content must be
    identical across window widths and truncation depths, and
    comparisons of that content go through this helper.
    """
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()
                    if k not in _PROVENANCE_KEYS}
        if isinstance(obj, list):
            return [clean(v) for v in obj]
        return obj

    return clean(doc)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_knots(args):
    for name in BUILTIN_NAMES:
        k = builtin(name)
        print(f"{name:15s} genus {genus(k)}  "
              f"alexander {alexander_polynomial(k)}")
    return 0


def _cmd_show(args):
    k, _ = _load(args.knot)
    sys.stdout.write(serialize_text(k))
    return 0


def _cmd_hfk(args):
    k, _ = _load(args.knot)
    print(f"hat knot Floer homology of {k.name or args.knot}")
    levels = sorted({g.j - g.i for g in k.generators}, reverse=True)
    for s in levels:
        h = hfk_hat(k, s)
        support = h.support()
        if not support:
            continue
        parts = []
        for d in support:
            if h.free_rank(d):
                parts.append(f"rank {h.free_rank(d)} at degree {d}")
            parts += [f"Z/{f} at degree {d}" for f in h.torsion(d)]
        print(f"  s = {s:3d}: " + ", ".join(parts))
    print(f"genus {genus(k)}")
    print(f"alexander {alexander_polynomial(k)}")
    return 0


def _format_red(hf_red):
    if not hf_red:
        return "0"
    parts = []
    for deg, rank, torsion in hf_red:
        if rank:
            body = "Z" if rank == 1 else f"Z^{rank}"
            parts.append(f"{body} at degree {deg}")
        for f in torsion:
            parts.append(f"Z/{f} at degree {deg}")
    return ", ".join(parts)


def _parse_spin(text, p):
    """None for "all", else the Spin^c index, an integer in [0, |p| - 1]."""
    if text == "all":
        return None
    try:
        index = int(text)
    except ValueError:
        index = -1
    if not 0 <= index < abs(p):
        raise ValueError(
            f"spin index must be an integer in [0, {abs(p) - 1}]")
    return index


def _cmd_surgery(args):
    k, input_desc = _load(args.knot)
    p, q = _parse_slope(args.slope)
    spin = _parse_spin(args.spin, p)
    t0 = time.monotonic()
    result = hf_plus(k, p, q)
    diag = None
    if p > 0:
        diag = diagnostic_sum(k, p, q)
    timing_ms = int((time.monotonic() - t0) * 1000)
    records = result.spin_c
    if spin is not None:
        records = tuple(r for r in records if r.index == spin)
    if args.json:
        import json
        doc = result_document(result, input_desc, timing_ms, diag)
        if spin is not None:
            doc["spin_c"] = [rec for rec in doc["spin_c"]
                             if rec["index"] == spin]
        print(json.dumps(doc, indent=2))
        return 0
    print(f"HF+ of {p}/{q} surgery on {k.name or args.knot}"
          + ("  [orientation reversed]"
             if result.orientation == "reversed" else ""))
    for r in records:
        print(f"  spin {r.index}: d = {r.d},  reduced = "
              f"{_format_red(r.hf_red)}  (even {r.parity[0]}, "
              f"odd {r.parity[1]})")
    print(f"total reduced rank {result.total_reduced_rank}")
    if diag is not None:
        print(f"score {diag.score}")
    return 0


def _cmd_diagnose(args):
    k, _ = _load(args.knot)
    p, q = _parse_slope(args.slope)
    if p < 0:
        raise ValueError("diagnose needs a positive slope")
    diag = diagnostic_sum(k, p, q)
    print(f"diagnose {k.name or args.knot} {p}/{q}")
    print(f"  total reduced rank: {diag.total_reduced_rank}")
    print(f"  d-deficit:          {diag.d_deficit}")
    tag = ""
    if diag.score == q:
        tag = " (= q)"
    elif diag.score >= 2 * q:
        tag = " (>= 2q)"
    elif diag.score == 0:
        tag = " (baseline)"
    print(f"score = {diag.score}{tag}")
    return 0


def _cmd_classify(args):
    k, _ = _load(args.knot)
    p, q = _parse_slope(args.slope)
    if p < 0:
        raise ValueError("classify needs a positive slope")
    verdict = classify_surgery(k, p, q)
    print(f"classification: {verdict}")
    return 0


def _cmd_compare(args):
    ka, _ = _load(args.a)
    kb, _ = _load(args.b)
    p, q = _parse_slope(args.slope)
    verdict = compare(hf_plus(ka, p, q), hf_plus(kb, p, q))
    print(str(verdict))
    return 0


def _cmd_validate(args):
    try:
        parse_text(_read(args.file))
    except InvalidComplexError as exc:
        print(f"{len(exc.violations)} violation(s):")
        for v in exc.violations:
            print(f"  - {v}")
        return 1
    # parse_text validates; re-report for the clean case
    print("valid complex")
    return 0


def _allow_negative_slopes(parser):
    # tokens like -3/2 are slopes, not option flags
    matcher = re.compile(r"^-\d+(/\d+)?$")
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = matcher


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hfplus",
        description="Exact surgery calculator for doubly-filtered knot "
                    "complexes")
    parser.add_argument("--version", action="version",
                        version=f"hfplus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("knots", help="list bundled knot complexes")

    p_show = sub.add_parser("show", help="print a complex in text form")
    p_show.add_argument("knot")

    p_hfk = sub.add_parser("hfk", help="hat homology table, genus, "
                                       "alexander polynomial")
    p_hfk.add_argument("knot")

    p_surg = sub.add_parser("surgery", help="HF+ of p/q surgery")
    p_surg.add_argument("knot")
    p_surg.add_argument("slope")
    p_surg.add_argument("--json", action="store_true")
    p_surg.add_argument("--spin", default="all")

    p_diag = sub.add_parser("diagnose", help="rank/d-drift score")
    p_diag.add_argument("knot")
    p_diag.add_argument("slope")

    p_cls = sub.add_parser("classify", help="detect the knot from one "
                                            "surgery")
    p_cls.add_argument("knot")
    p_cls.add_argument("slope")

    p_cmp = sub.add_parser("compare", help="graded comparison of two "
                                           "surgeries")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("slope")

    p_val = sub.add_parser("validate", help="check a complex file")
    p_val.add_argument("file")

    for slope_parser in (p_surg, p_diag, p_cls, p_cmp):
        _allow_negative_slopes(slope_parser)

    return parser


_DISPATCH = {
    "knots": _cmd_knots,
    "show": _cmd_show,
    "hfk": _cmd_hfk,
    "surgery": _cmd_surgery,
    "diagnose": _cmd_diagnose,
    "classify": _cmd_classify,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, InvalidComplexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CFKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
