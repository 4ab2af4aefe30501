"""Spans recorded from outside the program, and the per-layer metrics.

install() replaces public names in the hfplus modules with wrappers
that record one span per call: name, parent span, start and end
(perf_counter_ns), the exception type if the call raised, and a few
sizes read from public attributes of the arguments and results.  Each
name is wrapped where the calling layer looks it up, because the
modules import each other's functions by name: wrapping
homology.graded_homology would not see the calls surgery makes.

A name in WRAP that the program no longer has is an error, so that a
refactor that drops or renames a layer stops the benchmark instead of
reporting zero for it.  Spans stay in memory and are written out once,
by dump(), when the traced process ends.

summarize() turns spans into the per-layer metrics.  Times are self
times: a span's duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).
Each layer, and the end-to-end figure it should move:

  homology.graded_homology_s, _calls, homology_basis, homology_nnz
      SNF on cones: ladder throughput and latency first, then grid;
      flat on cli
  homology.check_s               GradedComplex construction and checks
      in surgery and acomplex: grid throughput
  homology.tower_decompose_s, _calls, tower_failures      grid
  surgery.cone_build_s, cones, cone_basis_p50, cone_nnz   grid
      throughput; cone_basis_max: ladder peak memory
  surgery.depth_retries, useful_basis_ratio (basis of cones whose
      decomposition was kept over basis of all cones built): ladder tail
  surgery.calibration_cones, hf_plus_calls, hf_plus_hit_ratio (calls
      that built no cone), acomplex.realize_s, _calls: the cache layer,
      grid throughput and peak memory; no effect on ladder
  acomplex.genus_s, _calls, kernel_rank_v_s, _calls: grid, cli classify
  detect.diagnostic_s, classify_s, compare_s: cli latency, grid
  cfk.grading_solve_s, _calls, parse_s: ladder setup, cli file commands

A layer a workload never calls reads 0 there (detect on ladder, parse
on grid).
"""

import json
import statistics
import time

# (module, attribute, span name): a span name can be wrapped in several
# modules; each wrapper records the same kind of span.
WRAP = (
    ("surgery", "hf_plus", "hf_plus"),
    ("surgery", "build_mapping_cone", "cone_build"),
    ("surgery", "realize", "realize"),
    ("surgery", "graded_homology", "graded_homology"),
    ("surgery", "tower_decompose", "tower_decompose"),
    ("surgery", "genus", "genus"),
    ("surgery", "GradedComplex", "check"),
    ("acomplex", "GradedComplex", "check"),
    ("detect", "hf_plus", "hf_plus"),
    ("detect", "kernel_rank_v", "kernel_rank_v"),
    ("detect", "diagnostic_sum", "diagnostic"),
    ("detect", "classify_surgery", "classify"),
    ("detect", "compare", "compare"),
    ("cfk", "grading_solve", "grading_solve"),
    ("cfk", "parse_text", "parse"),
    ("cli", "hf_plus", "hf_plus"),
    ("cli", "diagnostic_sum", "diagnostic"),
    ("cli", "classify_surgery", "classify"),
    ("cli", "compare", "compare"),
    ("cli", "grading_solve", "grading_solve"),
    ("cli", "parse_text", "parse"),
)

NAME, PARENT, START, END, ERROR, INFO = range(6)


def _nnz(graded_complex):
    return sum(len(col) for col in graded_complex.boundary)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        # cone basis by id of the object derived from it, so that a
        # tower decomposition can be traced back to its cone
        self._cone_of = {}

    def wrap(self, module, attr, span_name):
        if not hasattr(module, attr):
            raise AttributeError(
                f"{module.__name__}.{attr} is gone; the benchmark traces "
                "it as a layer")
        fn = getattr(module, attr)
        after = getattr(self, "_after_" + span_name, None)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [span_name, stack[-1] if stack else -1, clock(), 0,
                    None, None]
            spans.append(span)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if after is not None:
                    # result is None when the call raised
                    span[INFO] = after(args, kwargs, result)

        setattr(module, attr, traced)

    def _after_cone_build(self, args, kwargs, cone):
        if cone is None:
            return None
        source = args[0]
        descriptor = args[1] if len(args) > 1 else kwargs["descriptor"]
        n = cone.complex.n
        self._cone_of[id(cone.complex)] = n
        return {"basis": n, "nnz": _nnz(cone.complex),
                "spin_c": descriptor.spin_c, "depth": descriptor.depth,
                # the unknot is the only complex with one generator
                "unknot": len(source.generators) == 1}

    def _after_graded_homology(self, args, kwargs, group):
        complex_ = args[0]
        basis = self._cone_of.pop(id(complex_), None)
        if basis is not None and group is not None:
            self._cone_of[id(group)] = basis
        return {"basis": complex_.n, "nnz": _nnz(complex_)}

    def _after_tower_decompose(self, args, kwargs, result):
        return {"cone_basis": self._cone_of.pop(id(args[0]), None)}

    def install(self, hfplus_modules):
        """Wrap every name in WRAP; hfplus_modules maps short names."""
        for mod, attr, span_name in WRAP:
            self.wrap(hfplus_modules[mod], attr, span_name)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(paths):
    """Spans of several traced processes, concatenated."""
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        base = len(spans)
        for s in part:
            if s[PARENT] >= 0:
                s[PARENT] += base
        spans.extend(part)
    return spans


# metric name -> span name, for the self time and call count pairs
TIMED = {
    "homology.graded_homology": "graded_homology",
    "homology.tower_decompose": "tower_decompose",
    "acomplex.realize": "realize",
    "acomplex.genus": "genus",
    "acomplex.kernel_rank_v": "kernel_rank_v",
    "cfk.grading_solve": "grading_solve",
}

SELF_TIME_ONLY = {
    "homology.check_s": "check",
    "surgery.cone_build_s": "cone_build",
    "detect.diagnostic_s": "diagnostic",
    "detect.classify_s": "classify",
    "detect.compare_s": "compare",
    "cfk.parse_s": "parse",
}


def summarize(spans):
    """Per-layer metrics of one traced pass: (times, counts)."""
    self_ns = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_ns[s[PARENT]] -= s[END] - s[START]
    by_name = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(idx)

    def self_s(name):
        return sum(self_ns[i] for i in by_name.get(name, ())) / 1e9

    times = {}
    counts = {}
    for metric, name in TIMED.items():
        times[metric + "_s"] = self_s(name)
        counts[metric + "_calls"] = len(by_name.get(name, ()))
    for metric, name in SELF_TIME_ONLY.items():
        times[metric] = self_s(name)

    hom = [spans[i][INFO] for i in by_name.get("graded_homology", ())]
    counts["homology.homology_basis"] = sum(h["basis"] for h in hom)
    counts["homology.homology_nnz"] = sum(h["nnz"] for h in hom)
    towers = [spans[i] for i in by_name.get("tower_decompose", ())]
    counts["homology.tower_failures"] = sum(
        1 for t in towers if t[ERROR] is not None)

    cones = [i for i in by_name.get("cone_build", ())
             if spans[i][ERROR] is None]
    sizes = [spans[i][INFO]["basis"] for i in cones]
    counts["surgery.cones"] = len(cones)
    counts["surgery.calibration_cones"] = sum(
        1 for i in cones if spans[i][INFO]["unknot"])
    counts["surgery.cone_basis_p50"] = statistics.median(sizes) if sizes else 0
    counts["surgery.cone_basis_max"] = max(sizes, default=0)
    counts["surgery.cone_nnz"] = sum(spans[i][INFO]["nnz"] for i in cones)
    kept = sum(t[INFO]["cone_basis"] or 0 for t in towers
               if t[ERROR] is None)
    counts["surgery.useful_basis_ratio"] = kept / sum(sizes) if sizes else 1.0

    # depth doublings: per hf_plus call and Spin^c structure, every
    # depth beyond the first at which cones were built
    def owner(idx):
        p = spans[idx][PARENT]
        while p >= 0 and spans[p][NAME] != "hf_plus":
            p = spans[p][PARENT]
        return p

    depths = {}
    cone_ancestors = set()
    for i in cones:
        call = owner(i)
        info = spans[i][INFO]
        depths.setdefault((call, info["spin_c"]), set()).add(info["depth"])
        p = spans[i][PARENT]
        while p >= 0:
            cone_ancestors.add(p)
            p = spans[p][PARENT]
    counts["surgery.depth_retries"] = sum(len(d) - 1 for d in depths.values())
    calls = by_name.get("hf_plus", ())
    counts["surgery.hf_plus_calls"] = len(calls)
    counts["surgery.hf_plus_hit_ratio"] = (
        sum(1 for i in calls if i not in cone_ancestors) / len(calls)
        if calls else 0.0)
    return times, counts
