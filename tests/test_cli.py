import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself requires tomli before Python 3.11
    import tomli as tomllib

from helpers import child_env, torsion_square
from hfplus import cli, surgery
from hfplus.cfk import builtin, serialize_text
from hfplus.cli import main, parse_document, result_document, strip_provenance
from hfplus.detect import diagnostic_sum
from hfplus.homology import TOWER_LEVELS
from hfplus.surgery import SurgeryDescriptor, hf_plus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_knots_lists_all_builtins(capsys):
    code, out, _ = run(capsys, "knots")
    assert code == 0
    for name in ("unknot", "trefoil_right", "trefoil_left",
                 "figure_eight", "torus_2_5"):
        assert name in out


def test_show_round_trips_through_the_parser(capsys):
    code, out, _ = run(capsys, "show", "trefoil_left")
    assert code == 0
    assert "gen a 0 1 2" in out
    assert "d a = b" in out


def test_hfk_table(capsys):
    code, out, _ = run(capsys, "hfk", "figure_eight")
    assert code == 0
    assert "genus 1" in out
    assert "alexander -t + 3 - t^-1" in out
    assert "rank 3 at degree 0" in out


def test_surgery_zero_slope_is_a_usage_error(capsys):
    code, _, err = run(capsys, "surgery", "unknot", "0/1")
    assert code == 2
    assert "slope must be nonzero" in err


def test_an_integer_slope_is_over_one(capsys):
    assert run(capsys, "surgery", "unknot", "5") == run(
        capsys, "surgery", "unknot", "5/1")
    code, out, _ = run(capsys, "surgery", "unknot", "5")
    assert code == 0 and out.startswith("HF+ of 5/1 surgery on unknot\n")


def test_slope_denominator_must_be_positive(capsys):
    for slope in ("1/0", "1/-2"):
        assert run(capsys, "surgery", "unknot", slope) == (
            2, "", "error: slope denominator must be a positive integer\n")


def test_diagnose_and_classify_need_a_positive_slope(capsys):
    for command in ("diagnose", "classify"):
        assert run(capsys, command, "unknot", "-1/2") == (
            2, "", f"error: {command} needs a positive slope\n")


def test_surgery_malformed_slope(capsys):
    code, _, err = run(capsys, "surgery", "unknot", "three/2")
    assert code == 2


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "surgery", "no_such_knot.txt", "1/1")
    assert code == 2
    assert "cannot read" in err


def test_surgery_without_flip_data_exits_one(capsys, tmp_path):
    path = tmp_path / "no_flip.txt"
    text = serialize_text(builtin("trefoil_right"))
    path.write_text("".join(line for line in text.splitlines(True)
                            if not line.startswith("flip")),
                    encoding="utf-8")
    assert "flip" not in path.read_text(encoding="utf-8")
    code, out, err = run(capsys, "surgery", str(path), "1/1")
    assert code == 1
    assert "flip" in err and out == ""


def test_validate_missing_input_file(capsys, tmp_path):
    missing = tmp_path / "no_such_knot.txt"
    code, out, err = run(capsys, "validate", str(missing))
    assert code == 2
    assert f"cannot read {missing}" in err
    assert out == ""


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_surgery_human_output(capsys):
    code, out, _ = run(capsys, "surgery", "trefoil_left", "1/1")
    assert code == 0
    assert "spin 0: d = 0" in out
    assert "total reduced rank 1" in out
    assert "score 1" in out


def test_surgery_negative_slope(capsys):
    code, out, _ = run(capsys, "surgery", "trefoil_right", "-1/1")
    assert code == 0
    assert "orientation reversed" in out


def test_surgery_spin_filter(capsys):
    code, out, _ = run(capsys, "surgery", "figure_eight", "7/3",
                       "--spin", "3")
    assert code == 0
    assert "spin 3:" in out
    assert "spin 0:" not in out
    code, _, err = run(capsys, "surgery", "figure_eight", "7/3",
                       "--spin", "9")
    assert code == 2


def test_surgery_spin_is_checked_before_computing(capsys, monkeypatch):
    def computing(*args):
        raise AssertionError("hf_plus ran before --spin was checked")

    monkeypatch.setattr(cli, "hf_plus", computing)
    for spin in ("abc", "5", "-1"):
        code, out, err = run(capsys, "surgery", "trefoil_right", "3/1",
                             "--spin", spin)
        assert code == 2 and out == "", spin
        assert err == "error: spin index must be an integer in [0, 2]\n", spin


def test_surgery_spin_filter_in_json(capsys):
    code, out, _ = run(capsys, "surgery", "figure_eight", "7/3",
                       "--spin", "3", "--json")
    assert code == 0
    doc = parse_document(out)
    assert [rec["index"] for rec in doc["spin_c"]] == [3]
    assert doc["spin_c"][0]["d"] == Fraction(-9, 14)
    assert doc["total_reduced_rank"] == 3  # of the whole surgery


def test_surgery_json_round_trip(capsys):
    code, out, _ = run(capsys, "surgery", "figure_eight", "7/3", "--json")
    assert code == 0
    doc = parse_document(out)
    assert doc["tool"] == "hfplus"
    assert doc["slope"] == {"p": 7, "q": 3}
    assert doc["input"] == {"kind": "builtin", "name": "figure_eight"}
    direct = hf_plus(builtin("figure_eight"), 7, 3)
    assert [rec["d"] for rec in doc["spin_c"]] == direct.d_values()
    assert doc["spin_c"][0]["hf_red"][0]["degree"] == Fraction(-11, 14)
    assert doc["diagnostic"]["score"] == 3
    # a second emission of the parsed values reproduces the document
    redone = result_document(direct, doc["input"], doc["timing_ms"])
    assert json.loads(out)["spin_c"] == redone["spin_c"]


def test_json_identical_across_depths(capsys):
    _, out, _ = run(capsys, "surgery", "trefoil_right", "3/2", "--json")
    doc = json.loads(out)
    k = builtin("trefoil_right")
    base = hf_plus(k, 3, 2)
    deeper = base._replace(spin_c=tuple(
        surgery._spin_c_result(k, SurgeryDescriptor(3, 2, r.index, r.sigma,
                                                    2 * TOWER_LEVELS))
        for r in base.spin_c))
    redone = result_document(deeper, doc["input"], 0,
                             diagnostic_sum(k, 3, 2))
    assert all("depth" not in rec for rec in doc["spin_c"])
    assert strip_provenance(doc) == strip_provenance(redone)


def test_diagnose_output(capsys):
    code, out, _ = run(capsys, "diagnose", "trefoil_left", "3/2")
    assert code == 0
    assert out.rstrip().endswith("score = 2 (= q)")
    code, out, _ = run(capsys, "diagnose", "torus_2_5", "3/2")
    assert code == 0
    assert "(>= 2q)" in out
    code, out, _ = run(capsys, "diagnose", "unknot", "3/2")
    assert "(baseline)" in out


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "figure_eight", "3/2")
    assert code == 0
    assert "classification: figure_eight" in out


def test_compare_output(capsys):
    code, out, _ = run(capsys, "compare", "trefoil_left", "figure_eight",
                       "1/1")
    assert code == 0
    assert "distinct" in out
    code, out, _ = run(capsys, "compare", "unknot", "unknot", "5/3")
    assert "graded_isomorphic" in out


def test_surgery_from_file(capsys, tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(serialize_text(builtin("trefoil_right")))
    code, out, _ = run(capsys, "surgery", str(path), "1/1", "--json")
    assert code == 0
    doc = parse_document(out)
    assert doc["input"]["kind"] == "file"
    assert len(doc["input"]["digest"]) == 64
    assert doc["spin_c"][0]["d"] == Fraction(-2)


def test_ungraded_file_gets_gradings_solved(capsys, tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("gen a -1 0\ngen b 0 0\ngen c 0 -1\n"
                    "d b = a + c\nflip a = c\nflip b = b\nflip c = a\n")
    code, out, _ = run(capsys, "surgery", str(path), "1/1")
    assert code == 0
    assert "d = -2" in out


# a dot, a unit pair at Alexander grading +-1 (zero hat homology there)
# and a doubling pair at +-2 (Z/2 there), the flip swapping each pair
PAIRS = """\
gen z 0 0 0
gen x 1 2 2
gen y 1 2 1
gen x' 2 1 2
gen y' 2 1 1
gen u 2 4 4
gen w 2 4 3
gen u' 4 2 4
gen w' 4 2 3
d x = y
d x' = y'
d u = 2*w
d u' = 2*w'
flip z = z
flip x = x'
flip x' = x
flip y = y'
flip y' = y
flip u = u'
flip u' = u
flip w = w'
flip w' = w
"""


def test_hfk_table_skips_a_zero_level_and_lists_torsion(capsys, tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text(PAIRS, encoding="utf-8")
    assert run(capsys, "hfk", str(path)) == (0, (
        f"hat knot Floer homology of {path}\n"
        "  s =   2: Z/2 at degree -1\n"
        "  s =   0: rank 1 at degree 0\n"
        "  s =  -2: Z/2 at degree -5\n"
        "genus 2\n"
        "alexander 1\n"), "")


def test_surgery_table_lists_torsion(capsys, tmp_path):
    path = tmp_path / "torsion_square.txt"
    path.write_text(serialize_text(torsion_square()), encoding="utf-8")
    assert run(capsys, "surgery", str(path), "2/1") == (0, (
        f"HF+ of 2/1 surgery on {path}\n"
        "  spin 0: d = 1/4,  reduced = Z^2 at degree -3/4  "
        "(even 0, odd 2)\n"
        "  spin 1: d = -1/4,  reduced = Z/2 at degree -5/4  "
        "(even 0, odd 0)\n"
        "total reduced rank 2\n"
        "score 2\n"), "")


def test_validate_command(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(serialize_text(builtin("figure_eight")))
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0
    assert "valid" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("gen x 0 0\ngen y 2 0\nd x = U^1 y\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "filtration violated" in out


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# What the wrapper that installers generate for a console script does:
# import the target, call it with no arguments, exit with what it returns.
# Its arguments are the target, then the argv the script itself would see.
ENTRY_POINT_WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1].split(":")
main = getattr(importlib.import_module(module), attr)
sys.argv = sys.argv[2:]
sys.exit(main())
"""


def test_console_script_entry_point():
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    scripts = project.get("scripts", {})
    assert "hfplus" in scripts, "pyproject.toml declares no hfplus script"
    target = scripts["hfplus"]
    assert re.fullmatch(r"[\w.]+:\w+", target), target
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_WRAPPER, target, "hfplus",
         "--version"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"hfplus {project['version']}\n"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hfplus.cli", "knots"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "torus_2_5" in proc.stdout


# Run in a child interpreter: the modules that importing hfplus.cli adds
# to those the interpreter starts with (site's among them), whether a
# builtin surgery loads hashlib, and the JSON of a surgery on a file.
FOOTPRINT = """\
import sys
before = set(sys.modules)
from hfplus import cli
imported = sorted(set(sys.modules) - before)
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["surgery", "trefoil_right", "7/3"])
builtin_hashlib = "hashlib" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    file_code = cli.main(["surgery", sys.argv[1], "1/1", "--json"])
print(json.dumps([imported, code, builtin_hashlib, file_code,
                  json.loads(out.getvalue())]))
"""


def test_a_cold_cli_imports_no_dataclasses_inspect_or_hashlib(tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(serialize_text(builtin("trefoil_right")))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    imported, code, builtin_hashlib, file_code, doc = json.loads(proc.stdout)
    assert "hfplus.cli" in imported
    assert not {"dataclasses", "inspect", "hashlib"} & set(imported)
    assert (code, builtin_hashlib, file_code) == (0, False, 0)
    digest = doc["input"]["digest"]
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
