"""Write the recorded answers in expected/ from the current program.

    PYTHONPATH=src python3 perfbench/record.py

Run it from the root of the repository only when a change is meant to
alter answers that checks.py compares with a recording, and say so in
the change: the grid's comparable() of every query, and the output of
every cli command in both its text and --json form.
"""

import json
import os
import subprocess
import sys
import tempfile

import checks
import staircase
import workloads
from worker import comparable_json


def record_grid():
    from hfplus import builtin, hf_plus
    return {f"{name} {p}/{q}":
            comparable_json(hf_plus(builtin(name), p, q))
            for name in workloads.BUILTINS
            for p, q in workloads.GRID_SLOPES}


def record_cli():
    out = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        for fname, g in workloads.CLI_FILES.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write(staircase.staircase_text(
                    staircase.torus_2_alexander(g)))
        for argv, kind in workloads.cli_space():
            forms = [argv, argv + ["--json"]] if kind == "surgery" else [argv]
            entry = {}
            for form in forms:
                proc = subprocess.run(
                    [sys.executable, "-m", "hfplus.cli", *form], cwd=tmp,
                    env=env, capture_output=True, text=True, check=True)
                entry.update(checks.cli_reference(form, proc.stdout))
            out[checks.cli_key(argv)] = entry
    return out


def main():
    for name, data in (("grid", record_grid()), ("cli", record_cli())):
        path = os.path.join(checks.EXPECTED_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
