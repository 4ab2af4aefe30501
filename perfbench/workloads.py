"""The inputs of each workload, made from the seed alone.

Every workload runs one closed-loop client with no threads: a query is
sent only after the previous one has finished.  The program sees only
the generated queries.

grid    The acceptance traffic: every coprime slope p/q with 1 <= p <= 10,
        1 <= q <= 5 on each of the five builtins, 175 queries.  A query
        asks everything about one knot at one slope.  Many small cones,
        shared unknot calibration and detect calls that mostly hit
        caches: the workload for the cache, check and cone-assembly
        layers.
ladder  Staircase knots T(2, 2g+1), g = 2..8, at slopes 1/1 and 7/3, one
        cold hf_plus per query.  Few large cones and no reuse between
        queries: SNF and depth retries show here, and cache work should
        not.
cli     One-shot commands, each in a new interpreter, run one at a time.
        The seed picks the order and which surgery commands ask for
        --json.  Interpreter start, import and cold caches dominate: an
        SNF change should not show here.

grid and ladder run in a fixed order, whatever the seed.  Their queries
share caches, so the order decides which query pays for shared work
and what the caches hold at the memory peak: with the grid's slopes in
a seeded order, peak memory moved by up to 15% between seeds, which is
more than the cache changes this workload is meant to show.  The order
of cli commands does not matter, since each runs in its own process.
"""

import random
from math import gcd

BUILTINS = ("unknot", "trefoil_right", "trefoil_left", "figure_eight",
            "torus_2_5")
# the builtins of genus <= 1, which classify_surgery can name
SMALL = BUILTINS[:4]

GRID_SLOPES = tuple((p, q) for p in range(1, 11) for q in range(1, 6)
                    if gcd(p, q) == 1)

LADDER_GENERA = tuple(range(2, 9))
LADDER_SLOPES = ((1, 1), (7, 3))

# ungraded staircase files the cli workload writes: file name -> genus
CLI_FILES = {"t2_7.txt": 3, "t2_9.txt": 4}


def grid_queries():
    return [(name, p, q) for p, q in GRID_SLOPES for name in BUILTINS]


def ladder_queries():
    return [(g, p, q) for g in LADDER_GENERA for p, q in LADDER_SLOPES]


def cli_space():
    """Every command of the cli workload, without the --json choice.

    Each entry is (argv, kind); kind "surgery" commands may get --json.
    """
    out = []
    for name in BUILTINS:
        for slope in ("1/1", "3/2", "7/3"):
            out.append((["surgery", name, slope], "surgery"))
    for name in BUILTINS[1:]:
        for slope in ("-1/1", "-3/2"):
            out.append((["surgery", name, slope], "surgery"))
    for name in BUILTINS:
        for slope in ("2/1", "5/3"):
            out.append((["diagnose", name, slope], "diagnose"))
    for name in BUILTINS:
        for slope in ("1/1", "5/2"):
            out.append((["classify", name, slope], "classify"))
    for a, b in (("trefoil_right", "trefoil_left"),
                 ("trefoil_left", "figure_eight"),
                 ("unknot", "trefoil_right"),
                 ("figure_eight", "torus_2_5")):
        for slope in ("2/1", "4/3"):
            out.append((["compare", a, b, slope], "compare"))
    for name in BUILTINS:
        out.append((["hfk", name], "hfk"))
    for fname in CLI_FILES:
        for slope in ("1/1", "2/1", "5/2"):
            out.append((["surgery", fname, slope], "surgery"))
    return out


def cli_commands(seed, pass_no=0):
    """The commands of one pass: the same in every pass of a run, in an
    order of their own."""
    pick = random.Random(f"cli:{seed}")
    commands = []
    for argv, kind in cli_space():
        if kind == "surgery" and pick.random() < 0.5:
            argv = argv + ["--json"]
        commands.append(argv)
    random.Random(f"cli:{seed}:{pass_no}").shuffle(commands)
    return commands
