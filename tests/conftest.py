"""Checks installed on every unit test, and the acceptance summary.

The autouse fixture installs two checks with monkeypatch, undone when
the test ends:

- homology._SnfWork becomes _CheckedSnfWork, which tracks L and R on
  every elimination and, after run, checks L * M * R == D and that L
  and R are unimodular (helpers.verify_snf);
- cancel_unit_pairs, as homology and surgery each name it, becomes
  _checked_cancel_unit_pairs, which compares the homology and the
  kernel ranks of U on it before and after (helpers.homology_profile).
  That covers a direct call through homology.cancel_unit_pairs,
  GradedComplex.cancel_units on a cone, and surgery.reduce_regions on
  each bottom region and each strip.  A call with incoming columns,
  as each strip's is, is also compared, every list of it, with the
  same pairs cancelled one whole step at a time
  (helpers.reduce_step_by_step); homology._cancel_pair records them.

Each raises AssertionError on a mismatch.  The acceptance sweep opts
out (module marker no_self_check) so the full slope grid stays inside
its time budget; its correctness is covered by the independent oracles
instead.
"""

from copy import deepcopy

import pytest

from helpers import homology_profile, reduce_step_by_step, verify_snf
from hfplus import homology, surgery
from hfplus.homology import GradedComplex

_cancel_unit_pairs = homology.cancel_unit_pairs
_cancel_pair = homology._cancel_pair
_PAIRS = []


class _CheckedSnfWork(homology._SnfWork):
    """_SnfWork with L and R always tracked, checked after run."""

    def __init__(self, rows, nrows, ncols, track_l=False, track_linv=False,
                 track_r=False, track_rinv=False):
        self.original = [dict(row) for row in rows]
        super().__init__(rows, nrows, ncols, True, track_linv, True,
                         track_rinv)

    def run(self):
        super().run()
        verify_snf(self, self.original)
        return self


def _recorded_cancel_pair(boundary, rows, maps, x, y):
    _PAIRS.append((x, y))
    _cancel_pair(boundary, rows, maps, x, y)


def _profile(degrees, boundary, u_action):
    """homology_profile of the complex, its incoming columns left out."""
    n = len(degrees)
    return homology_profile(GradedComplex(
        degrees, boundary[:n], u_action and u_action[:n], check=False))


def _checked_cancel_unit_pairs(degrees, boundary, u_action, carried=None):
    """cancel_unit_pairs, raising if the homology or U on it changed.

    With incoming columns it also raises unless every list is what the
    recorded pairs leave when each step is applied in full.
    """
    given = (deepcopy((degrees, boundary, u_action, carried))
             if len(boundary) > len(degrees) else None)
    before = _profile(degrees, boundary, u_action)
    _PAIRS.clear()
    keep = _cancel_unit_pairs(degrees, boundary, u_action, carried)
    if _profile(degrees, boundary, u_action) != before:
        raise AssertionError("unit cancellation changed the homology")
    f, g = carried if carried is not None else (None, None)
    if given is not None and ((keep, degrees, boundary, u_action, f, g)
                              != reduce_step_by_step(*given, _PAIRS)):
        raise AssertionError("unit cancellation is not the step-by-step "
                             "reduction")
    return keep


@pytest.fixture(autouse=True)
def _self_check(request, monkeypatch):
    if request.node.get_closest_marker("no_self_check"):
        return
    monkeypatch.setattr(homology, "_SnfWork", _CheckedSnfWork)
    monkeypatch.setattr(homology, "_cancel_pair", _recorded_cancel_pair)
    for module in (homology, surgery):
        monkeypatch.setattr(module, "cancel_unit_pairs",
                            _checked_cancel_unit_pairs)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_self_check: skip redundant internal verification")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from helpers import ACCEPTANCE_LABELS, ACCEPTANCE_RESULTS
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LABELS):
        label = ACCEPTANCE_LABELS[num]
        if num not in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(f"  criterion {num:2d}: not run "
                                        f"-- {label}")
            continue
        passed, failures = ACCEPTANCE_RESULTS[num]
        mark = "PASS" if passed else "FAIL"
        line = f"  criterion {num:2d}: {mark} -- {label}"
        if failures:
            line += f"  [{failures[0]}]"
        terminalreporter.write_line(line)
