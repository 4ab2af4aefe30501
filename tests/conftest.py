"""Checks installed on every unit test, and the acceptance summary.

Two autouse fixtures install these checks with monkeypatch.  For the
whole session, so in module fixtures such as the acceptance sweep's
grid and in tests marked no_self_check too (_structure_check):

- cancel_unit_pairs, as homology and surgery each name it, builds a
  checked GradedComplex (helpers.checked_complex) of the residue it
  leaves when it cancelled anything, incoming columns left out, and as
  surgery names it of the complex it is given as well.  Every bottom
  region of a surgery cone goes through surgery.cancel_unit_pairs
  right after it is built (surgery.reduce_regions), and so does every
  strip, but only when the memo misses: a strip is reduced once per
  knot and t and kept in cfk's memo (surgery._reduce_strip), so it is
  checked under whichever test first reduced it, and a test that must
  see every strip checked starts from an empty memo.  Every cone
  residue comes out of homology.cancel_unit_pairs
  (GradedComplex.cancel_units, on a cone checked when built).  The
  library checks none of these; this is where a bug in cfk._unfold,
  cfk._restrict or the cancellation shows.  A child interpreter a
  test starts has none of it.

On every test not marked no_self_check, undone when it ends
(_self_check):

- homology._SnfWork becomes _CheckedSnfWork, which checks every
  elimination after run: L * M * R == D, L and R unimodular, and
  L * L^{-1} == I and R^{-1} * R == I (helpers.verify_snf);
- cancel_unit_pairs also compares the homology and the kernel ranks of
  U on it before and after (helpers.homology_profile, on the checked
  complexes above).  A call with incoming columns, as each strip's is,
  is also compared, every list of it, with the same pairs cancelled
  one whole step at a time (helpers.reduce_step_by_step);
  homology._cancel_pair records them.

The structural check raises ValueError, the others AssertionError.
The acceptance sweep opts out of the second group (module marker
no_self_check) so the full slope grid stays inside its time budget;
its correctness is covered by the independent oracles instead.
"""

from copy import deepcopy

import pytest

from helpers import (checked_complex, homology_profile, reduce_step_by_step,
                     verify_snf)
from hfplus import homology, surgery

_cancel_unit_pairs = homology.cancel_unit_pairs
_cancel_pair = homology._cancel_pair
_PAIRS = []


class _CheckedSnfWork(homology._SnfWork):
    """_SnfWork checked after run."""

    def __init__(self, rows, nrows, ncols):
        self.original = [dict(row) for row in rows]
        super().__init__(rows, nrows, ncols)

    def run(self):
        super().run()
        verify_snf(self, self.original)
        return self


def _recorded_cancel_pair(boundary, rows, maps, x, y):
    _PAIRS.append((x, y))
    _cancel_pair(boundary, rows, maps, x, y)


def _residue_checked_cancel_unit_pairs(degrees, boundary, u_action,
                                       carried=None):
    """cancel_unit_pairs, checking the residue when it cancelled a pair."""
    n = len(degrees)
    keep = _cancel_unit_pairs(degrees, boundary, u_action, carried)
    if len(keep) < n:
        checked_complex(degrees, boundary, u_action)
    return keep


def _structure_checked_cancel_unit_pairs(degrees, boundary, u_action,
                                        carried=None):
    """cancel_unit_pairs, checking the complex given and the residue."""
    checked_complex(degrees, boundary, u_action)
    return _residue_checked_cancel_unit_pairs(degrees, boundary, u_action,
                                              carried)


def _checked_cancel_unit_pairs(degrees, boundary, u_action, carried=None):
    """cancel_unit_pairs, raising if the homology or U on it changed.

    Both profiles are read off checked complexes.  With incoming
    columns it also raises unless every list is what the recorded pairs
    leave when each step is applied in full.
    """
    given = (deepcopy((degrees, boundary, u_action, carried))
             if len(boundary) > len(degrees) else None)
    before = homology_profile(checked_complex(degrees, boundary, u_action))
    _PAIRS.clear()
    keep = _cancel_unit_pairs(degrees, boundary, u_action, carried)
    if (homology_profile(checked_complex(degrees, boundary, u_action))
            != before):
        raise AssertionError("unit cancellation changed the homology")
    f, g = carried if carried is not None else (None, None)
    if given is not None and ((keep, degrees, boundary, u_action, f, g)
                              != reduce_step_by_step(*given, _PAIRS)):
        raise AssertionError("unit cancellation is not the step-by-step "
                             "reduction")
    return keep


@pytest.fixture(scope="session", autouse=True)
def _structure_check():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "cancel_unit_pairs",
                  _residue_checked_cancel_unit_pairs)
        m.setattr(surgery, "cancel_unit_pairs",
                  _structure_checked_cancel_unit_pairs)
        yield


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
        "markers", "no_self_check: skip the SNF and homology-profile "
        "checks; the structural check still runs")


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
