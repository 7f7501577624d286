"""Shared naive oracles (independent reimplementations used to pin expected
values) and a summary hook that prints one PASS/FAIL line per acceptance
criterion."""

from __future__ import annotations

import itertools
import os
import re

import pytest
from hypothesis import settings

import delannoy.counting as counting_module
import delannoy.series as series_module

# HYPOTHESIS_PROFILE=ci draws ten times the default examples for every property
# test that does not set its own count, so CI tests the brute-force oracle harder.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _fresh_series_solves():
    """Each test starts and ends with no checked triple and no checked table kept, so a test
    that perturbs a series or counting route sees a fresh solve or build, not what an earlier
    test stored."""
    series_module._CHECKED.clear()
    counting_module._KEPT.clear()
    yield
    series_module._CHECKED.clear()
    counting_module._KEPT.clear()


_DISP = {"N": (0, 1), "E": (1, 0), "D": (1, 1)}


def naive_endpoint(word: str) -> tuple[int, int]:
    x = y = 0
    for c in word:
        dx, dy = _DISP[c]
        x, y = x + dx, y + dy
    return x, y


def naive_contains(word: str, pattern: str) -> bool:
    """Factor containment by the schoolbook O(len * len) scan."""
    n, m = len(word), len(pattern)
    for i in range(n - m + 1):
        if all(word[i + j] == pattern[j] for j in range(m)):
            return True
    return False


def naive_family(
    n: int,
    m: int,
    forbidden: frozenset[str] = frozenset(),
    forbidden_aug: frozenset[str] = frozenset(),
    region_k: int | None = None,
    first_step: str | None = None,
    last_step: str | None = None,
) -> set[str]:
    """All member words, generated by filtering every word over {N, E, D}.

    Exponential in n + m; only usable for tiny corners, which is the point:
    it shares no code with the package's pruned search.
    """
    out: set[str] = set()
    for length in range(n + m + 1):
        for letters in itertools.product("NED", repeat=length):
            word = "".join(letters)
            if naive_endpoint(word) != (n, m):
                continue
            if any(naive_contains(word, p) for p in forbidden):
                continue
            if any(naive_contains("E" + word + "N", p) for p in forbidden_aug):
                continue
            if region_k is not None:
                x = y = 0
                ok = y >= region_k * x
                for c in word:
                    dx, dy = _DISP[c]
                    x, y = x + dx, y + dy
                    if y < region_k * x:
                        ok = False
                        break
                if not ok:
                    continue
            if first_step is not None and (not word or word[0] != first_step):
                continue
            if last_step is not None and (not word or word[-1] != last_step):
                continue
            out.add(word)
    return out


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, tuple[str, str]] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call" and label == "PASS":
                continue
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                name = match.group(2).replace("_", " ")
                if label == "FAIL" or number not in outcomes:
                    outcomes[number] = (label, name)
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(outcomes):
            label, name = outcomes[number]
            terminalreporter.write_line(f"criterion {number:02d} ({name}): {label}")
