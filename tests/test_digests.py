"""Byte identity against the benchmark's stored documents.

Replays a fixed subset of the benchmark jobs at h0 = 1/2, and the Berezinian
jobs at every other shift of the grid, through `cli.main`, and compares the SHA-256 of each document with `perfbench/digests.json`,
matched by the job's index in `workloads.GENERATORS[name](h0)`. The
perfbench files are only read here; the digests are never re-recorded.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gtyangian.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
H0 = Fraction(1, 2)
FAMILY_STRIDE = 7  # coprime to the three commands per pair, so all of them occur


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _workloads()
with open(PERFBENCH / "digests.json") as fh:
    DIGESTS = json.load(fh)


def _mismatches(name, indices, h0=H0):
    jobs = WORKLOADS.GENERATORS[name](h0)
    stored = DIGESTS[name][str(h0)]
    assert len(stored) == len(jobs)
    bad = []
    for i in indices:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(jobs[i]))
        sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or sha != stored[i]:
            bad.append((i, jobs[i], code))
    return bad


def test_family_every_seventh_job():
    count = len(WORKLOADS.GENERATORS["family"](H0))
    indices = range(0, count, FAMILY_STRIDE)
    commands = {WORKLOADS.GENERATORS["family"](H0)[i][0] for i in indices}
    assert commands == {"tame", "noncross", "drinfeld"}
    assert _mismatches("family", indices) == []


def test_large_spectrum_simple_job():
    jobs = WORKLOADS.GENERATORS["large-spectrum"](H0)
    indices = [i for i, job in enumerate(jobs) if job[0] == "simple"]
    assert len(indices) == 1
    assert _mismatches("large-spectrum", indices) == []


def test_large_spectrum_spectrum_job():
    jobs = WORKLOADS.GENERATORS["large-spectrum"](H0)
    indices = [i for i, job in enumerate(jobs) if job[0] == "spectrum"]
    assert len(indices) == 1
    assert _mismatches("large-spectrum", indices) == []


def test_skew_series_all_jobs():
    count = len(WORKLOADS.GENERATORS["skew-series"](H0))
    assert _mismatches("skew-series", range(count)) == []


@pytest.mark.parametrize("h0", [Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)], ids=str)
def test_skew_series_berezinian_jobs_other_shifts(h0):
    jobs = WORKLOADS.GENERATORS["skew-series"](h0)
    indices = [i for i, job in enumerate(jobs) if "berezinian" in job]
    assert len(indices) == 2
    assert _mismatches("skew-series", indices, h0) == []
