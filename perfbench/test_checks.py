"""Tests of the benchmark's output checker.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
from bjj import cli  # noqa: E402


def _stdout_of(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _series_job(z0):
    return jobs.Job(name=f"simulate z0={z0}", command="simulate", preset="fig4a",
                    overrides={"z0": z0, "t_end": 1.0}, check=lambda text: [])


def test_checker_flags_nan_rows_printed_with_exit_0():
    # `bjj simulate --z0 nan --t-end 1` prints NaN rows and exits 0, a known
    # defect of the non-finite input handling.
    code, text = _stdout_of(["simulate", "--z0", "nan", "--t-end", "1"])
    if code != 0:
        pytest.skip("simulate now rejects a NaN initial state")
    assert "nan" in text
    assert jobs.check_output(_series_job(math.nan), text) == [
        "non-finite number in the output"]


def test_job_with_nan_input_counts_as_failed():
    _, _, problems = run.run_job(jobs, _series_job(math.nan))
    assert problems


def test_finite_output_passes_the_checker():
    code, text = _stdout_of(["simulate", "--z0", "0.5", "--t-end", "1"])
    assert code == 0
    assert jobs.check_output(_series_job(0.5), text) == []
    _, _, problems = run.run_job(jobs, _series_job(0.5))
    assert problems == []


@pytest.fixture(scope="module")
def melnikov_out():
    job = jobs.make_jobs("threshold_scan", 0)[-1]
    return job.run(jobs.resolve(job))


def test_melnikov_check_passes_the_program(melnikov_out):
    assert jobs._melnikov_check(melnikov_out) == []


@pytest.mark.parametrize("broken", [
    lambda v: 0.0,          # a quadrature that returns nothing
    lambda v: -v,           # wrong sign
    lambda v: 1.001 * v,    # wrong scale
])
def test_melnikov_check_catches_a_wrong_quadrature(melnikov_out, broken):
    out = {"closed": melnikov_out["closed"],
           "numeric": [broken(v) for v in melnikov_out["numeric"]]}
    assert jobs._melnikov_check(out) != []
