"""The benchmark's own answer check, on its warm query streams.

``bench/run.py`` checks every query result against the recorded
reference (tags and integers exactly, other numbers within 1e-6) and
every verdict against the lopsided certificate.  Both workloads' streams
run here for seeds 0-7, so a change that moves an answer, a fiber phase
included, fails before a benchmark run does.  Only the in-process query
streams run; ``tests/output_digest.py`` runs the benchmark's CLI commands.
``bench/run.py`` comes through that script's loader, ``load_bench``.
"""

import pytest

from output_digest import load_bench


@pytest.fixture(scope="module")
def bench():
    """bench/run.py as a module, with the reference outputs it checks against."""
    run = load_bench()
    return run, run.load_reference()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("workload", ["sweep", "point"])
def test_query_stream_matches_the_reference(bench, workload, seed):
    run, ref = bench
    r = run.Run(workload, seed, ref)
    r.stream()
    assert r.tally.attempted == len(r.queries) > 0
    assert r.tally.failed == 0, r.tally.notes
    assert r.tally.conflicts == 0
