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

import amoebas.cli
import amoebas.contour
import amoebas.fiber
from amoebas import parse_poly
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


def test_a_traced_run_yields_its_layer_metrics(bench, capsys):
    # bench/spans.py wraps the public functions and reads .degree off every
    # sylvester_resultant result, a zero resultant's included
    run, _ = bench
    curves = [parse_poly(text, 2) for text in ("z1^3 - z1^2 - 2.75*z1 + 1.5",
                                               "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1",
                                               "z1^3 + z2^3 + z1*z2 + 1")]
    with run.spans.Tracer() as tracer:
        # looked up while traced, so the queries are spans too
        amoebas.fiber.classify(curves[0], (0.0, 0.0))  # a zero resultant
        amoebas.fiber.classify(curves[1], (0.0, 0.0))
        amoebas.contour.contour_slice(curves[2], 0.3)
    metrics = run.spans.layer_metrics(tracer.spans)
    assert metrics["numeric.sylvester_resultant.calls"] > 0
    assert metrics["fiber.classify.calls"] == 2 and metrics["contour.contour_slice.calls"] == 1

    # the CLI imports each layer in the handler that runs it; the tracer
    # still sees those calls, under the cli.main span
    with run.spans.Tracer() as tracer:
        amoebas.cli.main(["classify", "--poly", "z1^3 + z2^3 + z1*z2 + 1", "--point", "0,0"])
        amoebas.cli.main(["basis", "--linear", "0.5,0.5;2,-1", "--samples", "50"])
    capsys.readouterr()
    spans = tracer.spans

    def under_main(i):
        while i >= 0 and spans[i][run.spans.NAME] != "cli.main":
            i = spans[i][run.spans.PARENT]
        return i >= 0

    for name in ("fiber.classify", "linear.amoeba_basis"):
        assert [under_main(i) for i, s in enumerate(spans) if s[run.spans.NAME] == name] == [True]
