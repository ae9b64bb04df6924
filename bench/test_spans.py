"""Self-test of the benchmark's traced run and output checks.

    python3 -m pytest bench/test_spans.py

The traced runs here use the first command and the first queries of a
workload, so the test takes about half a minute.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402


def small_run(name, seed=5, commands=slice(0, 1), queries=40):
    """A run of one workload cut down to some of its commands and queries."""
    r = run.Run(name, seed)
    r.commands, r.ref_commands = r.commands[commands], r.ref_commands[commands]
    r.queries, r.ref_queries = r.queries[:queries], r.ref_queries[:queries]
    return r


CONTOUR = slice(5, 6)  # the sweep's contour command


def public_attributes():
    out = {}
    for layer in spans.LAYERS:
        mod = importlib.import_module(f"amoebas.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and callable(obj):
                out[(layer, attr)] = obj
    return out


def test_wrappers_are_installed_only_inside_the_tracer():
    import amoebas.contour
    import amoebas.fiber

    before = public_attributes()
    with spans.Tracer():
        assert amoebas.fiber.roots is not before[("fiber", "roots")]
        assert amoebas.fiber.roots.__wrapped__ is before[("fiber", "roots")]
        assert amoebas.contour.roots is amoebas.fiber.roots
    assert public_attributes() == before


def test_traced_run_is_serial_and_sees_every_cell(monkeypatch):
    import amoebas.raster

    counts = []
    real = amoebas.raster._thread_count

    def recording():
        counts.append(real())
        return counts[-1]

    monkeypatch.setattr(amoebas.raster, "_thread_count", recording)
    r = small_run("sweep")
    values, tracer = run.traced(r)
    assert counts and set(counts) == {1}
    m = {k: v for k, (v, _) in values.items()}
    # one classify span per raster cell plus one per query: no pool
    # worker ran a cell out of the tracer's sight
    assert m["raster.cells"] == 17 * 17
    assert m["fiber.classify.calls"] == m["raster.cells"] + len(r.queries)
    assert r.tally.failed == 0


@pytest.mark.parametrize("name,commands", [("sweep", CONTOUR), ("point", slice(0, 1))])
def test_two_traced_runs_repeat_their_counts(name, commands):
    first, tracer = run.traced(small_run(name, commands=commands))
    second, _ = run.traced(small_run(name, commands=commands))
    counted = [k for k in first if k.endswith((".calls", ".degree_sum", ".cells", ".points"))
               or k.startswith("fiber.tag.") or k == "trace.spans"]
    assert counted
    assert {k: first[k][0] for k in counted} == {k: second[k][0] for k in counted}
    roles = spans.roots_roles(tracer.spans)
    assert "other" not in roles.values()
    for s, self_s in zip(tracer.spans, spans.self_times(tracer.spans)):
        assert -1e-9 <= self_s <= s[spans.END] - s[spans.START] + 1e-9, s[spans.NAME]


def test_contour_roots_get_their_roles():
    values, _ = run.traced(small_run("sweep", commands=CONTOUR))
    assert values["numeric.roots.contour.calls"][0] > 0
    assert values["numeric.roots.resultant.calls"][0] > 0
    assert values["numeric.roots.backsub.calls"][0] > 0
    assert values["contour.points"][0] > 0


def test_compare_text_is_exact_on_text_and_integers_and_tolerant_on_floats():
    assert run.compare_text("Boundary 2 x=1.5", "Boundary 2 x=1.5") == (True, 0)
    assert run.compare_text("x=1.5", "x=1.5000000001") == (True, 1)
    assert run.compare_text("x=1.5", "x=1.6") == (False, 0)
    assert run.compare_text("count 2", "count 3") == (False, 0)
    assert run.compare_text("Boundary 2", "Interior 2") == (False, 0)
    assert run.compare_text("a\nb\n", "a\n") == (False, 0)
