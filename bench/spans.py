"""Per-layer spans and counts, recorded from outside the program.

``Tracer`` replaces every public function of the amoebas modules, at
every module attribute where callers look it up (``amoebas.fiber.roots``,
``amoebas.contour.roots``, ``amoebas.cli.classify``, ...), with a wrapper
that records a span: name, start, end, parent span, arguments and result
(or raised exception).  Calls between private helpers are not seen; their
time is self time of the nearest public caller.  The originals are put
back when the tracer is closed.

Spans are kept in memory and turned into metrics by ``layer_metrics``
after the run, so the only cost inside a span is two clock reads and a
list append per call.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "parsing", "laurent", "numeric", "fiber", "contour", "raster", "linear")
TAGS = ("Complement", "Interior", "ContourInterior", "Boundary", "Degenerate")
ROLES = ("resultant", "backsub", "contour", "order")

# spans that own the numeric.roots calls made under them, and the role
# those calls get; a fiber solve's first roots call after a resultant
# returned is the resultant's, the rest are back-substitution
_FIBER_SOLVES = ("fiber.classify", "fiber.fiber_solutions")
_ROLE_OWNERS = {"contour.contour_slice": "contour", "fiber.order": "order"}

NAME, START, END, PARENT, ARGS, RESULT = range(6)


class Tracer:
    """Context manager that wraps the public functions while it is open."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[RESULT] = exc
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[RESULT] = out
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [importlib.import_module(f"amoebas.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"amoebas.{home}" or home not in LAYERS:
                    continue
                name = f"{home}.{obj.__name__}"
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[name])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
        return False

    def calls(self, name):
        """(args, result) of every span of ``name`` that returned."""
        return [(s[ARGS], s[RESULT]) for s in self.spans
                if s[NAME] == name and not isinstance(s[RESULT], BaseException)]


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _degree(p):
    from amoebas.numeric import UniPoly

    return (p if isinstance(p, UniPoly) else UniPoly(p)).degree


def roots_roles(spans):
    """Role of every numeric.roots span, by span order (see module notes)."""
    roles = {}
    resultant_done = set()
    role_taken = set()
    for i, s in enumerate(spans):
        if s[NAME] not in ("numeric.roots", "numeric.sylvester_resultant"):
            continue
        owner = s[PARENT]
        while owner >= 0 and spans[owner][NAME] not in _FIBER_SOLVES + tuple(_ROLE_OWNERS):
            owner = spans[owner][PARENT]
        if s[NAME] == "numeric.sylvester_resultant":
            resultant_done.add(owner)
        elif owner < 0:
            roles[i] = "other"
        elif spans[owner][NAME] in _ROLE_OWNERS:
            roles[i] = _ROLE_OWNERS[spans[owner][NAME]]
        elif owner in resultant_done and owner not in role_taken:
            role_taken.add(owner)
            roles[i] = "resultant"
        else:
            roles[i] = "backsub"
    return roles


def layer_metrics(spans):
    """Per-layer metric values (name -> number) from one run's spans."""
    selfs = self_times(spans)
    fn = {}  # name -> [calls, self_s, total_s]
    for s, st in zip(spans, selfs):
        acc = fn.setdefault(s[NAME], [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += st
        acc[2] += s[END] - s[START]

    def calls(name):
        return fn.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return fn.get(name, [0, 0.0, 0.0])[1]

    def total_s(name):
        return fn.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(v[0] for k, v in fn.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = sum(v[1] for k, v in fn.items() if k.startswith(layer + "."))

    roles = roots_roles(spans)
    by_role = {r: [0.0, 0, 0] for r in ROLES}
    unconverged = 0
    for i, role in roles.items():
        s = spans[i]
        if isinstance(s[RESULT], BaseException):
            continue
        unconverged += sum(1 for cl in s[RESULT] if not cl.converged)
        if role in by_role:
            acc = by_role[role]
            acc[0] += selfs[i]
            acc[1] += 1
            acc[2] += _degree(s[ARGS][0])
    for role, (st, n, deg) in by_role.items():
        m[f"numeric.roots.{role}.self_s"] = st
        m[f"numeric.roots.{role}.calls"] = n
        m[f"numeric.roots.{role}.degree_sum"] = deg
    m["numeric.roots.unconverged"] = unconverged

    res = [s for s in spans if s[NAME] == "numeric.sylvester_resultant"]
    m["numeric.sylvester_resultant.self_s"] = self_s("numeric.sylvester_resultant")
    m["numeric.sylvester_resultant.calls"] = len(res)
    m["numeric.sylvester_resultant.degree_sum"] = sum(
        s[RESULT].degree for s in res if not isinstance(s[RESULT], BaseException))
    for name in ("numeric.solve_linear", "parsing.parse_poly", "laurent.fiber_restrict",
                 "laurent.monomial_clear", "laurent.log_gauss_numerator",
                 "fiber.classify", "contour.contour_slice", "linear.linear_classify"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    for name in ("fiber.order", "fiber.lopsided", "fiber.fiber_solutions", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)

    # fiber solves: shortcut share, solutions and tags per classify call
    owners_with_resultant = set()
    for s in res:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in _FIBER_SOLVES:
            p = spans[p][PARENT]
        owners_with_resultant.add(p)
    classify_idx = [i for i, s in enumerate(spans) if s[NAME] == "fiber.classify"]
    n_cls = len(classify_idx)
    m["fiber.shortcut_share"] = (
        sum(1 for i in classify_idx if i not in owners_with_resultant) / n_cls if n_cls else 0.0)
    tags = {t: 0 for t in TAGS}
    n_sols = 0
    for i in classify_idx:
        pc = spans[i][RESULT]
        if isinstance(pc, BaseException):
            continue
        tags[pc.tag] = tags.get(pc.tag, 0) + 1
        n_sols += len(pc.solutions)
    m["fiber.solutions_per_call"] = n_sols / n_cls if n_cls else 0.0
    for t in TAGS:
        m[f"fiber.tag.{t}"] = tags[t]

    # contour sweep
    m["contour.trace_contour.s"] = total_s("contour.trace_contour")
    m["contour.classify_contour.s"] = total_s("contour.classify_contour")
    traced = [s for s in spans if s[NAME] == "contour.trace_contour"
              and not isinstance(s[RESULT], BaseException)]
    m["contour.points"] = sum(len(s[RESULT]) for s in traced)
    # trace_contour skips exactly the slices whose contour_slice raised
    # DegenerateSlice and reports them in one SkippedSlices warning
    m["contour.skipped_slices"] = sum(
        1 for s in spans if s[NAME] == "contour.contour_slice"
        and type(s[RESULT]).__name__ == "DegenerateSlice")
    parts = [s[RESULT] for s in spans if s[NAME] == "contour.classify_contour"
             and not isinstance(s[RESULT], BaseException)]
    n_parts = sum(len(v) for p in parts for v in p.values())
    m["contour.boundary_share"] = (
        sum(len(p["boundary"]) for p in parts) / n_parts if n_parts else 0.0)

    # rasters and the linear basis
    grids = total_s("raster.amoeba_grids")
    cells = sum(int(s[ARGS][2][0]) * int(s[ARGS][2][1])
                for s in spans if s[NAME] == "raster.amoeba_grids")
    m["raster.amoeba_grids.s"] = grids
    m["raster.cells"] = cells
    m["raster.cells_per_s"] = cells / grids if grids else 0.0
    m["linear.amoeba_basis.s"] = total_s("linear.amoeba_basis")
    m["linear.verify_basis.s"] = total_s("linear.verify_basis")
    m["trace.spans"] = len(spans)
    return m
