"""One SHA-256 per benchmark workload and seed over every output byte.

    PYTHONPATH=src python tests/output_digest.py

For both workloads of ``bench/run.py`` and seeds 0-7 it hashes each
benchmark command's exit code, stdout and output files, run in process
through ``amoebas.cli.main``, and each answer of the warm query stream,
with every phase and score written by ``float.hex``.  A change meant to
keep every bit prints the same 16 lines as its parent: copy this file
into a checkout of the parent, run it in both, and compare.  The
digests cover the program in the checkout that holds this file (its
``bench/run.py`` puts that checkout's ``src`` first on the path).
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench():
    """bench/run.py as a module, with its work folder made (only its ``main`` makes it)."""
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    run.WORK.mkdir(exist_ok=True)
    return run


def exact(obj):
    """Text of a query answer with every float as float.hex, so no bit goes unseen."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(exact(v) for v in obj) + "]"
    if hasattr(obj, "__slots__"):  # FiberSolution, PointClass
        return type(obj).__name__ + exact([getattr(obj, k) for k in obj.__slots__])
    if isinstance(obj, Exception):
        return f"error {type(obj).__name__}: {obj}"
    return repr(obj)


def digest(run, ref, workload, seed):
    r = run.Run(workload, seed, ref)
    h = hashlib.sha256()
    for cmd in r.commands:
        observed, _ = run.run_command_in_process(cmd)
        h.update(json.dumps([cmd[1], observed], sort_keys=True).encode())
    amoebas = run.amoebas  # the package that run.py imported
    for kind, text, w in r.queries:
        mod = amoebas.linear if kind == "linear_classify" else amoebas.fiber
        try:
            out = getattr(mod, kind)(amoebas.parsing.parse_poly(text, 2), w)
        except run.AmoebaError as exc:
            out = exc
        h.update(f"{kind} {text} {w!r} -> {exact(out)}\n".encode())
    return h.hexdigest()


def main():
    run = load_bench()
    ref = run.load_reference()
    for workload in run.WORKLOADS:
        for seed in range(8):
            print(workload, seed, digest(run, ref, workload, seed), flush=True)


if __name__ == "__main__":
    main()
