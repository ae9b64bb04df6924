"""One SHA-256 per benchmark workload and seed over every output byte.

    PYTHONPATH=src python tests/output_digest.py [--against REV]

For both workloads of ``bench/run.py`` and seeds 0-7 it hashes each
benchmark command's exit code, stdout and output files, run in process
through ``amoebas.cli.main``, and each answer of the warm query stream,
with every phase and score written by ``float.hex``.  One more line
hashes the exit code, stdout and stderr of ``python -m amoebas.cli`` for
``--help``, ``--version`` and each subcommand's ``--help``, each a fresh
process with ``COLUMNS=80``.  A change meant to keep every bit prints
the same 17 lines as its parent.  With
``--against REV`` the script also unpacks ``git archive REV`` into a
temporary folder, runs itself there, prints every line of REV's output
that differs from this checkout's, and exits 1 on any mismatch.  The
digests cover the program in the checkout that holds this file (its
``bench/run.py`` puts that checkout's ``src`` first on the path, and the
help texts come from that ``src``).
"""

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SUBCOMMANDS = ("member", "classify", "order", "lopsided", "fiber", "contour", "boundary",
               "betti", "raster", "basis")


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


def help_digest():
    """Digest of the CLI's help and version texts, each from a fresh process."""
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(BENCH.parent / "src")}
    h = hashlib.sha256()
    for argv in [["--help"], ["--version"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS]:
        proc = subprocess.run([sys.executable, "-m", "amoebas.cli", *argv], env=env,
                              capture_output=True, text=True)
        h.update(json.dumps([argv, proc.returncode, proc.stdout, proc.stderr]).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description="Digest every output byte of the benchmark.")
    parser.add_argument("--against", metavar="REV",
                        help="also digest git revision REV and report the lines that differ")
    args = parser.parse_args()
    theirs = None
    with tempfile.TemporaryDirectory() as tmp:
        if args.against:
            tree = Path(tmp)
            archive = subprocess.run(["git", "archive", args.against], cwd=BENCH.parent,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            # REV's checkout may predate this script; it digests REV's program all the same
            shutil.copy(__file__, tree / "tests" / "output_digest.py")
            theirs = subprocess.Popen([sys.executable, "tests/output_digest.py"], cwd=tree,
                                      stdout=subprocess.PIPE, text=True)
        run = load_bench()
        ref = run.load_reference()
        mine = []
        for workload in run.WORKLOADS:
            for seed in range(8):
                mine.append(f"{workload} {seed} {digest(run, ref, workload, seed)}")
                print(mine[-1], flush=True)
        mine.append(f"cli-help {help_digest()}")
        print(mine[-1], flush=True)
        if theirs is None:
            return 0
        other = theirs.communicate()[0].splitlines()
    bad = [(a, b) for a, b in itertools.zip_longest(other, mine) if a != b]
    for a, b in bad:
        print(f"differs: {args.against}: {a}  here: {b}")
    return 1 if bad or theirs.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
