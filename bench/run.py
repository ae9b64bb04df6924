"""Amoeba benchmark: one workload, one seed, one line of JSON metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 52 --trace 0

Run from the repository root (any checkout that holds ``src/amoebas``).
With ``--trace 0`` it measures the end-to-end metrics with tracing off:

* ``setup_s``: median time for a fresh interpreter to import amoebas.cli;
* ``wall_s`` / ``wall_threads2_s``: median time of one pass over the
  workload's CLI commands, each a fresh ``python -m amoebas.cli`` process,
  run one after another (closed loop, one client), with AMOEBA_THREADS=1
  and =2, passes alternating;
* ``query_p50_ms`` / ``query_p95_ms``: latency quantiles of the
  workload's stream of warm in-process queries;
* ``peak_rss_mb``: median over passes of the largest resident set of any
  child process in the pass.

With ``--trace 1`` it makes one serial in-process run through
``amoebas.cli.main`` and the query stream, once plain and once with every
public function wrapped (see spans.py), and reports per-layer metrics.

Every command output and query result is checked against the reference
outputs in reference.json.gz (recorded by record.py).  Exit codes, tags,
counts, integers, PPM and SVG bytes must match exactly; other numbers
within FLOAT_TOL.  A mismatch, or a lopsided certificate contradicting a
verdict, counts as a failed operation.  The summary lines before the
final JSON line give every metric with its unit and sample count, the
error rate, and the run record (machine, versions, seed, load).
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json.gz"

if not (SRC / "amoebas" / "cli.py").is_file():
    sys.exit(f"error: no program source at {SRC / 'amoebas'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import amoebas.cli  # noqa: E402
import amoebas.fiber  # noqa: E402
import amoebas.linear  # noqa: E402
import amoebas.parsing  # noqa: E402
from amoebas.errors import AmoebaError  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sweep", "point")
SETUP_SAMPLES = 5
MIN_PAIRS = 2  # serial + AMOEBA_THREADS=2 pass pairs per run, at least
STREAM_ROUNDS = 8  # each query runs this often; its latency is the best run
WARMUP_QUERIES = 20
CHILD_TIMEOUT = 120.0
FLOAT_TOL = 1e-6  # relative, absolute below 1; prints carry 12 digits
SOLVER_TOL = 1e-7  # fiber solutions are accepted at |f| <= 1e-7 x coefficient sum

# the certificate used for cross-checks, bound before any tracer wraps it
_LOPSIDED = amoebas.fiber.lopsided


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["AMOEBA_THREADS"] = str(threads)
    env["TMPDIR"] = str(WORK)
    return env


def run_child(argv, env):
    """One fresh interpreter: (exit code, wall s, peak RSS MB, stdout)."""
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                env=env, cwd=WORK)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the largest RSS of the child and its reaped workers
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text()


def observe_files(outputs):
    """Recorded form of output files: CSV text, else a SHA-256 of the bytes."""
    got = {}
    for name in outputs:
        path = WORK / name
        if not path.is_file():
            got[name] = "missing"
        elif name.endswith(".csv"):
            got[name] = path.read_text()
        else:
            got[name] = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    return got


def run_command(cmd, threads):
    """Run one CLI command as a fresh process: (observed, wall s, RSS MB)."""
    _, argv, outputs = cmd
    for name in outputs:
        (WORK / name).unlink(missing_ok=True)
    rc, wall, rss, stdout = run_child(["-m", "amoebas.cli"] + argv, child_env(threads))
    return {"rc": rc, "stdout": stdout, "files": observe_files(outputs)}, wall, rss


def run_command_in_process(cmd):
    """Run one CLI command through amoebas.cli.main: (observed, output bytes)."""
    _, argv, outputs = cmd
    for name in outputs:
        (WORK / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(WORK)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = amoebas.cli.main(list(argv))
    finally:
        os.chdir(here)
    size = len(out.getvalue().encode()) + sum(
        (WORK / n).stat().st_size for n in outputs if (WORK / n).is_file())
    return {"rc": rc, "stdout": out.getvalue(), "files": observe_files(outputs)}, size


def command_key(cmd):
    name, argv, _ = cmd
    return name + ":" + hashlib.sha1(json.dumps(argv).encode()).hexdigest()[:12]


# --------------------------------------------------------------------------
# in-process queries
# --------------------------------------------------------------------------

def _render_solutions(sols):
    return " ".join(
        f"{s.multiplicity}{'c' if s.critical else 'n'}:{s.phi[0]:.9g},{s.phi[1]:.9g}"
        for s in sols)


def render(kind, out):
    """Canonical text of a query result, compared against the reference."""
    if isinstance(out, AmoebaError):
        return f"error {type(out).__name__}"
    if kind == "classify":
        return f"{out.tag} caveat={out.caveat} {len(out.solutions)} {_render_solutions(out.solutions)}"
    if kind == "fiber_solutions":
        return f"{len(out)} {_render_solutions(out)}"
    if kind == "linear_classify":
        return f"{out[0]} {out[1]}"
    return str(out)  # lopsided exponent or None, order vector


def run_queries(queries, tally=None):
    """Run queries in order: (rendered results, latencies in s).

    Each latency covers parsing the polynomial text and the query itself.
    The functions are looked up on their modules at call time, so a tracer
    sees them.  With a tally, each verdict is cross-checked against the
    lopsided certificate after the timed part; a contradiction is marked
    in the rendered result, so the query fails its reference check.
    """
    results, lat = [], []
    for kind, text, w in queries:
        mod = amoebas.linear if kind == "linear_classify" else amoebas.fiber
        start = time.perf_counter()
        f = amoebas.parsing.parse_poly(text, 2)
        try:
            out = getattr(mod, kind)(f, w)
        except AmoebaError as exc:
            out = exc
        lat.append(time.perf_counter() - start)
        results.append(render(kind, out))
        if (tally is not None and kind != "linear_classify"
                and not isinstance(out, AmoebaError) and tally.certificate(f, w, kind, out)):
            results[-1] += " [contradicts the lopsided certificate]"
    return results, lat


# --------------------------------------------------------------------------
# checking
# --------------------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def compare_text(ref, got):
    """(ok, drift): text and integers exact, other numbers within FLOAT_TOL.

    ``drift`` counts numbers that differ but pass the tolerance, so a
    last-digit change is reported, not hidden.
    """
    if _NUM.split(ref) != _NUM.split(got):
        return False, 0
    drift = 0
    for a, b in zip(_NUM.findall(ref), _NUM.findall(got)):
        if a == b:
            continue
        if not any(c in a + b for c in ".eE"):
            return False, drift
        x, y = float(a), float(b)
        if abs(x - y) > FLOAT_TOL * max(1.0, abs(x)):
            return False, drift
        drift += 1
    return True, drift


def dominance_gap(f, w):
    """(largest term modulus - sum of the others) / sum of all, on the fiber over w."""
    logs = [math.log(abs(b)) + math.fsum(a * x for a, x in zip(alpha, w))
            for alpha, b in f.terms.items()]
    cap = max(logs)
    vals = [math.exp(v - cap) for v in logs]
    total = math.fsum(vals)
    return (2.0 * max(vals) - total) / total


class Tally:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.drift = 0
        self.conflicts = 0
        self.uncertified = 0
        self.edge = 0
        self.notes = []

    def check(self, what, ref, got):
        self.attempted += 1
        ok, drift = compare_text(ref, got)
        self.drift += drift
        if not ok:
            self.fail(f"{what}: {got!r} differs from the reference {ref!r}")

    def check_command(self, name, ref, got):
        self.attempted += 1
        problems = []
        if ref["rc"] != got["rc"]:
            problems.append(f"exit code {got['rc']} != {ref['rc']}")
        for label, r, g in [("stdout", ref["stdout"], got["stdout"])] + [
                (n, ref["files"][n], got["files"].get(n, "missing")) for n in ref["files"]]:
            ok, drift = compare_text(r, g) if not r.startswith("sha256:") else (r == g, 0)
            self.drift += drift
            if not ok:
                problems.append(f"{label} differs")
        if problems:
            self.fail(f"{name}: " + "; ".join(problems))

    def check_queries(self, what, ref, got):
        for k, (r, g) in enumerate(zip(ref, got)):
            self.check(f"{what} query {k}", r, g)

    def certificate(self, f, w, kind, out):
        """Cross-check a verdict at w against the lopsided certificate.

        Returns True on a contradiction: a certified point that the solver
        calls a member, or an order vector other than the certified one.
        The solver accepts a torus point where |f| <= SOLVER_TOL x the
        coefficient sum, so a certificate whose dominant term beats the
        rest by no more than that share is within the solver's stated
        tolerance: such edge cases are counted, not failed.  A Complement
        verdict without a certificate is only counted.
        """
        alpha = _LOPSIDED(f, w)
        if kind == "classify" and out.tag == "Complement" and alpha is None:
            self.uncertified += 1
        if alpha is None:
            return False
        bad = {"classify": lambda: out.tag != "Complement",
               "fiber_solutions": lambda: bool(out),
               "order": lambda: tuple(out) != tuple(alpha)}.get(kind, lambda: False)
        if not bad():
            return False
        if dominance_gap(f, w) <= SOLVER_TOL:
            self.edge += 1
            return False
        self.conflicts += 1
        return True

    def fail(self, note):
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)


# --------------------------------------------------------------------------
# the workload of one run
# --------------------------------------------------------------------------

def load_reference():
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def queries_for(name, inp, ref):
    if name == "point":
        return workloads.point_queries(inp)
    rows = {cmd[0]: ref["commands"][command_key(cmd)]["files"][cmd[2][0]]
            for cmd in workloads.contour_commands(inp)}
    return workloads.sweep_queries(inp, rows)


class Run:
    """Inputs and references of one workload and seed."""

    def __init__(self, name, seed, ref=None):
        self.name = name
        self.inputs = workloads.Inputs(seed)
        ref = load_reference() if ref is None else ref
        self.commands = workloads.commands(name, self.inputs)
        missing = [c[0] for c in self.commands if command_key(c) not in ref["commands"]]
        if missing:
            raise SystemExit(f"error: no reference output for {missing}; rerun bench/record.py")
        self.ref_commands = [ref["commands"][command_key(c)] for c in self.commands]
        self.queries = queries_for(name, self.inputs, ref)
        qref = ref["queries"][name][str(self.inputs.variant)]
        if qref["inputs"] != queries_digest(self.queries):
            raise SystemExit("error: query inputs differ from the recorded ones; "
                             "rerun bench/record.py")
        self.ref_queries = qref["results"]
        self.tally = Tally()

    def cli_pass(self, threads, between=None):
        """One serial pass of fresh processes: ([wall s per command], largest RSS MB).

        ``between`` is called after each command, outside the timed part.
        """
        walls, rss = [], 0.0
        for cmd, ref in zip(self.commands, self.ref_commands):
            got, t, r = run_command(cmd, threads)
            self.tally.check_command(cmd[0], ref, got)
            walls.append(t)
            rss = max(rss, r)
            if between is not None:
                between()
        return walls, rss

    def stream(self, lo=0, hi=None):
        """Run queries[lo:hi] of the stream and check them: latencies."""
        hi = len(self.queries) if hi is None else hi
        results, lat = run_queries(self.queries[lo:hi], self.tally)
        self.tally.check_queries(self.name, self.ref_queries[lo:hi], results)
        return lat

    def in_process_pass(self):
        """Commands through amoebas.cli.main, then the stream: (s, output bytes)."""
        start = time.perf_counter()
        size = 0
        for cmd, ref in zip(self.commands, self.ref_commands):
            got, n = run_command_in_process(cmd)
            self.tally.check_command(cmd[0], ref, got)
            size += n
        self.stream()
        return time.perf_counter() - start, size


def queries_digest(queries):
    return hashlib.sha1(json.dumps(queries).encode()).hexdigest()


def quantile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_time(env):
    rc, t, _, _ = run_child(["-c", "import amoebas.cli"], env)
    if rc != 0:
        raise SystemExit("error: importing amoebas.cli failed")
    return t


def measure(run, seconds):
    """End-to-end metrics, tracing off: ({name: (value, samples)}).

    The box's speed drifts by a fifth to a half over seconds to minutes,
    in user CPU time as much as in wall time.  So every timed item is repeated at
    different moments of the run and its best time is kept: each CLI
    command over the passes (wall_s sums the commands' best times), each
    query over STREAM_ROUNDS rounds.  Query slices and set-up samples run
    between the CLI commands, spread over the shortest run.
    """
    env = child_env(1)
    import_time(env)  # fills the bytecode caches
    run_queries(run.queries[:WARMUP_QUERIES])
    n_slots = MIN_PAIRS * 2 * len(run.commands)
    setup_slots = {round(k * n_slots / SETUP_SAMPLES) for k in range(SETUP_SAMPLES)}
    n = len(run.queries)
    per_round = n_slots // STREAM_ROUNDS
    slices = [(k * n // per_round, (k + 1) * n // per_round)
              for _ in range(STREAM_ROUNDS) for k in range(per_round)]
    best = [math.inf] * n
    setup = []
    slot = 0

    def between():
        nonlocal slot
        if slot in setup_slots:
            setup.append(import_time(env))
        if slot < len(slices):
            lo, hi = slices[slot]
            for i, t in enumerate(run.stream(lo, hi), lo):
                best[i] = min(best[i], t)
        slot += 1

    walls = {1: [], 2: []}
    rss = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for threads in (1, 2):
            times, peak = run.cli_pass(threads, between)
            walls[threads].append(times)
            rss.append(peak)
        now = time.perf_counter()
        if len(walls[1]) >= MIN_PAIRS and now + (now - pair_start) > start + seconds:
            break

    def best_pass(passes):
        return sum(min(ts) for ts in zip(*passes))

    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (best_pass(walls[1]), len(walls[1])),
        "wall_threads2_s": (best_pass(walls[2]), len(walls[2])),
        "query_p50_ms": (1e3 * statistics.median(best), n),
        "query_p95_ms": (1e3 * quantile(best, 95), n),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
    }


def traced(run):
    """Per-layer metrics from a serial in-process run: ({name: (value, samples)})."""
    saved = os.environ.get("AMOEBA_THREADS")
    os.environ["AMOEBA_THREADS"] = "1"  # pool workers would drop spans
    try:
        # plain passes before and after the traced one, so that warm-up
        # and drift do not land on one side of the overhead ratio
        plain_s, _ = run.in_process_pass()
        with spans.Tracer() as tracer:
            traced_s, out_bytes = run.in_process_pass()
        plain_s = (plain_s + run.in_process_pass()[0]) / 2
    finally:
        if saved is None:
            del os.environ["AMOEBA_THREADS"]
        else:
            os.environ["AMOEBA_THREADS"] = saved
    m = spans.layer_metrics(tracer.spans)
    # every fiber solve of the traced pass, CLI cells and contour points
    # included, is one cross-checked operation
    cert = Tally()
    for kind in ("classify", "fiber_solutions"):
        for args, out in tracer.calls(f"fiber.{kind}"):
            run.tally.attempted += 1
            if cert.certificate(args[0], args[1], kind, out):
                run.tally.fail(f"{kind} at {args[1]} contradicts the lopsided certificate")
    serial, _ = run.cli_pass(1)
    pooled, _ = run.cli_pass(2)
    m["raster.pool_speedup"] = sum(serial) / sum(pooled)
    m["trace.overhead_ratio"] = traced_s / plain_s
    m["cli.output_bytes"] = out_bytes
    m["fiber.complement_uncertified"] = cert.uncertified
    m["fiber.certificate_conflicts"] = cert.conflicts
    m["fiber.certificate_edge"] = cert.edge
    return {k: (v, 1) for k, v in m.items()}, tracer


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def run_record(seed, variant):
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "seed": seed, "variant": variant}


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=52.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    units = declared(args.trace)
    WORK.mkdir(exist_ok=True)
    record = run_record(args.seed, args.seed % workloads.VARIANTS)
    record["load_before"] = os.getloadavg()[0]
    record["load_flag"] = record["load_before"] > (os.cpu_count() or 1)
    if record["load_flag"]:
        print(f"warning: 1-minute load {record['load_before']:.2f} is above nproc "
              "at the start; this run's timings are suspect", file=sys.stderr)
    run = Run(args.workload, args.seed)
    if args.trace:
        values, _ = traced(run)
    else:
        values = measure(run, args.seconds)
    record["load_after"] = os.getloadavg()[0]

    t = run.tally
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    print("record: " + json.dumps(record))
    for name, (value, n) in values.items():
        print(f"{name}: {value:.6g} {units.get(name, '')} (n={n})")
    print(f"error_rate: {t.failed / t.attempted:.6g} ratio "
          f"({t.failed} failed of {t.attempted}; {t.drift} numbers drifted within "
          f"tolerance; {t.conflicts} certificate conflicts; "
          f"{t.edge} certificate edge cases within solver tolerance; "
          f"{t.uncertified} uncertified Complement verdicts)")
    for note in t.notes:
        print("failure: " + note, file=sys.stderr)
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
