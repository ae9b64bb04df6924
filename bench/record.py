"""Record the reference outputs that bench/run.py checks every run against.

    python3 bench/record.py

Runs each workload's CLI commands once (serial, fresh processes) and its
query stream once, for every input variant, and writes
bench/reference.json.gz.  Re-record only when a change of outputs is
intended, and list what changed and why; the reference is what makes a
faster but different answer show up as a failure.
"""

from __future__ import annotations

import gzip
import json
import sys

import run
import workloads


def main():
    run.WORK.mkdir(exist_ok=True)
    ref = {"commands": {}, "queries": {name: {} for name in run.WORKLOADS}}
    for variant in range(workloads.VARIANTS):
        inp = workloads.Inputs(variant)
        for name in run.WORKLOADS:
            for cmd in workloads.commands(name, inp):
                key = run.command_key(cmd)
                if key not in ref["commands"]:
                    got, wall, _ = run.run_command(cmd, 1)
                    if got["rc"] != 0 or "missing" in got["files"].values():
                        sys.exit(f"error: {cmd[0]} (variant {variant}) failed: {got}")
                    ref["commands"][key] = got
                    print(f"variant {variant} {name} {cmd[0]}: {wall:.2f} s", flush=True)
            queries = run.queries_for(name, inp, ref)
            tally = run.Tally()
            results, lat = run.run_queries(queries, tally)
            errors = [r for r in results if r.startswith("error")]
            if errors or tally.conflicts:
                sys.exit(f"error: {name} variant {variant}: {errors[:3]} {tally.notes[:3]}")
            ref["queries"][name][str(variant)] = {
                "inputs": run.queries_digest(queries), "results": results}
            print(f"variant {variant} {name} queries: {sum(lat):.2f} s, "
                  f"{tally.uncertified} uncertified Complement verdicts, "
                  f"{tally.edge} certificate edge cases", flush=True)
    text = json.dumps(ref, sort_keys=True, indent=0)
    with open(run.REFERENCE, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", filename="", mtime=0) as fh:
        fh.write(text.encode())
    print(f"wrote {run.REFERENCE} ({len(text)} bytes of JSON)")


if __name__ == "__main__":
    main()
