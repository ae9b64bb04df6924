"""The README's command-line examples against recorded outputs, byte for byte.

Each case runs ``amoeba`` in-process, the contour examples at the README's
360 slices and the rasters at reduced size, and compares its exit code, its
stdout and every file it writes with the recording under ``tests/golden/``.
The ``classify`` answers at sixty points of the recorded contour are
recorded too, phases and scores at 12 digits: they pin the last bits of the
fiber solve.  To re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review ``git diff tests/golden``.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from amoebas.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CUBIC = "z1^3 + z2^3 + z1*z2 + 1"
CUBIC13 = "z1^3 + z2^3 + 1.3*z1*z2 + 1"
HARNACK = "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1"
SYS3 = ("0.370769-0.478526i,-1.149783+0.853415i,-0.201929-0.719517i;"
        "0.495562-0.152346i,-0.237374-0.560696i,-0.480229+0.643087i;"
        "-1.226668+0.167826i,0.346062-0.627983i,0.063783-1.334861i")

# name -> (argv, files the command writes)
CASES = {
    "member": (["member", "--poly", CUBIC, "--point", "0,0"], []),
    "classify": (["classify", "--poly", CUBIC13, "--point", "0,0"], []),
    "order": (["order", "--poly", CUBIC13, "--point", "0,0"], []),
    "lopsided": (["lopsided", "--poly", "1 + 2*z1 + 3*z2", "--point", "10,0"], []),
    "fiber": (["fiber", "--poly", CUBIC, "--point", "0,0"], []),
    "contour": (["contour", "--poly", HARNACK, "--slices", "360"], []),
    "boundary": (
        ["boundary", "--poly", CUBIC, "--slices", "360", "--output", "b.csv"],
        ["b.csv"],
    ),
    "betti": (
        ["betti", "--poly", HARNACK, "--window", "-2,-2,2,2", "--res", "21,21",
         "--output", "betti.ppm"],
        ["betti.ppm"],
    ),
    "raster": (
        ["raster", "--poly", CUBIC, "--res", "21,21", "--output", "tags.svg"],
        ["tags.svg"],
    ),
    "basis": (["basis", "--linear", "0.5,0.5;2,-1"], []),
    "basis_3x3": (["basis", "--linear=" + SYS3], []),
}


def run_case(name, workdir):
    """(exit code, stdout bytes, {file name: bytes}) of one case run in workdir."""
    argv, files = CASES[name]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    written = {f: (Path(workdir) / f).read_bytes() for f in files}
    return code, out.getvalue().encode("utf-8"), written


# every 18th row of the contour recording: sixty points on the boundary of
# the two-to-one amoeba, 22 of them with a phase that prints just below 2pi
POINT_ROWS = range(0, 1076, 18)


def contour_point_answers():
    """stdout of ``classify`` at POINT_ROWS of the recorded contour, one JSON line each."""
    rows = (GOLDEN / "contour.stdout").read_text().splitlines()[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for k in POINT_ROWS:
            w1, w2 = rows[k].split(",")[:2]
            assert main(["classify", "--poly", HARNACK, f"--point={w1},{w2}"]) == 0
    return out.getvalue()


def test_contour_point_answers_match_recording():
    want = (GOLDEN / "contour_points.stdout").read_text().splitlines()
    assert contour_point_answers().splitlines() == want
    near_2pi = [line for line in want if any(
        p > 2.0 * math.pi - 1e-4 for s in json.loads(line)["solutions"] for p in s["phi"])]
    assert len(near_2pi) == 22


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_example_matches_recording(tmp_path, name):
    code, stdout, written = run_case(name, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    for fname, data in written.items():
        assert data == (GOLDEN / f"{name}.{fname}").read_bytes(), fname


def record():
    """Rewrite every file under tests/golden from the current source tree."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            code, stdout, written = run_case(name, workdir)
        codes[name] = code
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        for fname, data in written.items():
            (GOLDEN / f"{name}.{fname}").write_bytes(data)
        print(f"{name}: exit {code}, {len(stdout)} stdout bytes, files {sorted(written)}",
              file=sys.stderr)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    (GOLDEN / "contour_points.stdout").write_text(contour_point_answers())
    print(f"contour_points: {len(POINT_ROWS)} classify answers", file=sys.stderr)


if __name__ == "__main__":
    record()
