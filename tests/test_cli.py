"""End-to-end CLI behavior: JSON schemas, exports, exit codes, determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

import amoebas.cli as cli
import amoebas.errors as errors
import amoebas.numeric as numeric
from amoebas.cli import main

CUBIC = "z1^3 + z2^3 + z1*z2 + 1"
CUBIC13 = "z1^3 + z2^3 + 1.3*z1*z2 + 1"
HARNACK = "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_json(capsys):
    code, out, _ = run(capsys, "member", "--poly", CUBIC, "--point", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["tag"] == "Member"
    assert obj["point"] == [0.0, 0.0]
    assert len(obj["solutions"]) == 9
    for s in obj["solutions"]:
        assert set(s) == {"phi", "multiplicity", "critical", "score"}
        assert s["multiplicity"] == 2
        assert s["critical"] is True


def test_member_nonmember(capsys):
    code, out, _ = run(capsys, "member", "--poly", CUBIC13, "--point", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["tag"] == "NonMember"
    assert obj["solutions"] == []


def test_classify_complement_carries_order(capsys):
    code, out, _ = run(capsys, "classify", "--poly", CUBIC13, "--point", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["tag"] == "Complement"
    assert obj["order"] == [1, 1]


def test_classify_boundary_carries_caveat(capsys):
    w = math.log(0.5)
    code, out, _ = run(
        capsys, "classify", "--poly", "1 + z1 + z2", "--point", f"{w!r},{w!r}"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["tag"] == "Boundary"
    assert obj["caveat"] is False


def test_abs_point_matches_log_point(capsys):
    _, out_log, _ = run(capsys, "member", "--poly", CUBIC, "--point", "0,0")
    _, out_abs, _ = run(capsys, "member", "--poly", CUBIC, "--point", "1,1", "--abs")
    assert out_log == out_abs


def test_twelve_digit_floats(capsys):
    _, out, _ = run(
        capsys, "classify", "--poly", "1 + z1 + z2", "--point", "0.5,0.5", "--abs"
    )
    assert "-0.69314718056" in out  # log(1/2) at 12 significant digits


def test_order_subcommand(capsys):
    code, out, _ = run(capsys, "order", "--poly", CUBIC13, "--point", "0,0")
    assert code == 0
    assert json.loads(out)["order"] == [1, 1]


def test_order_inside_the_amoeba_is_exit_4(capsys):
    code, _, err = run(capsys, "order", "--poly", CUBIC, "--point", "0.2,0.2")
    assert code == 4
    assert "error:" in err


def test_lopsided_subcommand(capsys):
    code, out, _ = run(
        capsys, "lopsided", "--poly", "1 + 2*z1 + 3*z2", "--point", "10,0"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lopsided"] is True
    assert obj["alpha"] == [1, 0]
    _, out, _ = run(capsys, "lopsided", "--poly", "1 + 2*z1 + 3*z2", "--point", "0,-1")
    obj = json.loads(out)
    assert obj == {"point": [0.0, -1.0], "lopsided": False, "alpha": None}


def test_fiber_subcommand(capsys):
    code, out, _ = run(capsys, "fiber", "--poly", CUBIC, "--point", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 9
    phis = [s["phi"] for s in obj["solutions"]]
    assert phis == sorted(phis)


def test_parse_error_is_exit_2_with_span(capsys):
    code, _, err = run(capsys, "member", "--poly", "z1 +* z2", "--point", "0,0")
    assert code == 2
    assert "at (" in err


def test_bad_point_is_exit_2(capsys):
    code, _, err = run(capsys, "member", "--poly", CUBIC, "--point", "zero,0")
    assert code == 2
    assert "bad point" in err


def test_classify_complement_without_a_stable_order_prints_null(capsys, monkeypatch):
    def order(f, w):
        raise errors.InconsistentOrder("winding counts disagree")

    monkeypatch.setattr(cli, "order", order)
    code, out, _ = run(capsys, "classify", "--poly", CUBIC13, "--point", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert (obj["tag"], obj["order"]) == ("Complement", None)


def test_skipped_contour_slices_are_noted_on_stderr(capsys):
    # the contour eliminates with the coefficients as they stand, so on this
    # huge coefficient range 10 of the 12 slices share a component with the
    # variety; the run still succeeds and says so once
    code, out, err = run(capsys, "contour", "--poly", "1 + z1 + 1e-15*z2", "--slices", "12")
    assert code == 0
    assert out.startswith("w1,w2,theta,class\n")
    assert err.startswith("note: skipped 10 of 12 slices; first at theta=0.261799: ")
    assert err.count("\n") == 1


def test_degenerate_fiber_is_exit_3(capsys):
    code, _, err = run(capsys, "fiber", "--poly", "z1*z2 - 1", "--point", "0,0")
    assert code == 3
    assert "error:" in err


def test_unconverged_root_is_exit_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("amoebas.numeric.ABERTH_SWEEPS", 1)
    image = tmp_path / "betti.ppm"
    table = [
        # one sweep leaves unconverged resultant roots within the unit band
        # for 1 + z1 + z2, and only outside it for the cubic
        ("classify", "--poly", "1 + z1 + z2", "--point", "0,0"),
        ("classify", "--poly", CUBIC, "--point", "0,0"),
        ("order", "--poly", CUBIC, "--point", "3,0.5"),
        ("contour", "--poly", CUBIC, "--slices", "8"),
        ("boundary", "--poly", CUBIC, "--slices", "8"),
        ("betti", "--poly", CUBIC, "--res", "3,3", "--output", str(image)),
    ]
    for argv in table:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: root finder did not converge"), argv
    assert not image.exists()


def test_failed_resultant_self_check_is_exit_4(capsys, monkeypatch):
    real = numeric._sylvester_batch

    def skewed(av, bv):
        # the probe determinant (a batch of one) disagrees with every interpolant
        dets, had = real(av, bv)
        return (2.0 * dets if len(av) == 1 else dets), had

    monkeypatch.setattr(numeric, "_sylvester_batch", skewed)
    code, out, err = run(capsys, "classify", "--poly", CUBIC, "--point", "0,0")
    assert code == 4
    assert out == ""
    assert err.startswith("error: resultant interpolation failed its probe self-check")


MONOMIAL = "a monomial has no zeros in the torus"
ZERO = "zero polynomial vanishes on every fiber"
OVERFLOW = "<alpha, w> overflows for alpha=(1, 1)"
BOX = "must be positive and at most 8.988465674311579e+307, got "


@pytest.mark.parametrize(
    "argv, expected, says",
    [
        (("basis", "--linear", "nan,1;1,1"), 2, "matrix entries must be finite"),
        (("basis", "--linear", "2"), 2, "needs at least two variables"),
        (("classify", "--poly", CUBIC, "--point", "0,0,0"), 2, "a point with two coordinates"),
        (("member", "--poly", CUBIC, "--point", "0,0,0"), 2, "a point with two coordinates"),
        (("fiber", "--poly", CUBIC, "--point", "0,0,0"), 2, "a point with two coordinates"),
        (("classify", "--poly", "z1", "--point", "0,0"), 3, MONOMIAL),
        (("classify", "--poly", "0", "--point", "0,0"), 3, ZERO),
        (("contour", "--poly", CUBIC, "--slices", "0"), 2, "--slices: must be at least 1, got 0"),
        (("boundary", "--poly", CUBIC, "--slices", "0"), 2,
         "--slices: must be at least 1, got 0"),
        (("basis", "--linear", "1,2;3,4", "--samples", "-1"), 2,
         "--samples: must be at least 1, got -1"),
        (("basis", "--linear", "0.5,0.5;2,-1", "--box", "nan"), 2, BOX + "nan"),
        (("basis", "--linear", "0.5,0.5;2,-1", "--box", "inf"), 2, BOX + "inf"),
        (("basis", "--linear", "0.5,0.5;2,-1", "--box", "1e308"), 2, BOX + "1e308"),
        (("lopsided", "--poly", "z1*z2 + 1", "--point", "1e308,1e308"), 3, OVERFLOW),
        (("member", "--poly", "z1*z2 + 1", "--point", "1e308,1e308"), 3, OVERFLOW),
        (("classify", "--poly", "z1*z2 + 1", "--point", "1e308,1e308"), 3, OVERFLOW),
        (("contour", "--poly", "z1", "--output", "OUT.csv"), 3, MONOMIAL),
        (("contour", "--poly", "0"), 3, ZERO),
        (("boundary", "--poly", "z1"), 3, MONOMIAL),
        (("boundary", "--poly", "0", "--output", "OUT.csv"), 3, ZERO),
        (("betti", "--poly", "z1", "--output", "OUT.ppm"), 3, MONOMIAL),
        (("betti", "--poly", "0", "--output", "OUT.ppm"), 3, ZERO),
        (("raster", "--poly", "z1", "--output", "OUT.svg"), 3, MONOMIAL),
        (("raster", "--poly", "0", "--output", "OUT.svg"), 3, ZERO),
        (("order", "--poly", "0", "--point", "0,0"), 3, ZERO),
        (("basis", "--linear", "0.5,0.5;2,-1", "--samples", "1000001"), 2,
         "--samples: must be at most 1000000, got 1000001"),
        (("betti", "--poly", "z1+z2+1", "--res", "30000,30000", "--output", "OUT.ppm"), 2,
         "--res: resolution must have at most 1000000 cells, got 30000,30000"),
        (("betti", "--poly", "z1+z2+1", "--window", "1,1,0,0", "--output", "OUT.ppm"), 2,
         "--window: window must be min1,min2,max1,max2 with max > min, got 1,1,0,0"),
        (("betti", "--poly", "z1+z2+1", "--res", "abc", "--output", "OUT.ppm"), 2,
         "--res: expected two integers nx,ny, got abc"),
        (("betti", "--poly", "z1+z2+1", "--res", "5", "--output", "OUT.ppm"), 2,
         "--res: expected two integers nx,ny, got 5"),
        (("betti", "--poly", "z1+z2+1", "--res", "1,5", "--output", "OUT.ppm"), 2,
         "--res: resolution must be at least 2,2, got 1,5"),
        (("betti", "--poly", "z1+z2+1", "--window", "1,2", "--output", "OUT.ppm"), 2,
         "--window: expected four numbers min1,min2,max1,max2, got 1,2"),
        (("contour", "--poly", CUBIC, "--slices", "x"), 2,
         "--slices: expected a whole number, got x"),
        (("basis", "--linear", "1,2;3,4", "--samples", "x"), 2,
         "--samples: expected a whole number, got x"),
        (("basis", "--linear", "1,2;3,4", "--box", "x"), 2, "--box: expected a number, got x"),
        (("classify", "--poly", "z1^1000001", "--point", "0,0"), 3,
         "exponent (1000001, 0) outside +-1000000"),
        (("classify", "--poly", "1e999*z1 + 1", "--point", "0,0"), 3,
         "the coefficient of exponent (1, 0) overflows"),
        (("classify", "--poly", "1e308*z1 + 1e308*z1 + 1", "--point", "0,0"), 3,
         "the coefficient of exponent (1, 0) overflows"),
        (("classify", "--poly", CUBIC, "--point", "0,1", "--abs"), 2,
         "--abs coordinates must be positive moduli"),
        (("classify", "--poly", CUBIC, "--point", "-1,1", "--abs"), 2,
         "--abs coordinates must be positive moduli"),
        (("member", "--poly", CUBIC, "--point", ","), 2, "empty point"),
        (("basis", "--linear", "1,2;3"), 2, "coefficient matrix must be square"),
        (("basis", "--linear", "1,x;3,4"), 2, "bad matrix entry"),
        (("classify", "--poly", "z²+1", "--point", "0,0"), 2, "expected digit after 'z'"),
        (("fiber", "--poly", "z1 - 2", "--point", "0.6931471805599453,0"), 3,
         "restriction has a factor in one torus variable with a unit root: "
         "the fiber meets the variety in full circles"),
        (("contour", "--poly", CUBIC, "--slices", "100001"), 2,
         "--slices: must be at most 100000, got 100001"),
        (("classify", "--poly", "z1^5000*z2 + z2 + 1", "--point", "0,0"), 3,
         "resultant too large: degree 10000 (ceiling 1000)"),
    ],
    ids=["nan-matrix", "1x1-matrix", "classify-3d", "member-3d", "fiber-3d", "monomial",
         "zero-poly", "contour-0-slices", "boundary-0-slices", "negative-samples",
         "nan-box", "inf-box", "huge-box", "lopsided-overflow", "member-overflow",
         "classify-overflow", "contour-monomial", "contour-zero-poly",
         "boundary-monomial", "boundary-zero-poly", "betti-monomial", "betti-zero-poly",
         "raster-monomial", "raster-zero-poly", "order-zero-poly", "samples-above-cap",
         "res-above-cap", "empty-window", "malformed-res", "one-number-res", "res-below-two",
         "short-window", "malformed-slices", "malformed-samples", "malformed-box",
         "exponent-ceiling", "infinite-literal", "overflowing-sum", "abs-zero",
         "abs-negative", "empty-point", "ragged-matrix", "non-numeric-matrix",
         "non-decimal-digit", "unit-root-factor", "slices-above-cap", "degree-ceiling"],
)
def test_parsed_but_invalid_query_is_an_exit_code(capsys, monkeypatch, tmp_path, argv,
                                                  expected, says):
    # an OUT.* argument is an --output file in tmp_path, which must stay empty
    argv = [str(tmp_path / a) if a.startswith("OUT.") else a for a in argv]
    real_grids = cli.amoeba_grids

    def grids(f, window, res):
        # a grid above the cell ceiling must be refused, never allocated
        assert res[0] * res[1] <= 10**6
        return real_grids(f, window, res)

    monkeypatch.setattr(cli, "amoeba_grids", grids)
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:
        # argparse rejects an out-of-range option value before any handler
        # runs; its last stderr line is "amoeba <cmd>: error: ..."
        code, (out, err) = exc.code, capsys.readouterr()
        err = err.splitlines()[-1].replace(f"amoeba {argv[0]}: ", "", 1) + "\n"
    assert code == expected
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    # the message states the rule or limit, never a private function's name
    assert says in err
    assert re.search(r"\b_[a-z]", err) is None
    assert list(tmp_path.iterdir()) == []


def test_order_beyond_the_exponential_range(capsys):
    # e^800 overflows a float, but the order slices are read on the torus
    # over the point, and the order is the dominant vertex, as the lopsided
    # certificate says
    poly, point = "z1*z2 + 1 + z1", "800,-800"
    code, out, _ = run(capsys, "classify", "--poly", poly, "--point", point)
    assert code == 0
    obj = json.loads(out)
    assert (obj["tag"], obj["order"]) == ("Complement", [1, 0])
    code, out, _ = run(capsys, "lopsided", "--poly", poly, "--point", point)
    assert json.loads(out)["alpha"] == [1, 0]


# the exit code of each error family, as README "Command line" documents it
FAMILY_EXIT = {
    "AmoebaError": 1, "AxiomFailure": 1,
    "ParseError": 2, "PolySyntaxError": 2, "UnknownVariable": 2, "EmptyInput": 2,
    "ZeroCoordinate": 3, "Overflow": 3, "SingularMatrix": 3, "IdenticallyZero": 3,
    "DegenerateFiber": 3, "DegenerateSlice": 3, "NotLinear": 3,
    "NoConvergence": 4, "InconsistentOrder": 4,
}


def test_every_error_class_has_its_documented_exit_code():
    found = {name: cls.exit_code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.AmoebaError)}
    assert found == FAMILY_EXIT


@pytest.mark.parametrize("parent, code, says", [
    (errors.AmoebaError, 1, "error: raised"),
    (errors.AxiomFailure, 1, "verification failed: raised"),
    (errors.ParseError, 2, "error: raised"),
    (errors.DegenerateFiber, 3, "error: raised"),
    (errors.NoConvergence, 4, "error: raised"),
])
def test_an_error_subclass_exits_with_its_family_code(capsys, monkeypatch, parent, code, says):
    class Raised(parent):
        pass

    def order(f, w):
        raise Raised("raised")

    monkeypatch.setattr(cli, "order", order)
    assert run(capsys, "order", "--poly", CUBIC13, "--point", "0,0") == (code, "", says + "\n")


def test_singular_basis_matrix_is_exit_3(capsys):
    code, _, err = run(capsys, "basis", "--linear", "1,2;2,4")
    assert code == 3
    assert "error:" in err


def test_zero_coordinate_witness_is_exit_3(capsys):
    code, _, err = run(capsys, "basis", "--linear", "1,1;1,2")
    assert code == 3
    assert "zero coordinate" in err


def test_basis_output(capsys):
    code, out, _ = run(capsys, "basis", "--linear", "0.5,0.5;2,-1", "--samples", "500")
    assert code == 0
    assert "g0 = 1 + 0.5*z1 + 0.5*z2" in out
    assert "witness v = (-1+0i, -1+0i)" in out
    assert "log point = (0, 0)" in out
    assert "axiom 1: ok (500 samples, 500 escapes)" in out
    assert "axiom 2: ok without g0" in out
    assert "axiom 3: ok (rank 2)" in out


def test_basis_samples_a_box_of_the_given_half_side(capsys):
    code, out, _ = run(capsys, "basis", "--linear", "0.5,0.5;2,-1", "--box", "1.5",
                       "--samples", "200")
    assert code == 0
    assert "axiom 1: ok (200 samples, 200 escapes)" in out


def test_basis_matrix_may_start_with_a_minus(capsys):
    # complex entries and ';' must not make argparse take the value for a flag
    code, out, _ = run(capsys, "basis", "--linear", "-0.5+1i,1;2,-1")
    assert code == 0
    assert "axiom 3: ok (rank 2)" in out


def test_a_4x4_basis_no_sample_separates_verifies(capsys):
    # no default sample lies outside g1's amoeba alone, so its witness comes
    # from the walk along g1's leading term
    code, out, _ = run(capsys, "basis", "--linear",
                       "-0.48+0.31i,1.25+0.7i,0.72-0.69i,0.7+0.81i;"
                       "-1.31-0.33i,-0.37+1.23i,-0.51+0.53i,0.21+0.22i;"
                       "-1.68+2.01i,1.27+0.83i,0.3+1.31i,0.43-1.19i;"
                       "-1.18-0.65i,-0.03+0.84i,1.33+0.91i,-1.57-0.06i")
    assert code == 0
    assert [f"axiom 2: ok without g{i} at" in out for i in range(5)] == [True] * 5
    assert "axiom 3: ok (rank 4)" in out


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, amoebas.cli; "
         "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_contour_and_boundary_csv(capsys):
    code, out, _ = run(capsys, "contour", "--poly", HARNACK, "--slices", "24")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w1,w2,theta,class"
    assert len(lines) > 1
    classes = set()
    for row in lines[1:]:
        w1, w2, theta, cls = row.split(",")
        float(w1), float(w2)
        assert 0.0 <= float(theta) < math.pi
        classes.add(cls)
    assert "Boundary" in classes

    code, bout, _ = run(capsys, "boundary", "--poly", HARNACK, "--slices", "24")
    assert code == 0
    blines = bout.strip().split("\n")
    assert blines[0] == "w1,w2,theta,class"
    assert all(r.endswith(",Boundary") for r in blines[1:])
    assert set(blines[1:]) <= set(lines[1:])


def test_csv_reruns_are_byte_identical(capsys):
    _, first, _ = run(capsys, "contour", "--poly", HARNACK, "--slices", "12")
    _, second, _ = run(capsys, "contour", "--poly", HARNACK, "--slices", "12")
    assert first == second


def test_betti_ppm_export(capsys, tmp_path):
    out = tmp_path / "b.ppm"
    code, _, _ = run(
        capsys, "betti", "--poly", CUBIC13, "--window", "-2,-2,2,2",
        "--res", "5,5", "--output", str(out),
    )
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n5 5\n255\n")
    assert len(data) == len(b"P6\n5 5\n255\n") + 3 * 25
    body = data[len(b"P6\n5 5\n255\n"):]
    pixels = {tuple(body[k:k + 3]) for k in range(0, len(body), 3)}
    assert (255, 255, 255) in pixels  # complement cells
    assert len(pixels) > 1  # and some amoeba cells


def test_betti_marks_a_degenerate_fiber_magenta(capsys, tmp_path):
    # every fiber over w1 = 0 holds the circle z1 = 1; the other columns of
    # the 3x3 grid are empty fibers
    out = tmp_path / "m.ppm"
    code, _, _ = run(capsys, "betti", "--poly", "z1 - 1", "--window", "-1,-1,1,1",
                     "--res", "3,3", "--output", str(out))
    assert code == 0
    body = out.read_bytes()[len(b"P6\n3 3\n255\n"):]
    rows = [[tuple(body[k:k + 3]) for k in range(r, r + 9, 3)] for r in range(0, 27, 9)]
    assert rows == [[(255, 255, 255), (255, 0, 255), (255, 255, 255)]] * 3


def test_ppm_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    for path in (a, b):
        run(
            capsys, "betti", "--poly", CUBIC13, "--window", "-1,-1,1,1",
            "--res", "4,4", "--output", str(path),
        )
    assert a.read_bytes() == b.read_bytes()


def test_raster_svg_export(capsys, tmp_path):
    out = tmp_path / "t.svg"
    code, _, _ = run(
        capsys, "raster", "--poly", CUBIC13, "--window", "-2,-2,2,2",
        "--res", "6,6", "--output", str(out),
    )
    assert code == 0
    text = out.read_text(encoding="ascii")
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.rstrip().endswith("</svg>")
    assert '<rect' in text
    assert "#ffffff" in text


def test_missing_output_path_is_exit_2(capsys):
    code, _, err = run(
        capsys, "betti", "--poly", CUBIC13, "--window", "-1,-1,1,1", "--res", "3,3"
    )
    assert code == 2
    assert "--output" in err


@pytest.mark.parametrize("cmd, name", [
    ("betti", "x.ppm"), ("raster", "x.svg"), ("contour", "x.csv"), ("boundary", "x.csv"),
])
@pytest.mark.parametrize("where", ["missing-folder", "a-folder"])
def test_unwritable_output_fails_before_computing(capsys, monkeypatch, tmp_path, cmd, name,
                                                  where):
    def fail(*args, **kwargs):
        raise AssertionError("computed before checking --output")

    monkeypatch.setattr("amoebas.cli.amoeba_grids", fail)
    monkeypatch.setattr("amoebas.cli.trace_contour", fail)
    path = str(tmp_path / "missing" / name) if where == "missing-folder" else str(tmp_path)
    code, out, err = run(capsys, cmd, "--poly", CUBIC13, "--output", path)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --output {path}\n"


def test_window_option_accepts_leading_minus(capsys, tmp_path):
    # "-2,-2,2,2" must parse as an option value, not as a flag
    out = tmp_path / "w.ppm"
    code, _, _ = run(
        capsys, "betti", "--poly", CUBIC13, "--window", "-2,-2,2,2",
        "--res", "3,3", "--output", str(out),
    )
    assert code == 0


@pytest.fixture(scope="session")
def amoeba_script(tmp_path_factory):
    """The `amoeba` on PATH, else this commit's in a temp venv: the suite runs uninstalled."""
    found = shutil.which("amoeba")
    if found:
        return found
    pytest.importorskip(
        "setuptools", reason="no `amoeba` on PATH and no setuptools to install one"
    )
    root = Path(__file__).resolve().parents[1]
    work = tmp_path_factory.mktemp("install")
    shutil.copytree(
        root / "src", work / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(root / name, work / name)
    env_dir = work / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / ("Scripts" if os.name == "nt" else "bin")
    python = str(bin_dir / "python")
    # With src on PYTHONPATH setuptools treats the package as installed and
    # writes no easy-install.pth, so the launcher cannot find its metadata.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    installers = [
        [python, "-m", "pip", "install", "--no-deps", "--no-build-isolation",
         "--no-index", "--no-cache-dir", "."],
        # pip needs setuptools >= 70.1 or the wheel package to build a wheel
        [python, "-c", "from setuptools import setup; setup()", "develop", "--no-deps"],
    ]
    errors = []
    for cmd in installers:
        proc = subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, text=True, timeout=300
        )
        script = shutil.which("amoeba", path=str(bin_dir))
        if proc.returncode == 0 and script:
            return script
        errors.append(f"$ {' '.join(cmd[1:])}\n{proc.stderr}")
    pytest.fail(
        "no `amoeba` script on PATH, and installing this commit into a venv failed:\n"
        + "\n".join(errors)
    )


def test_installed_entry_point(amoeba_script):
    proc = subprocess.run(
        [amoeba_script, "classify", "--poly", CUBIC13, "--point", "0,0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tag"] == "Complement"


def test_module_invocation_matches_entry_point(amoeba_script):
    args = ["lopsided", "--poly", "1 + 2*z1", "--point", "5,0"]
    via_module = subprocess.run(
        [sys.executable, "-m", "amoebas.cli"] + args,
        capture_output=True, text=True, timeout=120,
    )
    via_script = subprocess.run(
        [amoeba_script] + args, capture_output=True, text=True, timeout=120
    )
    assert via_module.returncode == via_script.returncode == 0
    assert via_module.stdout == via_script.stdout
