"""Command line driver: point queries, contour CSV, raster exports.

Subcommands
-----------
member / classify / order / lopsided / fiber
    Point queries; each prints a single JSON object on stdout.
contour / boundary
    Sweep the contour and emit "w1,w2,theta,class" CSV rows.
betti / raster
    Rasterize Betti counts or classification tags to PPM / SVG files.
basis
    Construct and verify an amoeba basis for a full-rank linear system.

Exit codes: 0 success, 1 failed basis verification, 2 parse errors,
3 degenerate inputs, 4 numeric non-convergence (errors.py declares them).

Points are log coordinates by default; pass --abs to give coordinate
moduli |z_j| instead.  All floats are printed with 12 significant
digits, so identical jobs produce identical bytes.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import re
import sys
import warnings

from . import __version__
from .contour import classify_contour, trace_contour
from .errors import AmoebaError, AxiomFailure, InconsistentOrder, ParseError
from .fiber import classify, fiber_solutions, lopsided, order
from .linear import amoeba_basis, verify_basis
from .parsing import format_poly, parse_poly
from .raster import amoeba_grids

_PALETTE = (
    (27, 158, 119),
    (217, 95, 2),
    (117, 112, 179),
    (231, 41, 138),
    (102, 166, 30),
    (230, 171, 2),
    (166, 118, 29),
    (102, 102, 102),
)

_TAG_RGB = {
    "Complement": (255, 255, 255),
    "Interior": (70, 130, 180),
    "ContourInterior": (255, 191, 0),
    "Boundary": (0, 0, 0),
    "Degenerate": (255, 0, 255),
}

# ceiling of basis --samples: verify_basis tags the samples in fixed
# blocks, so memory stays flat, but time grows with the count
_MAX_SAMPLES = 1_000_000

# ceiling of --slices: a sweep of the c = 1 cubic takes about 4 ms and keeps
# about 5 KB of contour points per slice, so 7 minutes and 0.5 GB at this count
_MAX_SLICES = 100_000

# ceiling of nx * ny for --res: a raster holds two arrays of this many cells
_MAX_CELLS = 1_000_000

# lets option values like "-2,-2,2,2", "-1.5,0" or "-0.5+1i,1;2,-1" pass as arguments
_NEGATIVE_VALUE = re.compile(r"^-[\d.,;eEiIjJ+-]+$")


# --------------------------------------------------------------------------
# deterministic formatting
# --------------------------------------------------------------------------

def _g12(x):
    """12-significant-digit decimal form of a float."""
    return format(float(x), ".12g")


def _json_text(obj):
    """Serialize with fixed float formatting and preserved key order; json.dumps
    writes every other leaf (None, bool, int, str) and refuses the rest (TypeError)."""
    if isinstance(obj, float):
        return _g12(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items()
        ) + "}"
    return json.dumps(obj)


def _emit(obj):
    sys.stdout.write(_json_text(obj) + "\n")


def _solution_obj(s):
    return {
        "phi": [s.phi[0], s.phi[1]],
        "multiplicity": s.multiplicity,
        "critical": s.critical,
        "score": s.score,
    }


# --------------------------------------------------------------------------
# argument helpers
# --------------------------------------------------------------------------

def _floats(text, count=None):
    parts = [p for p in text.split(",") if p.strip() != ""]
    vals = [float(p) for p in parts]
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} comma-separated numbers")
    return vals


def _expects(form):
    """Decorate an argparse type so that a malformed value is reported by its expected form."""
    def wrap(convert):
        def typed(text):
            try:
                return convert(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {form}, got {text}") from None
        return typed
    return wrap


@_expects("four numbers min1,min2,max1,max2")
def _window_arg(text):
    x0, y0, x1, y1 = _floats(text, 4)
    if not (x1 > x0 and y1 > y0):
        raise argparse.ArgumentTypeError(
            f"window must be min1,min2,max1,max2 with max > min, got {text}")
    return ((x0, y0), (x1, y1))


@_expects("two integers nx,ny")
def _res_arg(text):
    nx, ny = (int(p) for p in text.split(","))
    if nx < 2 or ny < 2:
        raise argparse.ArgumentTypeError(f"resolution must be at least 2,2, got {text}")
    if nx * ny > _MAX_CELLS:
        raise argparse.ArgumentTypeError(
            f"resolution must have at most {_MAX_CELLS} cells, got {text} ({nx * ny} cells)")
    return (nx, ny)


@_expects("a number")
def _positive_float(text):
    v = float(text)
    # the sampling box spans 2 * v, which must stay a finite float
    if not (v > 0 and math.isfinite(2.0 * v)):
        raise argparse.ArgumentTypeError(
            f"must be positive and at most {sys.float_info.max / 2!r}, got {text}")
    return v


def _count(cap):
    """An argparse type for a whole number from 1 to cap."""
    @_expects("a whole number")
    def count(text):
        v = int(text)
        if not 1 <= v <= cap:
            bound = "least 1" if v < 1 else f"most {cap}"
            raise argparse.ArgumentTypeError(f"must be at {bound}, got {text}")
        return v
    return count


def _resolve_point(args):
    """The queried log-point; --abs input is positive moduli to take logs of."""
    try:
        vals = _floats(args.point)
    except ValueError as exc:
        raise ParseError(f"bad point: {exc}") from None
    if len(vals) < 1:
        raise ParseError("empty point")
    if args.abs:
        if any(v <= 0 for v in vals):
            raise ParseError("--abs coordinates must be positive moduli")
        vals = [math.log(v) for v in vals]
    return tuple(vals)


def _fiber_query(args):
    """Point and polynomial of a query that solves on the fiber torus."""
    w = _resolve_point(args)
    if len(w) != 2:
        raise ParseError(f"{args.cmd} needs a point with two coordinates")
    return w, parse_poly(args.poly, 2)


def _parse_matrix(text):
    rows = []
    try:
        for chunk in text.split(";"):
            row = [complex(p.strip().replace("i", "j")) for p in chunk.split(",")]
            rows.append(row)
    except ValueError as exc:
        raise ParseError(f"bad matrix entry: {exc}") from None
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("coefficient matrix must be square (rows split by ';')")
    if len(rows) < 2:
        raise ParseError("the basis construction needs at least two variables")
    if not all(cmath.isfinite(z) for row in rows for z in row):
        raise ParseError("matrix entries must be finite")
    return rows


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def _betti_rgb(v):
    v = int(v)
    if v < 0:
        return (255, 0, 255)
    if v == 0:
        return (255, 255, 255)
    return _PALETTE[(v - 1) % len(_PALETTE)]


def _tag_rgb(tag):
    return _TAG_RGB.get(str(tag), (255, 0, 255))


def _write_ppm(path, raster, rgb_of):
    """Binary P6 image, one pixel per cell, top row at maximal w2."""
    nx, ny = raster.resolution
    body = bytearray()
    for j in range(ny - 1, -1, -1):
        for i in range(nx):
            body.extend(rgb_of(raster.cells[i, j]))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(bytes(body))


def _write_svg(path, raster, rgb_of):
    """SVG 1.1 with one rect per horizontal run of equal color."""
    nx, ny = raster.resolution
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{nx}" height="{ny}" viewBox="0 0 {nx} {ny}" '
        'shape-rendering="crispEdges">'
    ]
    for j in range(ny - 1, -1, -1):
        y = ny - 1 - j
        i = 0
        for rgb, cells in itertools.groupby(rgb_of(raster.cells[k, j]) for k in range(nx)):
            run = sum(1 for _ in cells)
            color = "#{:02x}{:02x}{:02x}".format(*rgb)
            parts.append(
                f'<rect x="{i}" y="{y}" width="{run}" height="1" fill="{color}"/>'
            )
            i += run
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def _check_outputs(outputs):
    """Reject --output paths that cannot be written, before any computation."""
    for path in outputs:
        folder = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else folder
        if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
            raise ParseError(f"cannot write --output {path}")


def _export_raster(raster, outputs, rgb_of):
    for path in outputs:
        if path.endswith(".svg"):
            _write_svg(path, raster, rgb_of)
        else:
            _write_ppm(path, raster, rgb_of)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_fiber(args):
    """member and fiber: the fiber solutions, headed by a tag or a count."""
    w, f = _fiber_query(args)
    sols = fiber_solutions(f, w)
    if args.cmd == "member":
        head = {"tag": "Member" if sols else "NonMember"}
    else:
        head = {"count": len(sols)}
    _emit({"point": list(w), **head, "solutions": [_solution_obj(s) for s in sols]})
    return 0


def _cmd_classify(args):
    w, f = _fiber_query(args)
    pc = classify(f, w)
    obj = {
        "point": list(w),
        "tag": pc.tag,
        "solutions": [_solution_obj(s) for s in pc.solutions],
    }
    if pc.tag == "Complement":
        try:
            obj["order"] = list(order(f, w))
        except InconsistentOrder:
            obj["order"] = None
    if pc.tag == "Boundary":
        obj["caveat"] = pc.caveat
    _emit(obj)
    return 0


def _cmd_order(args):
    w = _resolve_point(args)
    f = parse_poly(args.poly, len(w))
    _emit({"point": list(w), "order": list(order(f, w))})
    return 0


def _cmd_lopsided(args):
    w = _resolve_point(args)
    f = parse_poly(args.poly, len(w))
    alpha = lopsided(f, w)
    _emit({
        "point": list(w),
        "lopsided": alpha is not None,
        "alpha": list(alpha) if alpha is not None else None,
    })
    return 0


def _cmd_contour(args):
    """contour and boundary: sorted CSV rows of the traced points, all or the boundary ones."""
    f = parse_poly(args.poly, 2)
    _check_outputs(args.output)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pts = trace_contour(f, args.slices)
    for note in caught:
        print(f"note: {note.message}", file=sys.stderr)
    parts = classify_contour(f, pts)
    buckets = parts.values() if args.cmd == "contour" else [parts["boundary"]]
    _write_csv(sorted((p.w[0], p.w[1], p.s_param, pc.tag) for bucket in buckets
                      for p, pc in bucket), args.output)
    return 0


def _write_csv(rows, outputs):
    text = "w1,w2,theta,class\n" + "".join(
        f"{_g12(a)},{_g12(b)},{_g12(t)},{tag}\n" for a, b, t, tag in rows
    )
    if not outputs:
        sys.stdout.write(text)
        return
    for path in outputs:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_raster(args):
    """betti and raster: one classification pass, exported as counts or tags."""
    f = parse_poly(args.poly, 2)
    if not args.output:
        raise ParseError("an --output path ending in .ppm or .svg is required")
    _check_outputs(args.output)
    betti, tags = amoeba_grids(f, args.window, args.res)
    if args.cmd == "betti":
        _export_raster(betti, args.output, _betti_rgb)
    else:
        _export_raster(tags, args.output, _tag_rgb)
    return 0


def _cmd_basis(args):
    basis = amoeba_basis(_parse_matrix(args.linear))
    for j, g in enumerate(basis.polys):
        print(f"g{j} = {format_poly(g)}")
    v = basis.witness
    print("witness v = (" + ", ".join(
        f"{_g12(z.real)}{'+' if z.imag >= 0 else '-'}{_g12(abs(z.imag))}i" for z in v
    ) + ")")
    print("log point = (" + ", ".join(_g12(x) for x in basis.log_point) + ")")
    report = verify_basis(basis, samples=args.samples, box=args.box)
    print(f"axiom 1: ok ({report.samples} samples, {report.escapes} escapes)")
    for i in sorted(report.minimality_witnesses):
        w = report.minimality_witnesses[i]
        print(
            f"axiom 2: ok without g{i} at ("
            + ", ".join(_g12(x) for x in w) + ")"
        )
    print(f"axiom 3: ok (rank {report.rank})")
    return 0


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="amoeba",
        description="amoebas of complex Laurent polynomials: membership, "
        "contour, Betti rasters, and linear amoeba bases",
    )
    top.add_argument("--version", action="version", version=f"amoeba {__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add(name, func, help_text, *, point=False, window=False, slices=False, outputs=False):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
        if point:
            p.add_argument("--point", required=True, help="comma-separated coordinates")
            p.add_argument(
                "--abs", action="store_true",
                help="point holds moduli |z_j| instead of log coordinates",
            )
        if window:
            p.add_argument(
                "--window", type=_window_arg, default=_window_arg("-2,-2,2,2"),
                help="min1,min2,max1,max2 in log coordinates (default -2,-2,2,2)",
            )
            p.add_argument(
                "--res", type=_res_arg, default=(81, 81),
                help="nx,ny cell counts (default 81,81)",
            )
        if slices:
            p.add_argument(
                "--slices", type=_count(_MAX_SLICES), default=360,
                help="number of sweep angles in [0, pi) (default 360)",
            )
        if outputs:
            p.add_argument(
                "--output", action="append", default=[],
                help="output path; repeat for several formats",
            )
        p.set_defaults(func=func)
        return p

    add("member", _cmd_fiber, "is the point in the amoeba", point=True)
    add("classify", _cmd_classify, "four-way point classification", point=True)
    add("order", _cmd_order, "order vector of a complement point", point=True)
    add("lopsided", _cmd_lopsided, "dominant-term complement certificate",
        point=True)
    add("fiber", _cmd_fiber, "all fiber torus solutions over a point", point=True)
    add("contour", _cmd_contour, "trace and classify the contour",
        slices=True, outputs=True)
    add("boundary", _cmd_contour, "boundary-classified contour points",
        slices=True, outputs=True)
    add("betti", _cmd_raster, "raster of fiber solution counts",
        window=True, outputs=True)
    add("raster", _cmd_raster, "raster of classification tags",
        window=True, outputs=True)
    basis = sub.add_parser("basis", help="amoeba basis of a linear system")
    basis._negative_number_matcher = _NEGATIVE_VALUE
    basis.add_argument(
        "--linear", required=True,
        help="coefficient matrix, rows split by ';', entries by ','",
    )
    basis.add_argument("--samples", type=_count(_MAX_SAMPLES), default=10000)
    basis.add_argument("--box", type=_positive_float, default=2.0)
    basis.set_defaults(func=_cmd_basis)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AmoebaError as exc:
        if isinstance(exc, AxiomFailure):
            print(f"verification failed: {exc}", file=sys.stderr)
        else:
            span = f" at {exc.span}" if getattr(exc, "span", None) else ""
            print(f"error: {exc}{span}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
