"""orbitforge command line: every module behind one binary.

Results go to stdout as deterministic JSON (sorted keys, stable float
formatting) or CSV/SVG when requested; the run manifest (parameters, version,
settings, wall time) goes to stderr so that identical invocations produce
byte-identical stdout.  Exit codes: 0 ok, 1 domain/resource error (with a
machine-readable error JSON on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import mpmath

from . import __version__
from .ball import CBall  # eager: ball sets mp.prec on import, before main's workprec
from .config import DEFAULTS, Settings, load_settings
from .errors import DomainError, OrbitforgeError
from .exact import _MINUS_VARIANTS, BiPoly, Poly, rat, rat_str
from .dynamics import (PolyDS, Preperiodic, classify_orbit,
                       detect_exceptional, find_place_of_good_reduction_escape,
                       normalize_monic)


@dataclass
class RunManifest:
    """Reproducibility record: identical manifests (minus wall time) replay to
    byte-identical stdout.  Emitted to stderr or --manifest, never stdout."""

    tool: str
    version: str
    argv: list
    settings: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def ball_json(b: CBall) -> dict:
    return {"re": f"{float(b.re_mid):.17g}", "im": f"{float(b.im_mid):.17g}",
            "rad": f"{float(b.rad):.6g}"}


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def emit(data) -> None:
    sys.stdout.write(_json_text(data))


def _parse_json_list(text: str, what: str) -> list:
    """A JSON array argument; malformed input is a DomainError."""
    cleaned = text
    for ch in _MINUS_VARIANTS:
        cleaned = cleaned.replace(ch, "-")
    try:
        data = json.loads(cleaned)
    except ValueError:
        data = None
    if not isinstance(data, list):
        raise DomainError(f"{what} must be a JSON array with \"num/den\" "
                          f"strings for fractions, got {text!r}")
    return data


def _parse_terms(text: str, what: str, n_exponents: int) -> list:
    """A JSON list of [exponent, ..., "num/den"] terms, integer exponents."""
    data = _parse_json_list(text, what)
    for term in data:
        if not (isinstance(term, list) and len(term) == n_exponents + 1
                and all(type(e) is int for e in term[:-1])):
            raise DomainError(f"{what} is a list of terms [{n_exponents} integer "
                              f"exponent(s), \"num/den\"], got {text!r}")
    return data


def parse_poly(text: str) -> Poly:
    return Poly.from_json(_parse_json_list(text, "a polynomial"))


def parse_curve(text: str) -> "PlaneCurve":
    from .curves import PlaneCurve
    data = _parse_terms(text, "a curve", 2)
    return PlaneCurve.from_bipoly(BiPoly.from_json(data))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_dynamics_classify(args, settings: Settings) -> dict:
    ds, scale = normalize_monic(parse_poly(args.poly), settings)
    result: dict = {"poly": ds.f.to_json()}
    if scale is not None and scale != 1:
        result["monic_conjugacy_scale"] = rat_str(scale)
    verdict = detect_exceptional(ds)
    result["exceptional"] = {
        "kind": verdict.kind, "over_extension": verdict.over_extension}
    if args.alpha is not None:
        alpha = rat(args.alpha)
        outcome = classify_orbit(ds, alpha)
        if isinstance(outcome, Preperiodic):
            result["orbit"] = {"type": "preperiodic",
                               "preperiod": outcome.preperiod,
                               "period": outcome.period}
        else:
            result["orbit"] = {"type": "wandering",
                               "place": outcome.place.to_json()}
            search = find_place_of_good_reduction_escape(ds, alpha)
            result["good_reduction_escape"] = search.to_json()
    return result


def cmd_boettcher(args, settings: Settings) -> dict:
    from .boettcher import phi_series, psi_series
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    order = args.order if args.order is not None else settings.series_order
    block = phi_series(ds, order) if args.phi else psi_series(ds, order)
    label = "phi (series in 1/X)" if args.phi else "psi (series in X)"
    coeffs = []
    top = (block.trunc - 1) if block.trunc is not None else block.top
    start = block.low if block.coeffs else 0
    for e in range(min(start, -1 if not args.phi else 1), top + 1):
        coeffs.append({"exp": e, "coeff": rat_str(block.coefficient(e))})
    return {"series": label, "order": order, "coefficients": coeffs}


def cmd_green_trace(args, settings: Settings):
    from .green import equipotential_trace
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    n_points = args.n if args.n is not None else settings.trace_points
    curve = equipotential_trace(ds, rat(args.r), n_points, rat(args.tol))
    fmt, path = _resolve_out(args.out)
    if fmt == "csv":
        lines = ["theta,re,im,g_residual"]
        for pt in curve.points:
            lines.append(f"{pt.theta:.17g},{float(pt.point.re_mid):.17g},"
                         f"{float(pt.point.im_mid):.17g},{pt.g_residual:.6g}")
        text = "\n".join(lines) + "\n"
    elif fmt == "svg":
        text = _trace_svg(ds, curve)
    else:
        points = [{"theta": f"{pt.theta:.17g}", "point": ball_json(pt.point),
                   "g_residual": f"{pt.g_residual:.6g}", "sheet": pt.sheet}
                  for pt in curve.points]
        text = _json_text({"r": rat_str(curve.r), "closed": curve.closed,
                           "dropped": curve.dropped, "points": points})
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        emit({"written": path, "points": len(curve.points),
              "dropped": curve.dropped})
    else:
        sys.stdout.write(text)
    return None


def _resolve_out(out: str | None) -> tuple[str, str | None]:
    if out in (None, "json"):
        return "json", None
    if out in ("csv", "svg"):
        return out, None
    if out.endswith(".csv"):
        return "csv", out
    if out.endswith(".svg"):
        return "svg", out
    return "json", out


def _trace_svg(ds: PolyDS, curve) -> str:
    r_esc = float(ds.escape_radius) + 1.0
    size = 640
    scale = size / (2 * r_esc)

    def sx(v: float) -> float:
        return (v + r_esc) * scale

    def sy(v: float) -> float:
        return (r_esc - v) * scale

    groups: dict[int, list] = {}
    for pt in curve.points:
        groups.setdefault(pt.sheet, []).append(pt)
    polylines = []
    for sheet in sorted(groups):
        pts = " ".join(f"{sx(float(p.point.re_mid)):.3f},{sy(float(p.point.im_mid)):.3f}"
                       for p in groups[sheet])
        polylines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1" points="{pts}"/>')
    body = "\n".join(polylines)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {size} {size}">\n{body}\n</svg>\n')


def cmd_padic_polygon(args, settings: Settings) -> dict:
    from .padic import (PadicSeries, count_zeros_from_polygon,
                        count_zeros_pj, kappa, newton_polygon, sup_norm,
                        zeros_by_slope)
    p = args.p
    terms = [(n, rat(c)) for n, c in _parse_terms(args.series, "a series", 1)]
    series = PadicSeries.from_coeffs(p, terms, settings.padic_digits)
    poly = newton_polygon(series)
    result = {
        "p": p,
        "vertices": [[n, rat_str(v)] for n, v in poly.vertices],
        "roots_by_valuation": [
            {"valuation": rat_str(v), "count": c}
            for v, c in zeros_by_slope(poly)],
    }
    if args.pj:
        r1, r = rat(args.r1), rat(args.r)
        n_identity = count_zeros_pj(series, r1, r)
        n_slopes = count_zeros_from_polygon(series, r1, r)
        sup_r = sup_norm(series, r)
        k1 = kappa(series, r1)
        result["poisson_jensen"] = {
            "r1": rat_str(r1), "r": rat_str(r),
            "kappa_r1": k1,
            "log_a_kappa_logp": rat_str(Fraction(-dict(series.terms)[k1].valuation)),
            "sup_logp": rat_str(sup_r),
            "count_logp": rat_str(n_identity),
            "count_from_slopes_logp": rat_str(n_slopes),
            "identity_residual": rat_str(n_identity - n_slopes),
        }
    return result


def cmd_orbit_small(args, settings: Settings) -> dict:
    from .orbits import small_orbit_level
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    lvl = small_orbit_level(ds, rat(args.alpha), args.level)
    return _level_json(lvl)


def cmd_orbit_grand(args, settings: Settings) -> dict:
    from .orbits import grand_orbit_points
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    lvl = grand_orbit_points(ds, rat(args.alpha), args.n, args.m)
    return _level_json(lvl)


def _level_json(lvl) -> dict:
    return {
        "level": lvl.level,
        "source_iterate": lvl.source_iterate,
        "target": rat_str(lvl.target),
        "root_count_with_multiplicity": lvl.root_count(),
        "rational_roots": [{"root": rat_str(r), "multiplicity": m}
                           for r, m in lvl.rational_roots],
        "algebraic_factors": [
            {"factor": batch.factor.to_json(),
             "multiplicity": batch.multiplicity,
             "roots": [ball_json(b) for b in batch.roots]}
            for batch in lvl.algebraic],
    }


def cmd_orbit_height(args, settings: Settings) -> dict:
    from .orbits import canonical_height
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    tol = rat(args.tol) if args.tol is not None else settings.tolerance
    alpha = rat(args.alpha)
    h = canonical_height(ds, alpha, tol)
    return {"alpha": rat_str(alpha), "method": h.method,
            "tol": rat_str(tol),
            "value": ball_json(h.value),
            "contains_zero": h.contains_zero()}


def _verdict_json(verdict) -> dict:
    from .curves import (NotSpecialUpTo, SpecialDiagonal, SpecialHorizontal,
                         SpecialVertical)
    if isinstance(verdict, SpecialDiagonal):
        return {"verdict": "special-diagonal", "level": verdict.level}
    if isinstance(verdict, (SpecialVertical, SpecialHorizontal)):
        axis = "vertical" if isinstance(verdict, SpecialVertical) else "horizontal"
        return {"verdict": f"special-{axis}",
                "beta": rat_str(verdict.beta) if verdict.beta is not None else None,
                "factor": verdict.factor.to_json(), "level": verdict.level}
    assert isinstance(verdict, NotSpecialUpTo)
    return {"verdict": "not-special", "nmax": verdict.nmax}


def cmd_curve_special(args, settings: Settings) -> dict:
    from .curves import is_special_curve
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    curve = parse_curve(args.curve)
    return _verdict_json(is_special_curve(curve, ds, rat(args.alpha), args.nmax))


def cmd_curve_intersect(args, settings: Settings) -> dict:
    from .curves import intersect_small_orbit
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    curve = parse_curve(args.curve)
    report = intersect_small_orbit(curve, ds, rat(args.alpha), args.cap,
                                   nmax=args.nmax)
    def ref_json(ref):
        return {"value": rat_str(ref.value) if ref.exact else None,
                "factor": ref.factor.to_json() if ref.factor else None,
                "ball": ball_json(ref.ball), "level": ref.level}
    return {
        "classification": _verdict_json(report.verdict),
        "count": report.count(),
        "bezout_bound": report.bezout_bound,
        "exceeds_bezout": report.exceeds_bezout,
        "undecided": len(report.undecided),
        "preperiodic_warning": report.preperiodic_warning,
        "levels_hit": sorted(report.levels_hit()),
        "points": [{"x": ref_json(pt.x), "y": ref_json(pt.y),
                    "certainty": pt.certainty} for pt in report.points],
    }


def cmd_curve_nu(args, settings: Settings) -> dict:
    from .curves import build_nu, nu_estimates
    from .padic import PadicScalar, teichmuller
    ds, _ = normalize_monic(parse_poly(args.poly), settings)
    curve = parse_curve(args.curve)
    p = args.p

    def parse_zeta(text: str) -> PadicScalar:
        if text in ("1", "+1"):
            return PadicScalar.from_unit(p, 1, 0, settings.padic_digits)
        if text == "-1":
            return PadicScalar.from_unit(p, p ** settings.padic_digits - 1, 0,
                                         settings.padic_digits)
        if text.startswith("teich:"):
            try:
                residue = int(text.split(":", 1)[1])
            except ValueError:
                residue = None
            if residue is not None:
                return teichmuller(p, residue, settings.padic_digits)
        raise DomainError(f"unknown zeta argument {text!r}; use 1, -1, teich:<c>")

    nu = build_nu(curve, ds, p, rat(args.phi), parse_zeta(args.zeta1),
                  parse_zeta(args.zeta2), args.k1, args.k2, args.window)
    ledger = nu_estimates(nu)
    return {
        "p": p, "k1": args.k1, "k2": args.k2, "window": args.window,
        "phi_valuation": nu.phi.valuation,
        "terms": [{"exp": k, "valuation": s.valuation}
                  for k, s in nu.series.terms],
        "dropped_exponents": list(nu.dropped),
        "ledger": {
            "sup_logp_at_1": rat_str(ledger.sup1_logp),
            "kappa_at_1": ledger.kappa1,
            "lemma_lhs": rat_str(ledger.lemma_lhs),
            "lemma_rhs": rat_str(ledger.lemma_rhs),
            "lemma_holds": ledger.lemma_holds,
            "sup_leq_one": ledger.sup_leq_one,
            "pj_radius_logp": rat_str(ledger.t_used),
            "pj_count_logp": rat_str(ledger.pj_count_logp),
            "unit_circle_zero_bound": rat_str(ledger.zero_bound),
            "c1_instance": rat_str(ledger.c1_instance),
            "bound12": rat_str(ledger.bound12),
        },
    }


def cmd_combinat_verify(args, settings: Settings) -> dict:
    from .combinat import LatticeCoset, admissible_cosets
    import random
    nmax = args.nmax
    lemma = args.lemma
    rng = random.Random(20240917)
    rows = []
    checked = 0
    worst = None
    cs = [Fraction(3, 4), Fraction(1)]
    for S in admissible_cosets(17, min(nmax, 60)):
        checked += 1
        ok, detail = _lemma_case(lemma, S, cs)
        if not ok:
            rows.append(detail)
        elif worst is None or detail.get("margin", 1) < worst.get("margin", 1):
            worst = detail
    extra = 0
    while nmax > 60 and extra < 500:
        N = rng.randrange(61, nmax + 1)
        S = LatticeCoset(rng.randrange(N), rng.randrange(N), N)
        if S.gcd_with_n != 1:
            continue
        extra += 1
        checked += 1
        ok, detail = _lemma_case(lemma, S, cs)
        if not ok:
            rows.append(detail)
    return {"lemma": lemma, "cases": checked, "violations": len(rows),
            "failures": rows[:20], "worst_case": worst, "pass": not rows}


def _lemma_case(lemma: str, S, cs):
    from .combinat import (coset_points_in_box, decompose_root_pair,
                           e_branch_holds, find_primitive_decomposition)
    a, N = [S.a1, S.a2], S.N
    if lemma == "box1":
        for c in cs:
            res = coset_points_in_box(S, c, max_witnesses=0)
            if not res.bound_ok:
                return False, {"a": a, "N": N, "c": str(c), "count": res.count}
        return True, {"a": a, "N": N,
                      "margin": res.count / max(1.0, N ** (2 * float(cs[-1]) - 1) / 4)}
    if lemma == "boom":
        for c in cs:
            w = find_primitive_decomposition(S, Fraction(2), c)
            if not (w.kinf_exceeds_C or e_branch_holds(w.e, Fraction(2), N, c,
                                                       Fraction(8))):
                return False, {"a": a, "N": N, "c": str(c), "e": w.e}
        return True, {"a": a, "N": N, "margin": float(w.c1_required)}
    if lemma == "rootsof1":
        for c in cs:
            d = decompose_root_pair(S.a1, S.a2, N, Fraction(2), c)
            if not d.verify(S.a1, S.a2, N):
                return False, {"a": a, "N": N, "c": str(c)}
        return True, {"a": a, "N": N, "margin": float(d.c1_required)}
    raise OrbitforgeError(f"unknown lemma {lemma!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitforge",
        description="Exact and certified computations for monic polynomial "
                    "dynamics over Q.")
    ap.add_argument("--config", help="key=value settings file")
    ap.add_argument("--manifest", help="write the run manifest JSON here "
                                       "(default: stderr)")
    sub = ap.add_subparsers(dest="command", required=True)

    dyn = sub.add_parser("dynamics", help="dynamical-system queries")
    dyn_sub = dyn.add_subparsers(dest="subcommand", required=True)
    cls = dyn_sub.add_parser("classify", help="exceptional/orbit classification")
    cls.add_argument("--poly", required=True,
                     help='JSON array of "num/den", constant term first')
    cls.add_argument("--alpha", help="rational point to classify")
    cls.set_defaults(handler=cmd_dynamics_classify)

    boe = sub.add_parser("boettcher", help="Boettcher series coefficients")
    boe.add_argument("--poly", required=True)
    boe.add_argument("--order", type=int, default=None)
    boe.add_argument("--phi", action="store_true",
                     help="emit the inverse coordinate instead of psi")
    boe.set_defaults(handler=cmd_boettcher)

    grn = sub.add_parser("green", help="Green function tools")
    grn_sub = grn.add_subparsers(dest="subcommand", required=True)
    tr = grn_sub.add_parser("trace", help="sample an equipotential curve")
    tr.add_argument("--poly", required=True)
    tr.add_argument("--r", required=True, help="potential level (rational)")
    tr.add_argument("--n", type=int, default=None)
    tr.add_argument("--tol", default="1/100000000")
    tr.add_argument("--out", help="csv | svg | json | <path>.csv | <path>.svg "
                                  "| <path> (JSON)")
    tr.set_defaults(handler=cmd_green_trace)

    pad = sub.add_parser("padic", help="p-adic series tools")
    pad_sub = pad.add_subparsers(dest="subcommand", required=True)
    pol = pad_sub.add_parser("polygon", help="Newton polygon and zero counts")
    pol.add_argument("--p", type=int, required=True)
    pol.add_argument("--series", required=True,
                     help='JSON [[exp, "num/den"], ...]')
    pol.add_argument("--pj", action="store_true",
                     help="also print the Poisson-Jensen identity ledger")
    pol.add_argument("--r1", help="inner radius (exact power of p)")
    pol.add_argument("--r", help="outer radius (exact power of p)")
    pol.set_defaults(handler=cmd_padic_polygon)

    orb = sub.add_parser("orbit", help="orbit level sets and heights")
    orb_sub = orb.add_subparsers(dest="subcommand", required=True)
    sml = orb_sub.add_parser("small", help="level set of the small orbit")
    sml.add_argument("--poly", required=True)
    sml.add_argument("--alpha", required=True)
    sml.add_argument("--level", type=int, required=True)
    sml.set_defaults(handler=cmd_orbit_small)
    grd = orb_sub.add_parser("grand", help="grand-orbit points f^n(X)=f^m(a)")
    grd.add_argument("--poly", required=True)
    grd.add_argument("--alpha", required=True)
    grd.add_argument("--n", type=int, required=True)
    grd.add_argument("--m", type=int, required=True)
    grd.set_defaults(handler=cmd_orbit_grand)
    hgt = orb_sub.add_parser("height", help="canonical height")
    hgt.add_argument("--poly", required=True)
    hgt.add_argument("--alpha", required=True)
    hgt.add_argument("--tol", default=None)
    hgt.set_defaults(handler=cmd_orbit_height)

    crv = sub.add_parser("curve", help="plane curves against orbits")
    crv_sub = crv.add_subparsers(dest="subcommand", required=True)
    spc = crv_sub.add_parser("special", help="special-curve classification")
    for flag in ("--poly", "--curve", "--alpha"):
        spc.add_argument(flag, required=True)
    spc.add_argument("--nmax", type=int, default=4)
    spc.set_defaults(handler=cmd_curve_special)
    its = crv_sub.add_parser("intersect", help="intersections with level sets")
    for flag in ("--poly", "--curve", "--alpha"):
        its.add_argument(flag, required=True)
    its.add_argument("--cap", type=int, default=3)
    its.add_argument("--nmax", type=int, default=None)
    its.set_defaults(handler=cmd_curve_intersect)
    nuc = crv_sub.add_parser("nu", help="p-adic pullback series ledger")
    for flag in ("--poly", "--curve"):
        nuc.add_argument(flag, required=True)
    nuc.add_argument("--p", type=int, required=True)
    nuc.add_argument("--phi", required=True, help="rational with |phi|_p < 1")
    nuc.add_argument("--k1", type=int, required=True)
    nuc.add_argument("--k2", type=int, required=True)
    nuc.add_argument("--window", type=int, default=40)
    nuc.add_argument("--zeta1", default="1", help="1 | -1 | teich:<c>")
    nuc.add_argument("--zeta2", default="1")
    nuc.set_defaults(handler=cmd_curve_nu)

    cmb = sub.add_parser("combinat", help="lattice-coset lemma sweeps")
    cmb_sub = cmb.add_subparsers(dest="subcommand", required=True)
    ver = cmb_sub.add_parser("verify", help="exhaustive + random verification")
    ver.add_argument("--lemma", required=True,
                     choices=["box1", "boom", "rootsof1"])
    ver.add_argument("--nmax", type=int, default=60)
    ver.set_defaults(handler=cmd_combinat_verify)

    return ap


def _run(args, settings: Settings, argv, started: float) -> int:
    """Run the chosen handler, emit its result and write the manifest."""
    manifest = RunManifest(
        tool="orbitforge",
        version=__version__,
        argv=[a for a in (argv if argv is not None else sys.argv[1:])],
        settings={key: rat_str(val) if isinstance(val, Fraction) else val
                  for key, val in asdict(settings).items()},
    )
    try:
        result = args.handler(args, settings)
        if result is not None:
            emit(result)
        code = 0
        if args.command == "combinat" and result and not result.get("pass", True):
            code = 1
    except OrbitforgeError as exc:
        emit({"error": {"code": exc.code, "message": str(exc)}})
        code = 1
    manifest.wall_time_s = round(time.monotonic() - started, 3)
    manifest_text = json.dumps(asdict(manifest), sort_keys=True)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest_text + "\n")
    else:
        print(manifest_text, file=sys.stderr)
    return code


def _writable(path: str) -> bool:
    """Whether ``open(path, "w")`` can succeed: an existing writable file,
    or a new name in an existing writable directory."""
    if os.path.exists(path):
        return os.path.isfile(path) and os.access(path, os.W_OK)
    folder = os.path.dirname(path) or "."
    return os.path.isdir(folder) and os.access(folder, os.W_OK)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "pj", False) and (args.r1 is None or args.r is None):
        parser.error("--pj requires --r1 and --r")
    if args.command == "combinat" and args.nmax < 17:
        parser.error("--nmax must be >= 17: the lemmas are stated for N >= 17")
    # checked before the handler runs, so a long run is not lost at the end
    for flag, path in (("--manifest", args.manifest),
                       ("--out", _resolve_out(getattr(args, "out", None))[1])):
        if path is not None and not _writable(path):
            parser.error(f"{flag}: cannot write to {path}")
    settings = DEFAULTS
    if args.config:
        try:
            settings = load_settings(args.config)
        except (OSError, ValueError, ZeroDivisionError) as exc:
            parser.error(f"--config: {exc}")
    with mpmath.workprec(max(64, settings.precision_bits)):
        return _run(args, settings, argv, started)


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
