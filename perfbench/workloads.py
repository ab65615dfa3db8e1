"""Seeded query lists for the four benchmark workloads.

Every input is generated here from the seed; the library only receives the
generated objects.  A query is a ``Query(kind, run, check)``: ``run()`` calls
the library and is timed, ``check(result)`` verifies the answer afterwards and
is not timed.  ``check`` returns None when the answer is good, ``"wrong"``
when it is incorrect, or another short status (``"undecided"``,
``"dropped"``) when the library gave no complete answer.

Library functions are always looked up through their module at call time
(``orbits.canonical_height``), so the traced run sees every call.

The mix of each workload is stratified: the number of queries of each kind,
degree, order and level is fixed, and the seed only draws the values inside
each stratum.  That keeps the cost of a query list nearly the same from one
seed to the next, so different seeds can be compared.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from typing import Any, Callable, Optional

from orbitforge import (ball, boettcher, cli, combinat, curves, dynamics,
                        exact, green, orbits, padic)

# The README command each workload also runs, in-process and as a cold
# ``python -m orbitforge.cli`` subprocess.
CLI_COMMANDS = {
    "potential": ["orbit", "height", "--poly", "[-1,0,1]", "--alpha", "1/3",
                  "--tol", "1/10000000000"],
    "series": ["boettcher", "--poly", "[-1,0,1]", "--order", "40", "--phi"],
    "intersect": ["curve", "intersect", "--poly", "[-1,0,1]",
                  "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--alpha", "1/3",
                  "--cap", "3"],
    "lattice": ["combinat", "verify", "--lemma", "box1", "--nmax", "18"],
}


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _ok(flag: bool) -> Optional[str]:
    return None if flag else "wrong"


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``orbitforge.cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_query(workload: str) -> Query:
    argv = CLI_COMMANDS[workload]
    return Query("cli", lambda: _run_cli(argv),
                 lambda r: _ok(r[0] == 0 and r[1] != ""))


# ---------------------------------------------------------------------------
# potential: canonical heights, Green values and short traces
# ---------------------------------------------------------------------------

def _ds(coeffs) -> dynamics.PolyDS:
    return dynamics.PolyDS(exact.Poly(coeffs))


def _bounded_quadratic(rng: random.Random) -> tuple[dynamics.PolyDS, float]:
    """X^2 + c with c in [-2, 1/4] (c != 0) and beta, the fixed point bounding
    the invariant real interval [-beta, beta] of the filled Julia set."""
    c = F(rng.choice([k for k in range(-8, 2) if k != 0]), 4)
    beta = (1 + math.sqrt(1 - 4 * float(c))) / 2
    return _ds([c, 0, 1]), beta


def _escaping_map(rng: random.Random, d: int) -> dynamics.PolyDS:
    """Monic degree-d map whose coefficients are small rationals, some of them
    non-integral, so that bad primes exercise the p-adic local heights."""
    coeffs = [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(d)]
    return _ds(coeffs + [1])


def _height_pair(ds: dynamics.PolyDS, alpha: F, tol: F) -> Query:
    def run():
        return (orbits.canonical_height(ds, alpha, tol),
                orbits.canonical_height(ds, ds.apply(alpha), tol))

    def check(pair):
        h_a, h_f = pair
        # hhat(f(a)) = d * hhat(a): the difference of the two balls holds 0
        diff = h_f.value - h_a.value * ball.CBall.exact_int(ds.d)
        within = all(float(h.value.rad) <= float(tol) * (1 + 1e-9)
                     for h in (h_a, h_f))
        return _ok(diff.contains_zero() and within)
    return Query("height", run, check)


def _model_green(z: complex, tol: F) -> Query:
    sq = _ds([0, 0, 1])

    def check(g):
        want = max(0.0, math.log(abs(z)))
        return _ok(abs(float(g.value.re_mid) - want) <= 1e-10)
    return Query("green_model",
                 lambda: green.green_eval(sq, ball.CBall.from_complex(z), tol),
                 check)


def _functional(ds: dynamics.PolyDS, z: complex) -> Query:
    return Query("green_functional",
                 lambda: green.green_functional_check(ds, ball.CBall.from_complex(z)),
                 lambda res: _ok(res.contains_zero()))


def _trace(ds: dynamics.PolyDS, r: F, n_points: int, tol: F) -> Query:
    def check(curve):
        if any(not pt.g_residual <= float(tol) for pt in curve.points):
            return "wrong"
        return "dropped" if curve.dropped or len(curve.points) < n_points else None
    return Query("trace",
                 lambda: green.equipotential_trace(ds, r, n_points, tol),
                 check)


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    """A point with modulus log-uniform in [lo, hi] and a uniform argument."""
    rad = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    theta = rng.uniform(0, 2 * math.pi)
    return complex(rad * math.cos(theta), rad * math.sin(theta))


def potential(rng: random.Random) -> list[Query]:
    tol = F(1, 10**10)
    queries: list[Query] = []
    # bounded archimedean orbits: green_eval runs its whole step budget
    for _ in range(12):
        ds, beta = _bounded_quadratic(rng)
        top = int(beta * 950)
        queries.append(_height_pair(ds, F(rng.randint(-top, top), 1000), tol))
    # escaping points: |alpha| beyond the escape radius R = 1 + sum |a_i|
    escaping = []
    for i in range(60):
        ds = _escaping_map(rng, 2 + i % 3)
        escaping.append(ds)
        alpha = ds.escape_radius + F(rng.randint(1, 30), 10)
        queries.append(_height_pair(ds, alpha * rng.choice([1, -1]), tol))
    # the model case g_{X^2} = log+|z|, outside and inside the unit disc
    for _ in range(16):
        queries.append(_model_green(_polar(rng, 1.1, 10.0), F(1, 10**11)))
    for _ in range(4):
        queries.append(_model_green(_polar(rng, 0.1, 0.9), F(1, 10**11)))
    # g(f(z)) - d g(z) contains 0: escaping points, then bounded real points
    for ds in escaping[:14]:
        rad = float(ds.escape_radius)
        queries.append(_functional(ds, _polar(rng, rad + 0.1, 2 * rad)))
    for _ in range(2):
        ds, beta = _bounded_quadratic(rng)
        queries.append(_functional(ds, complex(rng.uniform(-0.9, 0.9) * beta, 0)))
    # short equipotential traces of a fixed set of maps at both levels, so
    # every seed runs the same traces; each reads one cached Psi many times.
    # X^2 + 1/4 (parabolic) at r = 1 raises PrecisionError: a known failure
    # that every run counts, rather than only the seeds that happen to draw it
    for c in (F(1, 4), F(-1), F(-3, 4), F(1, 2)):
        for r in (F(1), F(2)):
            queries.append(_trace(_ds([c, 0, 1]), r, 8, F(1, 10**8)))
    rng.shuffle(queries)
    return queries + [_cli_query("potential")]


# ---------------------------------------------------------------------------
# series: Boettcher series, residuals, nu ledgers, Poisson-Jensen pairs
# ---------------------------------------------------------------------------

_NU_EXPONENTS = [(1, -1), (2, -1), (3, -2), (2, 1), (3, 1)]


def _nu_curve(rng: random.Random) -> curves.PlaneCurve:
    if rng.random() < 0.5:
        terms = {(1, 0): rng.randint(1, 3), (0, 1): -rng.randint(1, 3),
                 (0, 0): rng.randint(-3, 3)}
    else:
        terms = {(2, 0): 1, (0, 1): rng.choice([1, -1]), (0, 0): rng.randint(-3, 3)}
    return curves.PlaneCurve.from_terms(terms)


def _nu_query(ds: dynamics.PolyDS, curve: curves.PlaneCurve, p: int, i: int,
              rng: random.Random) -> Query:
    """The i-th nu ledger: window, exponents and |phi| cycle with i, so the
    mix of costs is the same for every seed."""
    units = [padic.PadicScalar.from_unit(p, 1),
             padic.PadicScalar.from_unit(p, p**64 - 1),
             padic.teichmuller(p, 2)]
    zeta1, zeta2 = rng.choice(units), rng.choice(units)
    k1, k2 = _NU_EXPONENTS[i % len(_NU_EXPONENTS)]
    phi = F(p) if i % 2 else F(p * p)
    window = 8 + i % 9

    def run():
        nu = curves.build_nu(curve, ds, p, phi, zeta1, zeta2, k1, k2, window)
        return curves.nu_estimates(nu)
    return Query("nu", run, lambda led: _ok(led.lemma_holds and led.sup_leq_one))


def _pj_query(rng: random.Random) -> Query:
    p = rng.choice([2, 3, 5, 7])
    deg = rng.randint(1, 8)
    lead = rng.choice([-1, 1]) * rng.randint(1, 50)
    coeffs = [F(rng.randint(-50, 50)) for _ in range(deg)] + [F(lead)]
    t1 = F(rng.randint(-3, 1))
    t = t1 + rng.randint(1, 3)

    def run():
        g = padic.PadicSeries.from_polynomial(coeffs, p)
        r1, r = padic.Radius.ppow(t1), padic.Radius.ppow(t)
        return (padic.count_zeros_pj(g, r1, r),
                padic.count_zeros_from_polygon(g, r1, r))
    return Query("pj", run, lambda pair: _ok(pair[0] - pair[1] == 0))


def _series_queries(ds: dynamics.PolyDS, order: int) -> list[Query]:
    """Psi and Phi of a new map, then their three residuals, exactly zero."""
    def series_ok(pair):
        psi, phi = pair
        return _ok(psi.coefficient(-1) == 1 and phi.coefficient(1) == 1)

    def residuals():
        return (boettcher.psi_equation_residual(ds, order),
                boettcher.phi_equation_residual(ds, order),
                boettcher.phi_psi_identity_residual(ds, order))
    return [
        Query("series", lambda: (boettcher.psi_series(ds, order),
                                 boettcher.phi_series(ds, order)), series_ok),
        Query("residuals", residuals,
              lambda res: _ok(all(r.known_is_zero() for r in res))),
    ]


def series(rng: random.Random) -> list[Query]:
    blocks: list[list[Query]] = []
    maps: list[dynamics.PolyDS] = []
    seen: set = set()
    # distinct maps, so every series is new; degrees cycle through 2, 3, 4
    # inside each order.  The order-32 maps are the p90 tail.
    orders = [16] * 6 + [24] * 4 + [32] * 8
    for i, order in enumerate(orders):
        d = (2, 3, 4)[i % 3]
        while True:
            coeffs = tuple(rng.randint(-5, 5) for _ in range(d)) + (1,)
            if coeffs not in seen:
                seen.add(coeffs)
                break
        ds = _ds(coeffs)
        maps.append(ds)
        blocks.append(_series_queries(ds, order))
    # nu ledgers over Q3/Q5 (p must not divide d; integer maps have good
    # reduction everywhere); they hold the p50
    for i in range(45):
        ds = maps[i % len(maps)]
        p = 5 if ds.d == 3 else rng.choice([3, 5])
        blocks.append([_nu_query(ds, _nu_curve(rng), p, i, rng)])
    for _ in range(25):
        blocks.append([_pj_query(rng)])
    rng.shuffle(blocks)
    return [q for block in blocks for q in block] + [_cli_query("series")]


# ---------------------------------------------------------------------------
# intersect: curves against small orbits, orbit level sets
# ---------------------------------------------------------------------------

_SYSTEMS = ([-1, 0, 1], [-2, 0, 1])


def _non_preperiodic_alpha(rng: random.Random) -> F:
    """A rational with denominator >= 2: never preperiodic for X^2 - 1 or
    X^2 - 2, whose rational preperiodic points are integers."""
    while True:
        a, b = rng.randint(1, 9), rng.randint(2, 9)
        if gcd(a, b) == 1:
            return F(a * rng.choice([1, -1]), b)


def _random_curve(rng: random.Random, ds: dynamics.PolyDS, alpha: F,
                  conic: bool) -> curves.PlaneCurve:
    """An irreducible line or conic that is not special up to level 4."""
    while True:
        if conic:
            terms = {(2, 0): rng.randint(1, 3), (0, 2): rng.randint(-3, 3),
                     (1, 1): rng.randint(-2, 2), (1, 0): rng.randint(-3, 3),
                     (0, 1): rng.randint(1, 3), (0, 0): rng.randint(-5, 5)}
        else:
            terms = {(1, 0): rng.randint(1, 5), (0, 1): rng.randint(1, 5),
                     (0, 0): rng.randint(-6, 6)}
        curve = curves.PlaneCurve.from_bipoly(exact.BiPoly(terms))
        if (curve.irreducible_q and curve.poly.deg_x > 0 and curve.poly.deg_y > 0
                and isinstance(curves.is_special_curve(curve, ds, alpha, 4),
                               curves.NotSpecialUpTo)):
            return curve


def _on_level(ds: dynamics.PolyDS, ref, target: F) -> bool:
    """f^level(root) = target: exactly for a rational root, else the image of
    the root's ball contains the target."""
    fn = ds.iterate(ref.level)
    if ref.exact:
        return fn(ref.value) == target
    return ball.eval_poly_ball(fn, ref.ball).contains_value(target)


def _intersect_query(curve: curves.PlaneCurve, ds: dynamics.PolyDS, alpha: F,
                     cap: int) -> Query:
    def check(rep):
        if rep.exceeds_bezout or rep.count() > curve.poly.total_degree * ds.d ** cap:
            return "wrong"
        for pt in rep.points:
            for ref in (pt.x, pt.y):
                if not _on_level(ds, ref, ds.iterate(ref.level)(alpha)):
                    return "wrong"
        return "undecided" if rep.undecided else None
    return Query(f"intersect_cap{cap}",
                 lambda: curves.intersect_small_orbit(curve, ds, alpha, cap, nmax=4),
                 check)


def _level_query(ds: dynamics.PolyDS, alpha: F, n: int, m: int) -> Query:
    def check(lvl):
        fn = ds.iterate(n)
        if lvl.root_count() != ds.d ** n:
            return "wrong"
        if any(fn(r) != lvl.target for r, _mult in lvl.rational_roots):
            return "wrong"
        return _ok(all(ball.eval_poly_ball(fn, b).contains_value(lvl.target)
                       for batch in lvl.algebraic for b in batch.roots))

    def run():
        if n == m:
            return orbits.small_orbit_level(ds, alpha, n)
        return orbits.grand_orbit_points(ds, alpha, n, m)
    return Query(f"level{n}", run, check)


def intersect(rng: random.Random) -> list[Query]:
    queries: list[Query] = []
    systems = [_ds(c) for c in _SYSTEMS]
    # cap 3: lines (the p50) and conics; cap 4 (the p90 tail): lines only
    # The cap-4 cost depends mostly on how the level sets of alpha factor, so
    # those queries share alpha = 1/3 and only their lines are seeded.
    for i, (cap, conic) in enumerate([(3, False)] * 12 + [(3, True)] * 4
                                     + [(4, False)] * 5):
        ds = systems[i % 2]
        alpha = _non_preperiodic_alpha(rng) if cap == 3 else F(1, 3)
        queries.append(_intersect_query(_random_curve(rng, ds, alpha, conic),
                                        ds, alpha, cap))
    # small-orbit levels f^n(X) = f^n(alpha), grand-orbit f^n(X) = f^(n-1)(alpha)
    for n, repeats in ((2, 2), (3, 1)):
        for ds in systems * repeats:
            queries.append(_level_query(ds, _non_preperiodic_alpha(rng), n, n))
            queries.append(_level_query(ds, _non_preperiodic_alpha(rng), n, n - 1))
    queries.append(_level_query(systems[0], _non_preperiodic_alpha(rng), 4, 4))
    queries.append(_level_query(systems[1], _non_preperiodic_alpha(rng), 4, 3))
    rng.shuffle(queries)
    return queries + [_cli_query("intersect")]


# ---------------------------------------------------------------------------
# lattice: box counts over an exhaustive sweep and random cosets
# ---------------------------------------------------------------------------

_CS = (F(3, 4), F(1))
# The exhaustive sweep covers every admissible a for each N of this range; it
# is the same for every seed (only its order is seeded), so its cost is too.
_SWEEP_N = range(37, 43)


def _admissible(N: int) -> list[tuple[int, int]]:
    return [(a1, a2) for a1 in range(N) for a2 in range(N)
            if gcd(gcd(a1, a2), N) == 1]


def _independent_count(a1: int, a2: int, N: int, c: F) -> int:
    """|{x in the box : a1*x2 = a2*x1 mod N}|, which equals |S_a cap B| when
    gcd(a1, a2, N) = 1 (both are the kernel of x -> a1 x2 - a2 x1)."""
    limit = combinat.floor_pow(N, c)
    span = range(-limit, limit + 1)
    return sum(1 for x1 in span for x2 in span if (a1 * x2 - a2 * x1) % N == 0)


def _box_query(a1: int, a2: int, N: int, kind: str, recount: bool) -> Query:
    S = combinat.LatticeCoset(a1, a2, N)

    def check(counts):
        if not all(bc.bound_ok for bc in counts):
            return "wrong"
        if recount:
            return _ok(all(bc.count == _independent_count(a1, a2, N, c)
                           for bc, c in zip(counts, _CS)))
        return None
    return Query(kind,
                 lambda: [combinat.coset_points_in_box(S, c, max_witnesses=0)
                          for c in _CS],
                 check)


def _decomposition_query(a1: int, a2: int, N: int, c: F) -> Query:
    S = combinat.LatticeCoset(a1, a2, N)

    def run():
        return (combinat.find_primitive_decomposition(S, F(2), c),
                combinat.decompose_root_pair(a1, a2, N, F(2), c))

    def check(pair):
        w, dec = pair
        limit = combinat.floor_pow(N, c)
        in_box = max(abs(w.e * w.k1), abs(w.e * w.k2)) <= limit
        return _ok(in_box and gcd(w.k1, w.k2) == 1 and dec.verify(a1, a2, N))
    return Query("decompose", run, check)


def _random_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int, int]:
    while True:
        N = rng.randrange(lo, hi + 1)
        a1, a2 = rng.randrange(N), rng.randrange(N)
        if gcd(gcd(a1, a2), N) == 1:
            return a1, a2, N


def lattice(rng: random.Random) -> list[Query]:
    queries = [_box_query(a1, a2, N, "sweep", rng.random() < 0.01)
               for N in _SWEEP_N for a1, a2 in _admissible(N)]
    # random cosets (the p90 tail) and decompositions
    for _ in range(1500):
        a1, a2, N = _random_pair(rng, 61, 200)
        queries.append(_box_query(a1, a2, N, "random", rng.random() < 0.01))
    for _ in range(300):
        a1, a2, N = _random_pair(rng, 17, 200)
        queries.append(_decomposition_query(a1, a2, N, rng.choice(_CS)))
    rng.shuffle(queries)
    return queries + [_cli_query("lattice")]


WORKLOADS = {
    "potential": potential,
    "series": series,
    "intersect": intersect,
    "lattice": lattice,
}


def build(workload: str, seed: int) -> list[Query]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
