"""Golden-value guard: raw Green and canonical-height enclosures keep every bit.

Each case hashes the midpoint and radius of the returned ball as mpf tuples
(sign, mantissa, exponent, bit count), so a change in rounding anywhere in
the ball layer shows, even when the printed digits do not move.  The digests
were recorded before the ball layer gained its real-axis path and prebuilt
coefficient balls.  Bounded orbits stop once their enclosure meets tol, so
their ``GREEN_DIGESTS`` are taken at a tol that runs the whole 256-step
budget, which keeps those bits; ``STOPPED_DIGESTS`` pin the same cases at
the default tol.  ``PSI_DIGESTS`` pin ``evaluate_psi`` at order 48, complex
points and Psi's large-denominator coefficients included, each against a
fixed Boettcher radius built from an exact rational, so that they do not
depend on how that radius is computed.  ``TRACE_DIGESTS`` pin whole
equipotential traces (every point's raw tuples, residual and sheet, and the
curve's ``dropped`` and ``closed``, or the error a trace raises), each on a
fresh map; the "reuse" case runs one map through Green values, escape steps
and traces at both precisions in turn, so a value kept on the map shows if
it is read back at the wrong precision.  ``python tests/test_green_golden.py``
prints the current digests.
"""

import hashlib
import sys
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpf

from orbitforge.ball import CBall, eval_poly_ball
from orbitforge.boettcher import evaluate_psi
from orbitforge.dynamics import PolyDS
from orbitforge.exact import Poly
from orbitforge.errors import DomainError, PrecisionError
from orbitforge.green import equipotential_trace, escape_step, green_eval
from orbitforge.orbits import canonical_height

DS1 = PolyDS(Poly([-1, 0, 1]))            # X^2 - 1
DS6 = PolyDS(Poly([-6, 0, 1]))            # X^2 - 6
CUBIC = PolyDS(Poly([1, -1, 0, 1]))       # X^3 - X + 1

# name -> (map, point); a tuple point is (re, im) rational, a complex one is
# read at the working precision
GREEN_CASES = {
    "bounded_real": (DS1, F(1, 3)),
    "escaping_real": (DS1, F(6)),
    "escaping_real_d6": (DS6, F(5, 2)),
    "complex": (DS1, 0.3 + 1.7j),
    "complex_bounded": (DS1, (F(1, 10), F(1, 10))),
    "complex_rational": (DS6, (F(1, 2), F(1, 7))),
    "cubic_real": (CUBIC, F(3, 2)),
    "cubic_bounded": (CUBIC, F(0)),
}
PRECISIONS = (64, 160)
BOUNDED = ("bounded_real", "complex_bounded", "cubic_bounded")
# below log(2R) / (2 d^256) for every map above: no early stop
FULL_BUDGET_TOL = F(1, 10**200)

HEIGHT_CASES = {
    "x2m1_1/3": (DS1, F(1, 3)),
    "x2m1_5/2": (DS1, F(5, 2)),
    "x2m6_7/3": (DS6, F(7, 3)),
    "cubic_1/2": (CUBIC, F(1, 2)),
}

# bounded orbits return the same one-sided bound whatever their path, so the
# ball orbits themselves are pinned too: 64 steps of f, every ball hashed
ORBIT_CASES = {
    "real": (DS1, (F(1, 3), F(0))),
    "complex": (DS1, (F(1, 10), F(1, 10))),
    "cubic": (CUBIC, (F(1, 2), F(-1, 3))),
}

# name -> (map, rational Boettcher radius R); every case starts at |x| =
# e^-1, the r = 1 trace level, which is k = 0 for each of these maps
PSI_CASES = {
    "x2p1/4": (PolyDS(Poly([F(1, 4), 0, 1])), F(1)),
    "x2m1": (DS1, F(1)),
    "x2m3/4": (PolyDS(Poly([F(-3, 4), 0, 1])), F(1)),
    "x2p1/2": (PolyDS(Poly([F(1, 2), 0, 1])), F(963, 1000)),
    "cubic": (CUBIC, F(916, 1000)),
}
PSI_ORDER = 48
PSI_ANGLES = (0.0, 0.125, 0.3)       # theta: x = e^-1 exp(2 pi i theta)

# name -> (coefficients, level r): the benchmark's four quadratic maps at
# r = 1 and 2 (k = 0) and at r = 1/5 (pulled back, k > 0), and a cubic; each
# trace takes 8 points at tol 1/10^8 on a fresh map
TRACE_CASES = {f"c={c}/r={r}": ([c, 0, 1], r)
               for c in (F(1, 4), F(-1), F(-3, 4), F(1, 2))
               for r in (F(1), F(2), F(1, 5))}
TRACE_CASES["cubic/r=1"] = ([1, -1, 0, 1], F(1))
TRACE_POINTS = 8
TRACE_TOL = F(1, 10**8)

GREEN_DIGESTS = {
    "bounded_real@64": "267fa0be7bcdc5dc36d0991d86fc6ce47d56de58ddcbf5e7c4fef625c21e5011",
    "bounded_real@160": "afe0eacb6c903d549114b8c2bca6c1e17be586293efc7355b9b72811e4b8dd4b",
    "complex@64": "fc0c0ef90670d6360d2d789f608dd4061558192ca28ec0f74e39a07cdeff6619",
    "complex@160": "1bd42232567d0af2c692bb82b94a3235e4088e23fa3b4b7e5d59f330d2ff271b",
    "complex_bounded@64": "267fa0be7bcdc5dc36d0991d86fc6ce47d56de58ddcbf5e7c4fef625c21e5011",
    "complex_bounded@160": "afe0eacb6c903d549114b8c2bca6c1e17be586293efc7355b9b72811e4b8dd4b",
    "complex_rational@64": "8493815eb8daed23e4523a5b73e04f909c05ec7df88b2c5cc2845500d7dd5781",
    "complex_rational@160": "190e89954d6df80549a9559b3060f434be6b51800fd3cca9563d0e6137fdae80",
    "cubic_bounded@64": "d303dcbe8e9f3e472077d6e5c4e0070f4f17cfaf3975e3e0addf56b7c214601a",
    "cubic_bounded@160": "6333004dbd4dea9ea6947ba658e010e63d687278a2cb37017d95177d738442be",
    "cubic_real@64": "45e80b3b16c895110f160332e50fe2b2a7fe3b150909668633fa601b884fde6c",
    "cubic_real@160": "27d0b577a908c30e37206e2a77106920e6d78f64ee88ec35bbafb693f28bebef",
    "escaping_real@64": "02b238aec9573186ef8500430b5d186775c4bc4549770fe8b6bb903c141130df",
    "escaping_real@160": "0116294eddda1111b4531355cbd987fd07b564667a10232540afc855489bc2cb",
    "escaping_real_d6@64": "097a38fff7b9436d3c268650b5b9caa83f0f74258210e10d9bfa22f93dd68bc5",
    "escaping_real_d6@160": "c73d0454fcc76f590f1bf60cf07362c8234c3c33c063dd76319c4c33115ff1b6",
}

STOPPED_DIGESTS = {
    "bounded_real@64": "6687e19499fe6cb9f623f5e3da16ec7177b4aa9722bb1c943b2c0e566a77b2e3",
    "bounded_real@160": "4102f3c88ad77b9418c360aae53ac53dec149cbc7bce5c47370e93946277542d",
    "complex_bounded@64": "6687e19499fe6cb9f623f5e3da16ec7177b4aa9722bb1c943b2c0e566a77b2e3",
    "complex_bounded@160": "4102f3c88ad77b9418c360aae53ac53dec149cbc7bce5c47370e93946277542d",
    "cubic_bounded@64": "23732d54ecc51e42916b5cfef5e1521631397d9a3435d6eafc5ff86ddc16678a",
    "cubic_bounded@160": "8263a12e077fbb69a71ea8d7ab1dc0f961445196d63adb94315f58ffa42fcd0a",
}

HEIGHT_DIGESTS = {
    "cubic_1/2": "e3112d7f9de76fe8fb5c227fd89033b25d67b9c690944945afeb1e5a85f801a1",
    "x2m1_1/3": "b1502f9e117c1a8e12a394abf79cc7034cac324edaf4fcfb373ccf61375b683d",
    "x2m1_5/2": "c3c47f4f1f029ee505be6e36613419c79fa4b0f1fbdfc602e82eb4a74f0404f9",
    "x2m6_7/3": "7e92f77e4834e5b10681984ae718293b38543c77f8c6d03f02084912f203a722",
}

ORBIT_DIGESTS = {
    "complex@64": "01261b0526090dc8bcb2956d83c614fc906ee6d034e32a7fdd3774772958cf72",
    "complex@160": "4cf3ba9347d695ddb874b4d6fdb38f3b2f273ca1e3f136f1b9911092a55de37b",
    "cubic@64": "48e69e5469cde2c1bb437d8a3e2d7fe53eb7c415e4b52d2d7564bfa147b96ee9",
    "cubic@160": "6b945ae8cb8377765d05e0ed46e05565244c73e6180dd1cab83c517e9a2a1b48",
    "real@64": "875fa913a90d05d2e20dd0c0c03cb26f5dd72e4b3ec6e4cb12158d9ad1c2d453",
    "real@160": "05717afa867f14faff948c8f722a4c91aa5bb6b95496ba9bc725c04afd144780",
}

PSI_DIGESTS = {
    "cubic@64": "fafbe011ba15b1e91fd500130ef6a6efd00d4a6f34e742dd1f0c847eab0bb2bc",
    "cubic@160": "6e8997c0dc5bf3c164f57c3e04d302969e641cc2f627f944d672cee918526d73",
    "x2m1@64": "3cef49cd212f6fdd5c480a3fde4e2c30a42e644eb305168e2833472bd5fdb53d",
    "x2m1@160": "8985e14891be344cf7e9c95bad65d484ff5b708968aff258a4eb7bc366fcf274",
    "x2m3/4@64": "e7b5f836271e28fcea9500c0eb8383165ed314bbbfc61bf89ed8d53040849fb7",
    "x2m3/4@160": "ed630442c534bd84dc6f20b2cf0b540a5b0b21f4fbe6f3e135c7834c9144f802",
    "x2p1/2@64": "73070dbf655ba92b0519eaef71a2294d04a4c7cd2c803497b0ecebcc40c74a69",
    "x2p1/2@160": "bc69a8573e589227ea4f6d8c84008891c292c2bb418eb451d8f59b0ec223074e",
    "x2p1/4@64": "aff8302b4c36de640851f4d7f3fb3144149cb2be774fc49c618040c65f446e99",
    "x2p1/4@160": "649931f489326d28bed27de71d2345159f5229eb44c44da6a0a03e91c6f80f06",
}


TRACE_DIGESTS = {
    "c=-1/r=1@64": "8b6cfb3834bcf41b048037952bca6153924fb7b0e598edfbc2b0986c44ebec00",
    "c=-1/r=1@160": "0ac92e903de9752d45caf27b21901f23603d7a21e2c339ad7bc08c03c8177d8d",
    "c=-1/r=1/5@64": "af4fc079a60f1fb31e0ef75de5fc8d1a9a16af814880f209e11f4a770ea1cbb6",
    "c=-1/r=1/5@160": "8e7025249813ccc433e5a4b819cc15b285d154048227564b18f0140636eff170",
    "c=-1/r=2@64": "dd126e8c417b88c02db290718538ddcfe56a97605f872676f6d5a589f8c71a9e",
    "c=-1/r=2@160": "0492fa04fdeab1c03bbcc662fe394e8bb309ce62a161410ad709d3dbef5496f8",
    "c=-3/4/r=1@64": "708b835a7bc5b7a559afaf81301ecc3a2831abfcd7b3c0ca315a14dfcbabf8a2",
    "c=-3/4/r=1@160": "11fbca0b6770af8d4bd9fb39ad1e92e97d1cd595aa6204c84a91bd3b2c99e3dd",
    "c=-3/4/r=1/5@64": "614c4f05311037417bf58c8c39d117b67f043d151c72a36ae66e766c5ea3e626",
    "c=-3/4/r=1/5@160": "a1380052ea000c968842831d0f93227065d9737eff5915281cf4eff12ae0b985",
    "c=-3/4/r=2@64": "8b6dc1ceedcf429c1c9f88e8c0925c5a74a74f5f69eb48a3dcbb0c252d002fb4",
    "c=-3/4/r=2@160": "4205a6b3ded2a76b77b5af878de248f299f21b2966d634f229695b8999580287",
    "c=1/2/r=1@64": "b2f904e06368f3be012e560ea8f0ab6269e5478d16339095ab40f10d646b634a",
    "c=1/2/r=1@160": "4c1e0b77c6f7561231cf0145ec1bb5ddc5199490210a5090ad47d0ef7b94d007",
    "c=1/2/r=1/5@64": "3224654cc05d2055e453e4d8dfe9f9bd9338dc6a931abd3a0c3a5a56788d30d3",
    "c=1/2/r=1/5@160": "6f6eef26640c3e24d865142538e2b6393985dc6708740a757192034f60ea6682",
    "c=1/2/r=2@64": "20ed7d9445eab029f00a6e41e404001d52068954fd83294350e74e80369288a2",
    "c=1/2/r=2@160": "ca224897e66f70b8fe207eb827afc6294bfaba33955eec7225f76b6d72b3ce50",
    "c=1/4/r=1@64": "07990428d962cc36ed24d6b5844a50d1d04cf100999f8f1c228f157c18ca618c",
    "c=1/4/r=1@160": "dd16c438f44a40bba10297995ce96d38bddad4f397f1dce7607993794f2fd1ec",
    "c=1/4/r=1/5@64": "e35f3159882c0cde5740b63bc4ebbbc8a1c30f010d2b66cb6fc3903593367899",
    "c=1/4/r=1/5@160": "0d6df5f1517ce1fb9476675ce4c0f75bca96fc07c7e29f624f7dc6205714a2bc",
    "c=1/4/r=2@64": "c2295eaad742ccf47f7aa70dc2dbf4667b700f8612252f822da89cca9eb9c237",
    "c=1/4/r=2@160": "5c8cc55d9782bce82a318532b8966eb8a798af2655aa1db6f078424ae052a6df",
    "cubic/r=1@64": "cdba47fb180d8863b835d5e401d2fcd8122b6ba761e972f56fcdb9c7f3e0daa2",
    "cubic/r=1@160": "bd132bf6f07454696a591ac0203175e9604c4618eb93d03779b14030ab70402d",
}

REUSE_DIGEST = "f5d97d59dea127a2cf5d3aaf357b00b969fef991b4e84a37d56452615d43e421"


def _mpf_key(x):
    sign, man, exp, bc = x._mpf_
    return (sign, int(man), exp, bc)


def _green_digest(name: str, prec: int, tol: F = F(1, 10**10)) -> str:
    ds, point = GREEN_CASES[name]
    with mpmath.workprec(prec):
        if isinstance(point, tuple):
            z = CBall.from_rational(*point)
        elif isinstance(point, complex):
            z = CBall.from_complex(point)
        else:
            z = point
        g = green_eval(ds, z, tol)
    key = (_mpf_key(g.value.re_mid), _mpf_key(g.value.rad),
           g.iterations_used, g.escaped)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _orbit_digest(name: str, prec: int) -> str:
    ds, (re, im) = ORBIT_CASES[name]
    with mpmath.workprec(prec):
        z = CBall.from_rational(re, im)
        balls = []
        for _ in range(64):
            z = eval_poly_ball(ds.f, z)
            balls.append((_mpf_key(z.re_mid), _mpf_key(z.im_mid), _mpf_key(z.rad)))
    return hashlib.sha256(repr(balls).encode()).hexdigest()


def _psi_digest(name: str, prec: int) -> str:
    ds, radius = PSI_CASES[name]
    with mpmath.workprec(prec):
        ball = CBall.from_rational(radius)
        s = CBall(mpmath.exp(-1), mpf(0), mpf(0))
        balls = []
        for theta in PSI_ANGLES:
            x = CBall.from_complex(mpmath.expjpi(2 * mpf(theta))) * s
            psi = evaluate_psi(ds, PSI_ORDER, x, ball)
            balls.append((_mpf_key(psi.re_mid), _mpf_key(psi.im_mid),
                          _mpf_key(psi.rad)))
    return hashlib.sha256(repr(balls).encode()).hexdigest()


def _trace_key(ds, r):
    try:
        curve = equipotential_trace(ds, r, TRACE_POINTS, TRACE_TOL)
    except (DomainError, PrecisionError) as exc:
        return type(exc).__name__
    points = [(_mpf_key(tp.point.re_mid), _mpf_key(tp.point.im_mid),
               _mpf_key(tp.point.rad), tp.g_residual, tp.sheet, tp.theta)
              for tp in curve.points]
    return points, curve.dropped, curve.closed


def _trace_digest(name: str, prec: int) -> str:
    coeffs, r = TRACE_CASES[name]
    with mpmath.workprec(prec):
        key = _trace_key(PolyDS(Poly(coeffs)), r)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _green_key(g):
    return (_mpf_key(g.value.re_mid), _mpf_key(g.value.rad), g.iterations_used,
            g.escaped)


def _reuse_digest() -> str:
    """One map, X^2 - 3/4, through Green values, escape steps and traces,
    switching between 160 and 64 bits."""
    ds = PolyDS(Poly([F(-3, 4), 0, 1]))
    keys = []
    for prec in (160, 64, 160, 64):
        with mpmath.workprec(prec):
            for z in (F(3), (F(1, 3), F(2, 5)), F(1, 7)):
                point = CBall.from_rational(*z) if isinstance(z, tuple) else z
                keys.append(_green_key(green_eval(ds, point, F(1, 10**10))))
            keys.append(escape_step(ds, F(7, 4)))
            keys.append(escape_step(ds, CBall.from_rational(F(3, 2), F(3, 2))))
            for r in (F(1), F(1, 5), F(2)):
                keys.append(_trace_key(ds, r))
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def _height_digest(name: str) -> str:
    ds, alpha = HEIGHT_CASES[name]
    h = canonical_height(ds, alpha)
    key = (_mpf_key(h.value.re_mid), _mpf_key(h.value.rad), h.method)
    return hashlib.sha256(repr(key).encode()).hexdigest()


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("name", sorted(GREEN_CASES))
def test_green_value_bits_unchanged(name, prec):
    tol = FULL_BUDGET_TOL if name in BOUNDED else F(1, 10**10)
    assert _green_digest(name, prec, tol) == GREEN_DIGESTS[f"{name}@{prec}"]


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("name", BOUNDED)
def test_stopped_bounded_value_bits_unchanged(name, prec):
    assert _green_digest(name, prec) == STOPPED_DIGESTS[f"{name}@{prec}"]


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_ball_orbit_bits_unchanged(name, prec):
    assert _orbit_digest(name, prec) == ORBIT_DIGESTS[f"{name}@{prec}"]


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("name", sorted(PSI_CASES))
def test_psi_value_bits_unchanged(name, prec):
    assert _psi_digest(name, prec) == PSI_DIGESTS[f"{name}@{prec}"]


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_bits_unchanged(name, prec):
    assert _trace_digest(name, prec) == TRACE_DIGESTS[f"{name}@{prec}"]


def test_reused_map_bits_unchanged():
    assert _reuse_digest() == REUSE_DIGEST


@pytest.mark.parametrize("name", sorted(HEIGHT_CASES))
def test_height_value_bits_unchanged(name):
    assert _height_digest(name) == HEIGHT_DIGESTS[name]


if __name__ == "__main__":     # pragma: no cover
    print("GREEN_DIGESTS = {")
    for name in sorted(GREEN_CASES):
        tol = FULL_BUDGET_TOL if name in BOUNDED else F(1, 10**10)
        for prec in PRECISIONS:
            print(f'    "{name}@{prec}": "{_green_digest(name, prec, tol)}",')
    print("}\n\nSTOPPED_DIGESTS = {")
    for name in BOUNDED:
        for prec in PRECISIONS:
            print(f'    "{name}@{prec}": "{_green_digest(name, prec)}",')
    print("}\n\nHEIGHT_DIGESTS = {")
    for name in sorted(HEIGHT_CASES):
        print(f'    "{name}": "{_height_digest(name)}",')
    print("}\n\nORBIT_DIGESTS = {")
    for name in sorted(ORBIT_CASES):
        for prec in PRECISIONS:
            print(f'    "{name}@{prec}": "{_orbit_digest(name, prec)}",')
    print("}\n\nPSI_DIGESTS = {")
    for name in sorted(PSI_CASES):
        for prec in PRECISIONS:
            print(f'    "{name}@{prec}": "{_psi_digest(name, prec)}",')
    print("}\n\nTRACE_DIGESTS = {")
    for name in sorted(TRACE_CASES):
        for prec in PRECISIONS:
            print(f'    "{name}@{prec}": "{_trace_digest(name, prec)}",')
    print("}\n\n" f'REUSE_DIGEST = "{_reuse_digest()}"', file=sys.stdout)
