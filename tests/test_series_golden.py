"""Golden-value guard: Boettcher series and their residuals keep every coefficient.

Each case hashes ``(low, coeffs, trunc)`` of the returned block, with every
coefficient as its (numerator, denominator) pair, for Psi, Phi and the three
exact residuals at the orders of ``ORDERS``.  The digests were recorded
before the product kernel and the Phi reversion moved onto integer numerators
over one common denominator.  ``python tests/test_series_golden.py`` prints
the current digests.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from orbitforge.boettcher import (phi_equation_residual, phi_psi_identity_residual,
                                  phi_series, psi_equation_residual, psi_series)
from orbitforge.dynamics import PolyDS
from orbitforge.exact import Poly

ORDERS = (0, 1, 2, 8, 24, 40)

SERIES = {
    "psi": psi_series,
    "phi": phi_series,
    "psi_eq": psi_equation_residual,
    "phi_eq": phi_equation_residual,
    "phi_psi": phi_psi_identity_residual,
}


def _corpus() -> dict:
    """Seeded monic maps, d = 2..5, integer and non-integer coefficients."""
    rng = random.Random(20261018)
    maps = {}
    for d in (2, 3, 4, 5):
        ints = [rng.randint(-5, 5) for _ in range(d)]
        rats = [F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))
                for _ in range(d)]
        maps[f"d{d}_int"] = Poly(ints + [1])
        maps[f"d{d}_rat"] = Poly(rats + [1])
    return maps


MAPS = _corpus()

DIGESTS = {
    "d2_int/phi": "5df2111e4057e8902a866f66f34fa9ecd701822982210ab9bfce9c9cafba3eb7",
    "d2_int/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d2_int/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d2_int/psi": "27effc84fcb10c3f9f69d397c303a8b2f342c2a4afa6a9b485f1df6a3f35e6c8",
    "d2_int/psi_eq": "f6c6253bc45acfee0ac45b64093f54cb64289ad3b803ef820c1d04a81a575eda",
    "d2_rat/phi": "6f91b9287451211d3bbb81b2415ecf18e6e9d9dbf8e2168cca1747ed3d7e74b3",
    "d2_rat/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d2_rat/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d2_rat/psi": "a38853568a58d5dfb3a8baff73280d05a45cefdcafa65656b746a215f11a23cc",
    "d2_rat/psi_eq": "f6c6253bc45acfee0ac45b64093f54cb64289ad3b803ef820c1d04a81a575eda",
    "d3_int/phi": "2bb4f2b508308cfbf183b8d1cfdd782a70ffb5d46cc996f01578d87945e90d5b",
    "d3_int/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d3_int/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d3_int/psi": "7b84368845c97ac46ed684655d2cbd904aecb1c300e9d5180ab67b72e63986a7",
    "d3_int/psi_eq": "6384259e5577fc90e9c80f16dd5b56fb59a9380c6dd65246b09a960c6786c61b",
    "d3_rat/phi": "eb60c3a8e5d335136b62d89be5cc03032e1589d3fa699b822c35eec0b08ed673",
    "d3_rat/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d3_rat/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d3_rat/psi": "db2de3d0357006f69c3fce211e9db5c810fcc5f0c49cda4c6e9bd8d5298e6013",
    "d3_rat/psi_eq": "6384259e5577fc90e9c80f16dd5b56fb59a9380c6dd65246b09a960c6786c61b",
    "d4_int/phi": "23b15424e33954192a181eeb9cc563e5318baf6c79e1f1ea7adecd6d0e8f1944",
    "d4_int/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d4_int/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d4_int/psi": "09fe44a8f870172ba2a58098b710f860f6fba19f8c31caa272bd0e198f12c94d",
    "d4_int/psi_eq": "83de26718643aad8defa1f3211d3b187de167366154af71ae7dca2f03de2b840",
    "d4_rat/phi": "b8be26fdce48654939c32da70eb5c5038748db7bbdef2b9ede8b033df00c2f70",
    "d4_rat/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d4_rat/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d4_rat/psi": "da30d28c7a1a87219e02c60c995b5e55e7097923dc8026796181d4b9a0e0f535",
    "d4_rat/psi_eq": "83de26718643aad8defa1f3211d3b187de167366154af71ae7dca2f03de2b840",
    "d5_int/phi": "798f27941b96505837f7ec7958b150d7f0551690b32b7aeaa7570187df1b4890",
    "d5_int/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d5_int/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d5_int/psi": "fc40f8ac30c6a9100e9f22b6bf82e86e5dc415867594a267ade1c2830e7ca045",
    "d5_int/psi_eq": "a18705cdf5bea72b486a2d338783cb4501a5f6c6f4ddc6aa6810bab383e15f98",
    "d5_rat/phi": "9781c0eab9e6830c27ece884d07c34b65c7a8f3c5115de61c64452f46398a140",
    "d5_rat/phi_eq": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d5_rat/phi_psi": "67b32d565d80c0f2ee67db83f44dcb7477db93e64802c3f6332e7cd9a4f6fcc0",
    "d5_rat/psi": "9ef96cdf3cf015667ed44d56140a67e62e009f44d6a3fadbf43d5ae30995d68d",
    "d5_rat/psi_eq": "a18705cdf5bea72b486a2d338783cb4501a5f6c6f4ddc6aa6810bab383e15f98",
}


def _digest(map_name: str, kind: str) -> str:
    ds = PolyDS(MAPS[map_name])
    blocks = []
    for order in ORDERS:
        b = SERIES[kind](ds, order)
        blocks.append((b.low, tuple((c.numerator, c.denominator) for c in b.coeffs),
                       b.trunc))
    return hashlib.sha256(repr(blocks).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(SERIES))
@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_series_bits_unchanged(map_name, kind):
    assert _digest(map_name, kind) == DIGESTS[f"{map_name}/{kind}"]


if __name__ == "__main__":     # pragma: no cover
    print("DIGESTS = {")
    for map_name in sorted(MAPS):
        for kind in sorted(SERIES):
            print(f'    "{map_name}/{kind}": "{_digest(map_name, kind)}",')
    print("}")
