"""Golden-value guard: Boettcher series and their residuals keep every coefficient.

Each case hashes ``(low, coeffs, trunc)`` of the returned block, with every
coefficient as its (numerator, denominator) pair, for Psi, Phi and the three
exact residuals at the orders of ``ORDERS``.  The digests were recorded
before the product kernel and the Phi reversion moved onto integer numerators
over one common denominator.

Two more guards cover the other users of series composition: the pullback
coefficients a_nm of ``curves._n_series_coeffs`` for seeded curves at the
orders of ``NU_ORDERS``, and ``commuting_linear`` with its Boettcher scaling
at n = 1 and 2, on the same maps plus three that commute with X -> -X + b.
Their digests were recorded before the powers of 1/Psi and the composition
with Phi moved onto ``exact.evaluate_series_at_block``.
The last guard covers blocks whose leading coefficient is not 1:
``LaurentBlock.inverse`` of a + b*w + c*w^2 with a in {2, -3, 5/7}, and the
composition of Phi with w / (a + b*w + c*w^2).  Its digests were recorded
before both moved onto integer numerators.
``python tests/test_series_golden.py`` prints the current digests.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from orbitforge.boettcher import (phi_equation_residual, phi_psi_identity_residual,
                                  phi_series, psi_equation_residual, psi_series)
from orbitforge.curves import PlaneCurve, _n_series_coeffs, commuting_linear
from orbitforge.dynamics import PolyDS
from orbitforge.exact import LaurentBlock, Poly, evaluate_series_at_block

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

NU_ORDERS = (0, 1, 5, 12)


def _curves() -> dict:
    """Seeded curves: two lines, two conics and one with a mixed X*Y term."""
    rng = random.Random(20261019)

    def unit():
        return rng.choice([-3, -2, -1, 1, 2, 3, 5])

    def const():
        return rng.randint(-6, 6)

    curves = {}
    for n in range(2):
        curves[f"line{n}"] = {(1, 0): unit(), (0, 1): unit(), (0, 0): const()}
    for n in range(2):
        curves[f"conic{n}"] = {(2, 0): unit(), (0, 2): unit(), (1, 0): const(),
                               (0, 1): const(), (0, 0): const()}
    curves["mixed"] = {(1, 1): unit(), (1, 0): const(), (0, 1): const(),
                       (0, 0): unit()}
    return {name: PlaneCurve.from_terms(terms) for name, terms in curves.items()}


CURVES = _curves()


def _symmetric_maps() -> dict:
    """Odd maps and a shifted odd cubic, which commute with X -> -X + b."""
    half = F(1, 2)
    odd3 = Poly([0, F(1, 3), 0, 1])
    shifted = Poly([half, 1]).compose(odd3.compose(Poly([-half, 1])))
    return {"odd3": Poly([0, -2, 0, 1]), "odd5": Poly([0, -1, 0, F(3, 2), 0, 1]),
            "odd3_shift": shifted}


LINEAR_MAPS = {**MAPS, **_symmetric_maps()}

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


NU_DIGESTS = {
    "conic0/d2_int": "9f22b0f9ba1df5e0c0069630b468d02821ce6a573e0164845d3597f49eeeba9b",
    "conic0/d2_rat": "75ef09271247acee7033f5be8a36e2ecc5820ce098098f9d44dadf53a9f3f661",
    "conic0/d3_int": "423cb003308e0b0ef669d473da4d21bcf645d2aadcef225f8540c47cfaec72af",
    "conic0/d3_rat": "51ab4c4d22c1ed0f80a96e2b9a21137fdd1d5c7cde17aec539cf61495668b9cb",
    "conic0/d4_int": "d3773923294005759b9b7fe5dfbff0adf149f277235decd8036df4196f8f3ca0",
    "conic0/d4_rat": "28962ac5613413e7612dd24bafd5948e45d19dd5142911bcff8e965ea5c68409",
    "conic0/d5_int": "0c85515c22e881390eac47cd2d7f1150ca890290a224a5df0a186628e799010e",
    "conic0/d5_rat": "617541d7dee85d9c5722d9a30ecae9ea193b9ee96a29f3985a7d01c9c3508e8b",
    "conic1/d2_int": "4691785230c2c631ff78d59c0d8283102d7a21108185460b764ea121ed68e5ef",
    "conic1/d2_rat": "a5280c424d707f609a8eb34d4496d21d8da5a9ee313a45794fbacabdf1feebf9",
    "conic1/d3_int": "7c66f415be63f37117fb362d363e586c5685afcaffeb7166cb5b1ad0e544245f",
    "conic1/d3_rat": "f5ba73324b304acb9e94d5cf4297bba6c02096366696fe3931816a2e771e5239",
    "conic1/d4_int": "c301b3da1c23327480e439f2c6eed55b3de0fee3ad6d1307859d8948a15797da",
    "conic1/d4_rat": "d353c61b471b12f2ee6c125555e7c5d575a689f614c8634ff129af7c1f176671",
    "conic1/d5_int": "defb4cb1f9604a6514cd574f02f4140e24a41b86b202afa5795ec0b6ca519f16",
    "conic1/d5_rat": "8b4a33449cd1af2ae2226adfcdde8fc929a2e8567735a7b31fea18963339dacf",
    "line0/d2_int": "df176367df5e87c5614711f2b56a230b6400485083399851bc2813d020c11597",
    "line0/d2_rat": "3fea2f56a9daf64e791c72d0271a065a2aac056d8180d6f63c46a98040e3aa10",
    "line0/d3_int": "d683b56e82744ac7624a88fd7d68daa7234076af066b74b8af8ca7d2b797c883",
    "line0/d3_rat": "987152fab8f0ede03c7f526855cc76e58308a874ecf3c7d8535affd51ce12e07",
    "line0/d4_int": "df7aa6ffd6f53ce90a626be1c6efa8b79706c6c0f6d092c0c3357901b04be6e3",
    "line0/d4_rat": "1ecb473f852bd5d46321da62f813eab941c8c9cf166037d12934498fa121d5a1",
    "line0/d5_int": "6869569ce9b6cb1ce09742eaa0525a1eaea863a23459175a1f37e287beab429a",
    "line0/d5_rat": "b330343d4756a4b127befb787c901b9c4c0c8cf768ab05b3fa0ad37d10516ed9",
    "line1/d2_int": "b2b3eb45c1cac5042c2bbdacce7f24fef38f2b12bd56039304395d231d549447",
    "line1/d2_rat": "2dfa6bc1e2a0535c572ee01462c17ebd9012638c3aa06bd77a0f1011a0a91965",
    "line1/d3_int": "c0e3273e0d5cf05a5aacde15e8ae33700ff035cc1955b13fb2d2ac828b2ce703",
    "line1/d3_rat": "284f3154c9181ccd2a51d2d5fb1bfaf24ff0c4b56224d63422b614b2397119be",
    "line1/d4_int": "99dfcbd97fd291510d9b6ec8e7377d320dd056275923e11ba6da0f71e6e9e528",
    "line1/d4_rat": "3fbbad7ac11be3ecc3e916535ab62c731e016ecf4f0e02595dcf24799ceff130",
    "line1/d5_int": "b85d1c29511cf165af920cb58af40fbee983356b247e2a3e055a37e5bfd801aa",
    "line1/d5_rat": "caff656d65cd09924aaab648725438ab61aa2a6757f7270ff73cda5534a5000a",
    "mixed/d2_int": "329fe1f5bb98ebee6bc49badbb7045ac1aac63c528d4c5ee64d81012346bd59f",
    "mixed/d2_rat": "4c78b9b60c82da729e6b635ce66806c9f2709e0107a03281e22eda30ac6e304e",
    "mixed/d3_int": "dce643abcbabe4455d311fab33e4aa99acd24994aefa851ada5ab6aefeef6df6",
    "mixed/d3_rat": "5d7b7308993cd3aaee70dc7c0b2a17f9c818814822c8fcabb9da8b27e5e8beea",
    "mixed/d4_int": "5efd9a867af24ba870f22c581ea2a3f1e64e00357924ad2810271afd9c9ea7ca",
    "mixed/d4_rat": "1698cd80cc225440b1e73dfec39e607a9e9f82e813ec7b0fe21fdc1060d815cd",
    "mixed/d5_int": "b9bba29d9f4dd3421c041a2cedb2f28f4b2c0d2d092f5633ccdebf5fafaea00a",
    "mixed/d5_rat": "067d147a35d4faa7cbdb38ae28fa830b89e6d433a093da7b60eb3db4e209a5ec",
}

LINEAR_DIGESTS = {
    "d2_int": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d2_rat": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d3_int": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d3_rat": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d4_int": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d4_rat": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d5_int": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "d5_rat": "acb8ffea5748dd6d0e6a06f6ed1ac3dae634d57fe14d7ba88d2d904f0b187142",
    "odd3": "36aa4b8e4b50bbe6c5c829658bd73e39ff7bb0179b05465c76ee975baf012439",
    "odd3_shift": "2be2991725a4893cf4fe0542a967272d0182be1705fb199c280fc9a381f86b15",
    "odd5": "36aa4b8e4b50bbe6c5c829658bd73e39ff7bb0179b05465c76ee975baf012439",
}


def _lead_blocks() -> dict:
    """a + b*w + c*w^2 + O(w^24), seeded b and c, at three lowest exponents."""
    rng = random.Random(20261020)
    blocks = {}
    for name, lead in (("two", F(2)), ("minus3", F(-3)), ("five7", F(5, 7))):
        tail = [F(rng.randint(-9, 9), rng.choice([1, 4, 11, 10**12 + 39]))
                for _ in range(2)]
        for low in (-1, 0, 2):
            blocks[f"{name}/low{low}"] = LaurentBlock(low, [lead] + tail, trunc=low + 24)
    return blocks


LEAD_BLOCKS = _lead_blocks()

LEAD_DIGESTS = {
    "five7/low-1": "ec2dc2c3fb13bad938468a858727d7e24e54e7902fa5c1b0f065b73c8ab758b0",
    "five7/low0": "7d508aea7406fdfee016eede71f355b196b9986c671d284ae232ffbfec71eb27",
    "five7/low2": "a3440eb0090263e0e3108f9f76c0154f319328aeb2dc978527c6bb5a736fdf48",
    "minus3/low-1": "96d81ed47eff4616c6eb0c5bc7ca8e5836733f40391aa4c4427241b01eded8d0",
    "minus3/low0": "4a18a85deaa69cb5ba38de99ebccc050adca79570e8a8c7ecb36d83c832b4c76",
    "minus3/low2": "06e17c9e2dd93ba932c93da11f7de4d9f8f5d2b570cdc6eef8cc557953fb98d2",
    "two/low-1": "32260f89812b6833d3b36a2894d4a896ac80410eab7ec7ffc175c04dc620abc5",
    "two/low0": "4cc1b2bb4896426040d72e271096fd01299f51745ab458187a8217315cc8d6f0",
    "two/low2": "cb4b69edb05bff19379cdcb0ed21b7b028ceb7e08fc83c9b40bb0dc12354d8af",
}


def _lead_digest(block_name: str) -> str:
    """The inverse, and Phi of two corpus maps composed with w over the block."""
    block = LEAD_BLOCKS[block_name]
    inv = block.inverse()
    rows = [(inv.low, tuple((c.numerator, c.denominator) for c in inv.coeffs),
             inv.trunc)]
    # w / (a + b*w + c*w^2): shift the block to start at exponent 0 first
    unit = LaurentBlock(0, block.coeffs, trunc=24)
    arg = (LaurentBlock.monomial(1, 1) * unit.inverse()).truncate_to(25)
    for map_name in ("d2_rat", "d3_int"):
        phi = phi_series(PolyDS(MAPS[map_name]), 24)
        b = evaluate_series_at_block([phi.coefficient(k) for k in range(25)], arg)
        rows.append((b.low, tuple((c.numerator, c.denominator) for c in b.coeffs),
                     b.trunc))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _nu_digest(curve_name: str, map_name: str) -> str:
    ds = PolyDS(MAPS[map_name])
    rows = []
    for order in NU_ORDERS:
        a_nm = _n_series_coeffs(CURVES[curve_name], ds, order)
        rows.append(tuple((k, (c.numerator, c.denominator))
                          for k, c in sorted(a_nm.items())))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _linear_digest(map_name: str) -> str:
    ds = PolyDS(LINEAR_MAPS[map_name])
    rows = [(n, [(lin.a, lin.b, lin.zeta) for lin in commuting_linear(ds, n, order=20)])
            for n in (1, 2)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(SERIES))
@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_series_bits_unchanged(map_name, kind):
    assert _digest(map_name, kind) == DIGESTS[f"{map_name}/{kind}"]


@pytest.mark.parametrize("map_name", sorted(MAPS))
@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_nu_coefficients_unchanged(curve_name, map_name):
    assert _nu_digest(curve_name, map_name) == NU_DIGESTS[f"{curve_name}/{map_name}"]


@pytest.mark.parametrize("map_name", sorted(LINEAR_MAPS))
def test_commuting_linear_unchanged(map_name):
    assert _linear_digest(map_name) == LINEAR_DIGESTS[map_name]


@pytest.mark.parametrize("block_name", sorted(LEAD_BLOCKS))
def test_non_unit_lead_unchanged(block_name):
    assert _lead_digest(block_name) == LEAD_DIGESTS[block_name]


if __name__ == "__main__":     # pragma: no cover
    print("DIGESTS = {")
    for map_name in sorted(MAPS):
        for kind in sorted(SERIES):
            print(f'    "{map_name}/{kind}": "{_digest(map_name, kind)}",')
    print("}")
    print("NU_DIGESTS = {")
    for curve_name in sorted(CURVES):
        for map_name in sorted(MAPS):
            print(f'    "{curve_name}/{map_name}": "{_nu_digest(curve_name, map_name)}",')
    print("}")
    print("LINEAR_DIGESTS = {")
    for map_name in sorted(LINEAR_MAPS):
        print(f'    "{map_name}": "{_linear_digest(map_name)}",')
    print("}")
    print("LEAD_DIGESTS = {")
    for block_name in sorted(LEAD_BLOCKS):
        print(f'    "{block_name}": "{_lead_digest(block_name)}",')
    print("}")
