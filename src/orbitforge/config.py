"""Run-wide settings with a tiny key=value config-file loader."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Settings:
    """Default precision/truncation knobs used by the CLI and tests."""

    precision_bits: int = 160        # working precision for ball arithmetic
    series_order: int = 48           # default Boettcher truncation order
    max_poly_degree: int = 1 << 16   # guard on iteration/composition
    max_iterations: int = 256        # numeric orbit iteration budget
    preperiodic_budget: int = 512    # exact orbit budget before "undecided"
    orbit_degree_cap: int = 4096     # cap on d^n for orbit level sets
    trace_points: int = 512          # default equipotential sample count
    padic_digits: int = 64           # p-adic digits; escape walks start here
    tolerance: Fraction = Fraction(1, 10**10)

    def __post_init__(self):
        if self.padic_digits < 1:
            raise ValueError(f"padic_digits must be >= 1, got {self.padic_digits}")

    def replace(self, **kw) -> "Settings":
        return dataclasses.replace(self, **kw)


DEFAULTS = Settings()

_INT_FIELDS = {f.name for f in dataclasses.fields(Settings)
               if isinstance(f.default, int)}


def load_settings(path: str) -> Settings:
    """Read ``key = value`` lines (TOML-like; '#' comments) into Settings."""
    updates: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in _INT_FIELDS:
                updates[key] = int(val)
            elif key == "tolerance":
                updates[key] = Fraction(val)
            else:
                raise ValueError(f"unknown config key: {key}")
    return DEFAULTS.replace(**updates)
