"""Config-file values at and below zero: every setting, set to 0 and to -1,
must end a small run of each main command in an exit code of 0, 1 or 2, with
JSON or nothing on stdout, never in a traceback and never in a hang."""

import io
import json
import sys
from dataclasses import fields

import pytest
from conftest import time_limit

from orbitforge.cli import main
from orbitforge.config import Settings

POLY = '["-1/9","0","1"]'       # X^2 - 1/9: 1/3 wanders through the 3-adic walk
COMMANDS = {
    "classify": ["dynamics", "classify", "--poly", POLY, "--alpha", "1/3"],
    "height": ["orbit", "height", "--poly", POLY, "--alpha", "1/3"],
    "boettcher": ["boettcher", "--poly", POLY],
    "trace": ["green", "trace", "--poly", POLY, "--r", "1", "--n", "4"],
    "small": ["orbit", "small", "--poly", POLY, "--alpha", "1/3", "--level", "1"],
}
SECONDS = 10


def _run(cfg, argv):
    """(exit code, stdout, stderr) of one CLI run, cut after SECONDS."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        with time_limit(SECONDS):
            code = main(["--config", str(cfg)] + argv)
    except SystemExit as exc:              # argparse usage errors
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", [f.name for f in fields(Settings)])
def test_zero_and_negative_settings_never_crash_or_hang(tmp_path, name, value,
                                                        command):
    cfg = tmp_path / "of.cfg"
    cfg.write_text(f"{name} = {value}\n")
    code, out, err = _run(cfg, COMMANDS[command])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        json.loads(out)


@pytest.mark.parametrize("value", [0, -1])
def test_padic_digits_below_one_is_usage_error(tmp_path, value):
    cfg = tmp_path / "of.cfg"
    cfg.write_text(f"padic_digits = {value}\n")
    code, out, err = _run(cfg, COMMANDS["classify"])
    assert code == 2 and out == ""
    assert "padic_digits must be >= 1" in err
