"""CLI surface: subcommands, encodings, determinism, error paths."""

import io
import json
import sys

import pytest
from conftest import time_limit

from orbitforge.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_green_trace_csv_row_count():
    code, out, _ = run_cli(["green", "trace", "--poly", "[-1,0,1]",
                            "--r", "1", "--n", "16", "--out", "csv"])
    assert code == 0
    rows = [line for line in out.strip().splitlines() if line]
    assert rows[0] == "theta,re,im,g_residual"
    assert len(rows) == 17                      # header + 16 samples


def test_unicode_minus_accepted():
    code, out, _ = run_cli(["orbit", "small", "--poly", "[−1,0,1]",
                            "--alpha", "1/3", "--level", "1"])
    assert code == 0
    data = json.loads(out)
    assert [r["root"] for r in data["rational_roots"]] == ["-1/3", "1/3"]


def test_em_dash_minus_gives_the_same_stdout():
    argv = ["dynamics", "classify", "--poly", "[-1,0,1]", "--alpha", "1/3"]
    want = run_cli(argv)[:2]
    argv[3] = "[—1,0,1]"
    assert run_cli(argv)[:2] == want


def test_classify_prints_the_true_monic_conjugate():
    # -X^3 + 3X is conjugate to X^3 + 3X by c = i, not to X^3 - 3X
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[0,3,0,-1]"])
    data = json.loads(out)
    assert code == 0 and data["poly"] == ["0", "3", "0", "1"]
    assert data["exceptional"]["kind"] == "neg-chebyshev"
    assert "monic_conjugacy_scale" not in data          # c is irrational
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[0,1,0,-4]"])
    assert code == 0 and json.loads(out)["poly"] == ["0", "1", "0", "1"]
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[0,0,0,1,0,-16]"])
    assert code == 1 and json.loads(out)["error"]["code"] == "domain"


def test_height_tol_below_the_working_precision_is_refused():
    code, out, _ = run_cli(["orbit", "height", "--poly", "[-1,0,1]", "--alpha", "1/3",
                            "--tol", "1/1" + "0" * 100])
    assert code == 1 and json.loads(out)["error"]["code"] == "precision"


def test_orbit_small_level2_payload():
    code, out, _ = run_cli(["orbit", "small", "--poly", "[-1,0,1]",
                            "--alpha", "1/3", "--level", "2"])
    data = json.loads(out)
    assert data["root_count_with_multiplicity"] == 4
    assert [r["root"] for r in data["rational_roots"]] == ["-1/3", "1/3"]
    assert data["algebraic_factors"][0]["factor"] == ["-17/9", "0", "1"]
    assert len(data["algebraic_factors"][0]["roots"]) == 2


def test_stdout_determinism():
    argv = ["boettcher", "--poly", "[-1,0,1]", "--order", "12"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2
    argv2 = ["curve", "nu", "--poly", "[-1,0,1]",
             "--curve", "[[1,0,\"1\"],[0,1,\"-1\"],[0,0,\"-1\"]]",
             "--p", "3", "--phi", "3", "--k1", "2", "--k2", "-1",
             "--window", "12"]
    _, o1, _ = run_cli(argv2)
    _, o2, _ = run_cli(argv2)
    assert o1 == o2 and json.loads(o1)["ledger"]["lemma_holds"]


def test_error_json_on_domain_error():
    code, out, _ = run_cli(["orbit", "small", "--poly", "[-1,0,1]",
                            "--alpha", "1/3", "--level", "30"])
    assert code == 1
    data = json.loads(out)
    assert data["error"]["code"] == "resource"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["orbit", "small", "--poly", "[-1,0,1]"])
    assert exc.value.code == 2


def test_dynamics_classify():
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[-1,0,1]",
                            "--alpha", "1/3"])
    data = json.loads(out)
    assert data["exceptional"]["kind"] is None
    assert data["orbit"]["type"] == "wandering"
    assert data["orbit"]["place"]["place"] == 3
    assert data["good_reduction_escape"]["qualifying"]["place"] == 3

    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[-2,0,1]"])
    assert json.loads(out)["exceptional"]["kind"] == "chebyshev"


def test_classify_escape_iterate_zero_just_past_the_radius():
    # |alpha| = 2 + 10^-20 > R = 2 holds exactly at step 0, below the ball
    # walk's certified bound R (1 + 2^-50)
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[-1,0,1]", "--alpha",
                            "200000000000000000001/100000000000000000000"])
    arch = json.loads(out)["good_reduction_escape"]["archimedean"]
    assert code == 0 and arch["escape_iterate"] == 0


def test_boettcher_coefficients():
    code, out, _ = run_cli(["boettcher", "--poly", "[-1,0,1]", "--order", "6"])
    data = json.loads(out)
    by_exp = {c["exp"]: c["coeff"] for c in data["coefficients"]}
    assert by_exp[-1] == "1" and by_exp[1] == "1/2"
    code, out, _ = run_cli(["boettcher", "--poly", "[0,0,1]", "--order", "6",
                            "--phi"])
    by_exp = {c["exp"]: c["coeff"] for c in json.loads(out)["coefficients"]}
    assert by_exp[1] == "1"


def test_padic_pj_ledger():
    code, out, _ = run_cli(["padic", "polygon", "--p", "3",
                            "--series", '[[0,"-3"],[1,"1"]]',
                            "--pj", "--r1", "1/9", "--r", "1"])
    data = json.loads(out)
    assert data["poisson_jensen"]["identity_residual"] == "0"
    assert data["poisson_jensen"]["count_logp"] == "1"


def test_curve_special_subcommand():
    code, out, _ = run_cli(["curve", "special", "--poly", "[-1,0,1]",
                            "--curve", '[[1,0,"3"],[0,0,"1"]]',
                            "--alpha", "1/3", "--nmax", "4"])
    data = json.loads(out)
    assert data["verdict"] == "special-vertical" and data["beta"] == "-1/3"


def test_curve_special_axis_line_past_the_level_cap():
    # X = 5 meets no level set of 1/3: it answers not-special at nmax 20
    # (it used to build every level polynomial and fail at level 13)
    code, out, _ = run_cli(["curve", "special", "--poly", "[-1,0,1]",
                            "--curve", '[[1,0,"1"],[0,0,"-5"]]',
                            "--alpha", "1/3", "--nmax", "20"])
    assert code == 0
    assert json.loads(out) == {"verdict": "not-special", "nmax": 20}


def test_curve_intersect_subcommand():
    code, out, _ = run_cli(["curve", "intersect", "--poly", "[-1,0,1]",
                            "--curve", '[[1,0,"1"],[0,1,"-1"]]',
                            "--alpha", "1/3", "--cap", "2"])
    data = json.loads(out)
    assert data["count"] == 4
    assert data["classification"]["verdict"] == "special-diagonal"


def test_negative_cap_is_a_domain_error():
    # --cap -1 asks for level -1: a domain error, not an IndexError traceback
    code, out, err = run_cli(["curve", "intersect", "--poly", "[-1,0,1]",
                              "--curve", '[[1,0,"1"],[0,1,"-1"]]',
                              "--alpha", "1/3", "--cap", "-1", "--nmax", "2"])
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["error"] == {"code": "domain",
                                        "message": "levels must be >= 0"}


def test_negative_cap_without_nmax_names_the_cap():
    # nmax defaults to the cap: the cap is refused before the special-curve
    # test, which would name --nmax, a flag the user did not pass
    code, out, err = run_cli(["curve", "intersect", "--poly", "[-1,0,1]",
                              "--curve", '[[1,0,"1"],[0,1,"-1"]]',
                              "--alpha", "1/3", "--cap", "-1"])
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["error"] == {"code": "domain",
                                        "message": "levels must be >= 0"}


@pytest.mark.parametrize("nmax", ["5", "16"])
def test_combinat_verify_below_17_is_usage_error(nmax, capsys):
    # the lemmas are stated for N >= 17: a smaller --nmax checked 0 cases and
    # still printed "pass": true
    with pytest.raises(SystemExit) as exc:
        main(["combinat", "verify", "--lemma", "box1", "--nmax", nmax])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "N >= 17" in captured.err


def test_combinat_verify_small_sweep():
    code, out, _ = run_cli(["combinat", "verify", "--lemma", "box1",
                            "--nmax", "20"])
    data = json.loads(out)
    assert code == 0 and data["pass"] and data["violations"] == 0


def test_svg_output(tmp_path):
    target = tmp_path / "trace.svg"
    code, out, _ = run_cli(["green", "trace", "--poly", "[0,0,1]",
                            "--r", "1/2", "--n", "12", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_json_out_path_writes_the_trace(tmp_path):
    target = tmp_path / "t.json"
    argv = ["green", "trace", "--poly", "[-1,0,1]", "--r", "1", "--n", "4"]
    code, out, _ = run_cli(argv + ["--out", str(target)])
    assert code == 0
    assert json.loads(out) == {"written": str(target), "points": 4, "dropped": 0}
    code, printed, _ = run_cli(argv)
    assert code == 0 and target.read_text() == printed
    assert len(json.loads(printed)["points"]) == 4


def test_manifest_written(tmp_path):
    target = tmp_path / "manifest.json"
    code, out, err = run_cli(["--manifest", str(target), "orbit", "height",
                              "--poly", "[-1,0,1]", "--alpha", "1/3"])
    assert code == 0
    manifest = json.loads(target.read_text())
    assert manifest["tool"] == "orbitforge" and "wall_time_s" in manifest
    assert err == ""                       # manifest diverted from stderr
    data = json.loads(out)
    assert data["contains_zero"] is False


def test_config_file(tmp_path):
    cfg = tmp_path / "of.cfg"
    cfg.write_text("series_order = 10\nprecision_bits = 128\n")
    code, out, _ = run_cli(["--config", str(cfg), "boettcher",
                            "--poly", "[-1,0,1]"])
    data = json.loads(out)
    assert data["order"] == 10


def test_config_precision_does_not_outlive_main(tmp_path):
    import mpmath

    cfg = tmp_path / "of.cfg"
    cfg.write_text("precision_bits = 128\n")
    before = mpmath.mp.prec
    code, _, _ = run_cli(["--config", str(cfg), "boettcher", "--poly", "[-1,0,1]"])
    assert code == 0
    assert mpmath.mp.prec == before


def test_huge_rationals_are_printed():
    code, out, _ = run_cli(["orbit", "small", "--poly", "[-1,0,1]",
                            "--alpha", "1e5000", "--level", "0"])
    assert code == 0
    assert json.loads(out)["target"] == "1" + "0" * 5000


def test_huge_integer_alpha_is_parsed():
    code, out, _ = run_cli(["orbit", "small", "--poly", "[-1,0,1]",
                            "--alpha", "9" * 5000, "--level", "0"])
    assert code == 0
    assert json.loads(out)["target"] == "9" * 5000


def test_height_prints_the_parsed_alpha():
    argv = ["orbit", "height", "--poly", "[-1,0,1]", "--tol", "1/1000", "--alpha"]
    code, out, _ = run_cli(argv + ["2/6"])
    assert code == 0
    assert json.loads(out)["alpha"] == "1/3"
    assert run_cli(argv + ["1/3"])[:2] == (0, out)


@pytest.mark.parametrize("argv", [
    ["orbit", "small", "--poly", "[-1,0,1]", "--alpha", "x", "--level", "1"],
    ["orbit", "small", "--poly", "[-1,0,1]", "--alpha", "1/0", "--level", "1"],
    ["orbit", "small", "--poly", "[1,0,1", "--alpha", "1/3", "--level", "1"],
    ["orbit", "small", "--poly", "[1/2,0,1]", "--alpha", "1/3", "--level", "1"],
    ["orbit", "small", "--poly", '{"a": 1}', "--alpha", "1/3", "--level", "1"],
    ["curve", "special", "--poly", "[-1,0,1]", "--curve", '[[1,0]]',
     "--alpha", "1/3"],
    ["curve", "special", "--poly", "[-1,0,1]",
     "--curve", '[[1,0,"1"],[0,1,"2"],[1,0,"3"]]', "--alpha", "1/3"],
    ["padic", "polygon", "--p", "3", "--series", '[[0,"3"],[1]]'],
    ["padic", "polygon", "--p", "3", "--series", '[[1.5,"3"],[2,"1"]]'],
    ["padic", "polygon", "--p", "3", "--series", '[[0,"1"],[0,"1"]]'],
    ["curve", "nu", "--poly", "[-1,0,1]", "--curve", '[[1,0,"1"],[0,1,"-1"]]',
     "--p", "3", "--phi", "3", "--k1", "1", "--k2", "-1", "--zeta1", "teich:x"],
    ["green", "trace", "--poly", "[-1,0,1]", "--r", "1", "--n", "0"],
    ["curve", "special", "--poly", "[-1,0,1]", "--curve", '[[1,0,"1"],[0,1,"-1"]]',
     "--alpha", "1/3", "--nmax", "-1"],
])
def test_malformed_values_give_error_json(argv):
    code, out, err = run_cli(argv)
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["error"]["code"] == "domain"


@pytest.mark.parametrize("extra", [[], ["--r1", "1/9"], ["--r", "1"]])
def test_pj_without_radii_is_usage_error(extra):
    with pytest.raises(SystemExit) as exc:
        run_cli(["padic", "polygon", "--p", "3", "--series", '[[0,"3"],[1,"1"]]',
                 "--pj"] + extra)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["green", "trace", "--poly", "[-1,0,1]", "--r", "1", "--n", "4",
     "--out", "{missing}/t.svg"],
    ["--manifest", "{missing}/m.json", "orbit", "height", "--poly", "[-1,0,1]",
     "--alpha", "1/3"],
])
def test_unwritable_path_is_usage_error(argv, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = [a.format(missing=missing) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert next(a for a in argv if a.startswith(missing)) in err
    assert not (tmp_path / "missing").exists()


def test_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "of.cfg"
    cfg.write_text("threads = 4\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["--config", str(cfg), "boettcher", "--poly", "[-1,0,1]"])
    assert exc.value.code == 2


def test_manifest_records_every_setting(tmp_path):
    from dataclasses import fields

    from orbitforge.config import DEFAULTS, Settings

    argv = ["padic", "polygon", "--p", "3", "--series", '[[0,"3"],[1,"1"]]']

    def manifest_settings(config_text: str) -> dict:
        cfg = tmp_path / "of.cfg"
        cfg.write_text(config_text)
        target = tmp_path / "manifest.json"
        code, _, _ = run_cli(["--config", str(cfg), "--manifest", str(target)]
                             + argv)
        assert code == 0
        return json.loads(target.read_text())["settings"]

    base = manifest_settings("")
    assert set(base) == {f.name for f in fields(Settings)}
    assert base["tolerance"] == "1/10000000000"
    for f in fields(Settings):
        value = getattr(DEFAULTS, f.name)
        other = value / 10 if f.name == "tolerance" else value + 1
        changed = manifest_settings(f"{f.name} = {other}\n")
        assert changed != base, f.name
        assert changed[f.name] != base[f.name]


@pytest.mark.parametrize("argv, key", [
    (["dynamics", "classify", "--poly", "[-1,0,1]",
      "--alpha", "1/2305843009213693951"], "orbit"),
    (["padic", "polygon", "--p", "2305843009213693951",
      "--series", '[[0,"1"],[1,"1"]]'], "vertices"),
])
def test_mersenne_prime_2_61_is_tested_quickly(argv, key):
    # 2^61 - 1 once took minutes of trial division to be found prime
    with time_limit(2):
        _code, out, _err = run_cli(argv)
    out = json.loads(out)
    assert key in out and "error" not in out


def test_nu_of_a_curve_whose_terms_all_cancel_is_a_domain_error():
    # X - Y with k1 = k2 = 1: every term of the window cancels to a small
    # p-adic scalar, so no term is kept
    code, out, err = run_cli(["curve", "nu", "--poly", "[-1,0,1]",
                              "--curve", '[[1,0,"1"],[0,1,"-1"]]', "--p", "3",
                              "--phi", "3", "--k1", "1", "--k2", "1"])
    assert code == 1 and "Traceback" not in err
    error = json.loads(out)["error"]
    assert error["code"] == "domain"
    assert error["message"].startswith("window is zero: possibly the zero function")


def test_negative_nu_window_is_refused():
    # refused as such, not taken for an empty window ("window is zero")
    argv = ["curve", "nu", "--poly", "[-1,0,1]",
            "--curve", '[[1,0,"1"],[0,1,"-1"],[0,0,"-1"]]',
            "--p", "3", "--phi", "3", "--k1", "2", "--k2", "-1"]
    code, out, _ = run_cli(argv + ["--window", "-1"])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "domain",
                                        "message": "window must be >= 0"}
    code, out, _ = run_cli(argv + ["--window", "0"])
    assert code == 0 and json.loads(out)["terms"] == [{"exp": 0, "valuation": 0}]


@pytest.mark.parametrize("lemma", ["boom", "rootsof1"])
def test_combinat_verify_other_lemmas(lemma):
    code, out, _ = run_cli(["combinat", "verify", "--lemma", lemma, "--nmax", "17"])
    data = json.loads(out)
    assert code == 0 and data["pass"] and (data["lemma"], data["cases"]) == (lemma, 288)


def test_combinat_verify_random_tail():
    # N = 17..60 exhaustively (59832 cosets), then 500 random cosets with
    # 61 <= N <= 70
    code, out, _ = run_cli(["combinat", "verify", "--lemma", "box1", "--nmax", "70"])
    data = json.loads(out)
    assert code == 0 and data["pass"] and data["cases"] == 59832 + 500


def test_dynamics_classify_preperiodic_alpha():
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[-1,0,1]",
                            "--alpha", "0"])
    data = json.loads(out)
    assert code == 0 and "good_reduction_escape" not in data
    assert data["orbit"] == {"type": "preperiodic", "preperiod": 0, "period": 2}


def test_dynamics_classify_prints_the_monic_scale():
    code, out, _ = run_cli(["dynamics", "classify", "--poly", "[0,0,2]"])
    assert code == 0 and json.loads(out) == {
        "poly": ["0", "0", "1"], "monic_conjugacy_scale": "2",
        "exceptional": {"kind": "power", "over_extension": False}}


def test_csv_out_path_writes_the_trace(tmp_path):
    target = tmp_path / "t.csv"
    argv = ["green", "trace", "--poly", "[-1,0,1]", "--r", "1", "--n", "4"]
    code, out, _ = run_cli(argv + ["--out", str(target)])
    assert code == 0
    assert json.loads(out) == {"written": str(target), "points": 4, "dropped": 0}
    code, printed, _ = run_cli(argv + ["--out", "csv"])
    assert code == 0 and target.read_text() == printed


def test_config_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "of.cfg"
    cfg.write_text("# settings\n\nseries_order = 10  # low\n   \n")
    code, out, _ = run_cli(["--config", str(cfg), "boettcher", "--poly", "[-1,0,1]"])
    assert code == 0 and json.loads(out)["order"] == 10


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "of.cfg"
    cfg.write_text("series_order 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "boettcher", "--poly", "[-1,0,1]"])
    assert exc.value.code == 2
    assert "bad config line" in capsys.readouterr().err
