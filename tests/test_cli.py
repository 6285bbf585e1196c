"""Command line interface: output contracts, validators, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sstkalman.cli import (
    CHAIN_SLACK,
    build_parser,
    csv_text,
    format_cell,
    json_text,
    main,
    parse_cell,
    parse_csv,
    parse_db_values,
    validate_bound_chain,
)
from sstkalman import (channel, cli, convcode, covar_mi, gf2, kalman, parity_prob,
                       qli_search, sstdec)
from sstkalman.convcode import make_qli
from sstkalman.parity_prob import code_supports

from oracles import code_to_json
from reference_tables import POLY_ALPHA1_C1, SEARCH_ROWS_NU5

CURVE_HEADER = ("ebn0_db,rho,half_tr_sigma_c,gauss_bound,half_tr_sigma_x,"
                "inv_1p_rho,log1p_rho_over_rho,two_I_over_rho,"
                "lambda_t1,lambda_t2,rho_lambda_max")


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_tables_one_shape_and_anchor_row(capsys):
    rc, out, _ = run(["tables", "--table", "1", "--quiet"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 22
    header = lines[0].split(",")
    assert header == ["ebn0_db", "alpha1", "sigma1_sq", "alpha2",
                      "sigma2_sq", "theta12", "half_tr_sigma_x"]
    row0 = dict(zip(header, lines[11].split(",")))
    assert row0["ebn0_db"] == "0"
    assert round(float(row0["alpha1"]), 4) == 0.4259
    assert round(float(row0["sigma1_sq"]), 4) == 0.9780
    assert round(float(row0["alpha2"]), 4) == 0.4494
    assert round(float(row0["sigma2_sq"]), 4) == 0.9898
    assert round(float(row0["theta12"]), 4) == 0.0758
    assert round(float(row0["half_tr_sigma_x"]), 4) == 0.9839


def test_tables_five_channel_bound_cell(capsys):
    rc, out, _ = run(["tables", "--table", "5", "--quiet"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    row0 = dict(zip(header, lines[11].split(",")))
    assert row0["inv_1p_rho"] == "0.5"
    assert round(float(row0["half_tr_sigma_c"]), 4) == 0.4839


def test_tables_nine_exact_integers(capsys):
    rc, out, _ = run(["tables", "--table", "9", "--quiet"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9
    got = [tuple(line.split(",")) for line in lines[1:]]
    for (c1, c2, c3, m1a, m2a, m1b, m2b), ref in zip(got, SEARCH_ROWS_NU5):
        assert c1 + c2 + c3 == ref[0]
        assert (int(m1a), int(m2a), int(m1b), int(m2b)) == ref[1:5]


def test_tables_rejects_unknown_number(capsys):
    rc, _, err = run(["tables", "--table", "11", "--quiet"], capsys)
    assert rc == 2
    assert "error" in err.lower()


def test_curves_header_and_roundtrip(capsys, tmp_path):
    target = tmp_path / "curves.csv"
    rc, out, _ = run(["curves", "--code", "c2", "--ebn0", "0,5,10",
                      "--out", str(target)], capsys)
    assert rc == 0
    text = target.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 4
    assert "wrote" in out
    columns, rows = parse_csv(text)
    assert columns == CURVE_HEADER.split(",")
    assert csv_text(columns, rows) == text


def test_curves_empty_grid_is_header_only(capsys):
    rc, out, _ = run(["curves", "--code", "c1", "--ebn0", "", "--quiet"], capsys)
    assert rc == 0
    assert out == CURVE_HEADER + "\n"


def test_curves_at_vanishing_snr_holds_the_bound_chain(capsys):
    rc, out, err = run(["curves", "--code", "c1", "--ebn0-db=-300", "--quiet"], capsys)
    assert rc == 0, err
    row = dict(zip(CURVE_HEADER.split(","), out.strip().split("\n")[1].split(",")))
    assert float(row["gauss_bound"]) == pytest.approx(float(row["half_tr_sigma_x"]))


@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("code", ["c1", "c2"])
def test_curves_json_rows_keep_the_column_order(capsys, code, mode):
    rc, out, err = run(["curves", "--code", code, "--mode", mode, "--format", "json"], capsys)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["columns"] == list(cli.CURVES)
    assert [list(row) for row in payload["rows"]] == [list(cli.CURVES)] * 21


def test_only_curves_evaluates_the_binary_input_curve(capsys, monkeypatch):
    # the tables print no two_I_over_rho, so they evaluate no quadrature
    calls = []
    original = covar_mi.binary_input_mi
    monkeypatch.setattr(covar_mi, "binary_input_mi",
                        lambda rho: calls.append(rho) or original(rho))
    for table in range(1, 9):
        rc, _, err = run(["tables", "--table", str(table), "--quiet"], capsys)
        assert rc == 0, err
    assert calls == []
    rc, _, err = run(["curves", "--ebn0-db=-10..10", "--quiet"], capsys)
    assert rc == 0, err
    assert len(calls) == 21


@pytest.mark.parametrize("content", [
    {"name": "x"},
    [1, 2],
    {"g": "111", "ginv": ["01", "11"]},
    {"g": ["111", 5], "ginv": ["01", "11"]},
    {"g": ["111"], "ginv": ["01", "11"]},
    # a code file holds name, g and ginv only: "h" and "qli" are unknown fields
    {"g": ["111", "101"], "ginv": ["01", "11"], "h": None},
    {"g": ["1101", "101"], "ginv": ["001", "1001"], "qli": True},
    # a valid code under a name that is not a string
    {"name": ["x"], "g": ["111", "101"], "ginv": ["01", "11"]},
    # unknown fields, whatever their value
    {"g": ["11", "1"], "ginv": ["0", "1"], "qli": 1},
    {"g": ["111", "101"], "ginv": ["01", "11"], "ginverse": ["01", "11"]},
    # c1 with its parity check (g2, g1) spelled out
    {"g": ["111", "101"], "ginv": ["01", "11"], "h": ["101", "111"]},
])
def test_malformed_code_file_exits_2(tmp_path, content):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(content))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "sstkalman.cli", "curves",
                           "--code", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
])
def test_undecodable_code_file_exits_2_naming_the_file(capsys, tmp_path, content, reason):
    path = tmp_path / "code.json"
    path.write_bytes(content)
    for argv in (["alpha", "--code", str(path)], ["curves", "--code", str(path)]):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot read code file {str(path)!r} as UTF-8 JSON: {reason}")
        assert err.count("\n") == 1


@pytest.mark.parametrize("nu", [63, 64])
def test_simulate_refuses_a_memory_the_decoder_cannot_index(capsys, tmp_path, nu):
    # (1 + D^nu, 1) with right inverse (0, 1) passes every code check, but
    # the decoder kernel holds its states in 64-bit words
    g1 = "1" + "0" * (nu - 1) + "1"
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"g": [g1, "1"], "ginv": ["0", "1"]}))
    rc, out, err = run(["simulate", "--code", str(path), "--ebn0-db=4", "--branches", "1000"],
                       capsys)
    assert (rc, out) == (2, "")
    assert err == "error: the main decoder needs a code of memory 1 <= nu <= 62\n"


def test_simulate_refuses_a_decoder_past_its_memory_cap(capsys, tmp_path):
    # g = (1 + D^62, 1 + D + D^62): a memory the kernel indexes, 2^61 lanes
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json(convcode.make_qli(1 << 61))))
    rc, out, err = run(["simulate", "--code", str(path), "--ebn0-db=4", "--branches", "1000"],
                       capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: the main decoder would take ")
    assert err.endswith(f" bytes for a code of memory nu = 62, over its cap of "
                        f"{sstdec.DECODER_BYTES} bytes\n")


@pytest.mark.parametrize("argv, flag", [
    (["kalman-check", "--states", "0"], "--states"),
    (["kalman-check", "--steps", "3"], "--steps"),
    (["kalman-check", "--seed", "-1"], "--seed"),
    (["simulate", "--seed", "-1", "--branches", "1000"], "--seed"),
    (["simulate", "--seed", str(2**64), "--branches", "1000"], "--seed"),
    (["simulate", "--branches", "999"], "--branches"),
    (["simulate", "--ebn0-db=inf", "--branches", "1000"], "--ebn0-db"),
    (["simulate", "--ebn0-db=nan", "--branches", "1000"], "--ebn0-db"),
    (["simulate", "--ebn0-db=2,-inf", "--branches", "1000"], "--ebn0-db"),
    (["curves", "--ebn0-db=inf"], "--ebn0-db"),
    (["curves", "--ebn0-db=nan"], "--ebn0-db"),
    (["curves", "--ebn0-db=1e400"], "--ebn0-db"),
    (["alpha", "--ebn0-db=-inf"], "--ebn0-db"),
    (["curves", "--ebn0-db=1,,2"], "--ebn0-db"),
    (["curves", "--ebn0-db=3080"], "--ebn0-db"),
    (["curves", "--ebn0-db=3083"], "--ebn0-db"),
    (["alpha", "--ebn0-db=3083"], "--ebn0-db"),
    (["simulate", "--ebn0-db=3083", "--branches", "1000"], "--ebn0-db"),
    (["curves", "--ebn0-db=-3230"], "--ebn0-db"),
    (["curves", "--ebn0-db=-3240"], "--ebn0-db"),
    (["curves", "--ebn0-db=0..1" + "0" * 400], "--ebn0-db"),
    (["alpha", "--emit", "polynomial", "--ebn0-db=nan"], "--ebn0-db"),
    (["alpha", "--emit", "polynomial", "--ebn0-db=9999"], "--ebn0-db"),
    (["alpha", "--emit", "polynomial", "--ebn0-db=a,b"], "--ebn0-db"),
    # int and float read digit separators and non-ASCII digits
    (["curves", "--ebn0-db=1_0"], "--ebn0-db"),
    (["curves", "--ebn0-db=1_0..1_2"], "--ebn0-db"),
    (["alpha", "--ebn0-db=\u0663"], "--ebn0-db"),
])
def test_bad_argument_values_exit_2_naming_the_flag(argv, flag):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "sstkalman.cli", *argv, "--quiet"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


STARTUP_SCRIPT = """
import contextlib, io, os, sys, tempfile
from sstkalman import cli

def heavy_modules():
    # numpy and scipy, and dataclasses with the inspect module it loads
    return [m for m in sys.modules
            if m.split(".")[0] in ("numpy", "scipy", "dataclasses", "inspect")]

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

def late_modules():
    # sstdec imports these on the decoder kernel's first build only
    return {"hashlib", "subprocess"} & set(sys.modules)

def run(argv, code=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv

# the exact commands evaluate their closed forms in plain floats and ints
assert not heavy_modules(), heavy_modules()
with tempfile.TemporaryDirectory() as tmp:
    for table in range(1, 9):
        run(["tables", "--table", str(table), "--quiet", "--out", os.path.join(tmp, "t.csv")])
for argv in (["alpha", "--code", "c1"], ["alpha", "--code", "c2", "--mode", "qli"],
             ["alpha", "--code", "c1", "--format", "json"],
             ["alpha", "--code", "c2", "--mode", "qli", "--format", "json"],
             ["alpha", "--code", "c1", "--emit", "polynomial"],
             ["alpha", "--code", "c2", "--mode", "qli", "--emit", "polynomial"]):
    run(argv)
run(["alpha", "--ebn0-db=nan"], 2)
assert not heavy_modules(), heavy_modules()
# curves' binary-input quadrature is the first use of numpy
run(["curves", "--code", "c2", "--mode", "qli"])
assert "numpy" in sys.modules
for argv in (["tables", "--table", "9"], ["search", "--nu", "6"], ["kalman-check"]):
    run(argv)
    if argv[0] != "kalman-check":
        assert not late_modules(), (argv, late_modules())
assert not scipy_modules(), scipy_modules()
# kalman-check draws its model from numpy.random, whose seeding may load
# hashlib (through secrets and hmac); subprocess stays out
assert "subprocess" not in sys.modules
run(["simulate", "--branches", "1000"])
assert "scipy.special" in sys.modules
print("ok")
"""


def test_only_the_noise_draw_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    first = run(["tables", "--table", "1"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["tables"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["simulate", "--branches", "5"], capsys)[0] == 2
    rc, out, _ = run(["curves", "--format", "json"], capsys)
    assert rc == 0 and json.loads(out)["columns"][0] == "ebn0_db"
    # --format falls back to its csv default on the next call
    assert run(["tables", "--table", "1"], capsys)[:2] == first[:2]
    assert first[0] == 0 and first[1].startswith("ebn0_db,alpha1,")


def test_main_looks_up_its_runner_at_call_time(capsys, monkeypatch):
    # the tracer's cli.run_self_s attribution needs the replaced functions to run
    build_parser()
    ran = []
    for name in ("run_tables", "run_search"):
        def recording(args, _original=getattr(cli, name), _name=name):
            ran.append(_name)
            return _original(args)
        monkeypatch.setattr(cli, name, recording)
    assert run(["tables", "--table", "9", "--quiet"], capsys)[0] == 0
    assert run(["search", "--nu", "5", "--quiet"], capsys)[0] == 0
    assert ran == ["run_tables", "run_search"]


def _leaves(value):
    if isinstance(value, dict):
        assert all(isinstance(k, str) for k in value)
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def _as_lists(value):
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


@pytest.mark.parametrize("argv", [
    *(["tables", "--table", str(t)] for t in range(1, 11)),
    *([cmd, "--code", code, "--mode", mode, *extra]
      for cmd, extra in (("curves", []), ("alpha", []), ("alpha", ["--emit", "polynomial"]),
                         ("simulate", ["--ebn0-db=-3076.5,3000", "--branches", "1000"]))
      for code in ("c1", "c2") for mode in ("general", "qli")),
    ["kalman-check"],
    ["search", "--nu", "6"],
], ids=" ".join)
def test_rows_hold_only_plain_values(capsys, monkeypatch, argv):
    # json.dumps and format_cell take the rows as they are: a numpy integer or
    # bool in a row would raise or print differently, and a numpy float, a
    # float subclass, would miss column_texts' one-map float path
    emitted = []
    original = cli._emit_and_validate

    def recording(args, columns, rows, validators):
        emitted.append(rows)
        return original(args, columns, rows, validators)

    monkeypatch.setattr(cli, "_emit_and_validate", recording)
    rc, out, err = run([*argv, "--format", "json", "--quiet"], capsys)
    assert rc == 0, err
    [rows] = emitted
    bad = [v for v in _leaves(rows) if type(v) not in (bool, int, float, str, type(None))]
    assert not bad, [type(v) for v in bad]
    payload = json.loads(out)
    assert (payload if "variable" in payload else payload["rows"]) == _as_lists(rows)


@pytest.mark.parametrize("argv", [
    ["curves", "--mode", "qli"],
    ["simulate", "--mode", "qli", "--branches", "1000"],
])
def test_qli_mode_follows_from_the_generators_alone(capsys, tmp_path, argv):
    # c1's g and ginv with no "qli" key: g1 + g2 = D makes the code QLI
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"g": ["111", "101"], "ginv": ["01", "11"]}))
    rc_file, out_file, err_file = run([*argv, "--code", str(path)], capsys)
    rc_c1, out_c1, err_c1 = run([*argv, "--code", "c1"], capsys)
    assert (rc_file, out_file, err_file) == (rc_c1, out_c1, err_c1)
    assert rc_file == 0


def csv_column(text, name):
    lines = text.strip().split("\n")
    index = lines[0].split(",").index(name)
    return [line.split(",")[index] for line in lines[1:]]


@pytest.mark.parametrize("code, table", [("c1", 7), ("c2", 8)])
def test_qli_curves_carry_the_qli_table_trace(capsys, code, table):
    # a qli sweep row holds the Sigma_x' statistics under the general names
    rc_curves, curves, _ = run(["curves", "--code", code, "--mode", "qli", "--quiet"],
                               capsys)
    rc_table, tables, _ = run(["tables", "--table", str(table), "--quiet"], capsys)
    assert rc_curves == rc_table == 0
    assert (csv_column(curves, "half_tr_sigma_x")
            == csv_column(tables, "half_tr_sigma_x_prime"))


def test_qli_mode_on_a_non_qli_code_gives_one_error_line(capsys, tmp_path):
    # g1 + g2 = D + D^2 + D^3 is not a monomial
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"name": "nq", "g": ["1101", "101"],
                                "ginv": ["001", "1001"]}))
    results = {run([command, "--mode", "qli", "--code", str(path), *extra], capsys)
               for command, extra in (("curves", []), ("alpha", []),
                                      ("simulate", ["--branches", "1000"]))}
    assert results == {(2, "", "error: 'nq' is not quick-look-in\n")}


@pytest.mark.parametrize("db", ["305", "400", "3000", "-3076.5", "3076.5"])
def test_simulate_at_huge_snr_passes_its_checks(capsys, db):
    # c = sqrt(rho) reaches 1e20 and more: the noise must not vanish in
    # c*xt + w, and the model se must not meet 0 * inf
    rc, out, err = run(["simulate", f"--ebn0-db={db}", "--branches", "1000",
                        "--format", "json"], capsys)
    assert rc == 0, err
    (row,) = json.loads(out)["rows"]
    assert np.isfinite(row["sigma_r_se"]).all()


def test_quiet_suppresses_write_note(capsys, tmp_path):
    target = tmp_path / "t.csv"
    rc, out, _ = run(["curves", "--code", "c1", "--ebn0", "1",
                      "--out", str(target), "--quiet"], capsys)
    assert rc == 0
    assert out == ""
    assert target.exists()


def test_out_to_missing_directory_fails_cleanly(capsys, tmp_path):
    rc, _, err = run(["curves", "--code", "c1", "--ebn0", "1",
                      "--out", str(tmp_path / "no" / "dir" / "x.csv")], capsys)
    assert rc == 2
    assert "error" in err.lower()


def test_alpha_values_anchor_row(capsys):
    rc, out, _ = run(["alpha", "--code", "c1", "--ebn0-db", "0", "--quiet"],
                     capsys)
    assert rc == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert round(float(cells["alpha1"]), 4) == 0.4259
    assert round(float(cells["alpha2"]), 4) == 0.4494
    assert round(float(cells["theta12"]), 4) == 0.0758


ALPHA_DB = (*channel.DB_GRID, -3076.5, -300, -60, 16, 18, 20, 30, 300, 3076.5)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("code", ["c1", "c2"])
def test_alpha_values_are_branch_stats_bit_for_bit(capsys, code, mode, fmt):
    """alpha selects the sweep rows' statistics; each equals the one
    branch_stats call at its point."""
    rc, out, err = run(["alpha", "--code", code, "--mode", mode, "--format", fmt,
                        "--ebn0-db=" + ",".join(map(str, ALPHA_DB))], capsys)
    assert (rc, err) == (0, "")
    supports = code_supports(convcode.get_code(code), mode)
    columns = cli.column_names(("ebn0_db", "epsilon") + cli.STATS, mode)
    want = []
    for db in ALPHA_DB:
        pt = channel.snr_point(db)
        want.append(dict(zip(columns, (pt.ebn0_db, pt.epsilon,
                                       *parity_prob.branch_stats(*supports, pt.epsilon)))))
    if fmt == "json":
        assert json.loads(out) == {"columns": columns, "rows": want}
    else:
        assert out == csv_text(columns, want)


def test_exact_commands_never_load_the_decoder_library(capsys, monkeypatch):
    def refuse():
        raise AssertionError("the C library was loaded")

    monkeypatch.setattr(sstdec, "kernel", refuse)
    for argv in ([["tables", "--table", str(t)] for t in range(1, 11)]
                 + [["curves"], ["curves", "--code", "c2", "--mode", "qli"], ["alpha"],
                    ["alpha", "--code", "c2", "--mode", "qli"],
                    ["alpha", "--emit", "polynomial"], ["search", "--nu", "6"],
                    ["kalman-check"]]):
        rc, _, err = run([*argv, "--quiet"], capsys)
        assert rc == 0, (argv, err)


def test_alpha_polynomial_emit(capsys):
    rc, out, _ = run(["alpha", "--code", "c1", "--emit", "polynomial",
                      "--quiet"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["variable"] == "eps"
    assert payload["coefficient_order"] == "ascending"
    assert payload["alpha1"] == list(POLY_ALPHA1_C1)
    assert all(isinstance(c, int) for c in payload["theta12"])


def test_simulate_small_run(capsys):
    rc, out, _ = run(["simulate", "--code", "c1", "--ebn0", "2",
                      "--branches", "2000", "--seed", "1",
                      "--format", "json", "--quiet"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["columns"][:4] == ["ebn0_db", "branches", "pre_ber", "post_ber"]
    row = payload["rows"][0]
    values = dict(zip(payload["columns"], row)) if isinstance(row, list) else row
    assert 0 <= values["post_ber"] <= values["pre_ber"] + 0.05


def test_simulate_rejects_small_budget(capsys):
    rc, _, err = run(["simulate", "--code", "c1", "--ebn0", "2",
                      "--branches", "500", "--seed", "1", "--quiet"], capsys)
    assert rc == 2
    assert "error" in err.lower()


SIM_ARGV = ["simulate", "--code", "c2", "--mode", "qli", "--ebn0-db=-2,4,9",
            "--branches", "3000", "--seed", "11", "--format", "json", "--quiet"]
SIM_DB = (-2.0, 4.0, 9.0)


def test_simulate_rows_equal_the_point_by_point_composition(capsys):
    rc, out, err = run(SIM_ARGV, capsys)
    assert rc == 0, err
    rows = json.loads(out)["rows"]
    code = convcode.get_code("c2")
    assert len(rows) == len(SIM_DB)
    for row, db in zip(rows, SIM_DB):
        res = sstdec.simulate(code, [channel.snr_point(db)], 3000, 11, mode="qli")[0]
        # JSON turns the nested sigma_r_* tuples into lists
        expected = json.loads(json.dumps(res))
        assert {k: row[k] for k in expected} == expected


def test_simulate_decodes_on_the_calling_thread_in_db_order(capsys, monkeypatch):
    original = sstdec.viterbi_main
    calls = []

    def recording(r, *args, **kwargs):
        calls.append((threading.get_ident(), np.array(r)))
        return original(r, *args, **kwargs)

    monkeypatch.setattr(sstdec, "viterbi_main", recording)
    code = convcode.get_code("c2")
    for db in SIM_DB:
        sstdec.simulate(code, [channel.snr_point(db)], 3000, 11, mode="qli")[0]
    expected = [r for _, r in calls]
    calls.clear()
    threads = threading.active_count()
    rc, _, err = run(SIM_ARGV, capsys)
    assert threading.active_count() == threads
    assert rc == 0, err
    assert [ident for ident, _ in calls] == [threading.get_ident()] * len(SIM_DB)
    assert all(np.array_equal(r, e) for (_, r), e in zip(calls, expected))


def test_failed_covariance_draw_exits_2_without_traceback(capsys, monkeypatch):
    original = sstdec.sample_sigma_r

    def failing_at_second_point(v, w, point, probs):
        if point.ebn0_db == SIM_DB[1]:
            raise ValueError("planted draw failure")
        return original(v, w, point, probs)

    monkeypatch.setattr(sstdec, "sample_sigma_r", failing_at_second_point)
    rc, out, err = run(SIM_ARGV, capsys)
    assert (rc, out, err) == (2, "", "error: planted draw failure\n")


def test_simulate_starts_no_thread(capsys, monkeypatch):
    def refuse(self):
        raise RuntimeError("simulate started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rc, _, err = run(SIM_ARGV, capsys)
    assert rc == 0, err


@pytest.mark.parametrize("argv", [
    # one parity event in 249 rows where 0.034 are expected (exact tail 0.034)
    ["--code", "c1", "--ebn0-db=10,11,12,13,14", "--seed", "13"],
    ["--code", "c1", "--mode", "qli", "--ebn0-db=10", "--seed", "60"],
    ["--code", "c1", "--mode", "qli", "--ebn0-db=-10..0", "--seed", "49"],
    # one parity event in each stream of 83 rows at 13 dB, where 0.004 are
    # expected: Sigma_r_hat is 7.4 model se off I + rho Sigma_x, but within
    # 1.6 se of I + rho S given those counts
    ["--code", "c2", "--ebn0-db=10..14", "--seed", "159"],
])
def test_simulate_checks_pass_on_rare_but_lawful_samples(capsys, argv):
    rc, _, err = run(["simulate", *argv, "--branches", "1000", "--quiet"], capsys)
    assert (rc, err) == (0, "")


@pytest.mark.parametrize("code_name", ["c1", "c2"])
@pytest.mark.parametrize("mode", ["general", "qli"])
def test_simulate_sigma_r_check_passes_long_runs(capsys, code_name, mode):
    # 1666 to 6666 rows per point, where 5 se stays under 0.42: a w of
    # variance 1.44, or a reference with c S in place of rho S or without
    # rho S_12 (about 1 at 4 dB), fails here
    rc, _, err = run(["simulate", "--code", code_name, "--mode", mode, "--ebn0-db=-10,0,4",
                      "--branches", "20000", "--seed", "5", "--quiet"], capsys)
    assert (rc, err) == (0, "")


def test_simulate_sigma_r_check_rejects_a_scaled_w(capsys, monkeypatch):
    original = sstdec.sample_sigma_r

    def scaled(v, w, point, probs):
        return original(v, 1.2 * w, point, probs)

    monkeypatch.setattr(sstdec, "sample_sigma_r", scaled)
    rc, _, err = run(["simulate", "--code", "c1", "--ebn0-db=4", "--branches", "20000",
                      "--quiet"], capsys)
    assert rc == 1
    assert "empirical received covariance off model by >5 se" in err


def test_simulate_binomial_check_rejects_a_planted_alpha(capsys, monkeypatch):
    original = parity_prob.count_frequencies

    def planted(counts, n):
        (a1, a2, a11), ses = original(counts, n)
        return [a1 + 0.2, a2, a11], ses

    # the estimator that simulate calls; the exact alpha1 at 4 dB is ~0.22
    monkeypatch.setattr(parity_prob, "count_frequencies", planted)
    rc, _, err = run(["simulate", "--code", "c1", "--ebn0-db=4", "--branches", "20000",
                      "--quiet"], capsys)
    assert rc == 1
    lines = err.splitlines()
    assert "validation: row 0: emp_alpha1 deviates from model by >5 se" in lines
    assert not [line for line in lines if "emp_alpha2" in line or "emp_alpha11" in line]


def test_simulate_empty_grid_is_header_only(capsys):
    rc, out, err = run(["simulate", "--code", "c1", "--ebn0-db=", "--branches", "1000",
                        "--quiet"], capsys)
    assert (rc, out, err) == (0, "ebn0_db,branches,pre_ber,post_ber,emp_alpha1,"
                                 "emp_alpha2,emp_alpha11\n", "")


SIM_KEYS = ["ebn0_db", "branches", "pre_ber", "post_ber", "emp_alpha1", "emp_alpha2",
            "emp_alpha11", "se_alpha1", "se_alpha2", "se_alpha11", "stride", "n_eff",
            "sigma_r_hat", "sigma_r_se", "epsilon", "rho", "alpha1_ref", "alpha2_ref",
            "alpha11_ref", "sigma_r_ref"]


def test_simulate_and_kalman_check_json_rows_keep_their_key_order(capsys):
    rc, out, err = run(SIM_ARGV, capsys)
    assert rc == 0, err
    assert [list(row) for row in json.loads(out)["rows"]] == [SIM_KEYS] * len(SIM_DB)
    rc, out, err = run(["kalman-check", "--format", "json", "--quiet"], capsys)
    assert rc == 0, err
    rows = json.loads(out)["rows"]
    assert rows and all(list(row) == ["check", "max_dev", "tol", "passed"] for row in rows)


def test_kalman_check_passes(capsys):
    rc, out, _ = run(["kalman-check", "--quiet"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,max_dev,tol,passed"
    assert len(lines) > 5
    assert all(line.endswith(",1") for line in lines[1:])


def test_kalman_check_least_step_count(capsys):
    # 4 is the least step count, and the lag-2 check must stay inside its trace
    rc, out, _ = run(["kalman-check", "--steps", "4", "--quiet"], capsys)
    assert rc == 0
    assert all(line.endswith(",1") for line in out.strip().split("\n")[1:])


@pytest.mark.parametrize("states, steps", [(1, 1025), (4, 257), (257, 4),
                                           (3, 10**23)])
def test_kalman_check_past_its_joint_cap_exits_2_before_building(capsys, monkeypatch,
                                                                 states, steps):
    # a side of states x steps = 1024 fills the cap, so each of these is the
    # first value past it (or far past it); none of them is run
    assert 8 * (states * steps) ** 2 > kalman.KALMAN_JOINT_BYTES == 8 * 1024 ** 2

    def refuse(*args, **kwargs):
        raise AssertionError("a model was built past the cap")

    monkeypatch.setattr(kalman, "random_model", refuse)
    rc, out, err = run(["kalman-check", "--states", str(states), "--steps", str(steps)],
                       capsys)
    assert (rc, out) == (2, "")
    assert err == (f"error: --states {states} x --steps {steps}: the projection oracle's "
                   f"joint covariance would take {8 * (states * steps) ** 2} bytes, "
                   f"over its cap of {kalman.KALMAN_JOINT_BYTES} bytes\n")


# recorded from the joint polynomial minus the product of the marginals
THETA_POLYNOMIALS = {
    ("c1", "general"): [0, 4, -52, 328, -1320, 3696, -7392, 10560, -10560, 7040,
                        -2816, 512],
    ("c1", "qli"): [0, 4, -44, 240, -840, 2016, -3360, 3840, -2880, 1280, -256],
    ("c2", "general"): [0, 9, -279, 4530, -50460, 424872, -2833488, 15382368,
                        -69220800, 261500800, -836802560, 2282188800, -5325107200,
                        10650214400, -18257510400, 26777681920, -33472102400,
                        35441049600, -31503155200, 23212851200, -13927710720,
                        6632243200, -2411724800, 629145600, -104857600, 8388608],
    ("c2", "qli"): [0, 8, -152, 1632, -12240, 68544, -297024, 1018368, -2800512,
                    6223360, -11202048, 16293888, -19009536, 17547264, -12533760,
                    6684672, -2506752, 589824, -65536],
}


@pytest.mark.parametrize("code,mode", sorted(THETA_POLYNOMIALS))
def test_alpha_polynomial_theta_coefficients(code, mode, capsys):
    rc, out, _ = run(["alpha", "--code", code, "--mode", mode, "--emit", "polynomial"],
                     capsys)
    assert rc == 0
    key = "theta12" if mode == "general" else "theta12_prime"
    assert json.loads(out)[key] == THETA_POLYNOMIALS[code, mode]


@pytest.mark.parametrize("mode", ["general", "qli"])
def test_alpha_polynomial_of_a_35_variable_support(capsys, tmp_path, mode):
    # nu = 17: the exact expansion has no support-size limit, so both --emit
    # forms accept the code
    sizes = {"general": (35, 34), "qli": (34, 36)}[mode]
    code = make_qli((1 << 17) - 2)
    path = tmp_path / "nu17.json"
    path.write_text(json.dumps(code_to_json(code)))
    base = ["alpha", "--code", str(path), "--mode", mode, "--quiet"]
    rc, _, err = run(base, capsys)
    assert (rc, err) == (0, "")
    rc, out, err = run([*base, "--emit", "polynomial"], capsys)
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    s1, s2 = code_supports(code, mode)
    assert (len(s1), len(s2)) == sizes
    a, b, c = len(s1 - s2), len(s2 - s1), len(s1 & s2)
    marginal, theta = ("alpha1", "theta12") if mode == "general" else ("beta1", "theta12_prime")
    for eps in (Fraction(1, 7), Fraction(2, 5)):
        q = 1 - 2 * eps

        def value(name):
            return sum(k * eps ** j for j, k in enumerate(payload[name]))

        assert value(marginal) == (1 - q ** sizes[0]) / 2
        assert value(theta) == (q ** (a + b) - q ** (a + b + 2 * c)) / 4


def test_search_json_rows_match_csv(capsys):
    rc, csv_out, _ = run(["search", "--nu", "6"], capsys)
    assert rc == 0
    rc, json_out, _ = run(["search", "--nu", "6", "--format", "json"], capsys)
    assert rc == 0
    payload = json.loads(json_out)
    assert len(payload["rows"]) == 16
    assert csv_text(payload["columns"], payload["rows"]) == csv_out


def per_row_search(nu):
    """search's columns and rows with one trace_compare per row, each on
    freshly built SNR points: the reference for search, which decides
    each distinct count tuple's reversals once."""
    columns = ["c_bits", "m1a", "m2a", "m1b", "m2b",
               "heuristic_counterexample", "exact_counterexample_snrs"]
    rows = []
    for entry in qli_search.enumerate_qli(nu):
        snrs = [p.ebn0_db for p in qli_search.trace_compare(entry.counts,
                                                             channel.grid_points())
                if p.reversed_order]
        assert snrs == qli_search.exact_counterexample_snrs(make_qli(entry.gprime))
        rows.append({"c_bits": "".join(str(b) for b in entry.c_bits),
                     "m1a": entry.m1_alpha, "m2a": entry.m2_alpha,
                     "m1b": entry.m1_beta, "m2b": entry.m2_beta,
                     "heuristic_counterexample": entry.heuristic_counterexample,
                     "indeterminate": entry.indeterminate,
                     "exact_counterexample_snrs": ";".join(format_cell(v) for v in snrs)})
    return columns, rows


@pytest.mark.parametrize("nu", range(3, 13))
def test_search_matches_one_comparison_per_row(nu, capsys):
    columns, rows = per_row_search(nu)
    rc, csv_out, _ = run(["search", "--nu", str(nu)], capsys)
    assert rc == 0
    assert csv_out == csv_text(columns, rows)
    rc, json_out, _ = run(["search", "--nu", str(nu), "--format", "json"], capsys)
    assert rc == 0
    assert json_out == json_text(columns, rows)


def test_search_runs_no_float_trace_comparison(monkeypatch, capsys):
    # search reads each count tuple's reversals from qli_search.reversal_flags
    # alone, exactly, so every row passes its validator at every nu
    def refuse(*args):
        raise AssertionError("search compared float half traces")

    monkeypatch.setattr(qli_search, "trace_compare", refuse)
    monkeypatch.setattr(qli_search, "_half_trace", refuse)
    for nu, lines in ((10, 257), (12, 1025)):
        rc, out, err = run(["search", "--nu", str(nu)], capsys)
        assert (rc, err) == (0, "")
        assert len(out.strip().split("\n")) == lines


def test_search_builds_no_code_objects(monkeypatch, capsys):
    # search and tables 9-10 take the family's counts from integer masks;
    # convcode holds its own binding of polymat_mul
    calls = {}

    def count(module, name):
        fn = getattr(module, name)
        label = f"{module.__name__}.{name}"
        calls[label] = 0

        def counting(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in ((convcode, "make_qli"), (convcode, "main_encoded_block_map"),
                         (convcode, "polymat_mul"), (gf2, "polymat_mul")):
        count(module, name)
    for argv in (["search", "--nu", "10", "--quiet"], ["tables", "--table", "10"]):
        rc, _, _ = run(argv, capsys)
        assert rc == 0
    assert set(calls.values()) == {0}
    # the counters are live: one built code and its block map count once each
    convcode.main_encoded_block_map(convcode.make_qli(qli_search.enumerate_qli(10)[0].gprime))
    assert set(calls.values()) == {1}


def test_search_rows_and_flag_column(capsys):
    rc, out, _ = run(["search", "--nu", "5", "--quiet"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["c_bits"] == "000"
    flagged = [r for r in rows if r["heuristic_counterexample"] == "1"]
    assert [r["c_bits"] for r in flagged] == ["111"]
    assert flagged[0]["exact_counterexample_snrs"] != ""
    for row, ref in zip(rows, SEARCH_ROWS_NU5):
        assert row["c_bits"] == ref[0]
        assert int(row["m1a"]) == ref[1]


def test_search_rejects_out_of_range_nu(capsys):
    rc, _, err = run(["search", "--nu", "13", "--quiet"], capsys)
    assert rc == 2
    assert "error" in err.lower()


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(7) == "7"
    assert format_cell(0.5) == "0.5"
    assert format_cell(0.12345678) == "0.123457"
    assert format_cell(1234567.0) == "1.23457e+06"


def test_parse_cell_round_trip():
    for value in (None, True, 7, 0.5, 0.123457, "000", "abc", -3):
        text = format_cell(value)
        back = parse_cell(text)
        if value is True:
            assert back == 1
        elif isinstance(value, float):
            assert back == pytest.approx(value, rel=1e-5)
        else:
            assert back == value
    assert parse_cell("000") == "000"
    assert parse_cell("") is None


def test_parse_db_values():
    def dbs(text):
        points = parse_db_values(text)
        # the points are snr_point's own
        assert points == [channel.snr_point(p.ebn0_db) for p in points]
        return [p.ebn0_db for p in points]

    assert dbs("0,1,2") == [0.0, 1.0, 2.0]
    assert dbs("-2..2") == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert dbs("") == []
    assert dbs("3") == [3.0]
    # every spelling of zero reads as +0.0, which prints as 0, never -0
    for text in ("-0", "-0.0", "-0..0", "0"):
        assert [math.copysign(1.0, v) for v in dbs(text)] == [1.0]
    with pytest.raises(ValueError):
        parse_db_values("5..1")
    with pytest.raises(ValueError, match="--ebn0-db"):
        parse_db_values("a,b")
    with pytest.raises(ValueError, match="--ebn0-db.*finite"):
        parse_db_values("0,inf")


@pytest.mark.parametrize("db", ["-0", "-0.0", "-0..0"])
def test_negative_zero_db_reads_back_as_a_number(capsys, db):
    rc, out, err = run(["alpha", f"--ebn0-db={db}"], capsys)
    assert (rc, err) == (0, "")
    assert out.split("\n")[1].startswith("0,")
    assert parse_csv(out)[1][0]["ebn0_db"] == 0


def test_validate_bound_chain_flags_violations():
    columns = ["half_tr_sigma_c", "gauss_bound", "half_tr_sigma_x",
               "inv_1p_rho", "log1p_rho_over_rho"]
    good = [dict(zip(columns, (0.1, 0.2, 0.3, 0.4, 0.5)))]
    assert validate_bound_chain(columns, good) == []
    bad = [dict(zip(columns, (0.3, 0.2, 0.1, 0.4, 0.5)))]
    assert validate_bound_chain(columns, bad) != []


ROUNDTRIP_ERROR = "validation: CSV does not round-trip through parse/emit\n"


def emitting(monkeypatch, columns, rows, validators):
    """Make `search` emit these columns and rows under these validators."""
    monkeypatch.setattr(cli, "run_search", lambda args: (columns, rows, validators))


@pytest.mark.parametrize("columns, cell, rc", [
    (["x"], "a,b", 1),
    (["x"], "a\nb", 1),
    # parse_cell reads these as 1.0 and 1000.0, which format as "1" and "1000"
    (["x"], "1.0", 1),
    (["x"], "1e3", 1),
    (["x", "x"], "abc", 1),
    (["x,y"], "abc", 1),
    (["x\ny"], "abc", 1),
    # these read back as themselves: parse_cell keeps "007" and "-0" str, as
    # it keeps zero-padded bit strings, and reads "nan" as a float that
    # prints "nan"
    (["x"], "007", 0),
    (["x"], "-0", 0),
    (["x"], "0.5;1", 0),
    (["x"], "nan", 0),
])
def test_csv_exits_1_where_it_does_not_round_trip(capsys, monkeypatch, columns, cell, rc):
    emitting(monkeypatch, columns, [{"x": cell}], [])
    assert run(["search", "--nu", "5"], capsys) == (
        rc, csv_text(columns, [{"x": cell}]), ROUNDTRIP_ERROR if rc else "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [float("nan"), float("-inf"), np.float64("nan"),
                                   np.float64("inf")])
def test_non_finite_cell_exits_1(capsys, monkeypatch, fmt, value):
    emitting(monkeypatch, ["x", "y"], [{"x": 1.0, "y": 2}, {"x": value, "y": 2}],
             [cli.validate_finite])
    rc, _, err = run(["search", "--nu", "5", "--format", fmt], capsys)
    assert (rc, err) == (1, "validation: row 1: column x is not finite\n")


def whole_text_roundtrip(columns, rows):
    """The reference verdict: emit the whole text, parse it and emit again."""
    text = csv_text(columns, rows)
    parsed_columns, parsed_rows = parse_csv(text)
    if csv_text(parsed_columns, parsed_rows) != text:
        return ["CSV does not round-trip through parse/emit"]
    return []


@st.composite
def csv_tables(draw):
    """Columns and rows of every type a row may hold, their texts free of
    separators in about half the tables.  The str cells include texts that
    parse_cell reads back as themselves and texts it reads as other ints
    or floats."""
    separators = ",\n" if draw(st.booleans()) else ""
    cell_values = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
        st.sampled_from(["1.0", "1e3", ".5", "NaN", "007", "-0", "nan", "000", "0.5;1"]),
        st.text(alphabet="0179.e+-ainf_x;" + separators, max_size=6))
    columns = draw(st.lists(st.text(alphabet="abc" + separators, min_size=1, max_size=3)
                            | st.just(""), max_size=4))
    keys = st.sampled_from(columns) if columns else st.nothing()
    rows = draw(st.lists(st.dictionaries(keys, cell_values), max_size=4))
    return columns, rows


@settings(max_examples=500, deadline=None)
@given(table=csv_tables())
def test_roundtrip_verdict_matches_the_whole_text_check(table):
    columns, rows = table
    cells, loose = cli.column_texts(columns, rows)
    verdict = cli.validate_roundtrip(columns, cells, loose)
    reference = whole_text_roundtrip(columns, rows)
    # whatever the verdict passes, the whole text reads back
    assert verdict == reference or reference == []
    if (len(set(columns)) == len(columns)
            and not any("," in t or "\n" in t for t in (*columns, *sum(cells, [])))):
        assert verdict == reference
    else:
        # stricter by design: a repeated name, or a name or cell holding a
        # separator, refuses even where the whole text happens to read back
        # (re-split into other rows or columns)
        assert verdict == ["CSV does not round-trip through parse/emit"]


def per_cell_roundtrip(columns, rows, cells):
    """The per-cell verdict: each row's cell texts, and the parse of every
    distinct text whose own value is not None, bool, int or float."""
    texts = {t for row, line in zip(rows, cells) for c, t in zip(columns, line)
             if not isinstance(row.get(c), cli.PLAIN_CELL_TYPES)}
    if (len(set(columns)) < len(columns)
            or any("," in t or "\n" in t for t in (*columns, *texts))
            or any(format_cell(parse_cell(t)) != t for t in texts)):
        return ["CSV does not round-trip through parse/emit"]
    return []


@settings(max_examples=500, deadline=None)
@given(table=csv_tables())
def test_column_texts_are_the_cells_and_roundtrip_verdict_the_per_cell_one(table):
    columns, rows = table
    texts, loose = cli.column_texts(columns, rows)
    cells = [[format_cell(row.get(c)) for c in columns] for row in rows]
    assert len(texts) == len(loose) == len(columns)
    assert [list(line) for line in zip(*texts)] == (cells if columns else [])
    assert cli.join_csv(columns, texts, len(rows)) == (
        "\n".join([",".join(columns), *map(",".join, cells)]) + "\n")
    assert (cli.validate_roundtrip(columns, texts, loose)
            == per_cell_roundtrip(columns, rows, cells))


@settings(max_examples=1000, deadline=None)
@given(value=st.one_of(
    st.none(), st.booleans(),
    # str() refuses ints past 4300 digits, so no CSV holds one
    st.integers(-10**4000, 10**4000),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
))
def test_numeric_cells_round_trip(value):
    # validate_roundtrip parses no cell of these types, on this property
    assert isinstance(value, cli.PLAIN_CELL_TYPES)
    text = format_cell(value)
    assert "," not in text and "\n" not in text
    assert format_cell(parse_cell(text)) == text


# every character that str.isdigit() accepts: the ASCII and other decimal
# digits (Arabic-Indic "\u0663", ...) and digits that int() refuses
# (superscript "\u00b2", circled "\u2460", ...)
ISDIGIT_CHARS = [chr(i) for i in range(sys.maxunicode + 1) if chr(i).isdigit()]


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from("0123456789") | st.sampled_from(ISDIGIT_CHARS),
                    min_size=1, max_size=cli.SHORT_DIGITS))
@example(text="007")
@example(text="\u00b2")
@example(text="\u0663")
@example(text="0" * cli.SHORT_DIGITS)
@example(text="9" * cli.SHORT_DIGITS)
def test_short_digit_texts_round_trip(text):
    # validate_roundtrip parses no such text of a loose column, on this
    # property: each reads back as itself (leading zeros, a digit int()
    # refuses) or as the int that prints it
    assert text.isdigit() and len(text) <= cli.SHORT_DIGITS
    assert format_cell(parse_cell(text)) == text
    assert cli.validate_roundtrip(["x"], [[text]], [True]) == []


@pytest.mark.parametrize("digits", [640, 641, 4300, 4301])
def test_long_digit_texts_are_parsed_at_the_smallest_int_digit_limit(digits):
    # at int's smallest digit limit, 640, a 641-digit text reads back as a
    # float that prints otherwise, so the check parses digit texts past
    # SHORT_DIGITS and refuses that one as the whole-text check does
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rows = [{"x": "1" * digits}]
        texts, loose = cli.column_texts(["x"], rows)
        verdict = cli.validate_roundtrip(["x"], texts, loose)
        assert verdict == whole_text_roundtrip(["x"], rows)
        assert verdict == ([] if digits <= cli.SHORT_DIGITS else
                           ["CSV does not round-trip through parse/emit"])
    finally:
        sys.set_int_max_str_digits(limit)


# ------------------------------------------------------------------ fuzzing

def _clmul(a, b):
    # product of two GF(2) polynomials held as bit masks (bit j is D^j)
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _bezout(a, b):
    """(s, t) with s a + t b = 1 over GF(2), or None when gcd(a, b) != 1."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q, r = 0, r0
        while r and r.bit_length() >= r1.bit_length():
            shift = r.bit_length() - r1.bit_length()
            q ^= 1 << shift
            r ^= r1 << shift
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _clmul(q, s1)
        t0, t1 = t1, t0 ^ _clmul(q, t1)
    return (s0, t0) if r0 == 1 else None


def _poly_text(mask):
    return "".join(str(mask >> j & 1) for j in range(max(mask.bit_length(), 1)))


@st.composite
def code_files(draw):
    """A code file with nu <= 6: a right inverse when one exists, any other
    pair otherwise."""
    g = (draw(st.integers(1, 127)), draw(st.integers(1, 127)))
    ginv = _bezout(*g) or (draw(st.integers(0, 63)), draw(st.integers(0, 63)))
    return {"g": [_poly_text(p) for p in g], "ginv": [_poly_text(p) for p in ginv]}


db_texts = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=2)
    .map(lambda values: ",".join(repr(v) for v in values)),
    st.tuples(st.integers(-4000, 4000), st.integers(-1, 2))
    .map(lambda ends: f"{ends[0]}..{ends[0] + ends[1]}"),
)
code_args = st.sampled_from(["c1", "c2", "FILE"])
modes = st.sampled_from(["general", "qli"])
formats = st.sampled_from(["csv", "json"])
argvs = st.one_of(
    st.tuples(st.just("tables"), st.just("--table"), st.integers(0, 11).map(str)),
    st.tuples(st.just("curves"), st.just("--code"), code_args, st.just("--mode"), modes,
              db_texts.map("--ebn0-db={}".format)),
    st.tuples(st.just("alpha"), st.just("--code"), code_args, st.just("--mode"), modes,
              st.just("--emit"), st.sampled_from(["values", "polynomial"]),
              db_texts.map("--ebn0-db={}".format)),
    st.tuples(st.just("simulate"), st.just("--code"), code_args, st.just("--mode"), modes,
              db_texts.map("--ebn0-db={}".format), st.just("--branches"), st.just("1000"),
              st.just("--seed"), st.integers(0, 99).map(str)),
    st.tuples(st.just("kalman-check"), st.just("--states"), st.integers(0, 5).map(str),
              st.just("--steps"), st.integers(3, 10).map(str),
              st.just("--seed"), st.integers(0, 99).map(str)),
    st.tuples(st.just("search"), st.just("--nu"), st.integers(0, 6).map(str)),
)


def _output_rows(text):
    # a polynomial payload is JSON whatever the format, and has no rows
    if text.startswith("{"):
        return json.loads(text).get("rows", [])
    return parse_csv(text)[1]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs, fmt=formats, content=code_files())
def test_cli_fuzz_exit_codes_and_bound_chain(tmp_path, argv, fmt, content):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(content))
    argv = [str(path) if a == "FILE" else a for a in argv] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    assert rc in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        return
    # CSV cells carry six significant digits
    slack = CHAIN_SLACK if fmt == "json" else 1e-5
    for row in _output_rows(out.getvalue()):
        if "gauss_bound" in row:
            lo, mid, hi = row["half_tr_sigma_c"], row["gauss_bound"], row["half_tr_sigma_x"]
            assert lo <= mid * (1 + slack) + CHAIN_SLACK, (argv, row)
            assert mid <= hi * (1 + slack) + CHAIN_SLACK, (argv, row)
