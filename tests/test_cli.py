"""Command line interface: output contracts, validators, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sstkalman.cli import (
    CHAIN_SLACK,
    csv_text,
    format_cell,
    main,
    parse_cell,
    parse_csv,
    parse_db_values,
    validate_bound_chain,
)

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


@pytest.mark.parametrize("content", [
    {"name": "x"},
    [1, 2],
    {"g": "111", "ginv": ["01", "11"]},
    {"g": ["111", 5], "ginv": ["01", "11"]},
    {"g": ["111"], "ginv": ["01", "11"]},
    {"g": ["111", "101"], "ginv": ["01", "11"], "h": None},
    # g1 + g2 = D + D^2 + D^3 is not a monomial, so the "qli" claim is false
    {"g": ["1101", "101"], "ginv": ["001", "1001"], "qli": True},
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


@pytest.mark.parametrize("db", ["305", "400"])
def test_simulate_at_huge_snr_passes_its_checks(capsys, db):
    # c = sqrt(rho) reaches 1e20: the noise must not vanish in c*xt + w
    rc, out, err = run(["simulate", f"--ebn0-db={db}", "--branches", "1000"], capsys)
    assert rc == 0, err
    assert out.count("\n") == 2


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


def test_kalman_check_passes(capsys):
    rc, out, _ = run(["kalman-check", "--quiet"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,max_dev,tol,passed"
    assert len(lines) > 5
    assert all(line.endswith(",1") for line in lines[1:])


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
    assert parse_db_values("0,1,2") == [0.0, 1.0, 2.0]
    assert parse_db_values("-2..2") == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert parse_db_values("") == []
    assert parse_db_values("3") == [3.0]
    with pytest.raises(ValueError):
        parse_db_values("5..1")
    with pytest.raises(ValueError, match="--ebn0-db"):
        parse_db_values("a,b")
    with pytest.raises(ValueError, match="--ebn0-db.*finite"):
        parse_db_values("0,inf")


def test_validate_bound_chain_flags_violations():
    columns = ["half_tr_sigma_c", "gauss_bound", "half_tr_sigma_x",
               "inv_1p_rho", "log1p_rho_over_rho"]
    good = [dict(zip(columns, (0.1, 0.2, 0.3, 0.4, 0.5)))]
    assert validate_bound_chain(columns, good) == []
    bad = [dict(zip(columns, (0.3, 0.2, 0.1, 0.4, 0.5)))]
    assert validate_bound_chain(columns, bad) != []


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
    pair otherwise, and sometimes a "qli" claim."""
    g = (draw(st.integers(1, 127)), draw(st.integers(1, 127)))
    ginv = _bezout(*g) or (draw(st.integers(0, 63)), draw(st.integers(0, 63)))
    content = {"g": [_poly_text(p) for p in g], "ginv": [_poly_text(p) for p in ginv]}
    if draw(st.booleans()):
        content["qli"] = draw(st.booleans())
    return content


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
