"""Command line front end: tables, curves, sweeps, simulation, self checks.

Every subcommand shares --out/--format/--quiet.  CSV output is
comma-separated with a header row, '.' decimal separator, LF line
endings and six significant digits.  Exit status is 0 only when the
requested artifact was produced and every internal validator passed.
"""

import argparse
import functools
import json
import math
import sys
from itertools import repeat

# the exact commands (tables 1-8, alpha) read these four in plain floats and
# ints and load no numpy; kalman, qli_search and sstdec import numpy and
# are imported by the commands that use them
from . import channel, convcode, covar_mi, parity_prob

CHAIN_SLACK = 1e-12


# ------------------------------------------------------------- cell formatting

def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def parse_cell(text):
    if text == "":
        return None
    try:
        value = int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text
    # zero-padded bit strings ("000") must stay strings
    return value if str(value) == text else text


# the cell text of each value of one exact type, mapped over a column that
# holds no other; each is format_cell on that type (an int column is
# column_texts' own case)
COLUMN_FORMATS = {str: str, float: "{:.6g}".format, bool: ("0", "1").__getitem__}

# a value of these types formats to "", "1"/"0", str(int) or six significant
# digits, and parse_cell reads each of those back to a value of the same text
PLAIN_CELL_TYPES = (type(None), int, float)

# a str.isdigit() text this long or shorter reads back as itself or as the int
# that prints it, whatever int's digit limit is set to; a longer one may pass
# that limit, and float() then reads it as a different number
SHORT_DIGITS = sys.int_info.str_digits_check_threshold


def column_texts(columns, rows):
    """(texts, loose): each column's cell texts in row order, format_cell
    of row.get(c), and for each column whether it is loose, holding a value
    outside PLAIN_CELL_TYPES, so that validate_roundtrip parses its texts.

    Each column is read once.  A column of one exact type in
    COLUMN_FORMATS is formatted by one map of its format, and an int
    column (a count or a bit, with few distinct values) by one str per
    distinct value; any other (None, mixed types) goes through
    format_cell."""
    texts, loose = [], []
    for c in columns:
        values = list(map(dict.get, rows, repeat(c)))
        types = set(map(type, values))
        if types == {int}:
            fmt = {v: str(v) for v in set(values)}.__getitem__
        else:
            fmt = COLUMN_FORMATS.get(*types) if len(types) == 1 else None
        texts.append(list(map(fmt or format_cell, values)))
        loose.append(not all(issubclass(t, PLAIN_CELL_TYPES) for t in types))
    return texts, loose


def join_csv(columns, texts, count):
    """The CSV of count rows from their per-column cell texts."""
    lines = map(",".join, zip(*texts)) if texts else [""] * count
    return "\n".join([",".join(columns), *lines]) + "\n"


def csv_text(columns, rows):
    return join_csv(columns, column_texts(columns, rows)[0], len(rows))


def parse_csv(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    columns = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({c: parse_cell(v) for c, v in zip(columns, cells)})
    return columns, rows


def json_text(columns, rows):
    return json.dumps({"columns": list(columns), "rows": rows}, indent=2) + "\n"


# -------------------------------------------------------------- db list parsing

def parse_db_values(text):
    """The `channel.SnrPoint`s of '-10..10' (unit steps), 'a,b,c', a single
    value, or '' for an empty grid.

    Anything else, an empty range and a value outside channel.snr_point's
    range (which also rejects inf and nan) raise a ValueError that names
    --ebn0-db.  snr_point folds the -0.0 of '-0' and '-0.0' to 0.0, as in
    '-0..0'.
    """
    # int and float also read '_' separators and non-ASCII digits
    if not text.isascii() or "_" in text:
        raise ValueError(f"--ebn0-db: cannot read {text.strip()!r} as dB values")
    text = text.strip()
    if not text:
        return []
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split("..", 1))
            values = range(lo, hi + 1)
        else:
            values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--ebn0-db: cannot read {text!r} as dB values") from None
    if not values:
        raise ValueError(f"--ebn0-db: empty range {text!r}")
    try:
        # a range is checked at its ends, before it is expanded
        if isinstance(values, range):
            channel.snr_point(values[0])
            channel.snr_point(values[-1])
        return [channel.snr_point(db) for db in values]
    except ValueError as exc:
        raise ValueError(f"--ebn0-db: {exc}") from None


# ------------------------------------------------------------------- validators

# Each validator takes (columns, rows) and returns a list of error strings.

def validate_finite(columns, rows):
    errors = []
    for i, row in enumerate(rows):
        for c in columns:
            v = row.get(c)
            if isinstance(v, (int, float)):
                if not math.isfinite(v):
                    errors.append(f"row {i}: column {c} is not finite")
            elif v is None:
                errors.append(f"row {i}: column {c} is missing")
    return errors


def validate_bound_chain(columns, rows):
    errors = []
    for i, row in enumerate(rows):
        lo, mid, hi = row["half_tr_sigma_c"], row["gauss_bound"], row["half_tr_sigma_x"]
        if not (lo < mid + CHAIN_SLACK and mid < hi + CHAIN_SLACK):
            errors.append(f"row {i}: bound chain violated ({lo} < {mid} < {hi})")
        if lo > row["inv_1p_rho"] + CHAIN_SLACK:
            errors.append(f"row {i}: half_tr_sigma_c exceeds inv_1p_rho")
        if mid > row["log1p_rho_over_rho"] + CHAIN_SLACK:
            errors.append(f"row {i}: gauss_bound exceeds log1p_rho_over_rho")
    return errors


def validate_lambda(columns, rows):
    errors = []
    for i, row in enumerate(rows):
        if not row["rho_lambda_max"] < 1.0:
            errors.append(f"row {i}: rho_lambda_max not below one")
        if row["lambda_t1"] > row["lambda_t2"] + CHAIN_SLACK:
            errors.append(f"row {i}: lambda_t1 above lambda_t2")
    return errors


def validate_roundtrip(columns, texts, loose):
    """[] when join_csv(columns, texts, ...), the CSV of column_texts'
    texts, reads back through parse_csv as the same names and cell texts,
    which csv_text re-emits byte for byte; one error otherwise.

    parse_csv splits on ',' and '\\n' only, so that holds exactly when the
    column names are distinct, no name or cell text holds either character,
    and every cell text is format_cell of its own parse_cell.  A None,
    bool, int or float value's text always meets the last two, so only the
    texts of loose columns (column_texts) are checked, each distinct text
    once, and of those only the ones that are not short digit strings
    (SHORT_DIGITS) are parsed.
    """
    loose_texts = set().union(*(t for t, flag in zip(texts, loose) if flag))
    if (len(set(columns)) < len(columns)
            or any("," in t or "\n" in t for t in (*columns, *loose_texts))
            or any(format_cell(parse_cell(t)) != t for t in loose_texts
                   if not (t.isdigit() and len(t) <= SHORT_DIGITS))):
        return ["CSV does not round-trip through parse/emit"]
    return []


# ------------------------------------------------------------------ table specs

# the QLI arrangement's column name for each statistic of Sigma_x
QLI_NAMES = {"alpha1": "beta1", "alpha2": "beta2", "alpha11": "beta11",
             "theta12": "theta12_prime", "sigma1_sq": "sigma1_sq_prime",
             "sigma2_sq": "sigma2_sq_prime", "half_tr_sigma_x": "half_tr_sigma_x_prime"}

STATS = ("alpha1", "alpha2", "alpha11", "theta12")


def column_names(fields, mode):
    """Column names of SweepRow fields (or statistics) in one arrangement."""
    return [QLI_NAMES.get(f, f) for f in fields] if mode == "qli" else list(fields)


def _sweep_rows(code, points, mode):
    return covar_mi.sweep(code, points, mode)


def _select(sweep_rows, fields, columns):
    return [{c: getattr(r, f) for c, f in zip(columns, fields)} for r in sweep_rows]


SIGMA = ("ebn0_db", "alpha1", "sigma1_sq", "alpha2", "sigma2_sq", "theta12",
         "half_tr_sigma_x")
EIGEN = ("ebn0_db", "rho", "lambda_t1", "lambda_t2", "rho_lambda_t1", "rho_lambda_max")
BOUND = ("ebn0_db", "half_rho_tr_sigma_c", "half_tr_sigma_c", "inv_1p_rho",
         "gauss_bound", "log1p_rho_over_rho", "half_tr_sigma_x")
QLI_SIGMA = ("ebn0_db", "alpha1", "sigma1_sq", "alpha2", "sigma2_sq", "half_tr_sigma_x")
CURVES = ("ebn0_db", "rho", "half_tr_sigma_c", "gauss_bound", "half_tr_sigma_x",
          "inv_1p_rho", "log1p_rho_over_rho", "two_I_over_rho", "lambda_t1",
          "lambda_t2", "rho_lambda_max")

# table -> (code, mode, SweepRow fields, validators), on the default grid
SWEEP_TABLES = {
    1: ("c1", "general", SIGMA, [validate_finite]),
    2: ("c2", "general", SIGMA, [validate_finite]),
    3: ("c1", "general", EIGEN, [validate_finite, validate_lambda]),
    4: ("c2", "general", EIGEN, [validate_finite, validate_lambda]),
    5: ("c1", "general", BOUND, [validate_finite, validate_bound_chain]),
    6: ("c2", "general", BOUND, [validate_finite, validate_bound_chain]),
    7: ("c1", "qli", QLI_SIGMA, [validate_finite]),
    8: ("c2", "qli", QLI_SIGMA, [validate_finite]),
}


def run_tables(args):
    table = args.table
    if table not in range(1, 11):
        raise ValueError("table id must be in 1..10")

    if table in SWEEP_TABLES:
        code, mode, fields, validators = SWEEP_TABLES[table]
        columns = column_names(fields, mode)
        rows = _select(_sweep_rows(convcode.get_code(code), channel.grid_points(), mode),
                       fields, columns)
        return columns, rows, validators

    from . import qli_search

    nu = 5 if table == 9 else 6
    c_cols = [f"c{j}" for j in range(1, nu - 1)]
    columns = c_cols + ["m1_alpha", "m2_alpha", "m1_beta", "m2_beta"]
    rows = []
    for entry in qli_search.enumerate_qli(nu):
        row = {f"c{j + 1}": int(b) for j, b in enumerate(entry.c_bits)}
        row.update(m1_alpha=entry.m1_alpha, m2_alpha=entry.m2_alpha,
                   m1_beta=entry.m1_beta, m2_beta=entry.m2_beta)
        rows.append(row)
    return columns, rows, [validate_finite]


# ------------------------------------------------------------------- subcommands

def run_curves(args):
    code = convcode.load_code(args.code)
    points = parse_db_values(args.ebn0_db)
    # two_I_over_rho, the binary-input curve, depends on rho alone and is
    # not a SweepRow field: only curves prints it, so only curves computes it
    rows = [{c: 2.0 * covar_mi.binary_input_mi(r.rho) / r.rho if c == "two_I_over_rho"
             else getattr(r, c) for c in CURVES}
            for r in _sweep_rows(code, points, args.mode)]
    return (list(CURVES), rows,
            [validate_finite, validate_bound_chain, validate_lambda])


def run_alpha(args):
    code = convcode.load_code(args.code)
    points = parse_db_values(args.ebn0_db)
    if args.emit == "polynomial":
        s1, s2 = covar_mi.code_supports(code, args.mode)
        p1 = parity_prob.marginal_polynomial(len(s1))
        p2 = parity_prob.marginal_polynomial(len(s2))
        p11 = parity_prob.joint_polynomial(s1, s2)
        ptheta = parity_prob.theta_polynomial(s1, s2)
        payload = {"code": code.name, "mode": args.mode,
                   "variable": "eps", "coefficient_order": "ascending"}
        for name, poly in zip(column_names(STATS, args.mode), (p1, p2, p11, ptheta)):
            payload[name] = list(poly.coefficients)
        return None, payload, []

    fields = ("ebn0_db", "epsilon") + STATS
    columns = column_names(fields, args.mode)
    rows = _select(_sweep_rows(code, points, args.mode), fields, columns)

    def probs_in_range(cols, rws):
        errors = []
        for i, row in enumerate(rws):
            for c in cols[1:5]:
                if not 0.0 <= row[c] <= 1.0:
                    errors.append(f"row {i}: {c} outside [0, 1]")
        return errors

    return columns, rows, [validate_finite, probs_in_range]


def run_simulate(args):
    from . import sstdec

    code = convcode.load_code(args.code)
    points = parse_db_values(args.ebn0_db)
    columns = ["ebn0_db", "branches", "pre_ber", "post_ber",
               "emp_alpha1", "emp_alpha2", "emp_alpha11"]
    rows = sstdec.simulate(code, points, args.branches, args.seed, mode=args.mode)
    return columns, rows, [validate_finite, sstdec.simulation_errors]


def run_kalman_check(args):
    from . import kalman

    rows = kalman.identity_report(seed=args.seed, states=args.states, steps=args.steps)
    columns = ["check", "max_dev", "tol", "passed"]

    def all_passed(cols, rws):
        return [f"identity failed: {r['check']} (max dev {r['max_dev']:.3e})"
                for r in rws if not r["passed"]]

    return columns, rows, [all_passed]


def run_search(args):
    from . import qli_search

    entries = qli_search.enumerate_qli(args.nu)
    columns = ["c_bits", "m1a", "m2a", "m1b", "m2b",
               "heuristic_counterexample", "exact_counterexample_snrs"]
    # many rows share a count tuple, and the tuple fixes the reversals
    points = channel.grid_points()
    labels = [format_cell(p.ebn0_db) for p in points]
    width = f"0{args.nu - 2}b"
    snrs_by_counts = {}
    rows = []
    # enumerate_qli's members come in ascending c_1..c_{nu-2} order
    for i, entry in enumerate(entries):
        counts = entry.counts
        snrs = snrs_by_counts.get(counts)
        if snrs is None:
            snrs = snrs_by_counts[counts] = ";".join(
                label for label, flag in zip(labels, qli_search.reversal_flags(counts, points))
                if flag)
        rows.append({"c_bits": format(i, width),
                     "m1a": entry.m1_alpha, "m2a": entry.m2_alpha,
                     "m1b": entry.m1_beta, "m2b": entry.m2_beta,
                     "heuristic_counterexample": entry.heuristic_counterexample,
                     "indeterminate": entry.indeterminate,
                     "exact_counterexample_snrs": snrs})

    def heuristic_vs_exact(cols, rws):
        errors = []
        for i, row in enumerate(rws):
            has_exact = bool(row["exact_counterexample_snrs"])
            if row["heuristic_counterexample"] and not has_exact:
                errors.append(f"row {i}: heuristic counterexample with empty exact list")
            if (not row["heuristic_counterexample"] and not row["indeterminate"]
                    and has_exact):
                errors.append(f"row {i}: expected ordering but exact reversals found")
        return errors

    return columns, rows, [heuristic_vs_exact]


# ------------------------------------------------------------------ entry point

def _emit_and_validate(args, columns, rows, validators):
    if columns is None:
        # polynomial payloads are JSON regardless of --format
        text = json.dumps(rows, indent=2) + "\n"
        errors = []
    elif args.format == "csv":
        texts, loose = column_texts(columns, rows)
        text = join_csv(columns, texts, len(rows))
        errors = validate_roundtrip(columns, texts, loose)
    else:
        text = json_text(columns, rows)
        errors = []

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        if not args.quiet:
            count = len(rows) if columns is not None else 1
            print(f"wrote {count} row(s) to {args.out}")
    else:
        sys.stdout.write(text)

    if columns is not None:
        for validator in validators:
            errors.extend(validator(columns, rows))
    return errors


@functools.cache
def build_parser():
    """The CLI's parser, built once per process; parse_args keeps no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="sstkalman",
        description="Innovations view of syndrome-former Viterbi decoding: "
                    "tables, bound curves, simulation, and self checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", parents=[common],
                       help="reproduce one of the reference tables (1..10)")
    p.add_argument("--table", type=int, required=True)

    p = sub.add_parser("curves", parents=[common],
                       help="bound and eigenvalue curves over an SNR grid")
    p.add_argument("--code", default="c1")
    p.add_argument("--mode", choices=("general", "qli"), default="general")
    p.add_argument("--ebn0-db", default="-10..10")

    p = sub.add_parser("alpha", parents=[common],
                       help="parity probabilities (values or exact polynomials)")
    p.add_argument("--code", default="c1")
    p.add_argument("--mode", choices=("general", "qli"), default="general")
    p.add_argument("--emit", choices=("values", "polynomial"), default="values")
    p.add_argument("--ebn0-db", default="-10..10")

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo decoding run with empirical statistics")
    p.add_argument("--code", default="c1")
    p.add_argument("--mode", choices=("general", "qli"), default="general")
    p.add_argument("--ebn0-db", default="4")
    p.add_argument("--branches", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("kalman-check", parents=[common],
                       help="run every filter/smoother identity on a random model")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--steps", type=int, default=8)

    p = sub.add_parser("search", parents=[common],
                       help="exhaustive quick-look-in family scan at one memory")
    p.add_argument("--nu", type=int, required=True)

    return parser


# the range of each integer option; seeds key a Philox generator through a C long
ARG_RANGES = {"branches": (1000, None), "seed": (0, 2**62), "states": (1, None),
              "steps": (4, None)}


def check_ranges(args):
    """Reject an integer option outside its range, naming the option."""
    for name, (low, high) in ARG_RANGES.items():
        value = getattr(args, name, low)
        if value < low:
            raise ValueError(f"--{name} must be at least {low}")
        if high is not None and value > high:
            raise ValueError(f"--{name} must be at most {high}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        check_ranges(args)
        # looked up per call: tracers and tests replace the run_* functions
        run = {"tables": run_tables, "curves": run_curves, "alpha": run_alpha,
               "simulate": run_simulate, "kalman-check": run_kalman_check,
               "search": run_search}[args.command]
        columns, rows, validators = run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        errors = _emit_and_validate(args, columns, rows, validators)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if errors:
        for e in errors:
            print(f"validation: {e}", file=sys.stderr)
        return 1
    if not args.quiet and args.command == "kalman-check":
        print("all identities passed", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
