"""Command line front end: tables, curves, sweeps, simulation, self checks.

Every subcommand shares --out/--format/--quiet.  CSV output is
comma-separated with a header row, '.' decimal separator, LF line
endings and six significant digits.  Exit status is 0 only when the
requested artifact was produced and every internal validator passed.
"""

import argparse
import json
import sys

import numpy as np

from . import channel, convcode, covar_mi, kalman, parity_prob, qli_search, sstdec

CHAIN_SLACK = 1e-12


# ------------------------------------------------------------- cell formatting

def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
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


def csv_text(columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


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


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def json_text(columns, rows, meta=None):
    payload = {"columns": list(columns), "rows": [_jsonable(r) for r in rows]}
    if meta:
        payload.update(_jsonable(meta))
    return json.dumps(payload, indent=2) + "\n"


# -------------------------------------------------------------- db list parsing

def parse_db_values(text):
    """'-10..10' (unit steps), 'a,b,c', single value, or '' for an empty grid.

    Anything else, an empty range and a value outside channel.snr_point's
    range (which also rejects inf and nan) raise a ValueError that names
    --ebn0-db.
    """
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
    # a range is checked at its ends, before it is expanded
    for db in (values[0], values[-1]) if isinstance(values, range) else values:
        try:
            channel.snr_point(db)
        except ValueError as exc:
            raise ValueError(f"--ebn0-db: {exc}") from None
    return [float(v) for v in values]


# ------------------------------------------------------------------- validators

# Each validator takes (columns, rows) and returns a list of error strings.

def validate_finite(columns, rows):
    errors = []
    for i, row in enumerate(rows):
        for c in columns:
            v = row.get(c)
            if isinstance(v, (int, float, np.integer, np.floating)):
                if not np.isfinite(float(v)):
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


def validate_roundtrip(text):
    columns, rows = parse_csv(text)
    rebuilt = csv_text(columns, rows)
    if rebuilt != text:
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


def _sweep_rows(code, db_values, mode):
    return covar_mi.sweep(code, db_values=db_values, mode=mode)


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


def run_tables(table):
    if table not in range(1, 11):
        raise ValueError("table id must be in 1..10")

    if table in SWEEP_TABLES:
        code, mode, fields, validators = SWEEP_TABLES[table]
        columns = column_names(fields, mode)
        rows = _select(_sweep_rows(convcode.get_code(code), channel.DB_GRID, mode),
                       fields, columns)
        return columns, rows, validators, None

    nu = 5 if table == 9 else 6
    c_cols = [f"c{j}" for j in range(1, nu - 1)]
    columns = c_cols + ["m1_alpha", "m2_alpha", "m1_beta", "m2_beta"]
    rows = []
    for entry in qli_search.enumerate_qli(nu):
        row = {f"c{j + 1}": int(b) for j, b in enumerate(entry.c_bits)}
        row.update(m1_alpha=entry.m1_alpha, m2_alpha=entry.m2_alpha,
                   m1_beta=entry.m1_beta, m2_beta=entry.m2_beta)
        rows.append(row)
    return columns, rows, [validate_finite], None


# ------------------------------------------------------------------- subcommands

def run_curves(args):
    code = convcode.load_code(args.code)
    db_values = parse_db_values(args.ebn0_db)
    rows = _select(_sweep_rows(code, db_values, args.mode), CURVES, CURVES)
    return (list(CURVES), rows,
            [validate_finite, validate_bound_chain, validate_lambda], None)


def run_alpha(args):
    code = convcode.load_code(args.code)
    s1, s2 = covar_mi.code_supports(code, args.mode)
    if args.emit == "polynomial":
        p1 = parity_prob.marginal_polynomial(len(s1))
        p2 = parity_prob.marginal_polynomial(len(s2))
        p11 = parity_prob.joint_polynomial(s1, s2)
        ptheta = (p11 - p1 * p2).trimmed()
        payload = {"code": code.name, "mode": args.mode,
                   "variable": "eps", "coefficient_order": "ascending"}
        for name, poly in zip(column_names(STATS, args.mode), (p1, p2, p11, ptheta)):
            payload[name] = list(poly.coefficients)
        return None, payload, [], None

    db_values = parse_db_values(args.ebn0_db)
    columns = column_names(("ebn0_db", "epsilon") + STATS, args.mode)
    rows = []
    for db in db_values:
        point = channel.snr_point(db)
        stats = parity_prob.branch_stats(s1, s2, point.epsilon)
        rows.append(dict(zip(columns, (point.ebn0_db, point.epsilon) + stats)))

    def probs_in_range(cols, rws):
        errors = []
        for i, row in enumerate(rws):
            for c in cols[1:5]:
                if not 0.0 <= row[c] <= 1.0:
                    errors.append(f"row {i}: {c} outside [0, 1]")
        return errors

    return columns, rows, [validate_finite, probs_in_range], None


def run_simulate(args):
    code = convcode.load_code(args.code)
    db_values = parse_db_values(args.ebn0_db)
    columns = ["ebn0_db", "branches", "pre_ber", "post_ber",
               "emp_alpha1", "emp_alpha2", "emp_alpha11"]
    s1, s2 = covar_mi.code_supports(code, args.mode)
    rows = []
    checks = []
    for j, db in enumerate(db_values):
        point = channel.snr_point(db)
        res = sstdec.simulate(code, point, args.branches, args.seed, mode=args.mode)
        eps = point.epsilon
        a1, a2, a11, th = parity_prob.branch_stats(s1, s2, eps)
        sig_hat, sig_se = covar_mi.monte_carlo_sigma_r(
            code, point, min(args.branches, 200_000), args.seed + 7919 * j,
            mode=args.mode)
        sig_ref = covar_mi.sigma_r(covar_mi.sigma_x_from_probs(a1, a2, th), point.rho)
        row = {"ebn0_db": res.ebn0_db, "branches": res.branches,
               "pre_ber": res.pre_ber, "post_ber": res.post_ber,
               "emp_alpha1": res.emp_alpha1, "emp_alpha2": res.emp_alpha2,
               "emp_alpha11": res.emp_alpha11,
               "se_alpha1": res.se_alpha1, "se_alpha2": res.se_alpha2,
               "se_alpha11": res.se_alpha11,
               "stride": res.stride, "n_eff": res.n_eff,
               "epsilon": eps, "rho": point.rho,
               "alpha1_ref": a1, "alpha2_ref": a2, "alpha11_ref": a11,
               "sigma_r_hat": sig_hat.tolist(), "sigma_r_se": sig_se.tolist(),
               "sigma_r_ref": sig_ref.tolist()}
        rows.append(row)
        checks.append((row, sig_hat, sig_se, sig_ref))

    def mc_consistency(cols, rws):
        errors = []
        for i, (row, sig_hat, sig_se, sig_ref) in enumerate(checks):
            n = row["n_eff"]
            for name, ref in (("emp_alpha1", row["alpha1_ref"]),
                              ("emp_alpha2", row["alpha2_ref"]),
                              ("emp_alpha11", row["alpha11_ref"])):
                se = max(np.sqrt(ref * (1.0 - ref) / n), 1e-9)
                if abs(row[name] - ref) > 5.0 * se:
                    errors.append(f"row {i}: {name} deviates from model by >5 se")
            dev = np.abs(sig_hat - sig_ref)
            if np.any(dev > 5.0 * sig_se + 1e-9):
                errors.append(f"row {i}: empirical received covariance off model by >5 se")
            if not (0.0 <= row["pre_ber"] <= 1.0 and 0.0 <= row["post_ber"] <= 1.0):
                errors.append(f"row {i}: bit error rate outside [0, 1]")
        return errors

    return columns, rows, [validate_finite, mc_consistency], None


def run_kalman_check(args):
    checks = kalman.identity_report(seed=args.seed, states=args.states,
                                    steps=args.steps)
    columns = ["check", "max_dev", "tol", "passed"]
    rows = [{"check": c.name, "max_dev": c.max_dev, "tol": c.tol,
             "passed": c.passed} for c in checks]

    def all_passed(cols, rws):
        return [f"identity failed: {r['check']} (max dev {r['max_dev']:.3e})"
                for r in rws if not r["passed"]]

    return columns, rows, [all_passed], None


def run_search(args):
    entries = qli_search.enumerate_qli(args.nu)
    columns = ["c_bits", "m1a", "m2a", "m1b", "m2b",
               "heuristic_counterexample", "exact_counterexample_snrs"]
    rows = []
    for entry in entries:
        snrs = [p.ebn0_db for p in qli_search.trace_compare(entry.counts)
                if p.reversed_order]
        rows.append({"c_bits": "".join(str(b) for b in entry.c_bits),
                     "m1a": entry.m1_alpha, "m2a": entry.m2_alpha,
                     "m1b": entry.m1_beta, "m2b": entry.m2_beta,
                     "heuristic_counterexample": entry.heuristic_counterexample,
                     "indeterminate": entry.indeterminate,
                     "exact_counterexample_snrs": ";".join(
                         format_cell(v) for v in snrs)})

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

    return columns, rows, [heuristic_vs_exact], None


# ------------------------------------------------------------------ entry point

def _emit_and_validate(args, columns, rows, validators, meta=None):
    if columns is None:
        # polynomial payloads are JSON regardless of --format
        text = json.dumps(_jsonable(rows), indent=2) + "\n"
        errors = []
    elif args.format == "csv":
        text = csv_text(columns, rows)
        errors = validate_roundtrip(text)
    else:
        text = json_text(columns, rows, meta)
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


def build_parser():
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
    p.add_argument("--emit", choices=("csv", "json"), default=None,
                   help="alias for --format")

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
        if args.command == "tables":
            columns, rows, validators, meta = run_tables(args.table)
        elif args.command == "curves":
            columns, rows, validators, meta = run_curves(args)
        elif args.command == "alpha":
            columns, rows, validators, meta = run_alpha(args)
        elif args.command == "simulate":
            columns, rows, validators, meta = run_simulate(args)
        elif args.command == "kalman-check":
            columns, rows, validators, meta = run_kalman_check(args)
        elif args.command == "search":
            if args.emit:
                args.format = args.emit
            columns, rows, validators, meta = run_search(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        errors = _emit_and_validate(args, columns, rows, validators, meta)
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
