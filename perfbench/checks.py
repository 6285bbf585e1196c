"""Checks of the program's outputs against values computed apart from it.

Nothing here reads the package's own formulas.  The two paper codes are
written down again as generator masks, their error supports come from
carry-less products, and every probability, covariance and bound is
rebuilt from the closed forms with eps = Q(sqrt(rho)) taken from
scipy.stats.norm.sf.  The remaining checks use properties the method
must have (the bound chain, the stability margin), quadrature, sympy,
rational arithmetic, brute-force decoding and a stacked determinant.
No check compares against a saved copy of the program's output.

Each check_* function returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import base64
import importlib.util
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.stats import norm

GRID_DB = tuple(range(-10, 11))

# Published tables are printed to four decimals; these are the tolerances
# of the repository's acceptance suite.  The rho-scaled columns are the
# product of a printed rho and a printed value, which amplifies rounding.
TABLE_ATOL = 1e-3
RHO_SCALED_ATOL = 2e-3
HALF_RHO_TR_ATOL = 1.25e-3

# CSV cells carry six significant digits.
CSV_RTOL = 6e-6
CSV_ATOL = 1e-12

# Monte Carlo estimates must fall within this many standard errors.
MC_SIGMAS = 5.0

# The known fault in qli_search.trace_compare: it compares two float64
# half traces that both round towards 1.0.  A wrong reversal flag is put
# down to it only when the exact half traces differ by less than this.
FLOAT_TIE = 2.0 ** -48


# ------------------------------------------------------------ code algebra

def clmul(a, b):
    """Carry-less product of two GF(2) polynomials given as bit masks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def family_code(gprime):
    """QLI family member g1 = 1 + D g', g2 = 1 + D + D g', Ginv = (1 + g', g')."""
    return {"g": (1 ^ (gprime << 1), 3 ^ (gprime << 1)),
            "ginv": (1 ^ gprime, gprime), "L": 1}


# The two codes of the paper: c1 = (1 + D + D^2, 1 + D^2) with right inverse
# (D, 1 + D); c2 is the family member with g' = D^2 + D^4 + D^5.
PAPER_CODES = {
    "c1": {"g": (0b111, 0b101), "ginv": (0b010, 0b011), "L": 1},
    "c2": family_code(0b110100),
}


def nu_of(code):
    return max(g.bit_length() for g in code["g"]) - 1


def supports(code, mode):
    """Error supports {(component, delay)} of the two main-encoded bits v1, v2.

    general: v = e Ginv G, so column l holds ginv_i * g_l for both rows i.
    qli:     the pre-decoder adds the two streams, so both error components
             pass through g_l.
    """
    out = []
    for l in (0, 1):
        if mode == "general":
            s = {(i + 1, d) for i in (0, 1)
                 for d in bits(clmul(code["ginv"][i], code["g"][l]))}
        else:
            s = {(c, d) for c in (1, 2) for d in bits(code["g"][l])}
        out.append(frozenset(s))
    return tuple(out)


def decoder_input_supports(code, mode):
    """Supports of the main decoder's hard input v XOR e.

    In general mode e enters at delay 0.  In qli mode the main decoder
    sees branch k against the re-encoded stream at k + L, so relative to
    that time e sits at delay L.
    """
    delay = 0 if mode == "general" else code["L"]
    return tuple(s ^ {(l + 1, delay)} for l, s in enumerate(supports(code, mode)))


def rho_of(db):
    return 10.0 ** (db / 10.0)  # rate 1/2: rho = 2 R Eb/N0


def eps_of(db):
    return float(norm.sf(math.sqrt(rho_of(db))))


def parity_probs(s1, s2, eps):
    """(P(v1=1), P(v2=1), P(v1=1, v2=1)) for i.i.d. Bernoulli(eps) errors."""
    q = 1.0 - 2.0 * eps
    n1, n2, n12 = len(s1), len(s2), len(s1 ^ s2)
    return ((1.0 - q ** n1) / 2.0, (1.0 - q ** n2) / 2.0,
            (1.0 - q ** n1 - q ** n2 + q ** n12) / 4.0)


def zero_pair_prob(s1, s2, eps):
    """P(both parities are 0), by inclusion-exclusion."""
    q = 1.0 - 2.0 * eps
    return (1.0 + q ** len(s1) + q ** len(s2) + q ** len(s1 ^ s2)) / 4.0


def sigma_x(a1, a2, a11):
    th = a11 - a1 * a2
    return np.array([[4.0 * a1 * (1.0 - a1), 4.0 * th],
                     [4.0 * th, 4.0 * a2 * (1.0 - a2)]])


def exact_point(code, mode, db):
    """Every per-branch quantity the tables and curves print, at one dB point."""
    rho, eps = rho_of(db), eps_of(db)
    a1, a2, a11 = parity_probs(*supports(code, mode), eps)
    sx = sigma_x(a1, a2, a11)
    sr = np.eye(2) + rho * sx
    sc = sx - rho * sx @ np.linalg.solve(sr, sx)
    half_tr_c = 0.5 * float(np.trace(sc))
    lt1, lt2 = half_tr_c - sc[0, 1], half_tr_c + sc[0, 1]
    return {
        "ebn0_db": float(db), "rho": rho, "epsilon": eps,
        "a1": a1, "a2": a2, "a11": a11, "theta": a11 - a1 * a2,
        "sigma_x": sx, "sigma_r": sr,
        "s1_sq": sx[0, 0], "s2_sq": sx[1, 1],
        "half_tr_sigma_x": 0.5 * float(np.trace(sx)),
        "half_tr_sigma_c": half_tr_c,
        "gauss_bound": math.log(np.linalg.det(sr)) / (2.0 * rho),
        "inv_1p_rho": 1.0 / (1.0 + rho),
        "log1p_rho_over_rho": math.log1p(rho) / rho,
        "lambda_t1": lt1, "lambda_t2": lt2,
        "rho_lambda_max": rho * lt2,
    }


@lru_cache(maxsize=64)
def two_i_over_rho(rho):
    """2 I(rho) / rho for BPSK on AWGN, I from adaptive quadrature.

    I = log 2 - E[log(1 + exp(-2 rho - 2 sqrt(rho) W))], W standard normal.
    """
    c = math.sqrt(rho)

    def integrand(w):
        return norm.pdf(w) * np.logaddexp(0.0, -2.0 * rho - 2.0 * c * w)

    loss, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
    return 2.0 * (math.log(2.0) - loss) / rho


# ------------------------------------------------------------ output parsing

def parse_csv(text):
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise ValueError("CSV output does not end with a newline")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:-1]]


def close(got, want, rtol=CSV_RTOL, atol=CSV_ATOL):
    return abs(got - want) <= rtol * abs(want) + atol


def _compare(errors, where, row, expected):
    for col, want in expected.items():
        if col not in row or row[col] == "":
            errors.append(f"{where}: column {col} missing")
            continue
        got = float(row[col])
        if not close(got, want):
            errors.append(f"{where}: {col} = {got!r}, exact value {want!r}")


def load_reference_tables(root):
    """The published tables, as frozen in the repository's test suite."""
    path = Path(root) / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------------- tables

# table -> (code, its published rows in tests/reference_tables.py)
TABLES = {1: ("c1", "SIGMA_ROWS_C1"), 2: ("c2", "SIGMA_ROWS_C2"),
          3: ("c1", "EIGEN_ROWS_C1"), 4: ("c2", "EIGEN_ROWS_C2"),
          5: ("c1", "BOUND_ROWS_C1"), 6: ("c2", "BOUND_ROWS_C2"),
          7: ("c1", "QLI_SIGMA_ROWS_C1"), 8: ("c2", "QLI_SIGMA_ROWS_C2")}


def check_table(table, text, ref):
    """Tables 1-8: the paper's printed values, and the exact closed forms."""
    errors = []
    rows = parse_csv(text)
    if len(rows) != len(GRID_DB):
        return [f"table {table}: {len(rows)} rows, expected {len(GRID_DB)}"]
    code_name, published = TABLES[table]
    code = PAPER_CODES[code_name]
    mode = "qli" if table in (7, 8) else "general"
    published = getattr(ref, published)
    for row, pub in zip(rows, published):
        db = pub[0]
        where = f"table {table} at {db} dB"
        if float(row["ebn0_db"]) != db:
            errors.append(f"{where}: ebn0_db column reads {row['ebn0_db']}")
            continue
        ex = exact_point(code, mode, db)
        if table in (1, 2, 7, 8):
            if table in (1, 2):
                cols = ["alpha1", "sigma1_sq", "alpha2", "sigma2_sq", "theta12",
                        "half_tr_sigma_x"]
                exact = [ex["a1"], ex["s1_sq"], ex["a2"], ex["s2_sq"], ex["theta"],
                         ex["half_tr_sigma_x"]]
            else:
                cols = ["beta1", "sigma1_sq_prime", "beta2", "sigma2_sq_prime",
                        "half_tr_sigma_x_prime"]
                exact = [ex["a1"], ex["s1_sq"], ex["a2"], ex["s2_sq"],
                         ex["half_tr_sigma_x"]]
            atols = [TABLE_ATOL] * len(cols)
        elif table in (3, 4):
            cols = ["rho", "lambda_t1", "lambda_t2", "rho_lambda_t1", "rho_lambda_max"]
            exact = [ex["rho"], ex["lambda_t1"], ex["lambda_t2"],
                     ex["rho"] * ex["lambda_t1"], ex["rho_lambda_max"]]
            atols = [TABLE_ATOL, TABLE_ATOL, TABLE_ATOL, RHO_SCALED_ATOL, RHO_SCALED_ATOL]
            if not float(row["rho_lambda_max"]) < 1.0:
                errors.append(f"{where}: rho lambda_max is not below 1")
        else:
            cols = ["half_rho_tr_sigma_c", "half_tr_sigma_c", "inv_1p_rho",
                    "gauss_bound", "log1p_rho_over_rho", "half_tr_sigma_x"]
            exact = [ex["rho"] * ex["half_tr_sigma_c"], ex["half_tr_sigma_c"],
                     ex["inv_1p_rho"], ex["gauss_bound"], ex["log1p_rho_over_rho"],
                     ex["half_tr_sigma_x"]]
            atols = [HALF_RHO_TR_ATOL] + [TABLE_ATOL] * 5
        _compare(errors, where, row, dict(zip(cols, exact)))
        for col, pub_value, atol in zip(cols, pub[1:], atols):
            if col in row and abs(float(row[col]) - pub_value) > atol:
                errors.append(f"{where}: {col} = {row[col]}, published {pub_value}")
    return errors


def check_curves(code_name, mode, text):
    """Bound chain, stability margin, quadrature and closed forms on every row."""
    errors = []
    rows = parse_csv(text)
    if len(rows) != len(GRID_DB):
        return [f"curves {code_name} {mode}: {len(rows)} rows, expected {len(GRID_DB)}"]
    code = PAPER_CODES[code_name]
    for db, row in zip(GRID_DB, rows):
        where = f"curves {code_name} {mode} at {db} dB"
        lo, mid, hi = (float(row[c])
                       for c in ("half_tr_sigma_c", "gauss_bound", "half_tr_sigma_x"))
        if not (lo <= mid * (1 + CSV_RTOL) and mid <= hi * (1 + CSV_RTOL)):
            errors.append(f"{where}: bound chain broken ({lo} <= {mid} <= {hi})")
        if not float(row["rho_lambda_max"]) < 1.0:
            errors.append(f"{where}: rho lambda_max is not below 1")
        ex = exact_point(code, mode, db)
        expected = {c: ex[c] for c in ("ebn0_db", "rho", "half_tr_sigma_c", "gauss_bound",
                                       "half_tr_sigma_x", "inv_1p_rho",
                                       "log1p_rho_over_rho", "lambda_t1", "lambda_t2",
                                       "rho_lambda_max")}
        # the quadrature itself is good to ~1e-12; the program's Gauss-Hermite
        # rule is stated good to 1e-6 in I, so allow that much in 2 I / rho
        got = float(row["two_I_over_rho"])
        want = two_i_over_rho(ex["rho"])
        if abs(got - want) > 2e-6 / ex["rho"] + CSV_RTOL * want:
            errors.append(f"{where}: two_I_over_rho = {got!r}, quadrature {want!r}")
        _compare(errors, where, row, expected)
    return errors


def check_alpha_values(code_name, db_values, text):
    errors = []
    rows = parse_csv(text)
    if len(rows) != len(db_values):
        return [f"alpha {code_name}: {len(rows)} rows, expected {len(db_values)}"]
    code = PAPER_CODES[code_name]
    for db, row in zip(db_values, rows):
        ex = exact_point(code, "general", db)
        _compare(errors, f"alpha {code_name} at {db} dB", row, {
            "ebn0_db": db, "epsilon": ex["epsilon"], "alpha1": ex["a1"],
            "alpha2": ex["a2"], "alpha11": ex["a11"], "theta12": ex["theta"]})
    return errors


def check_alpha_polynomials(code_name, text, ref):
    """Coefficient lists against a sympy expansion and the published polynomials."""
    import sympy

    payload = json.loads(text)
    e = sympy.Symbol("eps")
    q = 1 - 2 * e
    s1, s2 = supports(PAPER_CODES[code_name], "general")
    a1 = (1 - q ** len(s1)) / 2
    a2 = (1 - q ** len(s2)) / 2
    a11 = (1 - q ** len(s1) - q ** len(s2) + q ** len(s1 ^ s2)) / 4
    expected = {"alpha1": a1, "alpha2": a2, "alpha11": a11, "theta12": a11 - a1 * a2}
    errors = []
    for key, expr in expected.items():
        coeffs = sympy.Poly(sympy.expand(expr), e).all_coeffs()[::-1]
        want = [int(c) for c in coeffs]
        if any(c != int(c) for c in coeffs):
            errors.append(f"alpha polynomial {code_name} {key}: sympy gives non-integers")
        if payload.get(key) != want:
            errors.append(f"alpha polynomial {code_name} {key}: {payload.get(key)} "
                          f"differs from the sympy expansion {want}")
    for key in ("alpha1", "alpha2", "alpha11"):
        if payload.get(key) != list(getattr(ref, f"POLY_{key.upper()}_{code_name.upper()}")):
            errors.append(f"alpha polynomial {code_name} {key}: differs from the published one")
    return errors


# ------------------------------------------------------------------ kalman

def stacked_gaussian_mi(model, steps):
    """I(x^b; z^b) = (1/2) log det Cov(z^b) - (1/2) sum log det W_k.

    Cov(z^b) is built by writing the stacked states as a linear map of
    (x_0, u_0, ..., u_{b-1}) and pushing the block-diagonal covariance of
    those through it.
    """
    n, m = model.n, model.m
    # A maps the driving vector (x_0, u_0 .. u_{steps-2}) to (x_0 .. x_{steps-1})
    a = np.zeros((steps * n, steps * n))
    drive_cov = np.zeros((steps * n, steps * n))
    drive_cov[:n, :n] = model.X0
    for j in range(1, steps):
        drive_cov[j * n:(j + 1) * n, j * n:(j + 1) * n] = model.U(j - 1)
    for i in range(steps):
        for j in range(i + 1):
            block = np.eye(n)
            for k in range(j, i):
                block = model.F(k) @ block
            a[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
    h = np.zeros((steps * m, steps * n))
    w = np.zeros((steps * m, steps * m))
    for k in range(steps):
        h[k * m:(k + 1) * m, k * n:(k + 1) * n] = model.H(k)
        w[k * m:(k + 1) * m, k * m:(k + 1) * m] = model.W(k)
    cov_z = h @ a @ drive_cov @ a.T @ h.T + w
    noise = sum(np.linalg.slogdet(model.W(k))[1] for k in range(steps))
    return 0.5 * (np.linalg.slogdet(cov_z)[1] - noise)


def check_kalman(text, seed, states, steps, kalman):
    errors = []
    rows = parse_csv(text)
    if len(rows) != 11:
        errors.append(f"kalman-check: {len(rows)} identity rows, expected 11")
    for row in rows:
        if row["passed"] != "1" or not float(row["max_dev"]) <= float(row["tol"]):
            errors.append(f"kalman-check: identity {row['check']} reported failing")
    model = kalman.random_model(seed, states)
    got = kalman.gaussian_mi(model, steps - 1)
    want = stacked_gaussian_mi(model, steps)
    if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
        errors.append(f"kalman: innovations MI {got!r} differs from the stacked "
                      f"determinant {want!r}")
    return errors


# ------------------------------------------------------------------ search

def family_counts(nu, c_bits):
    """(m1_alpha, m2_alpha, m1_beta, m2_beta) for one family member."""
    gprime = 1 << (nu - 1)
    for j, ch in enumerate(c_bits, start=1):
        if ch == "1":
            gprime |= 1 << j
    code = family_code(gprime)
    s1, s2 = supports(code, "general")
    return (len(s1), len(s2), 2 * bin(code["g"][0]).count("1"),
            2 * bin(code["g"][1]).count("1"))


@lru_cache(maxsize=None)
def _q_power(db, n):
    q = 1 - 2 * Fraction(eps_of(db))
    return q ** n


@lru_cache(maxsize=None)
def half_trace_gaps(counts):
    """{db: (1/2) tr Sigma_x - (1/2) tr Sigma_x'} in exact rational arithmetic.

    4 alpha (1 - alpha) = 1 - q^(2m) for a parity over m variables, so the
    general arrangement wins (a negative gap, a reversal) where
    q^(2 m1a) + q^(2 m2a) > q^(2 m1b) + q^(2 m2b).
    """
    m1a, m2a, m1b, m2b = counts
    out = {}
    for db in GRID_DB:
        gen = _q_power(db, 2 * m1a) + _q_power(db, 2 * m2a)
        qli = _q_power(db, 2 * m1b) + _q_power(db, 2 * m2b)
        out[db] = (qli - gen) / 2
    return out


def check_search_table(table, text, ref):
    nu = 5 if table == 9 else 6
    published = ref.SEARCH_ROWS_NU5 if table == 9 else ref.SEARCH_ROWS_NU6
    rows = parse_csv(text)
    if len(rows) != len(published):
        return [f"table {table}: {len(rows)} rows, expected {len(published)}"]
    errors = []
    for row, pub in zip(rows, published):
        c_bits = "".join(row[f"c{j}"] for j in range(1, nu - 1))
        got = (c_bits, *(int(row[c]) for c in ("m1_alpha", "m2_alpha", "m1_beta",
                                                "m2_beta")))
        if got != pub[:5]:
            errors.append(f"table {table}: row {got} differs from published {pub[:5]}")
        elif got[1:] != family_counts(nu, c_bits):
            errors.append(f"table {table}: row {c_bits} term counts differ from the "
                          "carry-less products")
    return errors


def check_search(nu, text):
    """Returns (errors, fault).  fault describes the known trace_compare fault
    when every wrong reversal flag sits within float64 rounding of a tie;
    errors lists everything else."""
    rows = parse_csv(text)
    errors = []
    if len(rows) != 2 ** (nu - 2):
        return [f"search nu={nu}: {len(rows)} rows, expected {2 ** (nu - 2)}"], None
    missed = spurious = rows_wrong = 0
    unexplained = []
    for i, (row, bits_) in enumerate(zip(rows, product("01", repeat=nu - 2))):
        c_bits = "".join(bits_)
        if row["c_bits"] != c_bits:
            errors.append(f"search nu={nu}: row {i} is {row['c_bits']}, expected {c_bits}")
            continue
        counts = family_counts(nu, c_bits)
        got_counts = tuple(int(row[c]) for c in ("m1a", "m2a", "m1b", "m2b"))
        if got_counts != counts:
            errors.append(f"search nu={nu}: row {c_bits} term counts {got_counts}, "
                          f"carry-less products give {counts}")
            continue
        diff = half_trace_gaps(counts)
        listed = ({float(v) for v in row["exact_counterexample_snrs"].split(";")}
                  if row["exact_counterexample_snrs"] else set())
        truth = {float(db) for db, d in diff.items() if d < 0}
        if listed == truth:
            continue
        rows_wrong += 1
        missed += len(truth - listed)
        spurious += len(listed - truth)
        for db in truth ^ listed:
            if not abs(diff[int(db)]) < FLOAT_TIE:
                unexplained.append(f"{c_bits} at {db:g} dB")
    if unexplained:
        errors.append(f"search nu={nu}: reversal lists wrong away from any float64 tie: "
                      + ", ".join(unexplained[:5]))
    if not rows_wrong or unexplained:
        return errors, None
    return errors, (f"qli_search.trace_compare compares float64 half traces that round "
                    f"to the same value: {rows_wrong} rows list wrong reversals ({missed} "
                    f"missed, {spurious} spurious points), each within 2^-48 of an "
                    f"exact tie")


# --------------------------------------------------------------- simulate

def unpack_zero_pairs(record):
    raw = np.frombuffer(base64.b64decode(record["zero_pairs"]), dtype=np.uint8)
    return np.unpackbits(raw)[: record["n"]].astype(bool)


def zero_pair_shares(code_name, mode, db_values, zero_pair_records):
    """The main decoder's 00 share at each point, with its exact value.

    Returns (db, share over every branch, independent subsample, exact).
    zero_pair_records holds, per dB point, the observed "hard input is 00"
    indicator of every branch.  The subsample takes every stride-th branch,
    with a stride wider than the support of v XOR e, so its entries are
    independent and a binomial standard error holds.
    """
    r1, r2 = decoder_input_supports(PAPER_CODES[code_name], mode)
    delays = [d for _, d in r1 | r2]
    stride = max(delays) - min(delays) + 1
    out = []
    for db, record in zip(db_values, zero_pair_records):
        zero = unpack_zero_pairs(record)
        out.append((db, float(zero[stride:].mean()), zero[stride::stride],
                    zero_pair_prob(r1, r2, eps_of(db))))
    return out


def check_simulate(code_name, mode, db_values, branches, text, zero_pair_records):
    """Empirical statistics against the exact values, one row per dB point."""
    errors = []
    rows = json.loads(text)["rows"]
    if len(rows) != len(db_values) or len(zero_pair_records) != len(db_values):
        return [f"simulate {code_name} {mode}: {len(rows)} rows and "
                f"{len(zero_pair_records)} decoder calls for {len(db_values)} points"]
    s1, s2 = supports(PAPER_CODES[code_name], mode)
    shares = zero_pair_shares(code_name, mode, db_values, zero_pair_records)
    for row, (db, _, sample, p00) in zip(rows, shares):
        where = f"simulate {code_name} {mode} at {db} dB"
        rho, eps = rho_of(db), eps_of(db)
        if row["branches"] != branches or not close(row["epsilon"], eps, 1e-12):
            errors.append(f"{where}: branches or epsilon differ from the request")
        a1, a2, a11 = parity_probs(s1, s2, eps)
        n = row["n_eff"]
        for col, p in (("emp_alpha1", a1), ("emp_alpha2", a2), ("emp_alpha11", a11)):
            se = max(math.sqrt(p * (1.0 - p) / n), 1e-9)
            if abs(row[col] - p) > MC_SIGMAS * se:
                errors.append(f"{where}: {col} = {row[col]:.5f}, exact {p:.5f} "
                              f"(> {MC_SIGMAS:g} se)")
        ref = np.eye(2) + rho * sigma_x(a1, a2, a11)
        hat = np.asarray(row["sigma_r_hat"])
        se = np.asarray(row["sigma_r_se"])
        if np.any(np.abs(hat - ref) > MC_SIGMAS * se + 1e-9):
            errors.append(f"{where}: sigma_r_hat off I + rho Sigma_x by > {MC_SIGMAS:g} se")
        se00 = max(math.sqrt(p00 * (1.0 - p00) / len(sample)), 1e-9)
        if abs(sample.mean() - p00) > MC_SIGMAS * se00:
            errors.append(f"{where}: main-decoder 00 share {sample.mean():.4f}, "
                          f"exact {p00:.4f} (> {MC_SIGMAS:g} se)")
    return errors


# --------------------------------------------------------------- decoding

def _conv_matrix(mask, n, offset=0):
    """T with (x @ T)[k] = sum_j g_j x[k + offset - j] over GF(2), k < n."""
    width = n + offset
    t = np.zeros((width, n), dtype=np.int64)
    for k in range(n):
        for j in bits(mask):
            if 0 <= k + offset - j < width:
                t[k + offset - j, k] = 1
    return t


def brute_force_decode(z, code, mode):
    """Maximum-correlation decoding over every input sequence.

    general: all w in {0,1}^n, encoder starting in the zero state.
    qli:     all w in {0,1}^(n-L), encoder preloaded with the pre-decoder's
             first L bits (z1 + z2 hard), as the SST main decoder sees it.
    """
    n = z.shape[0]
    L = code["L"]
    hard = (z < 0).astype(np.int64)
    length = n if mode == "general" else n - L
    cands = np.array(list(product((0, 1), repeat=length)), dtype=np.int64)
    if mode == "general":
        prefix = np.zeros((len(cands), 0), dtype=np.int64)
        offset = 0
    else:
        prefix = np.broadcast_to(hard[:L, 0] ^ hard[:L, 1], (len(cands), L))
        offset = L
    x = np.hstack([prefix, cands])
    score = np.zeros(len(cands))
    for l in (0, 1):
        c = (x @ _conv_matrix(code["g"][l], length, offset)) % 2
        score += (1.0 - 2.0 * c) @ z[:length, l]
    return cands[int(np.argmax(score))].astype(np.uint8)


def decode_blocks(seed, code_name, mode, count=3, db=2.0):
    """Seeded short received blocks, no longer than the truncation depth."""
    code = PAPER_CODES[code_name]
    n = min(5 * nu_of(code) + code["L"], 12)
    rng = np.random.default_rng([seed, nu_of(code), int(mode == "qli")])
    blocks = []
    for _ in range(count):
        info = rng.integers(0, 2, n)
        y = np.stack([(info @ _conv_matrix(g, n)) % 2 for g in code["g"]], axis=1)
        blocks.append(math.sqrt(rho_of(db)) * (1.0 - 2.0 * y) + rng.standard_normal((n, 2)))
    return blocks


def check_decoded(z, decoded, code_name, mode):
    want = brute_force_decode(z, PAPER_CODES[code_name], mode)
    if not np.array_equal(np.asarray(decoded, dtype=np.uint8), want):
        return [f"sst_decode {code_name} {mode} on a {z.shape[0]}-branch block differs "
                "from brute-force maximum-correlation decoding"]
    return []
