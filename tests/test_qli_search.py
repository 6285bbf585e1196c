"""Exhaustive quick-look-in family search and the term-count heuristic."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sstkalman import channel, covar_mi, parity_prob, qli_search
from sstkalman.convcode import ConvCode, get_code, main_encoded_block_map, make_qli
from sstkalman.gf2 import column_term_count, from_string

from reference_tables import SEARCH_ROWS_NU5, SEARCH_ROWS_NU6


def rows_as_tuples(rows):
    return [("".join(str(b) for b in r.c_bits), r.m1_alpha, r.m2_alpha,
             r.m1_beta, r.m2_beta, r.heuristic_counterexample) for r in rows]


def test_enumeration_matches_published_tables_exactly():
    assert rows_as_tuples(qli_search.enumerate_qli(5)) == list(SEARCH_ROWS_NU5)
    assert rows_as_tuples(qli_search.enumerate_qli(6)) == list(SEARCH_ROWS_NU6)


def test_flagged_rows():
    flagged5 = [r for r in qli_search.enumerate_qli(5) if r.heuristic_counterexample]
    flagged6 = [r for r in qli_search.enumerate_qli(6) if r.heuristic_counterexample]
    assert ["".join(map(str, r.c_bits)) for r in flagged5] == ["111"]
    assert ["".join(map(str, r.c_bits)) for r in flagged6] == ["1100", "1110"]
    assert not any(r.indeterminate for r in qli_search.enumerate_qli(5))
    assert not any(r.indeterminate for r in qli_search.enumerate_qli(6))


def test_enumeration_size_and_gprime_form():
    for nu in range(3, 13):
        rows = qli_search.enumerate_qli(nu)
        assert len(rows) == 2 ** (nu - 2)
        for i, row in enumerate(rows):
            # member i's c bits are i's nu-2 binary digits, c_1 first
            assert "".join(map(str, row.c_bits)) == format(i, f"0{nu - 2}b")
            assert row.gprime & 1 == 0
            assert row.gprime.bit_length() - 1 == nu - 1
            # interior bits of gprime are the enumerated c bits
            bits = tuple(row.gprime >> (j + 1) & 1 for j in range(nu - 2))
            assert bits == row.c_bits


def test_nu_bounds():
    for nu in (2, 13):
        with pytest.raises(ValueError):
            qli_search.enumerate_qli(nu)


def test_family_counts_for_builtin_code():
    assert qli_search.family_counts(get_code("c2")) == (12, 13, 8, 10)


def test_classify_counts():
    assert qli_search.classify_counts((11, 10), (10, 12)) == (True, False)
    assert qli_search.classify_counts((6, 7), (4, 6)) == (False, False)
    # mixed orderings settle nothing either way
    assert qli_search.classify_counts((5, 10), (6, 7)) == (False, True)


def pairing_le(small, big, strict):
    """Some pairing puts each small count at or below its big partner
    (one strictly below, if strict)."""
    for perm in ((0, 1), (1, 0)):
        pairs = [(small[i], big[perm[i]]) for i in (0, 1)]
        if all(s <= b for s, b in pairs) and (not strict or any(s < b for s, b in pairs)):
            return True
    return False


def test_classify_counts_matches_every_pairing():
    for counts in product(range(5), repeat=4):
        m_alpha, m_beta = counts[:2], counts[2:]
        counterexample = pairing_le(m_alpha, m_beta, strict=True)
        expected = pairing_le(m_beta, m_alpha, strict=False)
        assert (qli_search.classify_counts(m_alpha, m_beta)
                == (counterexample, not counterexample and not expected)), counts


def test_trace_compare_orders_counterexample_code():
    bad = [r for r in qli_search.enumerate_qli(5) if r.heuristic_counterexample][0]
    code = make_qli(bad.gprime)
    points = qli_search.trace_compare(qli_search.family_counts(code), channel.grid_points())
    assert len(points) == 21
    assert all(p.reversed_order for p in points)
    assert all(p.half_tr_sigma_x_prime > p.half_tr_sigma_x for p in points)
    assert qli_search.exact_counterexample_snrs(code) == [p.ebn0_db for p in points]


def test_trace_compare_keeps_order_for_plain_code():
    plain = qli_search.enumerate_qli(5)[0]
    code = make_qli(plain.gprime)
    points = qli_search.trace_compare(qli_search.family_counts(code), channel.grid_points())
    assert not any(p.reversed_order for p in points)
    assert qli_search.exact_counterexample_snrs(code) == []


def test_builtin_c2_never_reverses():
    assert qli_search.exact_counterexample_snrs(get_code("c2")) == []


@pytest.mark.parametrize("nu", range(3, 13))
def test_integer_counts_match_the_block_map_of_each_built_code(nu):
    # make_qli runs every ConvCode check (g ginv = 1, h g = 0, g and h
    # nonzero); the oracle counts come from the block map Ginv G and from g
    for row in qli_search.enumerate_qli(nu):
        code = make_qli(row.gprime)
        m = main_encoded_block_map(code, "general")
        oracle = (column_term_count(m, 0), column_term_count(m, 1),
                  2 * code.g[0].bit_count(), 2 * code.g[1].bit_count())
        assert row.counts == oracle == qli_search.family_counts(code)
        assert (qli_search.classify_counts(oracle[:2], oracle[2:])
                == (row.heuristic_counterexample, row.indeterminate))


def test_family_counts_are_support_sizes_at_any_degree():
    # make_qli((1 << 17) - 2) has memory 17, past the array path's nu <= 12
    for code in (get_code("c1"), get_code("c2"), make_qli((1 << 17) - 2)):
        sizes = tuple(len(s) for mode in ("general", "qli")
                      for s in parity_prob.code_supports(code, mode))
        assert qli_search.family_counts(code) == sizes


def per_member_rows(nu):
    """enumerate_qli's rows as fields, one built code at a time through its
    support sizes (family_counts) and classify_counts: the oracle for the
    array path."""
    rows = []
    for bits in product((0, 1), repeat=nu - 2):
        gp = 1 << (nu - 1) | sum(c << j for j, c in enumerate(bits, start=1))
        counts = qli_search.family_counts(make_qli(gp))
        rows.append((bits, *counts, *qli_search.classify_counts(counts[:2], counts[2:]), gp))
    return rows


@pytest.mark.parametrize("nu", range(3, 13))
def test_array_enumeration_matches_a_per_member_loop(nu):
    rows = qli_search.enumerate_qli(nu)
    assert [tuple(row) for row in rows] == per_member_rows(nu)
    # plain Python types: an np.bool_ or np.int64 would print or serialise
    # differently from the values it stands for
    for row in rows:
        assert type(row.c_bits) is tuple
        assert all(type(b) is int for b in row.c_bits)
        assert all(type(m) is int for m in (*row.counts, row.gprime))
        assert type(row.heuristic_counterexample) is bool
        assert type(row.indeterminate) is bool


@pytest.mark.parametrize("nu", range(3, 13))
def test_enumeration_rows_are_the_make_rows(nu):
    # tuple.__new__ bound to the class skips _make's length check, so pin
    # each row's class, its field count and its values to _make's row
    made = list(map(qli_search.QliSearchRow._make, per_member_rows(nu)))
    rows = qli_search.enumerate_qli(nu)
    assert rows == made
    for row, want in zip(rows, made):
        assert type(row) is qli_search.QliSearchRow
        assert len(row) == len(qli_search.QliSearchRow._fields)
        assert row._asdict() == want._asdict()


@given(st.integers(min_value=3, max_value=12), st.data())
def test_array_term_counts_reject_one_false_right_inverse(nu, data):
    gp = np.array([row.gprime for row in qli_search.enumerate_qli(nu)], dtype=np.uint64)
    g1, g2, i1, i2 = 1 ^ (gp << 1), 3 ^ (gp << 1), 1 ^ gp, gp
    qli_search._family_term_counts(g1, g2, i1, i2)  # the family's own ginv
    # one member's swapped pair gives g ginv = 1 + D for that member alone
    j = data.draw(st.integers(min_value=0, max_value=len(g1) - 1))
    bad1, bad2 = i1.copy(), i2.copy()
    bad1[j], bad2[j] = i2[j], i1[j]
    with pytest.raises(ValueError, match="^ginv is not a right inverse of g$"):
        qli_search._family_term_counts(g1, g2, bad1, bad2)


@pytest.mark.parametrize("nu, tuples", [(10, 57), (12, 91)])
def test_enumeration_classifies_each_count_tuple_once(nu, tuples, monkeypatch):
    classified = []
    classify_counts = qli_search.classify_counts

    def counting(m_alpha, m_beta):
        classified.append((*m_alpha, *m_beta))
        return classify_counts(m_alpha, m_beta)

    monkeypatch.setattr(qli_search, "classify_counts", counting)
    rows = qli_search.enumerate_qli(nu)
    assert len(classified) == len(set(classified)) == tuples
    assert set(classified) == {row.counts for row in rows}


def test_family_counts_rejects_a_non_qli_code():
    # g1 + g2 = D + D^2 + D^3 is not a monomial, but an exact right inverse exists
    g = (from_string("1101"), from_string("101"))
    ginv = (from_string("001"), from_string("1001"))
    with pytest.raises(ValueError, match="not quick-look-in"):
        qli_search.family_counts(ConvCode("nonqli", g, ginv))


@pytest.mark.parametrize("nu", range(3, 13))
def test_trace_compare_half_traces_are_the_sweep_values(nu):
    # bit for bit: the float arithmetic of trace_compare is its own, but each
    # half trace must be the sweep's (1/2) tr Sigma_x of that arrangement
    points = channel.grid_points()
    assert [p.ebn0_db for p in points] == [float(db) for db in channel.DB_GRID]
    for row in qli_search.enumerate_qli(nu):
        code = make_qli(row.gprime)
        compared = qli_search.trace_compare(row.counts, points)
        for mode, field in (("general", "half_tr_sigma_x"),
                            ("qli", "half_tr_sigma_x_prime")):
            assert ([r.half_tr_sigma_x for r in covar_mi.sweep(code, points, mode)]
                    == [getattr(p, field) for p in compared]), (row.c_bits, mode)


def exact_reversals(counts, points):
    """The reversal flags in Fraction arithmetic.  4 a (1 - a) = 1 - q^(2m)
    for a parity over m variables, so the gap (1/2) tr Sigma_x -
    (1/2) tr Sigma_x' is (q^(2 m1b) + q^(2 m2b) - q^(2 m1a) - q^(2 m2a)) / 2
    on the rational value of the float q, and a reversal is a negative gap."""
    m1a, m2a, m1b, m2b = counts
    qs = [Fraction(1.0 - 2.0 * p.epsilon) for p in points]
    return [q ** (2 * m1b) + q ** (2 * m2b) - q ** (2 * m1a) - q ** (2 * m2a) < 0 for q in qs]


@pytest.mark.parametrize("nu", range(3, 13))
def test_reversal_flags_match_exact_arithmetic_at_every_grid_point(nu):
    points = channel.grid_points()
    for counts in {row.counts for row in qli_search.enumerate_qli(nu)}:
        exact = exact_reversals(counts, points)
        assert qli_search.reversal_flags(counts, points) == exact, counts
        assert [p.reversed_order for p in qli_search.trace_compare(counts, points)] == exact


@pytest.mark.parametrize("counts, reversed_dbs", [
    # q^2 + q^20 against 2 q^4: the sign changes between 0 and 1 dB
    ((1, 10, 2, 2), list(range(-10, 1))),
    # q^2 + q^6 - 2 q^4 = q^2 (1 - q^2)^2 > 0 on (0, 1)
    ((1, 3, 2, 2), list(range(-10, 11))),
])
def test_reversal_flags_of_indeterminate_counts(counts, reversed_dbs):
    assert qli_search.classify_counts(counts[:2], counts[2:]) == (False, True)
    points = channel.grid_points()
    flags = qli_search.reversal_flags(counts, points)
    assert flags == exact_reversals(counts, points)
    assert [p.ebn0_db for p, flag in zip(points, flags) if flag] == reversed_dbs
    assert [p.reversed_order for p in qli_search.trace_compare(counts, points)] == flags


def test_reversal_flags_call_an_exact_tie_no_reversal():
    # the float q is 0.0 at the bottom of the dB range and 1.0 at 20 dB and
    # above, where both power sums of an indeterminate class are equal
    points = [channel.snr_point(db) for db in (-3076.5, 20.0, 3076.5)]
    assert [1.0 - 2.0 * p.epsilon for p in points] == [0.0, 1.0, 1.0]
    for counts in ((1, 10, 2, 2), (1, 3, 2, 2)):
        assert qli_search.reversal_flags(counts, points) == [False] * 3
        assert exact_reversals(counts, points) == [False] * 3


def test_cli_import_leaves_fractions_unloaded():
    # reversal_flags compares the exact q through float.as_integer_ratio
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    script = "import sys, sstkalman.cli; print('fractions' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
