import pytest
from hypothesis import given, strategies as st

from sstkalman.gf2 import (
    MAX_DEGREE,
    ONE,
    ZERO,
    D,
    BinaryPoly,
    clmul,
    column_term_count,
    poly_mul,
    polymat_mul,
    verify_right_inverse,
)

masks = st.integers(min_value=0, max_value=(1 << 20) - 1)


def test_string_parsing_examples():
    assert BinaryPoly.from_string("111").mask == 0b111
    assert BinaryPoly.from_string("01") == D
    assert BinaryPoly.from_string("1") == ONE
    assert BinaryPoly.from_string("101").support() == (0, 2)


def test_to_string_zero():
    assert ZERO.to_string() == "0"
    assert not ZERO
    assert ONE.to_string() == "1"


@given(masks)
def test_string_round_trip(mask):
    p = BinaryPoly(mask)
    assert BinaryPoly.from_string(p.to_string()) == p


def test_bad_strings_rejected():
    for text in ("", "2", "1x0", "1 0"):
        with pytest.raises(ValueError):
            BinaryPoly.from_string(text)


def test_degree_of_zero_raises():
    with pytest.raises(ValueError):
        ZERO.degree


def test_degree_and_term_count():
    p = BinaryPoly.from_string("1011")
    assert p.degree == 3
    assert p.term_count == 3
    assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(5) == 0


@given(masks, masks)
def test_addition_is_xor_and_self_inverse(a, b):
    pa, pb = BinaryPoly(a), BinaryPoly(b)
    assert (pa + pb).mask == a ^ b
    assert pa + pa == ZERO
    assert pa - pb == pa + pb


@given(masks, masks)
def test_mul_commutes(a, b):
    assert poly_mul(a, b) == poly_mul(b, a)


@given(masks, masks, masks)
def test_mul_associates_and_distributes(a, b, c):
    pa, pb, pc = BinaryPoly(a), BinaryPoly(b), BinaryPoly(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(masks)
def test_mul_units(a):
    p = BinaryPoly(a)
    assert p * ONE == p
    assert p * ZERO == ZERO


@given(masks.filter(lambda m: m > 0), masks.filter(lambda m: m > 0))
def test_mul_degree_adds(a, b):
    assert poly_mul(a, b).degree == BinaryPoly(a).degree + BinaryPoly(b).degree


@given(masks, masks)
def test_clmul_is_the_xor_convolution_of_the_coefficients(a, b):
    ca = [a >> j & 1 for j in range(a.bit_length())]
    cb = [b >> j & 1 for j in range(b.bit_length())]
    conv = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            conv[i + j] ^= x & y
    assert clmul(a, b) == sum(c << k for k, c in enumerate(conv))


@given(masks, masks)
def test_clmul_commutes_and_degrees_add(a, b):
    assert clmul(a, b) == clmul(b, a)
    if a and b:
        assert clmul(a, b).bit_length() == a.bit_length() + b.bit_length() - 1


@given(masks, masks)
def test_poly_mul_is_clmul_on_the_masks(a, b):
    pa, pb = BinaryPoly(a), BinaryPoly(b)
    assert poly_mul(pa, pb).mask == clmul(pa.mask, pb.mask)


def test_clmul_rejects_negative_masks():
    for a, b in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            clmul(a, b)


@given(masks, st.integers(min_value=0, max_value=16))
def test_shift_is_monomial_multiplication(a, k):
    p = BinaryPoly(a)
    assert p.shifted(k) == p * BinaryPoly(1 << k)


def test_degree_cap_enforced():
    BinaryPoly(1 << MAX_DEGREE)  # exactly at the cap is fine
    with pytest.raises(ValueError):
        BinaryPoly(1 << (MAX_DEGREE + 1))
    big = BinaryPoly(1 << 40)
    with pytest.raises(ValueError):
        poly_mul(big, big)


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.mask = 5


def test_matrix_identity_and_matmul():
    ident = ((ONE, ZERO), (ZERO, ONE))
    m = ((BinaryPoly.from_string("11"), D), (ONE, ZERO))
    assert polymat_mul(m, ident) == m
    assert polymat_mul(ident, m) == m


def test_matrix_shape_checks():
    a = ((ONE, D),)
    with pytest.raises(ValueError):
        polymat_mul(a, a)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_matmul_matches_scalar_expansion(a, b, c, d):
    # 1x2 @ 2x1 reduces to a dot product of polynomials
    row = ((BinaryPoly(a), BinaryPoly(b)),)
    col = ((BinaryPoly(c),), (BinaryPoly(d),))
    prod = polymat_mul(row, col)
    assert prod[0][0] == BinaryPoly(a) * BinaryPoly(c) + BinaryPoly(b) * BinaryPoly(d)


def test_verify_right_inverse_known_pair():
    # (1+D+D^2, 1+D^2) has zero-delay right inverse (D, 1+D)^T
    g = (BinaryPoly.from_string("111"), BinaryPoly.from_string("101"))
    ginv = (BinaryPoly.from_string("01"), BinaryPoly.from_string("11"))
    assert verify_right_inverse(g, ginv)
    assert not verify_right_inverse(g, (ONE, ONE))


def test_column_term_count():
    m = ((BinaryPoly.from_string("0111"), BinaryPoly.from_string("0101")),
         (BinaryPoly.from_string("1001"), BinaryPoly.from_string("1111")))
    assert column_term_count(m, 0) == 3 + 2
    assert column_term_count(m, 1) == 2 + 4
    with pytest.raises(ValueError):
        column_term_count(m, 2)
