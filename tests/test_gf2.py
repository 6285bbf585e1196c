import pytest
from hypothesis import given, strategies as st

from sstkalman.convcode import ConvCode
from sstkalman.gf2 import (
    MAX_DEGREE,
    clmul,
    column_term_count,
    from_string,
    polymat_mul,
    support,
    to_string,
    verify_right_inverse,
)

masks = st.integers(min_value=0, max_value=(1 << 20) - 1)
# every polynomial a code may hold; their products run past 64 bits
code_masks = st.integers(min_value=0, max_value=(1 << (MAX_DEGREE + 1)) - 1)


def test_string_parsing_examples():
    assert from_string("111") == 0b111
    assert from_string("01") == 0b10
    assert from_string("1") == 1
    assert from_string("0100") == 0b10
    assert support(from_string("101")) == (0, 2)
    assert support(0) == ()


def test_to_string_zero():
    assert to_string(0) == "0"
    assert to_string(1) == "1"
    assert to_string(0b10) == "01"


@given(masks)
def test_string_round_trip(mask):
    assert from_string(to_string(mask)) == mask


def test_bad_strings_rejected():
    for text in ("", "2", "1x0", "1 0", "1_0", " 1", "-1"):
        with pytest.raises(ValueError):
            from_string(text)


def test_degree_of_zero_raises():
    # the zero polynomial has no degree, so a code with a zero generator has no memory
    with pytest.raises(ValueError, match="generator polynomials must be nonzero"):
        ConvCode("zero", (0, 1), (0, 1))


def test_degree_and_term_count():
    p = from_string("1011")
    assert p.bit_length() - 1 == 3
    assert p.bit_count() == 3
    assert [p >> j & 1 for j in (0, 1, 5)] == [1, 0, 0]


@given(masks, masks)
def test_addition_is_xor_and_self_inverse(a, b):
    # the coefficient string of a + b is the position-wise sum mod 2
    width = max(a.bit_length(), b.bit_length(), 1)
    sa, sb = (to_string(x).ljust(width, "0") for x in (a, b))
    assert from_string("".join(str(int(x) ^ int(y)) for x, y in zip(sa, sb))) == a ^ b
    assert a ^ a == 0


@given(code_masks, code_masks)
def test_mul_commutes(a, b):
    assert clmul(a, b) == clmul(b, a)


@given(code_masks, code_masks, code_masks)
def test_mul_associates_and_distributes(a, b, c):
    assert clmul(clmul(a, b), c) == clmul(a, clmul(b, c))
    assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)


@given(code_masks)
def test_mul_units(a):
    assert clmul(a, 1) == a
    assert clmul(a, 0) == 0


@given(code_masks.filter(lambda m: m > 0), code_masks.filter(lambda m: m > 0))
def test_mul_degree_adds(a, b):
    assert clmul(a, b).bit_length() - 1 == (a.bit_length() - 1) + (b.bit_length() - 1)


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


def test_clmul_rejects_negative_masks():
    for a, b in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            clmul(a, b)


@given(masks, st.integers(min_value=0, max_value=16))
def test_shift_is_monomial_multiplication(a, k):
    assert a << k == clmul(a, 1 << k)


def test_degree_cap_enforced():
    at_cap = "0" * MAX_DEGREE + "1"
    assert from_string(at_cap) == 1 << MAX_DEGREE  # exactly at the cap is fine
    assert from_string(at_cap + "000") == 1 << MAX_DEGREE  # trailing zeros add no degree
    with pytest.raises(ValueError, match=f"degree exceeds {MAX_DEGREE}"):
        from_string(at_cap[:-1] + "01")

    # (1 + D^k, 1) has right inverse (0, 1)
    def code(k):
        g1 = 1 | 1 << k
        return ConvCode("cap", (g1, 1), (0, 1))

    assert code(MAX_DEGREE).nu == MAX_DEGREE
    for bad in (lambda: code(MAX_DEGREE + 1),
                lambda: ConvCode("neg", (-1, 1), (0, 1)),
                lambda: ConvCode("str", ("111", "101"), (0b10, 0b11))):
        with pytest.raises(ValueError, match=f"int masks of degree at most {MAX_DEGREE}"):
            bad()


def test_matrix_identity_and_matmul():
    ident = ((1, 0), (0, 1))
    m = ((0b11, 0b10), (1, 0))
    assert polymat_mul(m, ident) == m
    assert polymat_mul(ident, m) == m


def test_matrix_shape_checks():
    a = ((1, 0b10),)
    with pytest.raises(ValueError):
        polymat_mul(a, a)
    # 2x1 @ 1x2 is the outer product
    assert polymat_mul(((1,), (0b10,)), ((0b11, 1),)) == ((0b11, 1), (0b110, 0b10))


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_matmul_matches_scalar_expansion(a, b, c, d):
    # 1x2 @ 2x1 reduces to a dot product of polynomials
    assert polymat_mul(((a, b),), ((c,), (d,))) == ((clmul(a, c) ^ clmul(b, d),),)


def test_verify_right_inverse_known_pair():
    # (1+D+D^2, 1+D^2) has zero-delay right inverse (D, 1+D)^T
    g = (from_string("111"), from_string("101"))
    ginv = (from_string("01"), from_string("11"))
    assert verify_right_inverse(g, ginv)
    assert not verify_right_inverse(g, (1, 1))


def test_column_term_count():
    m = ((from_string("0111"), from_string("0101")),
         (from_string("1001"), from_string("1111")))
    assert column_term_count(m, 0) == 3 + 2
    assert column_term_count(m, 1) == 2 + 4
    with pytest.raises(ValueError):
        column_term_count(m, 2)
