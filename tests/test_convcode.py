"""Code construction, encoding, and the block maps driving the parity calculus."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sstkalman import channel
from sstkalman.convcode import (
    ConvCode,
    code_from_json,
    encode,
    get_code,
    load_code,
    main_encoded_block_map,
    make_qli,
    predecoder,
    syndrome,
)
from sstkalman.gf2 import MAX_DEGREE, from_string, polymat_mul, to_string, verify_right_inverse
from sstkalman.parity_prob import code_supports
from sstkalman.qli_search import enumerate_qli
from sstkalman.sstdec import predecode, sst_decode

from oracles import code_to_json

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=64).map(
    lambda b: np.array(b, dtype=np.uint8))


def _nonqli_code():
    # g1 + g2 = D + D^2 + D^3 is not a monomial, but an exact right inverse exists
    g = (from_string("1101"), from_string("101"))
    ginv = (from_string("001"), from_string("1001"))
    return ConvCode("nonqli", g, ginv)


def test_builtin_c1():
    c1 = get_code("c1")
    base = c1
    assert [to_string(p) for p in base.g] == ["111", "101"]
    assert [to_string(p) for p in base.ginv] == ["01", "11"]
    assert c1.L == 1
    assert verify_right_inverse(base.g, base.ginv)


def test_builtin_c2_is_family_member():
    c2 = get_code("c2")
    base = c2
    assert base.g[0].bit_length() - 1 == 6
    assert c2.L == 1
    assert base.g[0] ^ base.g[1] == from_string("01")
    assert verify_right_inverse(base.g, base.ginv)


def test_get_code_unknown():
    with pytest.raises(ValueError):
        get_code("c3")


def test_constructor_rejects_wrong_inverse():
    g = (from_string("111"), from_string("101"))
    with pytest.raises(ValueError):
        ConvCode("bad", g, (1, 1))


@given(st.integers(min_value=1, max_value=(1 << 11) - 1))
def test_constructor_rejects_a_swapped_family_inverse(c):
    code = make_qli(c << 1)  # the family's own ginv (1 + g', g')
    # the swapped pair gives g ginv = 1 + D
    with pytest.raises(ValueError, match="^ginv is not a right inverse of g$"):
        ConvCode("swapped", code.g, code.ginv[::-1])


C1_FIELDS = ("c1", (0b111, 0b101), (0b10, 0b11))

BUILDS = {
    "positional": lambda fields: ConvCode(*fields),
    "keyword": lambda fields: ConvCode(**dict(zip(ConvCode._fields, fields))),
    "_make": lambda fields: ConvCode._make(fields),
    "_replace": lambda fields: get_code("c1")._replace(**dict(zip(ConvCode._fields, fields))),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_every_construction_path_checks_the_code(build):
    code = build(("c1", [0b111, 0b101], iter((0b10, 0b11))))
    assert code == get_code("c1") and hash(code) == hash(get_code("c1"))
    assert type(code.g) is tuple and type(code.ginv) is tuple
    assert repr(code) == "ConvCode(name='c1', g=(7, 5), ginv=(2, 3))"
    big = 1 << (MAX_DEGREE + 1)
    for field, value, message in (
            ("ginv", (1, 1), "ginv is not a right inverse of g"),
            ("g", (0, 0b101), "generator polynomials must be nonzero"),
            ("g", (7.0, 5), f"g must hold int masks of degree at most {MAX_DEGREE}"),
            ("ginv", (-1, 3), f"ginv must hold int masks of degree at most {MAX_DEGREE}"),
            ("g", (big | 1, 5), f"g must hold int masks of degree at most {MAX_DEGREE}"),
            ("ginv", (2, 3, 0), "g and ginv must each hold two polynomials")):
        fields = dict(zip(ConvCode._fields, C1_FIELDS), **{field: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(tuple(fields.values()))


def test_look_in_delay_rejects_non_qli():
    code = _nonqli_code()
    with pytest.raises(ValueError):
        code.L


@given(st.integers(0, 2 ** 8 - 1))
def test_make_qli_family(cbits):
    # g' = c_1 D + ... + c_8 D^8 + D^9, always memory 9 with L = 1
    mask = (1 << 9) | (cbits << 1)
    code = make_qli(mask)
    base = code
    assert code.L == 1
    assert base.g[0] ^ base.g[1] == from_string("01")
    assert verify_right_inverse(base.g, base.ginv)
    # the parity check (g2, g1) annihilates the generator
    prod = polymat_mul((base.g[::-1],), ((base.g[0],), (base.g[1],)))
    assert prod[0][0] == 0


def test_encode_impulse_response():
    c1 = get_code("c1")
    info = np.zeros(6, dtype=np.uint8)
    info[0] = 1
    y = encode(c1, info)
    # columns are the generator coefficient sequences
    assert y[:, 0].tolist() == [1, 1, 1, 0, 0, 0]
    assert y[:, 1].tolist() == [1, 0, 1, 0, 0, 0]


@given(bit_arrays, bit_arrays)
def test_encode_is_linear(a, b):
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    c1 = get_code("c1")
    assert np.array_equal(encode(c1, a ^ b), encode(c1, a) ^ encode(c1, b))


@given(bit_arrays)
def test_syndrome_vanishes_on_codewords(info):
    for name in ("c1", "c2"):
        assert not syndrome(get_code(name), encode(get_code(name), info)).any()


def test_syndrome_flags_single_errors():
    c1 = get_code("c1")
    info = np.zeros(12, dtype=np.uint8)
    y = encode(c1, info)
    y[5, 0] ^= 1
    assert syndrome(c1, y).any()


def test_encode_rejects_bad_bits():
    with pytest.raises(ValueError):
        encode(get_code("c1"), np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        encode(get_code("c1"), np.zeros((3, 2), dtype=np.uint8))


def test_main_encoded_block_map_c1():
    m = main_encoded_block_map(get_code("c1"))
    assert [[to_string(p) for p in row] for row in m] == [["0111", "0101"], ["1001", "1111"]]


def test_main_encoded_block_map_sizes():
    # term totals per column drive the parity orders of the two streams
    from sstkalman.gf2 import column_term_count

    m1 = main_encoded_block_map(get_code("c1"))
    assert (column_term_count(m1, 0), column_term_count(m1, 1)) == (5, 6)
    m2 = main_encoded_block_map(get_code("c2"))
    assert (column_term_count(m2, 0), column_term_count(m2, 1)) == (12, 13)
    q1 = main_encoded_block_map(get_code("c1"), "qli")
    assert (column_term_count(q1, 0), column_term_count(q1, 1)) == (6, 4)


def test_predecoder_is_ginv_or_the_stream_sum():
    codes = [get_code("c1"), get_code("c2")]
    codes += [make_qli(row.gprime) for nu in range(3, 9) for row in enumerate_qli(nu)]
    for code in codes:
        assert predecoder(code, "general") == (code.ginv, 0)
        assert predecoder(code, "qli") == ((1, 1), 1)


def test_predecoder_rejects_non_qli_codes_and_unknown_modes():
    with pytest.raises(ValueError, match="not quick-look-in"):
        predecoder(_nonqli_code(), "qli")
    c1 = get_code("c1")
    z = channel.ReceivedSequence(channel.bpsk_map(encode(c1, np.zeros(12, dtype=np.uint8))))
    for call in (lambda: predecode(z.z_hard, c1, "soft"), lambda: sst_decode(z, c1, "soft"),
                 lambda: main_encoded_block_map(c1, "soft"),
                 lambda: code_supports(c1, "soft")):
        with pytest.raises(ValueError, match="unknown mode 'soft'"):
            call()


def test_json_round_trip(tmp_path):
    for code in (get_code("c1"), get_code("c2"), _nonqli_code()):
        obj = code_to_json(code)
        back = code_from_json(json.loads(json.dumps(obj)))
        assert code_to_json(back) == obj
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json(get_code("c2"))))
    loaded = load_code(str(path))
    assert loaded.g == get_code("c2").g


def test_a_code_is_its_name_generators_and_right_inverse():
    assert list(ConvCode._fields) == ["name", "g", "ginv"]
    assert set(code_to_json(get_code("c2"))) == {"name", "g", "ginv"}
    for key in ("h", "qli", "ginverse"):
        obj = dict(code_to_json(get_code("c1")), **{key: ["101", "111"]})
        with pytest.raises(ValueError, match=f"unknown code field '{key}'"):
            code_from_json(obj)


def test_load_code_builtin_names():
    assert load_code("C1").name == "c1"
    with pytest.raises(OSError):
        load_code("no-such-code-or-file")
