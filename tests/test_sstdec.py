"""Scarce-state-transition decoder: pre-decode, main Viterbi, recombination."""

import functools
import itertools
import math
import platform
import subprocess
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from sstkalman import channel, covar_mi, parity_prob, sstdec
from sstkalman.cli import main
from sstkalman.convcode import (ConvCode, column_filter, encode, get_code,
                                main_encoded_block_map, make_qli, predecoder)
from sstkalman.gf2 import clmul


def poly_from_stream(bits):
    mask = 0
    for j, bit in enumerate(bits):
        mask |= int(bit) << j
    return mask


def forward(r, code):
    """The trellis of r: per step the decisions, 1 where a state's survivor
    comes from (s >> 1) + 2^(nu-1), and the best state, the lowest state
    with the top metric.
    """
    nu = code.nu
    nstates = 1 << nu
    ns = np.arange(nstates)
    pred0 = ns >> 1
    pred1 = pred0 | (1 << (nu - 1))
    in_bit = ns & 1

    def signs(pred, l):
        regs = (pred << 1) | in_bit
        return np.array([1.0 - 2.0 * (bin(int(x) & code.g[l]).count("1") & 1)
                         for x in regs])

    sign0, sign1, sign0b, sign1b = (signs(pred0, 0), signs(pred0, 1),
                                    signs(pred1, 0), signs(pred1, 1))
    n = len(r)
    metrics = np.full(nstates, -1e30)
    metrics[0] = 0.0
    choices = np.zeros((n, nstates), dtype=np.uint8)
    bests = np.zeros(n, dtype=np.int64)
    for k in range(n):
        cand0 = metrics[pred0] + r[k, 0] * sign0 + r[k, 1] * sign1
        cand1 = metrics[pred1] + r[k, 0] * sign0b + r[k, 1] * sign1b
        take1 = cand1 > cand0
        metrics = np.where(take1, cand1, cand0)
        choices[k] = take1
        bests[k] = np.argmax(metrics)
    return choices, bests


def per_step_viterbi(r, code, truncation):
    """Oracle: the decoder with a survivor walk-back after every step.

    Each step emits the bit T = truncation steps behind it from the best
    state (`forward`), following decisions that prefer the input-0 branch
    on ties; the last T bits come from the final best state.
    """
    top = code.nu - 1
    n = len(r)
    out = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return out
    choices, bests = forward(r, code)

    def walk_back(state, level, stop_level):
        # choices[t] maps a level-(t+1) state to its level-t predecessor
        for t in range(level - 1, stop_level - 1, -1):
            state = (state >> 1) | (int(choices[t, state]) << top)
        return state

    for k in range(truncation, n):
        tau = k - truncation
        out[tau] = walk_back(int(bests[k]), k + 1, tau + 1) & 1
    state = int(bests[-1])
    for t in range(n - 1, max(n - truncation, 0) - 1, -1):
        out[t] = state & 1
        state = (state >> 1) | (int(choices[t, state]) << top)
    return out


def agreeing_steps(r, code, truncation):
    """Per step k >= T, whether every state's survivor holds the same input
    for step k - T, so the output needs no best state."""
    top = code.nu - 1
    choices, _ = forward(r, code)
    agree = []
    for k in range(truncation, len(r)):
        states = np.arange(1 << code.nu)
        for t in range(k, k - truncation, -1):
            states = (states >> 1) | (choices[t, states].astype(np.int64) << top)
        agree.append(np.all(states & 1 == states[0] & 1))
    return np.array(agree, dtype=bool)


KINDS = ("normal", "grid", "near_grid", "scarce", "mixed")


def soft_values(seed, n, kind):
    """Gaussian soft pairs; on a 0.5 grid many path metrics tie exactly.

    near_grid moves the grid values by multiples of 2^-45: path metrics of a
    few hundred up to tens of thousands then round, so the order of the
    additions in a path metric decides some of the near ties.  scarce pairs
    look like the main decoder's input at 6-8 dB, mostly positive with rare
    sign flips, so the survivors agree T steps back on most steps; mixed
    alternates scarce and normal stretches of 20-150 steps.  large pairs
    are normal ones scaled to sum |r| = 2^1019, half the bound that
    viterbi_main takes, so path metrics come near the largest double.
    """
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(0.5, 1.0, size=(n, 2))
    if kind == "scarce":
        r = np.abs(rng.normal(1.5, 0.8, size=(n, 2)))
        return np.where(rng.random((n, 2)) < 0.01, -r, r)
    if kind == "mixed":
        ends = np.cumsum(rng.integers(20, 151, size=n // 20 + 1))
        scarce = np.searchsorted(ends, np.arange(n), side="right") % 2 == 0
        return np.where(scarce[:, None], soft_values(seed + 1, n, "scarce"),
                        soft_values(seed + 2, n, "normal"))
    if kind == "large":
        r = soft_values(seed, n, "normal")
        return r * (2.0**1019 / np.abs(r).sum())
    r = rng.integers(-3, 4, size=(n, 2)) / 2.0
    if kind == "near_grid":
        r += rng.integers(-2, 3, size=(n, 2)) * 2.0**-45
    return r


# n: empty, within one truncation window, and a few hundred steps
block_lengths = st.one_of(
    st.integers(0, 75),
    st.integers(53, 203),
    st.integers(246, 336),
)


# a survivor register holds bit T in word T // 64: T = 63 and 127 read the
# top bit of the last word, and T = 64 and 128 the lowest bit of a word
# whose bits come from the word below it; c2's default T is 31
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["c1", "c2"]),
       truncation=st.sampled_from([None, 70, 15, 16, 31, 32, 63, 64, 127, 128]),
       n=block_lengths, kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
@example(name="c1", truncation=None, n=1, kind="grid", seed=0)
@example(name="c1", truncation=None, n=11, kind="grid", seed=1)
@example(name="c2", truncation=None, n=32, kind="grid", seed=2)
@example(name="c2", truncation=None, n=128, kind="normal", seed=3)
@example(name="c1", truncation=70, n=129, kind="grid", seed=4)
@example(name="c2", truncation=None, n=257, kind="grid", seed=5)
@example(name="c1", truncation=None, n=200, kind="near_grid", seed=6)
@example(name="c2", truncation=None, n=31, kind="grid", seed=7)
@example(name="c2", truncation=None, n=33, kind="near_grid", seed=8)
@example(name="c1", truncation=15, n=15, kind="grid", seed=9)
@example(name="c1", truncation=15, n=16, kind="near_grid", seed=10)
@example(name="c1", truncation=16, n=18, kind="grid", seed=11)
@example(name="c2", truncation=32, n=33, kind="grid", seed=12)
@example(name="c2", truncation=63, n=65, kind="grid", seed=13)
@example(name="c1", truncation=64, n=64, kind="normal", seed=14)
@example(name="c2", truncation=63, n=150, kind="grid", seed=15)
@example(name="c1", truncation=64, n=200, kind="near_grid", seed=16)
@example(name="c2", truncation=128, n=300, kind="grid", seed=17)
def test_viterbi_main_matches_per_step_traceback(name, truncation, n, kind, seed):
    code = get_code(name)
    t = sstdec.default_truncation(code) if truncation is None else truncation
    assume(t >= 5 * code.nu)
    r = soft_values(seed, n, kind)
    assert np.array_equal(sstdec.viterbi_main(r, code, truncation),
                          per_step_viterbi(r, code, t))


@pytest.mark.parametrize("kind, seed", [("normal", 6), ("grid", 7), ("near_grid", 8),
                                        ("scarce", 9), ("mixed", 10)])
def test_viterbi_main_matches_per_step_traceback_on_long_blocks(kind, seed):
    code = get_code("c2")
    r = soft_values(seed, 20_000, kind)
    assert np.array_equal(sstdec.viterbi_main(r, code),
                          per_step_viterbi(r, code, sstdec.default_truncation(code)))


@settings(max_examples=30, deadline=None)
@given(nu=st.integers(2, 9), taps=st.integers(0, 2**7 - 1), n=st.integers(0, 160),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
@example(nu=9, taps=2**7 - 1, n=160, kind="grid", seed=8)
def test_viterbi_main_matches_per_step_traceback_across_memories(nu, taps, n, kind, seed):
    # g' = D^(nu-1) + (taps on D .. D^(nu-2)) gives a QLI code of memory nu
    code = make_qli((1 << (nu - 1)) | (taps << 1) & ((1 << (nu - 1)) - 2))
    assert code.nu == nu
    r = soft_values(seed, n, kind)
    t = sstdec.default_truncation(code)
    assert np.array_equal(sstdec.viterbi_main(r, code), per_step_viterbi(r, code, t))


@pytest.mark.parametrize("kind", KINDS)
def test_viterbi_main_matches_per_step_traceback_at_memory_one(kind):
    code = ConvCode(name="nu1", g=(1, 3), ginv=(1, 0))
    r = soft_values(9, 300, kind)
    assert np.array_equal(sstdec.viterbi_main(r, code, 5), per_step_viterbi(r, code, 5))


def memory_code(nu):
    """A code of memory nu: the nu = 1 code above, else a QLI code with a few taps."""
    if nu == 1:
        return ConvCode(name="nu1", g=(1, 3), ginv=(1, 0))
    return make_qli((1 << (nu - 1)) | 0x2A & ((1 << (nu - 1)) - 2))


@functools.cache
def traceback_case(nu, kind, seed, truncation=None):
    """A block of three truncation windows and a partial one for memory_code(nu),
    with its truncation and the oracle's bits (kept for every vector width)."""
    code = memory_code(nu)
    t = sstdec.default_truncation(code) if truncation is None else truncation
    r = soft_values(seed, 3 * t + 7, kind)
    return code, t, r, per_step_viterbi(r, code, t)


def assert_kernel_matches_per_step_traceback(nu, kind, seed, truncation=None):
    code, t, r, bits = traceback_case(nu, kind, seed, truncation)
    assert np.array_equal(sstdec.viterbi_main(r, code, t), bits)


# the kernel runs memory nu at width min(native, max(2, 2^(nu-1))): nu = 1
# pads its one lane to W = 2 with a NaN-sign lane, nu = 2 and 3 fill W = 2
# and 4, and 4 and 10 take the native width
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("nu", [1, 2, 3, 4, 10])
def test_viterbi_main_matches_per_step_traceback_with_padded_lanes(nu, kind):
    assert_kernel_matches_per_step_traceback(nu, kind, 20 + nu)


V3_FLAGS = ("cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3", "avx", "avx2", "bmi1",
            "bmi2", "f16c", "fma", "abm", "movbe", "xsave")
# the x86-64 -march levels with their native widths (2, 4 and 8 doubles),
# the widths they pick for nu = 1, 2, 3 and 6, and the cpuinfo flags each needs
X86_64_LEVELS = [
    pytest.param("-march=x86-64", 2, (2, 2, 2, 2), (), id="x86-64"),
    pytest.param("-march=x86-64-v3", 4, (2, 2, 4, 4), V3_FLAGS, id="x86-64-v3"),
    pytest.param("-march=x86-64-v4", 8, (2, 2, 4, 8),
                 V3_FLAGS + ("avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"),
                 id="x86-64-v4"),
]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the -march levels are x86-64's")
@pytest.mark.parametrize("march, native, widths, needs", X86_64_LEVELS)
def test_kernel_matches_per_step_traceback_at_every_vector_width(monkeypatch, march, native,
                                                                 widths, needs):
    missing = set(needs) - set(sstdec._host_cpu().split())
    if missing:
        pytest.skip(f"the host cannot run {march}: no {' '.join(sorted(missing))}")
    monkeypatch.setattr(sstdec, "_KERNEL_FLAGS", tuple(
        march if flag == "-march=native" else flag for flag in sstdec._KERNEL_FLAGS))
    monkeypatch.setattr(sstdec, "_kernel", None)
    for nu, kind in itertools.product([1, 2, 3, 6], KINDS + ("large",)):
        assert_kernel_matches_per_step_traceback(nu, kind, 40 + nu)
    # bit T in the word after word 0 or at its top: the agreement test, the
    # best-state search and the switch between them (SWITCHING_CASES) at
    # W = 4 and the native width
    for nu, kind, t in itertools.product([3, 6], ["scarce", "mixed"], LONG_TRUNCATIONS):
        assert_kernel_matches_per_step_traceback(nu, kind, 46, t)
    # a code as wide as the kernel's states allow runs at the native width
    assert sstdec._kernel.viterbi_width(62) == native
    assert tuple(sstdec._kernel.viterbi_width(nu) for nu in (1, 2, 3, 6)) == widths


LONG_TRUNCATIONS = (63, 64, 127, 128)
# blocks of the tests above whose survivors both agree and differ T steps
# back: the kernel takes some bits without a best state, searches for it on
# others, and tracks it from there to the next 64-step boundary
SWITCHING_CASES = ([(nu, "normal", 40 + nu, None) for nu in (1, 2, 3, 6)]
                   + [(6, "mixed", 46, t) for t in LONG_TRUNCATIONS])


@pytest.mark.parametrize("nu, kind, seed, truncation", SWITCHING_CASES)
def test_kernel_cases_switch_between_agreeing_and_searching(nu, kind, seed, truncation):
    code, t, r, _ = traceback_case(nu, kind, seed, truncation)
    agree = agreeing_steps(r, code, t)
    assert agree.any() and not agree.all()


def test_scarce_blocks_let_the_survivors_agree():
    # like the main decoder's input at 6-8 dB; mixed blocks agree between
    # normal stretches
    code = get_code("c2")
    t = sstdec.default_truncation(code)
    assert agreeing_steps(soft_values(9, 2000, "scarce"), code, t).mean() > 0.95
    assert 0.5 < agreeing_steps(soft_values(10, 2000, "mixed"), code, t).mean() < 0.95
    assert agreeing_steps(soft_values(6, 2000, "normal"), code, t).mean() < 0.5


@pytest.mark.parametrize("code", [memory_code(1), ConvCode(name="d", g=(2, 3), ginv=(1, 1)),
                                  get_code("c1"), get_code("c2"), memory_code(8)],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_viterbi_main_matches_per_step_traceback_near_the_bound(code, seed):
    # sum |r| = 2^1019, alone and after an ordinary stretch: path metrics
    # come near the largest double, and the oracle's sums would warn on an
    # overflow, which pytest turns into an error
    t = sstdec.default_truncation(code)
    large = soft_values(seed, 150, "large")
    late = np.concatenate([soft_values(seed, 150, "scarce"), large])
    for r in (large, late):
        assert np.array_equal(sstdec.viterbi_main(r, code), per_step_viterbi(r, code, t))


@pytest.mark.parametrize("nu", [1, 2, 6])
def test_kernel_decodes_blocks_at_the_top_of_the_bound(nu):
    # sum |r| within 2^-30 of 2^1020: on an all-positive block the all-zero
    # path gains every |r|, so its metric ends near 2^1020 and every bit is
    # 0; a normal block brings its top metric near there too
    code = memory_code(nu)
    t = sstdec.default_truncation(code)
    for r in (np.abs(soft_values(6, 4 * t + 50, "normal")), soft_values(7, 4 * t + 50, "normal")):
        r *= 2.0**1020 * (1.0 - 2.0**-40) / np.abs(r).sum()
        assert 2.0**1020 * (1.0 - 2.0**-30) < np.abs(r).sum() < 2.0**1020
        bits = sstdec.viterbi_main(r, code)
        assert np.array_equal(bits, per_step_viterbi(r, code, t))
        if (r > 0).all():
            assert not bits.any()


def test_kernel_file_is_keyed_by_the_host_cpu(monkeypatch):
    # a -march=native build from another CPU could die on an illegal instruction
    here = sstdec._kernel_path()
    assert sstdec._host_cpu()
    monkeypatch.setattr(sstdec, "_host_cpu", lambda: "flags\t\t: fpu sse sse2")
    there = sstdec._kernel_path()
    assert there != here and there.parent == here.parent


def test_kernel_build_removes_the_builds_of_other_sources(monkeypatch, tmp_path):
    # __pycache__ keeps one source's builds: those for other flags or CPUs
    # (the per-width tests, a shared checkout) stay, all others go
    source = tmp_path / "_viterbi.c"
    source.write_bytes(sstdec._KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(sstdec, "_KERNEL_SOURCE", source)
    lib = sstdec._kernel_path()
    _, source_key, build_key = lib.stem.split("-")
    lib.parent.mkdir()
    stale = lib.with_name(f"_viterbi-{'0' * 16}-{build_key}.so")
    # an earlier name, keyed by the source, flags and CPU together
    single_key = lib.with_name("_viterbi-0123456789abcdef.so")
    other_flags = lib.with_name(f"_viterbi-{source_key}-{'f' * 16}.so")
    for path in (stale, single_key, other_flags):
        path.write_bytes(b"")
    assert sstdec._build_kernel().viterbi_width(1) == 2
    assert lib.exists() and other_flags.exists()
    assert not stale.exists() and not single_key.exists()


def test_viterbi_main_rejects_memory_zero():
    code = ConvCode(name="nu0", g=(1, 1), ginv=(1, 0))
    with pytest.raises(ValueError, match="1 <= nu <= 62"):
        sstdec.viterbi_main(np.zeros((10, 2)), code)


@pytest.mark.parametrize("nu", [24, 62])
def test_viterbi_main_refuses_arrays_past_its_cap(nu):
    # 2^(nu-1) lanes of 12 doubles and 4 register words per word of T + 1
    # bits pass 1 GiB from nu = 24; nothing is allocated
    code = make_qli(1 << (nu - 1))
    with pytest.raises(ValueError, match=rf"bytes for a code of memory nu = {nu}, over its cap"):
        sstdec.viterbi_main(np.zeros((1000, 2)), code)


def test_viterbi_main_cap_counts_work_and_registers(monkeypatch):
    # c2: 12 x 32 doubles and two planes of 64 registers, one 64-bit word
    # each at T = 31 and two at T = 64, whatever n is
    code = get_code("c2")
    for n, (t, size) in itertools.product([40, 1000], [(31, 4096), (64, 5120)]):
        r = soft_values(16, n, "normal")
        monkeypatch.setattr(sstdec, "DECODER_BYTES", size)
        assert size == 8 * 12 * 32 + 8 * 4 * (t // 64 + 1) * 32
        assert np.array_equal(sstdec.viterbi_main(r, code, t), per_step_viterbi(r, code, t))
        monkeypatch.setattr(sstdec, "DECODER_BYTES", size - 1)
        with pytest.raises(ValueError,
                           match=f"would take {size} bytes .* nu = 6, over its cap of {size - 1}"):
            sstdec.viterbi_main(r, code, t)


def test_kernel_build_failure_is_an_os_error(monkeypatch, capsys):
    # an unknown flag is a fresh cache key that the compiler rejects
    monkeypatch.setattr(sstdec, "_KERNEL_FLAGS", sstdec._KERNEL_FLAGS + ("-fno-such-flag",))
    monkeypatch.setattr(sstdec, "_kernel", None)
    with pytest.raises(OSError, match="cannot build the Viterbi kernel: .*no-such-flag"):
        sstdec.viterbi_main(np.zeros((10, 2)), get_code("c1"))
    assert main(["simulate", "--branches", "1000", "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot build the Viterbi kernel")


def test_missing_compiler_is_an_os_error(monkeypatch):
    def no_compiler(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", "cc")

    monkeypatch.setattr(sstdec, "_KERNEL_FLAGS", sstdec._KERNEL_FLAGS + ("-DNO_COMPILER",))
    monkeypatch.setattr(sstdec, "_kernel", None)
    monkeypatch.setattr(subprocess, "run", no_compiler)
    with pytest.raises(OSError, match="cannot build the Viterbi kernel: .*'cc'"):
        sstdec.viterbi_main(np.zeros((10, 2)), get_code("c1"))


def test_first_decoder_calls_on_two_threads_build_the_kernel_once(monkeypatch):
    kernel = sstdec._kernel or sstdec._build_kernel()
    builds = []

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.2)
        return kernel

    monkeypatch.setattr(sstdec, "_kernel", None)
    monkeypatch.setattr(sstdec, "_build_kernel", slow_build)
    code = get_code("c1")
    r = soft_values(15, 200, "normal")
    outs = []
    threads = [threading.Thread(target=lambda: outs.append(sstdec.viterbi_main(r, code)))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(outs) == 2 and all(np.array_equal(o, per_step_viterbi(r, code, 11))
                                  for o in outs)


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_viterbi_main_rejects_short_truncation(name):
    code = get_code(name)
    with pytest.raises(ValueError):
        sstdec.viterbi_main(np.zeros((10, 2)), code, 5 * code.nu - 1)
    sstdec.viterbi_main(np.zeros((10, 2)), code, 5 * code.nu)


def test_default_truncation_is_five_nu_plus_l():
    assert sstdec.default_truncation(get_code("c1")) == 11
    assert sstdec.default_truncation(get_code("c2")) == 31


def test_noiseless_round_trip_general_and_qli():
    for name in ("c1", "c2"):
        code = get_code(name)
        info = np.random.default_rng(0).integers(0, 2, 60)
        z = channel.ReceivedSequence(channel.bpsk_map(encode(code, info)))
        out = sstdec.sst_decode(z, code, mode="general")
        assert np.array_equal(out, info)
        out_q = sstdec.sst_decode(z, code, mode="qli")
        assert len(out_q) == 60 - code.L
        assert np.array_equal(out_q, info[: 60 - code.L])


def test_predecode_noiseless():
    code = get_code("c1")
    info = np.random.default_rng(1).integers(0, 2, 40)
    z_hard = encode(code, info)
    assert np.array_equal(sstdec.predecode(z_hard, code, "general"), info)
    delayed = sstdec.predecode(z_hard, code, "qli")
    assert np.array_equal(delayed[code.L:], info[: 40 - code.L])


def test_main_input_hard_part_depends_only_on_errors():
    code = get_code("c2")
    rng = np.random.default_rng(2)
    n = 30
    e = rng.integers(0, 2, (n, 2)).astype(np.uint8)
    hard_parts = []
    for _ in range(3):
        v = encode(code, rng.integers(0, 2, n))
        z = channel.ReceivedSequence(channel.bpsk_map(v ^ e))
        ihat = sstdec.predecode(z.z_hard, code, "general")
        hard_parts.append(sstdec.main_input_general(z, code, ihat)[1])
    assert np.array_equal(hard_parts[0], hard_parts[1])
    assert np.array_equal(hard_parts[0], hard_parts[2])


def test_main_input_hard_part_is_mapped_errors_xor_errors():
    # r_hard = v + e with v the error streams pushed through taps G and
    # advanced by the pre-decoder delay
    rng = np.random.default_rng(3)
    n = 25
    keep = (1 << n) - 1
    for name, mode in itertools.product(("c1", "c2"), ("general", "qli")):
        code = get_code(name)
        e = rng.integers(0, 2, (n, 2)).astype(np.uint8)
        z = channel.ReceivedSequence(channel.bpsk_map(encode(code, np.zeros(n, int)) ^ e))
        _, delay = predecoder(code, mode)
        main_input = sstdec.main_input_qli if mode == "qli" else sstdec.main_input_general
        _, r_hard = main_input(z, code, sstdec.predecode(z.z_hard, code, mode))
        assert r_hard.shape == (n - delay, 2)
        m = main_encoded_block_map(code, mode)
        e1, e2 = poly_from_stream(e[:, 0]), poly_from_stream(e[:, 1])
        for stream in (0, 1):
            v_poly = clmul(e1, m[0][stream]) ^ clmul(e2, m[1][stream])
            got = poly_from_stream(r_hard[:, stream] ^ e[: n - delay, stream])
            assert (v_poly >> delay) & (keep >> delay) == got, (name, mode, stream)


def numpy_stream_pass(z, code, mode):
    """Oracle of `sstdec.stream_pass`: the numpy pre-decoder, re-encoder and
    re-signing, one array step at a time; (pre, r_hard, r)."""
    recv = channel.ReceivedSequence(z)
    ihat = sstdec.predecode(recv.z_hard, code, mode)
    _, delay = predecoder(code, mode)
    main_input = sstdec.main_input_qli if delay else sstdec.main_input_general
    r, r_hard = main_input(recv, code, ihat)
    return ihat[delay:], r_hard, r


# nu = 1 with taps of degree 64: g = (1 + D, 1), ginv = (D^63, 1 + D^63 + D^64)
WIDE_TAPS = ConvCode(name="wide", g=(3, 1), ginv=(1 << 63, 1 | 3 << 63))
# g1 + g2 = D^L with L = 63 and 64, the look-in delays that end and fill a
# 64-step word, and the generator of degree 64 that the last tap holds
LONG_LOOK_INS = [ConvCode(name=f"look-in-{ell}", g=(1 | 1 << ell, 1), ginv=(0, 1))
                 for ell in (63, 64)]
STREAM_CODES = [get_code("c1"), get_code("c2"), ConvCode(name="nu1", g=(1, 3), ginv=(1, 0)),
                WIDE_TAPS, *LONG_LOOK_INS,
                *(make_qli((1 << (nu - 1)) | 0x2A & ((1 << (nu - 1)) - 2))
                  for nu in range(2, 10))]
# exact zeros of either sign and the least subnormals, beside Gaussian values
SPECIAL_Z = (0.0, -0.0, 5e-324, -5e-324)
# the stream pass runs 64 rows at a time: one short of, at and one past one
# and two whole words
WORD_EDGES = (63, 64, 65, 127, 128, 129)


def special_values(rng, z, share):
    """z with about a share of its entries replaced by SPECIAL_Z values."""
    special = rng.random(z.shape) < share
    z[special] = rng.choice(SPECIAL_Z, size=int(special.sum()))
    return z


@st.composite
def received_blocks(draw):
    code = draw(st.sampled_from(STREAM_CODES))
    delay = predecoder(code, "qli")[1]
    # from empty to past two truncation windows and the 64-step registers,
    # with the word edges counted in rows after either delay, and n = L + 1
    n = draw(st.one_of(
        st.integers(0, max(2 * sstdec.default_truncation(code), 64) + 40),
        st.sampled_from([e + d for e in WORD_EDGES for d in (0, delay)] + [delay + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(draw(st.sampled_from([0.0, 1.0, 3.0])), 1.0, (n, 2))
    return code, special_values(rng, z, draw(st.sampled_from([0.0, 0.1, 1.0])))


@settings(max_examples=200, deadline=None)
@given(block=received_blocks(), mode=st.sampled_from(["general", "qli"]))
@example(block=(WIDE_TAPS, np.tile([[-5e-324, 0.0]], (140, 1))), mode="general")
@example(block=(get_code("c2"), np.tile([[-0.0, 5e-324]], (2, 1))), mode="qli")
@example(block=(LONG_LOOK_INS[1], np.tile([[-0.0, -5e-324]], (129, 1))), mode="qli")
@example(block=(LONG_LOOK_INS[0], np.tile([[5e-324, -1.0]], (64, 1))), mode="qli")
def test_stream_pass_equals_the_numpy_composition(block, mode):
    code, z = block
    if mode == "qli" and len(z) <= code.L:
        for run in (sstdec.stream_pass, numpy_stream_pass):
            with pytest.raises(ValueError, match="block shorter than the look-in delay"):
                run(z, code, mode)
        return
    pre, r = sstdec.stream_pass(z, code, mode)
    want_pre, want_hard, want_r = numpy_stream_pass(z, code, mode)
    assert pre.dtype == np.uint8 and r.dtype == np.float64
    # the hard part is r's sign bit
    assert np.array_equal(pre, want_pre) and np.array_equal(np.signbit(r), want_hard == 1)
    assert np.array_equal(r.view(np.uint64), want_r.view(np.uint64))


def test_stream_pass_refuses_other_shapes():
    with pytest.raises(ValueError, match="shape"):
        sstdec.stream_pass(np.zeros((4, 3)), get_code("c1"))


@pytest.mark.parametrize("name, mode", itertools.product(("c1", "c2"), ("general", "qli")))
def test_sst_decode_predecodes_each_block_once(name, mode, monkeypatch):
    calls = []
    original = sstdec.stream_pass

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sstdec, "stream_pass", counting)
    code = get_code(name)
    info = np.random.default_rng(8).integers(0, 2, 200)
    recv = channel.transmit(encode(code, info), channel.snr_point(3.0), seed=4)
    sstdec.sst_decode(recv, code, mode)
    assert len(calls) == 1


def test_main_input_soft_magnitudes_preserved():
    code = get_code("c1")
    v = encode(code, np.random.default_rng(4).integers(0, 2, 20))
    recv = channel.transmit(v, channel.snr_point(1.0), seed=5)
    r, r_hard = sstdec.main_input_general(recv, code, sstdec.predecode(recv.z_hard, code))
    assert_allclose(np.abs(r), np.abs(recv.z), atol=1e-15)
    assert np.array_equal((r < 0).astype(np.uint8), r_hard)


def test_sst_equals_classical_viterbi():
    for name, db in [("c1", 0.0), ("c1", 3.0), ("c2", 1.0), ("c2", 4.0)]:
        code = get_code(name)
        info = np.random.default_rng(7).integers(0, 2, 300)
        recv = channel.transmit(encode(code, info), channel.snr_point(db), seed=11)
        assert np.array_equal(sstdec.sst_decode(recv, code, mode="general"),
                              sstdec.classical_viterbi(recv, code))


def test_viterbi_is_maximum_correlation():
    code = get_code("c1")
    rng = np.random.default_rng(21)
    for seed in range(4):
        info = rng.integers(0, 2, 10)
        recv = channel.transmit(encode(code, info),
                                channel.snr_point(0.0), seed=seed)
        decoded = sstdec.classical_viterbi(recv, code)
        decoded_metric = float(
            np.sum(recv.z * (1 - 2 * encode(code, decoded).astype(float))))
        best = max(
            float(np.sum(recv.z * (1 - 2 * encode(code, np.array(cand)).astype(float))))
            for cand in itertools.product((0, 1), repeat=10))
        assert_allclose(decoded_metric, best, atol=1e-12)


def test_binomial_tails_equal_the_scalar_tails():
    from scipy.special import bdtr, bdtrc

    rng = np.random.default_rng(12)
    n = rng.integers(1, 30_000, size=(40, 1))
    # k = 0 and k = n in every row, then counts near n p and anywhere
    p = np.concatenate([rng.random((30, 3)), [[0.0, 1.0, 0.5]] * 5,
                        [[1e-300, 1.0 - 1e-16, 0.25]] * 5])
    k = np.concatenate([np.zeros((40, 1), int), n, np.rint(n * p[:, 2:]).astype(int),
                        rng.integers(0, n + 1, size=(40, 2))], axis=1)
    p = np.concatenate([p, p[:, :2]], axis=1)
    scalar = [[min(bdtr(int(k[i, j]), int(n[i, 0]), float(p[i, j])),
                   bdtrc(int(k[i, j]) - 1, int(n[i, 0]), float(p[i, j])))
               for j in range(k.shape[1])] for i in range(len(k))]
    assert sstdec.binomial_tails(k, n, p).tobytes() == np.array(scalar).tobytes()


def test_simulate_rejects_tiny_runs():
    with pytest.raises(ValueError):
        sstdec.simulate(get_code("c1"), [channel.snr_point(0.0)], branches=99, seed=0)[0]


def test_simulate_matches_parity_statistics():
    pt = channel.snr_point(2.0)
    res = sstdec.simulate(get_code("c1"), [pt], branches=60_000, seed=5)[0]
    eps = pt.epsilon
    assert abs(res["emp_alpha1"] - parity_prob.parity_one_prob(5, eps)) < 4 * res["se_alpha1"]
    assert abs(res["emp_alpha2"] - parity_prob.parity_one_prob(6, eps)) < 4 * res["se_alpha2"]
    # raw pre-decoder stream flips with the parity of three channel errors
    se_pre = np.sqrt(res["pre_ber"] * (1 - res["pre_ber"]) / res["branches"])
    assert abs(res["pre_ber"] - parity_prob.parity_one_prob(3, eps)) < 5 * se_pre
    assert res["stride"] == 4
    assert res["n_eff"] == pytest.approx(res["branches"] / res["stride"], rel=0.01)


def test_simulate_qli_predecoder_rate():
    pt = channel.snr_point(4.0)
    res = sstdec.simulate(get_code("c1"), [pt], branches=40_000, seed=9, mode="qli")[0]
    expect = parity_prob.parity_one_prob(2, pt.epsilon)
    se = np.sqrt(expect * (1 - expect) / res["branches"])
    assert abs(res["pre_ber"] - expect) < 5 * se


def test_decoding_beats_the_predecoder():
    res = sstdec.simulate(get_code("c1"), [channel.snr_point(4.0)],
                          branches=30_000, seed=9)[0]
    assert res["post_ber"] < res["pre_ber"] / 10


RHO_ENDS_DB = tuple(10.0 * np.log10(channel.RHO_RANGE))


@pytest.mark.parametrize("code_name", ["c1", "c2"])
@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("dbs", [(4.0, 4.0), (8.0, -2.0, 4.0), (RHO_ENDS_DB[0], 0.0, RHO_ENDS_DB[1])])
def test_simulate_batch_rows_equal_the_one_point_calls(code_name, mode, dbs):
    code, points = get_code(code_name), [channel.snr_point(db) for db in dbs]
    batch = sstdec.simulate(code, points, 1000, 3, mode=mode)
    assert [res["ebn0_db"] for res in batch] == [pt.ebn0_db for pt in points]
    assert batch == [sstdec.simulate(code, [pt], 1000, 3, mode=mode)[0] for pt in points]


def _count_draws(monkeypatch):
    """Count simulate's draws: its C pass, and numpy's seed streams, which it
    must not read."""
    counts = {"_draw_block": 0, "make_rng": 0, "standard_normals": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(sstdec, "_draw_block")
    counting(channel, "make_rng")
    counting(channel, "standard_normals")
    return counts


@pytest.mark.parametrize("k", [1, 4])
def test_simulate_draws_its_streams_once_per_call(monkeypatch, k):
    counts = _count_draws(monkeypatch)
    points = [channel.snr_point(db) for db in (0.0, 2.0, 4.0, 6.0)[:k]]
    assert len(sstdec.simulate(get_code("c2"), points, 1000, 1, mode="qli")) == k
    assert counts == {"_draw_block": 1, "make_rng": 0, "standard_normals": 0}


def test_simulate_of_no_points_draws_nothing(monkeypatch):
    counts = _count_draws(monkeypatch)
    assert sstdec.simulate(get_code("c1"), [], 1000, 1) == []
    assert counts == {"_draw_block": 0, "make_rng": 0, "standard_normals": 0}


def _refuse_draws(monkeypatch, why):
    def refuse(*args):
        raise AssertionError(f"simulate drew a stream {why}")

    monkeypatch.setattr(sstdec, "_draw_block", refuse)
    monkeypatch.setattr(channel, "make_rng", refuse)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_refuses_a_seed_outside_64_bits_before_any_draw(monkeypatch, seed):
    _refuse_draws(monkeypatch, "for a seed outside [0, 2^64)")
    for points in ([channel.snr_point(4.0)], []):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            sstdec.simulate(get_code("c1"), points, 1000, seed)


def test_simulate_takes_both_ends_of_the_seed_range():
    pt = channel.snr_point(4.0)
    low, high = (sstdec.simulate(get_code("c1"), [pt], 1000, seed)[0] for seed in (0, 2**64 - 1))
    assert low["branches"] == high["branches"] == 1000 and low != high


# numpy's draw, for the C draw's oracle: nu = 7 beside c1 and c2, and a
# generator of degree 64, the most a tap mask holds
DRAW_CODES = [get_code("c1"), get_code("c2"), make_qli(0b1010110),
              ConvCode(name="deg64", g=(1 | 1 << 64, 1), ginv=(0, 1))]


def numpy_draw_block(code, branches, rows, seed):
    """Oracle of `sstdec._draw_block`: numpy's Generator draw of the three
    seed streams, the codeword and its BPSK symbols; (info, x, noise, w)."""
    info = (channel.make_rng((seed, 1)).random(branches) < 0.5).astype(np.uint8)
    x = channel.bpsk_map(encode(code, info))
    noise = channel.standard_normals(channel.make_rng(seed), x.shape)
    w = channel.standard_normals(channel.make_rng((seed, 2)), (rows, 2))
    return info, x, noise, w


def c_draw_words(s, n):
    """The C pass's Philox words of seed s as draw_block reads them, for n
    branches and n rows of w: per key (s, j), at j = 0 and 2 the
    mid-interval uniforms ((k >> 11) + 0.5) / 2^53 of its first 2n words k
    (the noise and w before ndtri maps them), and at j = 1 the info bits,
    1 where the top bit of one of its first n words is clear."""
    masks, info = sstdec._tap_masks(get_code("c1").g), np.empty(n, dtype=np.uint8)
    x, u, uw = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 2))
    sstdec.kernel().draw_block(s, n, n, masks.ctypes.data, info.ctypes.data, x.ctypes.data,
                               u.ctypes.data, uw.ctypes.data)
    return u.ravel(), info, uw.ravel()


def as_drawn(words, j):
    """numpy's words of the key (s, j) as c_draw_words reads them."""
    if j == 1:
        return (words >> np.uint64(63) == 0).astype(np.uint8)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0**53


@pytest.mark.parametrize("s", [0, 1, 7, 2**62])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 4097])
def test_philox_words_equal_numpy_philox(s, n):
    # at odd n each stream ends inside a block of four words
    got = c_draw_words(s, n)
    for j in (0, 1, 2):
        want = np.random.Philox(key=(s, j)).random_raw(n if j == 1 else 2 * n)
        assert got[j].tobytes() == as_drawn(want, j).tobytes(), j


@pytest.mark.parametrize("s", [2**63, 2**63 + 1, 2**64 - 1])
def test_philox_words_past_int64_equal_make_rng(s):
    # make_rng keys (s, j) as uint64 words, which the C pass takes as is
    n = 9
    got = c_draw_words(s, n)
    for j in (0, 1, 2):
        want = channel.make_rng((s, j)).bit_generator.random_raw(n if j == 1 else 2 * n)
        assert got[j].tobytes() == as_drawn(want, j).tobytes(), j


# the encoder runs on words of 64 steps: branch counts at the word edges,
# and seeds past int64
@pytest.mark.parametrize("code", DRAW_CODES, ids=lambda c: c.name)
@pytest.mark.parametrize("branches, rows", [(100, 0), (1001, 37), (5003, 1250), (1, 1), (63, 2),
                                            (64, 0), (65, 3), (127, 31), (128, 64), (129, 5)])
@pytest.mark.parametrize("seed", [0, 7, 2**62, 2**63, 2**64 - 1])
def test_draw_block_equals_the_numpy_draw(code, branches, rows, seed):
    got = sstdec._draw_block(code, branches, rows, seed)
    for a, b in zip(got, numpy_draw_block(code, branches, rows, seed)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def numpy_stream(z, taps, delay, g):
    """Oracle of the C stream pass for any pre-decoder taps and delay and
    any re-encoder g, in numpy: (pre, r_hard, r), each n - delay rows."""
    z_hard = (z < 0.0).view(np.uint8)
    ihat = column_filter(z_hard, taps)
    alone = np.column_stack([ihat, np.zeros_like(ihat)])
    y = np.column_stack([column_filter(alone, (gl, 0)) for gl in g])
    m = len(z) - delay
    r_hard = y[delay:] ^ z_hard[:m]
    return ihat[delay:], r_hard, np.abs(z[:m]) * (1.0 - 2.0 * r_hard)


def assert_point_pass(x, noise, c, taps, delay, g, stride, oracle):
    """simulate's form of the C stream pass, z = c x + noise formed in C,
    against oracle(z) = (pre, r_hard, r): the pre-decoder stream, r and
    the strided v rows with their three counts."""
    m = len(x) - delay
    z = c * x + noise
    want_pre, want_hard, want_r = oracle(z)
    e = (z < 0.0).view(np.uint8) ^ (x < 0.0).view(np.uint8)
    want_v = (want_hard ^ e[:m])[stride::stride]
    masks = sstdec._tap_masks((*taps, *g))
    pre, r = np.empty(m, dtype=np.uint8), np.empty((m, 2))
    v, ones = np.empty_like(want_v), np.empty(3, dtype=np.int64)
    sstdec.kernel().sst_stream(x.ctypes.data, noise.ctypes.data, c, len(x), delay,
                               masks.ctypes.data, stride, pre.ctypes.data, r.ctypes.data,
                               v.ctypes.data, ones.ctypes.data)
    assert np.array_equal(pre, want_pre) and np.array_equal(v, want_v)
    assert ones.tolist() == [np.count_nonzero(want_v[:, 0]), np.count_nonzero(want_v[:, 1]),
                             np.count_nonzero(want_v[:, 0] & want_v[:, 1])]
    assert np.array_equal(r.view(np.uint64), want_r.view(np.uint64))


def assert_stream_kernel_is_numpy(taps, delay, g, n, seed, c=1.0, stride=7, share=0.0):
    """The C stream pass against `numpy_stream` on random x and noise:
    simulate's form at c (`assert_point_pass`), and the decoder's form on
    z itself, here c x + noise with about a share of SPECIAL_Z entries."""
    rng = np.random.default_rng(seed)
    x = 1.0 - 2.0 * rng.integers(0, 2, (n, 2))
    noise = rng.normal(0.0, 1.0, (n, 2))
    assert_point_pass(x, noise, c, taps, delay, g, stride,
                      lambda z: numpy_stream(z, taps, delay, g))
    z = special_values(rng, c * x + noise, share)
    want_pre, _, want_r = numpy_stream(z, taps, delay, g)
    masks, m = sstdec._tap_masks((*taps, *g)), n - delay
    pre, r = np.empty(m, dtype=np.uint8), np.empty((m, 2))
    sstdec.kernel().sst_stream(z.ctypes.data, None, 1.0, n, delay, masks.ctypes.data, 1,
                               pre.ctypes.data, r.ctypes.data, None, None)
    assert np.array_equal(pre, want_pre)
    assert np.array_equal(r.view(np.uint64), want_r.view(np.uint64))


# a tap mask of degree up to 64, which holds D^64 a third of the time
tap_masks = st.one_of(st.integers(0, 2**65 - 1), st.integers(0, 2**64 - 1),
                      st.integers(0, 2**6 - 1).map(lambda t: t | 1 << 64))
stream_delays = st.one_of(st.sampled_from([0, 1, 63, 64]), st.integers(0, 200))


@settings(max_examples=150, deadline=None)
@given(taps=st.tuples(tap_masks, tap_masks), g=st.tuples(tap_masks, tap_masks),
       delay=stream_delays, rows=st.one_of(st.sampled_from((1, *WORD_EDGES)),
                                           st.integers(1, 400)),
       stride=st.integers(1, 70), c=st.sampled_from([0.5, 1.0, 3.0, 2.0**511]),
       share=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
@example(taps=(1 << 64, 1), g=(1 | 1 << 64, 1 << 64), delay=64, rows=129, stride=64,
         c=1.0, share=1.0, seed=0)
@example(taps=(2**65 - 1, 2**65 - 1), g=(2**65 - 1, 1), delay=63, rows=1, stride=1,
         c=0.5, share=0.1, seed=1)
def test_stream_kernel_equals_numpy_on_any_taps(taps, g, delay, rows, stride, c, share, seed):
    # rows = 1 is n = delay + 1
    assert_stream_kernel_is_numpy(taps, delay, g, delay + rows, seed, c, stride, share)


@pytest.mark.parametrize("code", STREAM_CODES, ids=lambda c: c.name)
@pytest.mark.parametrize("mode", ["general", "qli"])
def test_stream_pass_of_a_point_equals_the_numpy_composition(code, mode):
    # simulate's form of the pass on its own draw, at a few hundred rows and
    # at the word edges after the delay
    taps, delay = predecoder(code, mode)
    for n in (300, *(e + delay for e in WORD_EDGES)):
        _, x, noise, _ = numpy_draw_block(code, n, 0, 3)
        for c in (0.5, 1.0, 3.0, 2.0**511):
            assert_point_pass(x, noise, c, taps, delay, code.g, 7,
                              lambda z: numpy_stream_pass(z, code, mode))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the -march levels are x86-64's")
@pytest.mark.parametrize("march, native, widths, needs", X86_64_LEVELS)
def test_stream_kernel_equals_numpy_at_every_vector_width(monkeypatch, march, native, widths,
                                                          needs):
    missing = set(needs) - set(sstdec._host_cpu().split())
    if missing:
        pytest.skip(f"the host cannot run {march}: no {' '.join(sorted(missing))}")
    monkeypatch.setattr(sstdec, "_KERNEL_FLAGS", tuple(
        march if flag == "-march=native" else flag for flag in sstdec._KERNEL_FLAGS))
    monkeypatch.setattr(sstdec, "_kernel", None)
    rng = np.random.default_rng(native)
    # the two windows before window 0 reach into the block from delay 65 on
    # and lie inside it from delay 128 on, so both their zero-padded copy
    # and their in-place read run here
    delays = [0, 1, 63, 64, 65, 127, 128, 129, 200]
    for k, (delay, rows) in enumerate(itertools.product(delays, [1, *WORD_EDGES, 300])):
        # random taps of degree 64 every other case, else below 64
        top = 1 << 64 if k % 2 else 0
        taps, g = [tuple(int.from_bytes(rng.bytes(8), "little") | top for _ in range(2))
                   for _ in range(2)]
        assert_stream_kernel_is_numpy(taps, delay, g, delay + rows, k, 1.0 + k % 3,
                                      1 + k % 9, (0.0, 0.1, 1.0)[k % 3])
    assert sstdec._kernel.viterbi_width(62) == native


# the rows that simulate estimates; its exact values come from the sweep row
ESTIMATES = ("pre_ber", "post_ber", "emp_alpha1", "emp_alpha2", "emp_alpha11", "se_alpha1",
             "se_alpha2", "se_alpha11", "stride", "n_eff", "sigma_r_hat", "sigma_r_se")


def numpy_simulate(code, points, branches, seed, mode):
    """Oracle of `sstdec.simulate`'s estimates: the numpy draw, received
    block, stream pass and v rows, one array step at a time, with the same
    decoder and statistics."""
    s1, s2 = parity_prob.code_supports(code, mode)
    stride = max(s1.max_delay, s2.max_delay) + 1
    n_eff = len(range(stride, branches - predecoder(code, mode)[1], stride))
    info, x, noise, w = numpy_draw_block(code, branches, n_eff, seed)
    rows = []
    for point in points:
        z = point.c * x + noise
        e = (z < 0.0).view(np.uint8) ^ encode(code, info)
        pre, r_hard, r = numpy_stream_pass(z, code, mode)
        m = len(pre)
        vs = (r_hard ^ e[:m])[stride::stride]
        (a1, a2, a11), ses = parity_prob.parity_frequencies(vs)
        ref = covar_mi.sweep_row(code, point, mode)
        sig_hat, sig_se = sstdec.sample_sigma_r(vs, w, point, (ref.alpha1, ref.alpha2, ref.alpha11))
        rows.append(dict(zip(ESTIMATES, (
            np.count_nonzero(pre != info[:m]) / m,
            np.count_nonzero(pre ^ sstdec.viterbi_main(r, code) != info[:m]) / m,
            a1, a2, a11, *ses, stride, n_eff,
            tuple(map(tuple, sig_hat.tolist())), tuple(map(tuple, sig_se.tolist()))))))
    return rows


@pytest.mark.parametrize("code", DRAW_CODES[:3], ids=lambda c: c.name)
@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("branches", [1000, 1001, 5003])
def test_simulate_rows_equal_the_numpy_draw_and_receiver(code, mode, branches):
    points = [channel.snr_point(db) for db in (-2.0, 4.0, 7.0)]
    rows = sstdec.simulate(code, points, branches, 42, mode=mode)
    assert [{k: row[k] for k in ESTIMATES} for row in rows] == \
        numpy_simulate(code, points, branches, 42, mode)


@pytest.mark.parametrize("mode", ["general", "qli"])
def test_simulate_rows_equal_the_numpy_draw_at_the_top_seed(mode):
    code, seed = get_code("c2"), 2**64 - 1
    points = [channel.snr_point(db) for db in (-2.0, 7.0)]
    rows = sstdec.simulate(code, points, 1000, seed, mode=mode)
    assert [{k: row[k] for k in ESTIMATES} for row in rows] == \
        numpy_simulate(code, points, 1000, seed, mode)


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("code_name", ["c1", "c2"])
@pytest.mark.parametrize("mode", ["general", "qli"])
def test_simulate_holds_the_exact_values_at_each_point(code_name, mode):
    code = get_code(code_name)
    points = [channel.snr_point(db)
              for db in (RHO_ENDS_DB[0], -10.0, 0.0, 4.0, 9.0, RHO_ENDS_DB[1])]
    # and a point made by hand, rho 3 at 4 dB, whose snr_point has rho
    # 2.5119: its exact values are its own, not those of its dB value
    c = math.sqrt(3.0)
    points.append(points[3]._replace(rho=3.0, c=c, epsilon=channel.q_function(c)))
    supports = parity_prob.code_supports(code, mode)
    for res, pt in zip(sstdec.simulate(code, points, 1000, 2, mode=mode), points):
        a1, a2, a11, th = parity_prob.branch_stats(*supports, pt.epsilon)
        ref = covar_mi.sigma_r(covar_mi.sigma_x_from_probs(a1, a2, th), pt.rho)
        assert (res["epsilon"], res["rho"]) == (pt.epsilon, pt.rho)
        assert (res["alpha1_ref"], res["alpha2_ref"], res["alpha11_ref"]) == (a1, a2, a11)
        assert res["sigma_r_ref"] == tuple(map(tuple, ref.tolist()))
        # bit for bit the point's sweep row, and I + rho Sigma_x of its floats
        row = covar_mi.sweep_row(code, pt, mode)
        s12 = row.rho * (4.0 * row.theta12)
        assert _bits([res["epsilon"], res["rho"], res["alpha1_ref"], res["alpha2_ref"],
                      res["alpha11_ref"], *res["sigma_r_ref"][0], *res["sigma_r_ref"][1]]) == \
            _bits([row.epsilon, row.rho, row.alpha1, row.alpha2, row.alpha11,
                   1.0 + row.rho * row.sigma1_sq, s12, s12, 1.0 + row.rho * row.sigma2_sq])


@pytest.mark.parametrize("code_name", ["c1", "c2"])
@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("branches", [1000, 3000, 20_000])
def test_simulate_peak_memory_is_within_its_estimate(code_name, mode, branches):
    code, points = get_code(code_name), [channel.snr_point(db) for db in (-2.0, 8.0)]
    # the kernel's build and scipy's import allocate once per process, not per run
    sstdec.simulate(code, points, 1000, 1, mode=mode)
    tracemalloc.start()
    try:
        sstdec.simulate(code, points, branches, 1, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sstdec.SIMULATE_BRANCH_BYTES * branches


def test_branches_past_the_memory_cap_exit_2_before_any_draw(monkeypatch, capsys):
    _refuse_draws(monkeypatch, "past its memory cap")
    branches = sstdec.SIMULATE_BYTES // sstdec.SIMULATE_BRANCH_BYTES + 1
    assert main(["simulate", "--branches", str(branches), "--quiet"]) == 2
    size = sstdec.SIMULATE_BRANCH_BYTES * branches
    assert capsys.readouterr().err == (
        f"error: --branches {branches}: simulate would take about {size} bytes, "
        f"over its cap of {sstdec.SIMULATE_BYTES} bytes\n")


def test_soft_input_validates_shape():
    with pytest.raises(ValueError, match="shape"):
        sstdec.viterbi_main(np.zeros((4, 3)), get_code("c1"))


# NaN, +-inf, and a finite row whose sum |r| = 2e307 reaches 2^1020 (about
# 1.12e307), where path metrics could overflow
@pytest.mark.parametrize("row", [(0.0, np.nan), (0.0, np.inf), (0.0, -np.inf), (1e307, 1e307)])
def test_soft_input_rejects_non_finite_values(row):
    r = np.zeros((4, 2))
    r[2] = row
    with pytest.raises(ValueError, match="finite"):
        sstdec.classical_viterbi(channel.ReceivedSequence(r), get_code("c1"))
    with pytest.raises(ValueError, match="finite"):
        sstdec.viterbi_main(r, get_code("c1"))
    for mode in ("general", "qli"):
        with pytest.raises(ValueError, match="finite"):
            sstdec.sst_decode(channel.ReceivedSequence(r), get_code("c1"), mode)


def test_soft_input_just_below_the_bound_decodes():
    # sum |r| = 1.1e307 < 2^1020
    code = get_code("c1")
    r = np.zeros((4, 2))
    r[2] = (1e307, -1e306)
    assert np.array_equal(sstdec.viterbi_main(r, code),
                          per_step_viterbi(r, code, sstdec.default_truncation(code)))


def test_simulate_stays_below_the_main_decoders_bound():
    # simulate's soft values are +-|c x + noise|: c is at most sqrt of the top
    # of RHO_RANGE, a finite noise value comes from a mid-interval uniform
    # ((k >> 11) + 0.5) / 2^53 no nearer 0 than that of k >> 11 = 0 and no
    # nearer 1 than that of 2^53 - 2, and a call takes at most
    # SIMULATE_BYTES // SIMULATE_BRANCH_BYTES branches of two values
    from scipy.special import ndtri

    extreme = ndtri((np.array([0, 2**53 - 2], dtype=np.uint64) + 0.5) / 2.0**53)
    worst = math.sqrt(channel.RHO_RANGE[1]) + np.abs(extreme).max()
    assert 2 * (sstdec.SIMULATE_BYTES // sstdec.SIMULATE_BRANCH_BYTES) * worst < 2.0**1020
