"""Scarce-state-transition (SST) Viterbi decoding.

The pre-decoder applies the polynomial right inverse to the hard
decisions (QLI codes just add the two streams, with delay L), re-encodes
the result, and hands the main Viterbi decoder a re-signed soft stream
whose hard part is v + e: the main-encoded stream v = e (taps G) buried
in the original channel errors e.  Both arrangements take one path,
driven by the (taps, delay) value of `convcode.predecoder`.  At useful
SNR v is mostly zero, which is the whole point of the construction.  The
final output is the pre-decoder stream corrected by the main decoder's
estimate.  Pre-decoding, re-encoding and re-signing run as one pass of
the C library below (`stream_pass`), bit-sliced on 64-step words, and
only the re-signed stream reaches the main decoder.  `simulate` draws its
block in the same library, from numpy's own Philox streams, and encodes
it with the same word filter (`_draw_block`); it runs each point's
received block c x + noise through that pass, which also writes the
point's strided v rows as contiguous rows and counts their ones, counts
the pre-decoder's bit errors in numpy from the same XOR with the
information bits that gives the decoded errors, and takes the point's
exact values from one `covar_mi.sweep` over its own points.  The Sigma_r
sample sums its rows in one more pass of the library, and the statistics
around it run on Python floats, so no bit of `simulate` hangs on BLAS.

The main decoder is a conventional max-correlation Viterbi over the
2^nu-state trellis with a truncated survivor memory, compiled from
`_viterbi.c` on first use for the host CPU, whose add-compare-select runs
in vectors of 2^(nu-1) doubles, at least 2 and at most that CPU's native
width.  Survivors are kept by register exchange: each state carries its
survivor's last T + 1 inputs in 64-bit words, updated inside the
add-compare-select, so each decoded bit is one load from the best state's
register and nothing is traced back.
"""

from __future__ import annotations

import ctypes
import os
import threading
from math import sqrt
from pathlib import Path

import numpy as np

from . import channel, convcode, covar_mi, parity_prob


def _tap_masks(taps):
    """Each tap mask of degree up to gf2.MAX_DEGREE = 64 as the C library
    reads it, (D^0, D^1 .. D^64), in one uint64 array."""
    return np.array([part for p in taps for part in (p & 1, p >> 1)], dtype=np.uint64)


def stream_pass(z, code, mode="general"):
    """The receiver from a received block z, shape (n, 2), to the main
    decoder's input, in one pass of the C kernel: (pre, r).

    The pre-decoder stream ihat is z_hard[:, 0] taps[0] + z_hard[:, 1]
    taps[1], with (taps, delay) = `convcode.predecoder(code, mode)`: in
    general mode ihat = z_hard Ginv (exact inverse, zero delay on clean
    input); in qli mode it adds the two streams and estimates i delayed by
    L.  The rows line up with the estimated information bits, so each
    output has n - delay rows: pre = ihat[delay:], and r = +-|z|, negative
    where its hard part r_hard = encode(ihat)[delay:] XOR z_hard is 1 (the
    re-encoder starts at zero, before ihat[0]).  z_hard is z < 0, so -0.0
    reads 0, and only r's sign bit is written, so signed zeros and
    subnormals keep their magnitude.  The kernel filters 64 steps per
    word and re-signs in vectors of the host's native width, the same
    vector body on every 64-step window: one that reaches past the
    block's ends reads a zero-padded copy, and a short last window writes
    its r through a 64-row buffer.  `simulate` calls the same pass with a
    v buffer, which also takes the strided v rows and their counts; this
    call passes none.  ValueError in qli mode when n <= L.
    """
    taps, delay = convcode.predecoder(code, mode)
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError("z must have shape (n, 2)")
    n = z.shape[0]
    if delay and n <= delay:
        raise ValueError("block shorter than the look-in delay")
    masks = _tap_masks((*taps, *code.g))
    pre = np.empty(n - delay, dtype=np.uint8)
    r = np.empty((n - delay, 2))
    kernel().sst_stream(z.ctypes.data, None, 1.0, n, delay, masks.ctypes.data, 1,
                        pre.ctypes.data, r.ctypes.data, None, None)
    return pre, r


# The numpy composition that `stream_pass` replaces, step by step.  No
# package function calls these; the tests take them as the stream pass's
# oracle, and the benchmark's tracer (perfbench/tracing.py) lists them by name.

def predecode(z_hard, code, mode="general"):
    """Pre-decoder stream z_hard[:, 0] taps[0] + z_hard[:, 1] taps[1], all n steps."""
    return convcode.column_filter(z_hard, convcode.predecoder(code, mode)[0])


def _main_input(z, code, ihat, delay):
    """Re-signed main-decoder input (r, r_hard), each (n - delay, 2), of a
    `channel.ReceivedSequence` z and its pre-decoder stream ihat."""
    n = len(z)
    if delay and n <= delay:
        raise ValueError("block shorter than the look-in delay")
    r_hard = convcode.encode(code, ihat)[delay:] ^ z.z_hard[: n - delay]
    return np.abs(z.z[: n - delay]) * (1.0 - 2.0 * r_hard), r_hard


def main_input_general(z, code, ihat):
    """Main-decoder input (r, r_hard) of the general arrangement, length n."""
    return _main_input(z, code, ihat, 0)


def main_input_qli(z, code, ihat):
    """QLI main-decoder input (r, r_hard), length n - L (the look-in delay is consumed)."""
    return _main_input(z, code, ihat, code.L)


# ------------------------------------------------------------- main decoder

def default_truncation(code):
    try:
        ell = code.L
    except ValueError:
        ell = 0
    return 5 * code.nu + ell


_KERNEL_SOURCE = Path(__file__).with_name("_viterbi.c")
# no FMA contraction and no fast-math: every path metric is one fixed float;
# -march=native sets the widest ACS vector (see _viterbi.c)
_KERNEL_FLAGS = ("-O2", "-march=native", "-ffp-contract=off", "-fno-fast-math", "-shared",
                 "-fPIC")
# the most that the main decoder's metrics, signs and survivor registers may take
DECODER_BYTES = 1 << 30
_kernel = None
_kernel_lock = threading.Lock()


def _host_cpu():
    """The host CPU's feature flags, or its machine type where /proc has none."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def _kernel_path():
    """The kernel's file in __pycache__, `_viterbi-<source>-<build>.so`: the
    hash of its source, then that of its flags and the host CPU.

    A -march=native build runs on its own CPU alone, so a shared __pycache__
    must never hand it to another.
    """
    import hashlib

    source = hashlib.sha256(_KERNEL_SOURCE.read_bytes()).hexdigest()[:16]
    build = hashlib.sha256(b"\0".join([" ".join(_KERNEL_FLAGS).encode(),
                                        _host_cpu().encode()])).hexdigest()[:16]
    return _KERNEL_SOURCE.parent / "__pycache__" / f"_viterbi-{source}-{build}.so"


def _build_kernel():
    """Compile _viterbi.c into __pycache__ (once per _kernel_path) and load it."""
    # imported here, on the first kernel call, so no other command pays for it
    import subprocess

    lib = _kernel_path()
    if not lib.exists():
        lib.parent.mkdir(exist_ok=True)
        partial = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            proc = subprocess.run(["cc", *_KERNEL_FLAGS, "-o", str(partial),
                                   str(_KERNEL_SOURCE)], capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot build the Viterbi kernel: {exc}") from None
        if proc.returncode != 0:
            partial.unlink(missing_ok=True)
            raise OSError(f"cannot build the Viterbi kernel: {proc.stderr.strip()}")
        os.replace(partial, lib)
        # builds of another source are never loaded again; those of this
        # source for other flags or CPUs stay
        source = lib.name.split("-")[1]
        for old in lib.parent.glob("_viterbi-*.so"):
            if old.name.split("-")[1] != source:
                old.unlink(missing_ok=True)
    dll = ctypes.CDLL(str(lib))
    dll.viterbi_width.restype = ctypes.c_int
    dll.viterbi_width.argtypes = [ctypes.c_int]
    dll.viterbi_lanes.restype = ctypes.c_int64
    dll.viterbi_lanes.argtypes = [ctypes.c_int]
    dll.viterbi.restype = None
    dll.viterbi.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_uint64,
                            ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    dll.sst_stream.restype = None
    dll.sst_stream.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_int64,
                               ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                               ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
    dll.draw_block.restype = None
    dll.draw_block.argtypes = [ctypes.c_uint64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                               ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                               ctypes.c_void_p]
    dll.sigma_r_scatter.restype = None
    dll.sigma_r_scatter.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                                    ctypes.c_double, ctypes.c_void_p]
    return dll


def kernel():
    """The loaded `_viterbi.c` library, built on the first call of the process."""
    global _kernel
    if _kernel is None:
        # two threads making their first kernel call build into one temp file
        with _kernel_lock:
            if _kernel is None:
                _kernel = _build_kernel()
    return _kernel


def viterbi_main(r, code, truncation=None):
    """Max-correlation Viterbi; decodes the information sequence of the code.

    r is the (n, 2) array of soft values, with np.abs(r).sum() below
    2^1020 (ValueError otherwise, for NaN and +-inf too): every path metric
    then stays finite, so every step has a best state.  The encoder is
    assumed to start in the zero state.  The bit of step t is read from the
    survivor of the best-metric state at step t + truncation (default
    5 nu + L); the last `truncation` bits come from the final best state.
    Ties prefer the input-0 branch and the lowest-index state.  Where
    every survivor holds the same bit for step t, as on most steps of the
    SST main decoder's scarce input, the kernel reads it without finding
    the best state; the bits are the same.  The trellis runs in the C
    kernel `_viterbi.c`, built on the first call.
    It indexes the states and shift register in 64-bit words, so the
    code's memory must satisfy 1 <= nu <= 62.  Its buffer does not grow
    with n: with lanes = max(2^(nu-1), 2) and words = truncation // 64 + 1,
    the metrics and signs take 8 * 12 * lanes bytes and the two planes of
    survivor registers 8 * 4 * words * lanes, together at most
    DECODER_BYTES (ValueError otherwise, before anything is allocated).
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != 2:
        raise ValueError("r must have shape (n, 2)")
    # NaN and +-inf fail the comparison, and an overflowing sum is inf
    with np.errstate(over="ignore"):
        if not np.abs(r).sum() < 2.0**1020:
            raise ValueError("r must be finite, with sum |r| below 2^1020")
    if truncation is None:
        truncation = default_truncation(code)
    if not 1 <= code.nu <= 62:
        raise ValueError("the main decoder needs a code of memory 1 <= nu <= 62")
    if truncation < 5 * code.nu:
        raise ValueError(f"truncation must be at least 5*nu = {5 * code.nu}")
    n = r.shape[0]
    out = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return out
    lib = kernel()
    # the kernel's per-lane planes: 2^(nu-1) lanes, at least one vector of 2
    lanes = lib.viterbi_lanes(code.nu)
    # two planes of 2 * lanes survivor registers, T + 1 bits each in 64-bit words
    words = truncation // 64 + 1
    size = 8 * 12 * lanes + 8 * 4 * words * lanes
    if size > DECODER_BYTES:
        raise ValueError(f"the main decoder would take {size} bytes for a code of memory "
                         f"nu = {code.nu}, over its cap of {DECODER_BYTES} bytes")
    # the metrics, signs and registers, with 64 bytes of slack: the kernel
    # starts them on a 64-byte boundary
    work = np.empty(size + 64, dtype=np.uint8)
    lib.viterbi(r.ctypes.data, n, code.nu, *code.g, truncation, work.ctypes.data,
                out.ctypes.data)
    return out


def classical_viterbi(z, code):
    """Plain Viterbi on the received stream itself (the SST-free reference)."""
    return viterbi_main(z.z, code)


def sst_decode(z, code, mode="general"):
    """Full SST decode: pre-decode, main decode, recombine.

    general mode returns n bits; qli mode returns n - L bits (estimates
    of i_0 .. i_{n-L-1}).
    """
    pre, r = stream_pass(z.z, code, mode)
    return pre ^ viterbi_main(r, code)


# ----------------------------------------------------------------- simulation

# simulate's arrays take at most this many bytes per branch: the block
# (bits, x and noise, 33 bytes, and the check's w) for the whole call, the
# buffers that each point's stream pass writes over (main-decoder input,
# pre-decoder stream and v rows, ~17 bytes), and one point's decoder output
# and temporaries (tracemalloc peaks at 54-73 for c1 and c2, both modes,
# one to four dB points, from 1000 to 400 000 branches)
SIMULATE_BRANCH_BYTES = 128
# the most that they may take; the main decoder's own arrays are capped
# apart, by DECODER_BYTES
SIMULATE_BYTES = 1 << 30
FIVE_SIGMA_TAIL = channel.q_function(5.0)


def sample_sigma_r(v, w, point, probs):
    """Sample Sigma_r of r = c(1-2v) + w over n i.i.d. rows (v parities,
    w standard normals), and its model se sqrt(Var(r_i r_j) / n): xt = 1 - 2v
    on four points of exact alpha1, alpha2, alpha11 (probs), w white N(0, 1).

    `simulate` feeds it the decoder's own stream and
    `covar_mi.monte_carlo_sigma_r` fresh error windows.  One pass of the C
    library sums the centred rows' products in row order, from v's bytes
    (uint8; a strided v is copied first), and the rest runs on Python
    floats, each symmetric entry formed once, so every bit depends on the
    inputs alone.  Returns (Sigma_r_hat, se), both 2x2 arrays."""
    n = len(v)
    if n < 2:
        raise ValueError("need at least two trials")
    # simulate's rows are contiguous already, so this copies nothing for them
    v = np.ascontiguousarray(v)
    if v.dtype != np.uint8:
        raise ValueError("v must be uint8 parities")
    w = np.ascontiguousarray(w, dtype=np.float64)
    if v.shape != (n, 2) or w.shape != (n, 2):
        raise ValueError("v and w must have shape (n, 2)")
    # c xt and w centred apart, xt by its exact count mean: at large c the
    # spacing of c*xt + w would swallow w
    scatter = (ctypes.c_double * 3)()
    kernel().sigma_r_scatter(v.ctypes.data, n, w.ctypes.data, point.c, scatter)
    s00, s01, s11 = (s / (n - 1) for s in scatter)
    a1, a2, a11 = probs
    law = [(p, x0, x1) for p, x0, x1 in ((1.0 - a1 - a2 + a11, 1.0, 1.0), (a2 - a11, 1.0, -1.0),
                                         (a1 - a11, -1.0, 1.0), (a11, -1.0, -1.0)) if p > 0.0]
    e0 = e1 = 0.0
    for p, x0, x1 in law:
        e0, e1 = e0 + p * x0, e1 + p * x1
    # entries 00, 01, 11 of the moments of u = c (xt - E xt) on the points
    # that occur: no 0 * inf at huge c
    cov, fourth = [0.0] * 3, [0.0] * 3
    for p, x0, x1 in law:
        u0, u1 = point.c * (x0 - e0), point.c * (x1 - e1)
        for k, (a, b) in enumerate(((u0, u0), (u0, u1), (u1, u1))):
            cov[k] += p * (a * b)
            fourth[k] += p * ((a * a) * (b * b))
    # E[r_i^2 r_j^2] - Sigma_r[i, j]^2, with Sigma_r = I + E[u u^T]: the
    # last term, (1 + I) (m2_i + m2_j + 1) with m2 = diag(cov), is at least
    # 1, and fourth >= cov^2 up to rounding, so the root is real
    se00, se01, se11 = (sqrt((fourth[k] - cov[k] * cov[k] + t * (cov[i] + cov[j] + 1.0)) / n)
                        for k, i, j, t in ((0, 0, 0, 2.0), (1, 0, 2, 1.0), (2, 2, 2, 2.0)))
    return np.array([[s00, s01], [s01, s11]]), np.array([[se00, se01], [se01, se11]])


def _draw_block(code, branches, rows, seed):
    """simulate's block, in one pass of the C library over numpy's Philox
    streams: (info, x, noise, w) for a seed in [0, 2^64).

    The information bits come from Philox(key=(seed, 1)), info[k] = 1 where
    the stream's random() < 0.5, and x = 1 - 2 encode(code, info), shape
    (branches, 2).  noise (branches, 2) from `seed` and w (rows, 2) from
    (seed, 2) are `channel.standard_normals(channel.make_rng(key), shape)`:
    the C pass writes the mid-interval uniforms of each stream, and
    scipy's ndtri maps them in place."""
    # simulate has checked the seed: ctypes would wrap one outside the range
    from scipy.special import ndtri

    # a name keeps each array alive through the C call that reads its pointer
    masks, info = _tap_masks(code.g), np.empty(branches, dtype=np.uint8)
    x, noise, w = np.empty((branches, 2)), np.empty((branches, 2)), np.empty((rows, 2))
    kernel().draw_block(seed, branches, rows, masks.ctypes.data, info.ctypes.data,
                        x.ctypes.data, noise.ctypes.data, w.ctypes.data)
    ndtri(noise, out=noise)
    ndtri(w, out=w)
    return info, x, noise, w


def simulate(code, points, branches, seed, mode="general"):
    """End-to-end Monte Carlo runs of one block, one row per SNR point.

    None of the call's three seed streams depends on the point, so each is
    drawn once (`_draw_block`): the information bits from (seed, 1), with
    their codeword and BPSK symbols x, the channel noise from `seed`, and
    the white noise w of the Sigma_r check from (seed, 2).  Each point of
    `points` receives c x + noise and decodes it on its own, so the points
    share common random numbers and each row equals
    simulate(code, [point], ...)[0].  `points` is a sequence of
    `channel.SnrPoint`; returns one dict per point, in its order, which is
    the row that the CLI prints.

    pre_ber is the pre-decoder's raw error rate, post_ber the full SST
    error rate, both counted from one XOR of pre with the information
    bits.  emp_alpha* are frequencies of the main-encoded stream v
    (recovered exactly as hard-part XOR e), subsampled at a stride wider
    than the support depth so the estimates are independent and the
    binomial standard errors honest; the C stream pass counts the strided
    rows' ones, and `parity_prob.count_frequencies` turns the counts into
    the frequencies and their standard errors.  sigma_r_hat is the sample
    Sigma_r of c(1 - 2v) + w on the same rows, and sigma_r_se its
    standard error under the paper's model (`sample_sigma_r`).  epsilon,
    rho, alpha*_ref and sigma_r_ref (I + rho Sigma_x, by
    `covar_mi.sigma_r_entries`) are the point's exact values, for
    `simulation_errors`: the rows of one `covar_mi.sweep` over `points`
    per call, each the point's own `covar_mi.sweep_row`.  The sigma_r_*
    are 2x2 nested tuples.

    ValueError, before anything is drawn, under 100 branches, when
    SIMULATE_BRANCH_BYTES per branch would pass SIMULATE_BYTES, or for a
    seed outside [0, 2^64).
    """
    if branches < 100:
        raise ValueError("need at least 100 branches")
    size = SIMULATE_BRANCH_BYTES * branches
    if size > SIMULATE_BYTES:
        raise ValueError(f"--branches {branches}: simulate would take about {size} bytes, "
                         f"over its cap of {SIMULATE_BYTES} bytes")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64); got {seed}")
    if not points:
        return []
    s1, s2 = parity_prob.code_supports(code, mode)
    stride = max(s1.max_delay, s2.max_delay) + 1
    taps, delay = convcode.predecoder(code, mode)
    # v[stride::stride] over the m = branches - delay decoded steps; the
    # warmup window, where v's support sticks out of the block, is dropped
    m = branches - delay
    n_eff = len(range(stride, m, stride))
    info, x, noise, w = _draw_block(code, branches, n_eff, seed)

    # one point's outputs at a time, each pass writing over the last
    masks = _tap_masks((*taps, *code.g))
    pre, r = np.empty(m, dtype=np.uint8), np.empty((m, 2))
    vs, ones = np.empty((n_eff, 2), dtype=np.uint8), np.empty(3, dtype=np.int64)
    truth = info[:m]
    # the arrays above outlive the loop, so their addresses are read once
    x_p, noise_p, masks_p, pre_p, r_p, vs_p, ones_p = (
        a.ctypes.data for a in (x, noise, masks, pre, r, vs, ones))
    refs = covar_mi.sweep(code, points, mode)
    results = []
    for point, ref in zip(points, refs):
        kernel().sst_stream(x_p, noise_p, point.c, branches, delay, masks_p, stride, pre_p, r_p,
                            vs_p, ones_p)
        # the pre-decoder's errors, which the main decoder's estimate corrects
        errors = pre ^ truth
        # Python ints, so both rates are plain floats
        pre_errors = int(np.count_nonzero(errors))
        post_errors = int(np.count_nonzero(errors ^ viterbi_main(r, code)))
        (a1, a2, a11), ses = parity_prob.count_frequencies(ones.tolist(), n_eff)
        sig_hat, sig_se = sample_sigma_r(vs, w, point, (ref.alpha1, ref.alpha2, ref.alpha11))
        results.append({
            "ebn0_db": point.ebn0_db,
            "branches": branches,
            "pre_ber": pre_errors / m,
            "post_ber": post_errors / m,
            "emp_alpha1": a1, "emp_alpha2": a2, "emp_alpha11": a11,
            "se_alpha1": ses[0], "se_alpha2": ses[1], "se_alpha11": ses[2],
            "stride": stride, "n_eff": n_eff,
            "sigma_r_hat": tuple(map(tuple, sig_hat.tolist())),
            "sigma_r_se": tuple(map(tuple, sig_se.tolist())),
            "epsilon": ref.epsilon, "rho": ref.rho, "alpha1_ref": ref.alpha1,
            "alpha2_ref": ref.alpha2, "alpha11_ref": ref.alpha11,
            "sigma_r_ref": covar_mi.sigma_r_entries(
                *covar_mi.sigma_x_entries(ref.alpha1, ref.alpha2, ref.theta12), ref.rho),
        })
    return results


PARITY_STATS = ("alpha1", "alpha2", "alpha11")


def sigma_r_given_parities(a1, a2, a11, n, rho):
    """Mean and se of `sample_sigma_r`'s Sigma_r_hat given its n rows of v,
    of column frequencies a1 and a2 and joint frequency a11.

    The rows fix the sample covariance S of xt = 1 - 2v, so only w is
    random: the mean is I + rho S, and the se is sqrt((4 rho S_ii + 2) /
    (n - 1)) on the diagonal and sqrt((rho (S_11 + S_22) + 1) / (n - 1))
    off it.  It runs on Python floats, the mean by
    `covar_mi.sigma_r_entries` of S = n / (n - 1) Sigma_x.  Returns
    (mean, se), both 2x2 nested tuples."""
    f = n / (n - 1)
    s1, s2, s12 = covar_mi.sigma_x_entries(a1, a2, a11 - a1 * a2)
    d = (f * s1, f * s2)
    se = tuple(tuple(sqrt((2.0 if i == j else 1.0) * (rho * (d[i] + d[j]) + 1.0) / (n - 1))
                     for j in (0, 1)) for i in (0, 1))
    return covar_mi.sigma_r_entries(*d, f * s12, rho), se


def binomial_tails(k, n, p):
    """The smaller exact binomial tail, min(P(K <= k), P(K >= k)) for
    K ~ Bin(n, p), elementwise over broadcast arrays of counts k, trials n
    and probabilities p."""
    # simulate has loaded scipy.special already, on its noise draw
    from scipy.special import bdtr, bdtrc

    return np.minimum(bdtr(k, n, p), bdtrc(k - 1, n, p))


def simulation_errors(columns, rows):
    """CLI validator: the errors of `simulate`'s rows against their exact values."""
    if not rows:
        return []
    n = np.array([[row["n_eff"]] for row in rows])
    # the exact binomial tail of each count, at the normal 5 se level
    k = np.array([[round(row[f"emp_{name}"] * row["n_eff"]) for name in PARITY_STATS]
                  for row in rows])
    ref = np.array([[row[f"{name}_ref"] for name in PARITY_STATS] for row in rows])
    far = binomial_tails(k, n, ref) < FIVE_SIGMA_TAIL
    errors = []
    for i, row in enumerate(rows):
        errors += [f"row {i}: emp_{name} deviates from model by >5 se"
                   for name, bad in zip(PARITY_STATS, far[i]) if bad]
        # the rule above tests the counts; given them, only the check's w is random
        mean, se = sigma_r_given_parities(
            row["emp_alpha1"], row["emp_alpha2"], row["emp_alpha11"], row["n_eff"], row["rho"])
        hat = row["sigma_r_hat"]
        # the sample, its mean and its se are each exactly symmetric, so
        # each distinct entry is compared once
        if any(abs(hat[a][b] - mean[a][b]) > 5.0 * se[a][b] + 1e-9
               for a, b in ((0, 0), (0, 1), (1, 1))):
            errors.append(f"row {i}: empirical received covariance off model by >5 se")
        if not (0.0 <= row["pre_ber"] <= 1.0 and 0.0 <= row["post_ber"] <= 1.0):
            errors.append(f"row {i}: bit error rate outside [0, 1]")
    return errors
