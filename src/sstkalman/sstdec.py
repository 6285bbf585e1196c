"""Scarce-state-transition (SST) Viterbi decoding.

The pre-decoder applies the polynomial right inverse to the hard
decisions (QLI codes just add the two streams), re-encodes the result,
and hands the main Viterbi decoder a re-signed soft stream whose hard
part is v + e: the main-encoded stream v = e (Ginv G) buried in the
original channel errors e.  At useful SNR v is mostly zero, which is
the whole point of the construction.  The final output is the
pre-decoder stream corrected by the main decoder's estimate.

The main decoder is a conventional max-correlation Viterbi over the
2^nu-state trellis with deferred truncated traceback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, convcode, parity_prob
from .convcode import as_conv, as_qli


class SoftInput:
    """Main-decoder input sequence: soft values (n, 2) and hard parts (n, 2)."""

    __slots__ = ("r", "r_hard")

    def __init__(self, r, r_hard=None):
        r = np.asarray(r, dtype=np.float64)
        if r.ndim != 2 or r.shape[1] != 2:
            raise ValueError("r must have shape (n, 2)")
        self.r = r
        if r_hard is None:
            r_hard = (r < 0.0).astype(np.uint8)
        else:
            r_hard = np.asarray(r_hard, dtype=np.uint8)
            if r_hard.shape != r.shape:
                raise ValueError("r_hard shape must match r")
        self.r_hard = r_hard

    def __len__(self):
        return self.r.shape[0]


def predecode(z_hard, code, mode="general"):
    """Instantaneous information estimate from hard decisions.

    general: ihat = z_hard Ginv (exact inverse, zero delay on clean input).
    qli:     adds the two streams; estimates i delayed by L.
    """
    z_hard = np.asarray(z_hard, dtype=np.uint8)
    if z_hard.ndim != 2 or z_hard.shape[1] != 2:
        raise ValueError("z_hard must have shape (n, 2)")
    if mode == "general":
        conv = as_conv(code)
        out = convcode._tap_xor(z_hard[:, 0], conv.ginv[0])
        convcode._tap_xor(z_hard[:, 1], conv.ginv[1], out=out)
        return out
    if mode == "qli":
        as_qli(code)
        return z_hard[:, 0] ^ z_hard[:, 1]
    raise ValueError(f"unknown mode {mode!r}")


def main_input_general(z, code):
    """Re-signed main-decoder input: hard part = re-encoded pre-decode XOR z_hard."""
    conv = as_conv(code)
    ihat = predecode(z.z_hard, conv, "general")
    reenc = convcode.encode(conv, ihat)
    r_hard = reenc ^ z.z_hard
    r = np.abs(z.z) * (1.0 - 2.0 * r_hard)
    return SoftInput(r=r, r_hard=r_hard)


def main_input_qli(z, code):
    """QLI main-decoder input, length n - L (the look-in delay is consumed)."""
    qli = as_qli(code)
    n = len(z)
    L = qli.L
    if n <= L:
        raise ValueError("block shorter than the look-in delay")
    itilde = predecode(z.z_hard, qli, "qli")
    reenc = convcode.encode(qli, itilde)
    r_hard = reenc[L:, :] ^ z.z_hard[: n - L, :]
    r = np.abs(z.z[: n - L, :]) * (1.0 - 2.0 * r_hard)
    return SoftInput(r=r, r_hard=r_hard)


# -------------------------------------------------------------------- trellis

class Trellis:
    """Tabulated 2^nu-state trellis of a rate-1/2 code, in butterfly order.

    State bit j holds the input from j+1 steps ago; the branch register
    for (state, input u) is (state << 1) | u, so output l is the parity
    of g_l AND register.  State 2j+u is entered on input u from j and
    from j + 2^(nu-1): branch_sign[l, b, j, u] is the BPSK sign of
    output l on the branch from state b 2^(nu-1) + j on input u.
    """

    def __init__(self, code):
        conv = as_conv(code)
        nu = conv.nu
        nstates = 1 << nu
        states = np.arange(nstates, dtype=np.uint64).reshape(2, nstates >> 1, 1)
        regs = (states << np.uint64(1)) | np.arange(2, dtype=np.uint64)
        self.nu = nu
        self.nstates = nstates
        self.branch_sign = np.stack(
            [1.0 - 2.0 * (np.bitwise_count(regs & np.uint64(g.mask)) & 1) for g in conv.g])


def default_truncation(code):
    conv = as_conv(code)
    try:
        ell = as_qli(code).L
    except ValueError:
        ell = 0
    return 5 * conv.nu + ell


# steps of the add-compare-select loop per block of precomputed branch terms
CHUNK = 128


def viterbi_main(r, code, truncation=None):
    """Max-correlation Viterbi; decodes the information sequence of the code.

    The encoder is assumed to start in the zero state.  The bit of step
    t is read from the survivor of the best-metric state at step
    t + truncation (default 5 nu + L); the last `truncation` bits come
    from the final best state.  Ties prefer the input-0 branch and the
    lowest-index state.  The traceback is deferred: the add-compare-select
    loop only stores decisions and each step's best state, and all
    survivors walk back together afterwards.
    """
    conv = as_conv(code)
    if isinstance(r, SoftInput):
        soft = r
    else:
        soft = SoftInput(np.asarray(r, dtype=np.float64))
    if truncation is None:
        truncation = default_truncation(code)
    if truncation < 5 * conv.nu:
        raise ValueError(f"truncation must be at least 5*nu = {5 * conv.nu}")
    trellis = Trellis(conv)
    n = len(soft)
    out = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return out
    nstates = trellis.nstates
    half = nstates >> 1
    top = trellis.nu - 1
    sign0, sign1 = trellis.branch_sign
    # choices[k, s] is set when state s after step k came from s//2 + half
    choices = np.zeros((n, nstates), dtype=np.bool_)
    best = np.empty(n, dtype=np.int64)
    # cands[i, b, j, u]: metric into state 2j+u from state b*half + j;
    # each row's views: the winners (row i's metrics), the rivals, and the
    # winners as (b, j, 1) for the next step.  Step i reads row i - 1 (the
    # last row at a block start), so it never overwrites what it reads.
    cands = np.empty((min(CHUNK, n), 2, half, 2))
    rows = [(cand, cand[0], cand[1], cand[0].reshape(2, half, 1)) for cand in cands]
    metrics = np.full((2, half, 1), -1e30)
    metrics[0, 0] = 0.0
    for k0 in range(0, n, CHUNK):
        k1 = min(k0 + CHUNK, n)
        terms0 = soft.r[k0:k1, 0, None, None, None] * sign0
        terms1 = soft.r[k0:k1, 1, None, None, None] * sign1
        for t0, t1, (cand, win, rival, next_metrics), take1 in zip(
                terms0, terms1, rows, choices[k0:k1].reshape(-1, half, 2)):
            np.add(metrics, t0, out=cand)
            cand += t1
            np.greater(rival, win, out=take1)
            np.copyto(win, rival, where=take1)
            metrics = next_metrics
        best[k0:k1] = np.argmax(cands[:k1 - k0, 0].reshape(k1 - k0, nstates), axis=1)
    # bit tau comes from best[tau + T] walked back T steps, all tau at once
    if n > truncation:
        steps = np.arange(truncation, n)
        state = best[truncation:]
        for d in range(truncation):
            state = (state >> 1) | (choices[steps - d, state].astype(np.int64) << top)
        out[:n - truncation] = state & 1
    state = int(best[-1])
    for t in range(n - 1, max(n - truncation, 0) - 1, -1):
        out[t] = state & 1
        state = (state >> 1) | (int(choices[t, state]) << top)
    return out


def classical_viterbi(z, code, truncation=None):
    """Plain Viterbi on the received stream itself (the SST-free reference)."""
    return viterbi_main(SoftInput(z.z), code, truncation)


def _sst_streams(z, code, mode, truncation):
    """Pre-decoder stream, main-decoder input and SST output of one block.

    Both bit streams estimate the information bits they line up with:
    i_0 .. i_{n-1} in general mode, i_0 .. i_{n-L-1} in qli mode.
    """
    if mode == "general":
        code = as_conv(code)
        pre = predecode(z.z_hard, code, "general")
        soft = main_input_general(z, code)
    elif mode == "qli":
        code = as_qli(code)
        pre = predecode(z.z_hard, code, "qli")[code.L:]
        soft = main_input_qli(z, code)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return pre, soft, pre ^ viterbi_main(soft, code, truncation)


def sst_decode(z, code, mode="general", truncation=None):
    """Full SST decode: pre-decode, main decode, recombine.

    general mode returns n bits; qli mode returns n - L bits (estimates
    of i_0 .. i_{n-L-1}).
    """
    return _sst_streams(z, code, mode, truncation)[2]


# ----------------------------------------------------------------- simulation

@dataclass(frozen=True)
class SimulationResult:
    ebn0_db: float
    branches: int
    pre_ber: float
    post_ber: float
    emp_alpha1: float
    emp_alpha2: float
    emp_alpha11: float
    se_alpha1: float
    se_alpha2: float
    se_alpha11: float
    stride: int
    n_eff: int


def simulate(code, point, branches, seed, mode="general", truncation=None):
    """End-to-end Monte Carlo run at one SNR point.

    pre_ber is the pre-decoder's raw error rate, post_ber the full SST
    error rate.  emp_alpha* are frequencies of the main-encoded stream v
    (recovered exactly as hard-part XOR e), subsampled at a stride wider
    than the support depth so the estimates are independent and the
    binomial standard errors honest.
    """
    if branches < 100:
        raise ValueError("need at least 100 branches")
    conv = as_conv(code)
    info = (channel.make_rng((seed, 1)).random(branches) < 0.5).astype(np.uint8)
    y = convcode.encode(conv, info)
    z = channel.transmit(y, point, seed)
    e = z.z_hard ^ y

    s1, s2 = parity_prob.code_supports(code, mode)
    stride = max(s1.max_delay, s2.max_delay) + 1

    pre_stream, soft, post_stream = _sst_streams(z, code, mode, truncation)
    m = len(post_stream)
    truth = info[:m]
    v = soft.r_hard ^ e[:m]

    # drop the warmup window where v's support sticks out of the block
    vs = v[stride::stride]
    n_eff = vs.shape[0]
    a1 = float(vs[:, 0].mean())
    a2 = float(vs[:, 1].mean())
    a11 = float((vs[:, 0] & vs[:, 1]).mean())
    ses = [float(np.sqrt(p * (1.0 - p) / n_eff)) for p in (a1, a2, a11)]
    return SimulationResult(
        ebn0_db=point.ebn0_db,
        branches=branches,
        pre_ber=float(np.mean(pre_stream != truth)),
        post_ber=float(np.mean(post_stream != truth)),
        emp_alpha1=a1, emp_alpha2=a2, emp_alpha11=a11,
        se_alpha1=ses[0], se_alpha2=ses[1], se_alpha11=ses[2],
        stride=stride, n_eff=n_eff,
    )
