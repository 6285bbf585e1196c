"""One workload in one fresh interpreter: CLI calls, timings, traced spans.

run.py starts this script and reads one JSON document from its standard
output.  In the two set-up modes it only imports and prints the clock, so
that the parent can time a fresh interpreter up to a ready CLI (--probe)
or up to numpy and scipy.special imported (--ruler):

    python3 perfbench/worker.py ROOT --probe | --ruler
    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE
"""

import base64
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# Corrected times are in seconds of a reference host (Intel Xeon, 2 cores)
# on which host_kernel() takes KERNEL_REF_S and the --ruler start RULER_REF_S.
KERNEL_REF_S = 0.0037
RULER_REF_S = 0.26


def host_kernel():
    """A fixed piece of work like the package's own: carry-less products and
    small frozensets in the interpreter, small-array numpy calls, and 2x2 to
    24x24 linear algebra.

    Timed between operations, it measures how fast the host runs at that
    moment.  On a shared 2-core Xeon VM, other tenants slowed the package's
    code by up to 1.8x for seconds to minutes at a time, and this kernel by
    nearly the same factor.
    """
    import numpy as np

    total = 0
    for gprime in range(128, 272):
        g = (1 ^ (gprime << 1), 3 ^ (gprime << 1))
        for inv in (1 ^ gprime, gprime):
            for gl in g:
                prod, a, b = 0, inv, gl
                while b:
                    if b & 1:
                        prod ^= a
                    a <<= 1
                    b >>= 1
                total += len(frozenset((1, j) for j in range(prod.bit_length())
                                       if prod >> j & 1))
    x = np.arange(64, dtype=np.float64)
    acc = 0.0
    for i in range(300):
        acc += float(np.where(x > (i % 64), x, -x).sum())
        for j in range(30):
            acc += j * 0.5
    small = np.array([[2.0, 0.3], [0.3, 1.0]])
    big = np.eye(24) * 3.0 + np.outer(x[:24], x[:24]) / 1e4
    for _ in range(60):
        acc += float(np.linalg.eigvalsh(small)[0] + np.linalg.solve(small, small)[0, 0])
    for _ in range(5):
        acc += float(np.linalg.slogdet(big)[1] + np.linalg.solve(big, big)[0, 0])
    return total, acc


def kernel_s():
    start = time.perf_counter()
    host_kernel()
    return time.perf_counter() - start


def call(argv):
    """One CLI call with its output captured: (exit code, stdout, stderr)."""
    from sstkalman import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a failed run
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def warm_pass(ops):
    """The untimed first pass; it also records the main decoder's hard input."""
    import numpy as np
    from sstkalman import sstdec

    original = sstdec.viterbi_main
    records = []

    def recording(r, *args, **kwargs):
        hard = getattr(r, "r_hard", None)
        if hard is None:
            hard = np.asarray(r) < 0.0
        zero = ~np.asarray(hard).reshape(-1, 2).astype(bool).any(axis=1)
        records.append({"n": int(zero.size),
                        "zero_pairs": base64.b64encode(np.packbits(zero)).decode()})
        return original(r, *args, **kwargs)

    results = []
    sstdec.viterbi_main = recording
    try:
        for op in ops:
            records.clear()
            rc, out, err = call(op.argv)
            results.append({"rc": rc, "stdout": out, "stderr": err,
                            "zero_pairs": list(records)})
    finally:
        sstdec.viterbi_main = original
    return results


def timed_pass(ops, warm, tracer=None):
    """One pass: each operation's time, the host kernel's time before the
    first operation and after each one, and the indices of operations whose
    output differed from the first pass."""
    op_s, kernel, changed = [], [kernel_s()], []
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.mark_op()
            t0 = time.perf_counter()
            rc, out, err = call(op.argv)
            op_s.append(time.perf_counter() - t0)
            if (rc, out) != (warm[i]["rc"], warm[i]["stdout"]):
                changed.append(i)
            kernel.append(kernel_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"traced": tracer is not None, "op_s": op_s, "kernel_s": kernel,
            "changed": changed}


def main(argv):
    root = argv[0]
    if argv[1] == "--ruler":
        import numpy  # noqa: F401
        import scipy.special  # noqa: F401

        print(time.monotonic_ns())
        return 0
    sys.path.insert(0, os.path.join(root, "src"))
    from sstkalman import cli  # noqa: F401  (set-up ends when the CLI is ready)

    ready_ns = time.monotonic_ns()
    if argv[1] == "--probe":
        print(ready_ns)
        return 0
    import sstkalman

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    name, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    ops = workloads.build(name, seed)
    warm = warm_pass(ops)
    tracer = tracing.Tracer(sstkalman) if trace else None
    passes = []
    start = time.perf_counter()
    # a traced run alternates untraced and traced passes and ends on a traced one
    while True:
        passes.append(timed_pass(ops, warm))
        if tracer is not None:
            passes.append(timed_pass(ops, warm, tracer))
        if time.perf_counter() - start >= seconds:
            break
    report = {"warm": warm, "passes": passes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        scale = [KERNEL_REF_S / ((k0 + k1) / 2.0) for p in passes if p["traced"]
                 for k0, k1 in zip(p["kernel_s"], p["kernel_s"][1:])]
        raw_s, calls = tracer.totals()
        report["trace"] = {"self_s": tracer.totals(scale)[0], "calls": calls,
                           "raw_self_s": raw_s}
        out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{name}.csv"))
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
