"""sstkalman benchmark: end-to-end timings and checked outputs of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sim-scarce, sim-dense, exact-analysis, qli-search, or all.
Each workload runs in one fresh worker process (perfbench/worker.py) that
calls sstkalman.cli.main in whole passes over the workload's operations
for S seconds.  This process times set-up, checks every output of the
first pass against values computed apart from the program (checks.py),
and prints one JSON object as the last line of its output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker alternates untraced and traced passes and the metrics are the
per-layer ones (tracing.py) with the tracing overhead.  A fuller record
(commit, machine, library versions, BLAS threads, every failure and its
reason) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# set-up is timed from this many fresh interpreters before the worker and as
# many after it
SETUP_PROBES = 2
# a run must end within 180 s; the worker gets what is left after set-up
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def worker_env():
    """One BLAS thread per worker: the package's matrices are 2x2 to 24x24,
    where threading never pays, and one thread keeps timings steady."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, env):
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(ROOT), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    return spawn_ns, proc


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def commit_id():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


# ------------------------------------------------------------------- checks

def check_op(op, result, ref):
    """(errors, known fault) for one operation of the first pass."""
    rc, out = result["rc"], result["stdout"]
    kind, p = op.kind, op.params
    fault = None
    try:
        if kind == "search":
            errors, fault = checks.check_search(p["nu"], out)
        elif rc != 0:
            errors = []
        elif kind == "simulate":
            errors = checks.check_simulate(p["code"], p["mode"], p["db"], p["branches"],
                                           out, result["zero_pairs"])
        elif kind == "table":
            errors = checks.check_table(p["table"], out, ref)
        elif kind == "curves":
            errors = checks.check_curves(p["code"], p["mode"], out)
        elif kind == "alpha-values":
            errors = checks.check_alpha_values(p["code"], p["db"], out)
        elif kind == "alpha-polynomial":
            errors = checks.check_alpha_polynomials(p["code"], out, ref)
        elif kind == "kalman":
            from sstkalman import kalman
            errors = checks.check_kalman(out, p["seed"], p["states"], p["steps"], kalman)
        elif kind == "search-table":
            errors = checks.check_search_table(p["table"], out, ref)
        else:
            errors = [f"no check for operation kind {kind!r}"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        errors = [f"output could not be read: {type(exc).__name__}: {exc}"]
    if rc != 0:
        first = result["stderr"].strip().splitlines()[:1]
        errors.append(f"exit code {rc}" + (f" ({first[0]})" if first else ""))
    return errors, fault


def check_decoder(seed, ops):
    """sst_decode against brute force on short seeded blocks, for every
    (code, mode) the workload simulates."""
    from sstkalman import channel, convcode, sstdec

    errors = []
    for code_name, mode in sorted({(op.params["code"], op.params["mode"]) for op in ops
                                   if op.kind == "simulate"}):
        code = convcode.get_code(code_name)
        for z in checks.decode_blocks(seed, code_name, mode):
            decoded = sstdec.sst_decode(channel.ReceivedSequence(z), code, mode)
            errors += checks.check_decoded(z, decoded, code_name, mode)
    return errors


# ------------------------------------------------------------------ metrics

def pass_s(passes):
    """Seconds of one pass at the reference host's speed.

    Each operation's time is divided by the mean of the host kernel's
    times just before and just after it, then the median over passes is
    taken and the sum over operations is scaled by the kernel's reference
    time.  On a shared 2-core Xeon VM the raw medians of two runs a minute
    apart differed by up to 1.8x; the corrected ones by a few percent.
    """
    ratios = zip(*([t / ((k0 + k1) / 2.0) for t, k0, k1
                    in zip(p["op_s"], p["kernel_s"], p["kernel_s"][1:])]
                   for p in passes))
    return worker.KERNEL_REF_S * sum(statistics.median(r) for r in ratios)


def end_to_end(ops, report, setup_samples):
    seconds = pass_s(report["passes"])
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_s": seconds,
        "throughput_per_s": sum(op.items for op in ops) / seconds,
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
    }


def per_layer(ops, report):
    traced = [p for p in report["passes"] if p["traced"]]
    untraced = [p for p in report["passes"] if not p["traced"]]
    self_s, calls = report["trace"]["self_s"], report["trace"]["calls"]
    metrics = tracing.layer_metrics(self_s, calls, len(traced))
    metrics["trace.unattributed_share"] = (1.0 - sum(report["trace"]["raw_self_s"].values())
                                           / sum(sum(p["op_s"]) for p in traced))
    # main-decoder state updates per pass: branches reaching it times 2^nu
    updates = 0
    for op in ops:
        if op.kind == "simulate":
            code = checks.PAPER_CODES[op.params["code"]]
            n = op.params["branches"] - (code["L"] if op.params["mode"] == "qli" else 0)
            updates += len(op.params["db"]) * n * 2 ** checks.nu_of(code)
    viterbi = metrics["sstdec.viterbi_main_s"]
    metrics["sstdec.state_updates_per_s"] = updates / viterbi if viterbi > 0 else 0.0
    metrics["trace.pass_s"] = pass_s(traced)
    metrics["trace.untraced_pass_s"] = pass_s(untraced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    return metrics


def per_layer_units():
    units = {name: ("count" if kind == "calls" else "s")
             for name, (kind, _) in tracing.METRICS.items()}
    units.update({f"{layer}.self_s": "s" for layer in tracing.LAYERS})
    units.update({"sstdec.state_updates_per_s": "1/s", "trace.pass_s": "s",
                  "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
                  "trace.unattributed_share": "ratio"})
    return units


# ---------------------------------------------------------------------- run

def run_workload(name, seed, seconds, trace, deadline):
    ops = workloads.build(name, seed)
    env = worker_env()
    setup = []

    def start_s(mode):
        spawn_ns, proc = start_worker([mode], env)
        return (int(finish(proc, deadline - time.monotonic())) - spawn_ns) / 1e9

    def probe():
        # set-up probes alternate with the ruler (a fresh interpreter that
        # imports numpy and scipy.special); each probe is scaled by the mean
        # of the ruler times around it
        rulers = [start_s("--ruler")]
        for _ in range(SETUP_PROBES):
            probe_s = start_s("--probe")
            rulers.append(start_s("--ruler"))
            setup.append(probe_s * worker.RULER_REF_S / ((rulers[-2] + rulers[-1]) / 2.0))

    if not trace:
        probe()
    spawn_ns, proc = start_worker([name, str(seed), repr(seconds), str(int(trace))], env)
    report = json.loads(finish(proc, deadline - time.monotonic()))
    if not trace:
        probe()

    ref = checks.load_reference_tables(ROOT)
    n_passes = 1 + len(report["passes"])
    attempted = failed = 0
    correct = True
    failures = []
    for i, (op, result) in enumerate(zip(ops, report["warm"])):
        errors, fault = check_op(op, result, ref)
        changed = sum(i in p["changed"] for p in report["passes"])
        attempted += n_passes
        if errors or fault or changed:
            failed += n_passes if (errors or fault) else changed
            # the one fault a run may carry is the known trace_compare one,
            # with or without the CLI's own validator noticing it
            known = (fault is not None and not changed
                     and all(e.startswith("exit code") for e in errors))
            correct = correct and known
            reason = "; ".join(([fault] if fault else []) + errors
                               + ([f"output changed in {changed} later passes"]
                                  if changed else []))
            failures.append({"op": " ".join(op.argv), "known_fault": known,
                             "reason": reason})
    # the SST counter: how often the main decoder's hard input is 00
    zero_pair_share = [
        {"op": " ".join(op.argv), "ebn0_db": db, "measured": share, "exact": exact}
        for op, result in zip(ops, report["warm"]) if op.kind == "simulate"
        and len(result["zero_pairs"]) == len(op.params["db"])
        for db, share, _, exact in checks.zero_pair_shares(
            op.params["code"], op.params["mode"], op.params["db"], result["zero_pairs"])]
    decode_errors = check_decoder(seed, ops)
    if decode_errors:
        correct = False
        failures += [{"op": "sst_decode", "known_fault": False, "reason": e}
                     for e in decode_errors]

    if trace:
        values, units = per_layer(ops, report), per_layer_units()
    else:
        values, units = end_to_end(ops, report, setup), END_TO_END_UNITS
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit_id(), "machine": machine(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "operations": [" ".join(op.argv) for op in ops],
        "passes": len(report["passes"]), "setup_samples_s": setup,
        "op_s": [p["op_s"] for p in report["passes"]],
        "kernel_s": [p["kernel_s"] for p in report["passes"]],
        "failures": failures,
        "zero_pair_share": zero_pair_share,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return record, result


def print_summary(record, result):
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  commit {record['commit'][:12]}")
    print(f"  machine {m['cpu']}, {m['nproc']} cores, python {m['python']}, "
          f"numpy {record['numpy']}, scipy {record['scipy']}, "
          f"BLAS threads {record['blas_threads']}")
    print(f"  {len(record['operations'])} operations x {record['passes'] + 1} passes "
          f"(first pass untimed): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for f in record["failures"]:
        tag = "known fault" if f["known_fault"] else "FAILED"
        print(f"  {tag}: {f['op']}: {f['reason']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sstkalman" / "cli.py").is_file():
        print(f"error: no sstkalman sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = start + RUN_DEADLINE_S * (names.index(name) + 1)
        record, result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      deadline)
        record["result"] = result
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_summary(record, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
