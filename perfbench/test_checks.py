"""Tests of the benchmark's own checks and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py

Each workload runs once at a tiny size and must pass its checks, with the
known trace_compare fault as the only failure.  Each check must fire on a
planted wrong value: a flipped decoded bit, a Sigma_x entry off by 1e-3,
and a reversal added to or removed from a search row.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import sstkalman  # noqa: E402
from sstkalman import channel, convcode, sstdec  # noqa: E402

REF = checks.load_reference_tables(ROOT)


def first_pass(name, seed=1):
    ops = workloads.build(name, seed, tiny=True)
    return ops, worker.warm_pass(ops)


def output_of(ops, results, *argv):
    return next(r for op, r in zip(ops, results) if op.argv[:len(argv)] == argv)["stdout"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks(name):
    ops, results = first_pass(name)
    faults = {}
    for op, result in zip(ops, results):
        errors, fault = run.check_op(op, result, REF)
        if fault:
            faults[op.argv] = (fault, errors)
        else:
            assert errors == [], (op.argv, errors)
    assert run.check_decoder(1, ops) == []
    if name == "qli-search":
        # from nu = 7 upward trace_compare misses true reversals at -10 and -9 dB
        ((argv, (fault, errors)),) = faults.items()
        assert argv == ("search", "--nu", "7")
        assert fault.startswith("qli_search.trace_compare") and "2 missed" in fault
        assert errors == []
    else:
        assert faults == {}


def test_simulate_checks_see_the_main_decoder_input():
    ops, results = first_pass("sim-scarce")
    for op, result in zip(ops, results):
        assert len(result["zero_pairs"]) == len(op.params["db"])
        assert result["zero_pairs"][0]["n"] >= op.params["branches"] - 1


@pytest.mark.parametrize("code_name,mode", workloads.SIM_CALLS)
def test_flipped_decoded_bit_is_caught(code_name, mode):
    z = checks.decode_blocks(5, code_name, mode)[0]
    decoded = sstdec.sst_decode(channel.ReceivedSequence(z), convcode.get_code(code_name),
                                mode)
    assert checks.check_decoded(z, decoded, code_name, mode) == []
    decoded[len(decoded) // 2] ^= 1
    assert checks.check_decoded(z, decoded, code_name, mode) != []


def _shift_cell(text, row, column, delta):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = format(float(cells[j]) + delta, ".6g")
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("table,column", [(1, "sigma1_sq"), (2, "sigma2_sq"),
                                          (7, "sigma1_sq_prime")])
def test_sigma_x_entry_off_by_1e3_is_caught(table, column):
    ops, results = first_pass("exact-analysis")
    text = output_of(ops, results, "tables", "--table", str(table))
    assert checks.check_table(table, text, REF) == []
    # row 0 is -10 dB, where the published value is 1 and a 1e-3 shift stays
    # inside the published table's own tolerance
    assert checks.check_table(table, _shift_cell(text, 0, column, 1e-3), REF) != []


def test_sigma_x_entry_in_curves_is_caught():
    ops, results = first_pass("exact-analysis")
    text = output_of(ops, results, "curves", "--code", "c2", "--mode", "qli")
    assert checks.check_curves("c2", "qli", text) == []
    planted = _shift_cell(text, 15, "half_tr_sigma_x", 1e-3)
    assert checks.check_curves("c2", "qli", planted) != []


def _edit_reversals(text, c_bits, edit):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == c_bits:
            listed = [v for v in cells[-1].split(";") if v]
            cells[-1] = ";".join(edit(listed))
            lines[i] = ",".join(cells)
    return "\n".join(lines)


def test_reversal_added_or_removed_is_caught():
    text = worker.call(("search", "--nu", "6"))[1]
    assert checks.check_search(6, text) == ([], None)
    rows = checks.parse_csv(text)
    with_reversals = next(r["c_bits"] for r in rows if r["exact_counterexample_snrs"])
    without = next(r["c_bits"] for r in rows if not r["exact_counterexample_snrs"])
    removed = _edit_reversals(text, with_reversals, lambda v: v[1:])
    added = _edit_reversals(text, without, lambda v: ["0"])
    for planted in (removed, added):
        errors, fault = checks.check_search(6, planted)
        assert errors != [] and fault is None


def test_traced_pass_attributes_its_time_and_restores_the_package():
    ops = workloads.build("exact-analysis", 1, tiny=True)
    originals = {(layer, attr): getattr(getattr(sstkalman, layer), attr)
                 for layer, attrs in tracing.WRAPPED.items() for attr in attrs}
    tracer = tracing.Tracer(sstkalman)
    warm = worker.warm_pass(ops)
    traced = worker.timed_pass(ops, warm, tracer)
    assert traced["changed"] == []
    for (layer, attr), fn in originals.items():
        assert getattr(getattr(sstkalman, layer), attr) is fn
    self_s, calls = tracer.totals()
    assert calls["cli.main"] == len(ops)
    assert 0.9 * sum(traced["op_s"]) < sum(self_s.values()) <= sum(traced["op_s"])
    metrics = tracing.layer_metrics(self_s, calls, 1)
    assert metrics["covar_mi.sweep_row_s"] > 0 and metrics["kalman.projection_s"] > 0
    assert set(metrics) >= set(tracing.METRICS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-scarce",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
