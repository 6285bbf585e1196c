"""Spans around the package's functions, recorded from outside the package.

Tracer.install() replaces chosen functions of each module with wrappers
that record a span (name, start, end, parent) and restores them on
uninstall().  Calls between modules go through module attributes, and
calls inside a module through its globals, so both reach the wrapper.  A
name that one module binds with `from .gf2 import ...` is a second
binding and is wrapped where it is bound as well (see ALIASES).

Functions called tens of thousands of times per pass are left unwrapped,
because a wrapper costs about a microsecond and would distort the self
time of the caller: parity_prob.parity_one_prob (86k calls in
`search --nu 12`), channel.snr_point and q_function (21 per trace
comparison), the gf2 polynomial product and the code-view helpers
convcode.as_conv and as_qli.  Small leaf helpers whose cost belongs to
their caller's figure (covar_mi.sigma_r, sigma_c_general, the 2x2 closed
form) are left unwrapped too.  Their time is self time of the caller.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("channel", "convcode", "gf2", "parity_prob", "sstdec", "covar_mi",
          "kalman", "qli_search", "cli")

WRAPPED = {
    "gf2": ("polymat_mul", "verify_right_inverse", "column_term_count"),
    "convcode": ("make_qli", "get_code", "load_code", "encode", "syndrome",
                 "main_encoded_block_map"),
    "channel": ("transmit", "grid_points"),
    "parity_prob": ("support_of", "joint_parity_prob", "joint_value_prob",
                    "brute_force_joint", "marginal_polynomial", "joint_polynomial",
                    "theta", "theta_four_ways", "monte_carlo_probs"),
    "sstdec": ("predecode", "main_input_general", "main_input_qli", "viterbi_main",
               "classical_viterbi", "sst_decode", "simulate"),
    "covar_mi": ("code_supports", "code_sigma_x", "sigma_x_prime", "cov_pair",
                 "eigen_track", "mi_gauss_bound", "mi_gauss_bound_per_rho",
                 "bound_chain", "binary_input_mi", "mi_per_branch_bound",
                 "monte_carlo_sigma_r", "sweep_row", "sweep"),
    "kalman": ("state_space_model", "kf_step", "run_filter", "covariance_recursion",
               "gaussian_mi", "gaussian_mi_prediction_form", "information_form_inverse",
               "smoother_cov", "smoothed_estimate", "_joint_moments",
               "joint_observation_covariance", "projection_smoother_cov",
               "projection_smoothed_estimate", "random_model", "simulate_observations",
               "identity_report"),
    "qli_search": ("classify_counts", "family_counts", "enumerate_qli", "trace_compare",
                   "exact_counterexample_snrs"),
    "cli": ("main", "run_tables", "run_curves", "run_alpha", "run_simulate",
            "run_kalman_check", "run_search", "_sweep_rows", "parse_db_values",
            "build_parser", "_emit_and_validate", "csv_text", "json_text", "parse_csv",
            "validate_finite", "validate_bound_chain", "validate_lambda",
            "validate_roundtrip"),
}

# second bindings made by `from .gf2 import ...`
ALIASES = {
    "convcode": ("polymat_mul", "verify_right_inverse"),
    "qli_search": ("column_term_count",),
}

# per-layer metric -> ("s" self seconds | "calls", wrapped functions)
METRICS = {
    "sstdec.viterbi_main_s": ("s", ["sstdec.viterbi_main"]),
    "sstdec.predecode_s": ("s", ["sstdec.predecode"]),
    "sstdec.main_input_s": ("s", ["sstdec.main_input_general", "sstdec.main_input_qli"]),
    "sstdec.simulate_self_s": ("s", ["sstdec.simulate"]),
    "channel.transmit_s": ("s", ["channel.transmit"]),
    "convcode.encode_s": ("s", ["convcode.encode"]),
    "covar_mi.monte_carlo_sigma_r_s": ("s", ["covar_mi.monte_carlo_sigma_r"]),
    "covar_mi.sweep_row_s": ("s", ["covar_mi.sweep_row", "covar_mi.sweep"]),
    "covar_mi.eigen_track_s": ("s", ["covar_mi.eigen_track"]),
    "covar_mi.binary_input_mi_s": ("s", ["covar_mi.binary_input_mi"]),
    "covar_mi.code_supports_calls": ("calls", ["covar_mi.code_supports"]),
    "parity_prob.support_of_calls": ("calls", ["parity_prob.support_of"]),
    "parity_prob.support_of_s": ("s", ["parity_prob.support_of"]),
    "convcode.block_map_calls": ("calls", ["convcode.main_encoded_block_map"]),
    "convcode.block_map_s": ("s", ["convcode.main_encoded_block_map"]),
    "kalman.identity_report_s": ("s", ["kalman.identity_report", "kalman.random_model",
                                       "kalman.simulate_observations",
                                       "kalman.state_space_model"]),
    "kalman.recursion_s": ("s", ["kalman.covariance_recursion", "kalman.kf_step",
                                 "kalman.run_filter", "kalman.gaussian_mi",
                                 "kalman.gaussian_mi_prediction_form",
                                 "kalman.information_form_inverse"]),
    "kalman.smoother_s": ("s", ["kalman.smoother_cov", "kalman.smoothed_estimate"]),
    "kalman.projection_s": ("s", ["kalman._joint_moments",
                                  "kalman.joint_observation_covariance",
                                  "kalman.projection_smoother_cov",
                                  "kalman.projection_smoothed_estimate"]),
    "qli_search.enumerate_qli_s": ("s", ["qli_search.enumerate_qli",
                                         "qli_search.family_counts",
                                         "qli_search.classify_counts"]),
    "qli_search.trace_compare_s": ("s", ["qli_search.trace_compare",
                                         "qli_search.exact_counterexample_snrs"]),
    "qli_search.trace_compare_calls": ("calls", ["qli_search.trace_compare"]),
    "gf2.polymat_mul_s": ("s", ["gf2.polymat_mul"]),
    "gf2.polymat_mul_calls": ("calls", ["gf2.polymat_mul"]),
    "convcode.make_qli_s": ("s", ["convcode.make_qli"]),
    "cli.run_self_s": ("s", ["cli.main", "cli.run_tables", "cli.run_curves",
                             "cli.run_alpha", "cli.run_simulate", "cli.run_kalman_check",
                             "cli.run_search", "cli._sweep_rows", "cli.parse_db_values",
                             "cli.build_parser"]),
    "cli.emit_s": ("s", ["cli._emit_and_validate", "cli.csv_text", "cli.json_text",
                         "cli.parse_csv", "cli.validate_finite",
                         "cli.validate_bound_chain", "cli.validate_lambda",
                         "cli.validate_roundtrip"]),
}


class Tracer:
    """Span recorder for the modules of one package, kept in memory."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_starts = array("i")
        self.pass_bounds = []
        self._saved = []
        self._wrappers = {}

    def _wrap(self, fn, label):
        if fn in self._wrappers:
            return self._wrappers[fn]
        nid = len(self.names)
        self.names.append(label)
        names, parent, start, end, stack = (self.span_name, self.parent, self.start,
                                            self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        self._wrappers[fn] = traced
        return traced

    def install(self):
        for layer, attrs in WRAPPED.items():
            for attr in attrs:
                self._replace(layer, attr, f"{layer}.{attr}")
        for layer, attrs in ALIASES.items():
            for attr in attrs:
                self._replace(layer, attr, f"gf2.{attr}")
        self.pass_bounds.append([len(self.span_name), None])

    def _replace(self, layer, attr, label):
        module = self.modules[layer]
        fn = getattr(module, attr, None)
        if fn is None:  # a later version of the package may drop a function
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, label))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self.pass_bounds[-1][1] = len(self.span_name)

    def mark_op(self):
        """Note that the spans from here on belong to the next operation."""
        self.op_starts.append(len(self.span_name))

    def totals(self, op_scale=None):
        """(self seconds by function, calls by function) over every span.

        op_scale, one factor per marked operation, multiplies the self time
        of that operation's spans (the host-speed correction).
        """
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        weights = dur - covered
        if op_scale is not None:
            bounds = np.append(np.frombuffer(self.op_starts, dtype=np.int32), len(ids))
            weights = weights * np.repeat(op_scale, np.diff(bounds))
        self_s = np.bincount(ids, weights=weights, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return ({n: float(v) for n, v in zip(self.names, self_s)},
                {n: int(v) for n, v in zip(self.names, calls)})

    def write(self, path):
        """One line per span: pass, name, start and end (s), parent span."""
        with open(path, "w") as fh:
            fh.write("pass,name,start_s,end_s,parent\n")
            for p, (lo, hi) in enumerate(self.pass_bounds):
                for i in range(lo, hi):
                    fh.write(f"{p},{self.names[self.span_name[i]]},{self.start[i]:.9f},"
                             f"{self.end[i]:.9f},{self.parent[i]}\n")


def layer_metrics(self_s, calls, passes):
    """Per-pass figures: the METRICS table plus every layer's total self time."""
    out = {}
    for name, (kind, fns) in METRICS.items():
        source = self_s if kind == "s" else calls
        out[name] = sum(source.get(f, 0) for f in fns) / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for f, v in self_s.items()
                                     if f.split(".")[0] == layer) / passes
    return out
