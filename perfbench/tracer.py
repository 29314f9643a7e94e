"""Per-layer spans taken from outside the program.

`Tracer.install()` rebinds every traced public function, in every
`gtyangian` module namespace that holds it (its own module included, so calls
inside a module are seen as well), to a recording wrapper; `uninstall()` puts
the originals back. Each span records its name, start, end, parent and the
job it belongs to. A tracer serves one pass: spans stay in memory, and
`summarize()` turns them into the pass's per-layer metrics.

Two times are reported per function:

- `<layer>.<fn>.s` is the function's stage time: the time inside its calls
  less the time spent in nested calls of other pipeline-stage functions (every
  layer but `exact`). `exact` kernels count toward the stage that called them,
  and, for `exact.<fn>.s`, toward themselves. So the stage times of one job
  add up to its duration minus `cli.self_s`.
- `<layer>.self_s` is the layer's exclusive time: span durations less the time
  covered by their child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# layer -> public functions rebound at every import boundary
TRACED = {
    "patterns": (
        "parse_weight", "is_covariant", "enumerate_patterns", "enumerate_skew_patterns",
        "check_admissible", "top_pattern", "pattern_shift", "zz_key",
    ),
    "glmod": ("build_module", "singular_subspace"),
    "yangian": (
        "evaluation_action", "tensor_action", "skew_action", "gt_series",
        "berezinian_factors", "berezinian_direct_point", "verify_gt_lemmas",
        "coefficient_matrices",
    ),
    "spectra": ("gt_spectrum", "is_simple", "build_xi"),
    "drinfeld": ("highest_weight_series", "drinfeld_of_tensor", "strong_noncrossing"),
    "exact": ("rf_from_samples", "rref", "nullspace", "rank", "mat_inv", "rf_matrix_inverse"),
}
MODULES = ("cli",) + tuple(TRACED)
KERNEL_LAYER = "exact"
ROOT = "cli.main"
SERIES_FN = "yangian.gt_series"
SAMPLES_FN = "exact.rf_from_samples"


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, fns in TRACED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [
        ("cli.self_s", "s", "lower"),
        (f"{SAMPLES_FN}.ok_ratio", "ratio", "higher"),
        ("exact.series.entries", "count", "lower"),
        ("exact.series.num_deg_max", "count", "lower"),
        ("exact.series.den_deg_max", "count", "lower"),
        ("exact.series.coeff_bits", "bit", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, raised]
        self.series = {}  # id -> every distinct d/x/y series dict returned, kept alive
        self._stack = []
        self._job = None
        self._saved = []

    def install(self):
        mods = [importlib.import_module(f"gtyangian.{m}") for m in MODULES]
        originals = {}
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"gtyangian.{layer}")
            for fn in fns:
                orig = getattr(home, fn)
                originals[id(orig)] = self._wrap(f"{layer}.{fn}", orig)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, val in self._saved:
            setattr(mod, attr, val)
        self._saved = []

    def run_job(self, job, call):
        """Run call() as one job under a root span."""
        self._job = job
        return self._wrap(ROOT, call)()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep_result = name == SERIES_FN

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, False]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep_result:
                self.series.setdefault(id(result), result)
            return result

        return traced

    def summarize(self):
        """Per-layer metrics of the traced pass, plus per-command stage times."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        layer = [s[0].split(".", 1)[0] for s in spans]
        is_stage = [lay not in (KERNEL_LAYER, "cli") for lay in layer]
        child = [0.0] * n
        stage_child = [0.0] * n
        nearest_stage = [-1] * n  # nearest enclosing stage or root span
        kernel_outer = [True] * n  # no enclosing span of the same kernel function
        for i, s in enumerate(spans):
            p = s[3]
            if p < 0:
                continue
            child[p] += dur[i]
            nearest_stage[i] = p if is_stage[p] or spans[p][0] == ROOT else nearest_stage[p]
            if not is_stage[i]:
                q = p
                while q >= 0 and kernel_outer[i]:
                    kernel_outer[i] = spans[q][0] != s[0]
                    q = spans[q][3]
            if is_stage[i] and nearest_stage[i] >= 0:
                stage_child[nearest_stage[i]] += dur[i]
        calls = defaultdict(int)
        secs = defaultdict(float)
        self_s = defaultdict(float)
        raised = defaultdict(int)
        per_command = defaultdict(lambda: defaultdict(float))
        root_of = [-1] * n
        for i, s in enumerate(spans):
            name = s[0]
            self_s[layer[i]] += dur[i] - child[i]
            root_of[i] = i if s[3] < 0 else root_of[s[3]]
            if name == ROOT:
                continue
            calls[name] += 1
            raised[name] += s[5]
            if is_stage[i]:
                t = dur[i] - stage_child[i]
            else:
                t = dur[i] if kernel_outer[i] else 0.0
            secs[name] += t
            per_command[_command(spans[root_of[i]][4])][name] += t
        out = {}
        for lay, fns in TRACED.items():
            for fn in fns:
                out[f"{lay}.{fn}.calls"] = calls[f"{lay}.{fn}"]
                out[f"{lay}.{fn}.s"] = secs[f"{lay}.{fn}"]
            out[f"{lay}.self_s"] = self_s[lay]
        out["cli.self_s"] = self_s["cli"]
        attempts = calls[SAMPLES_FN]
        out[f"{SAMPLES_FN}.ok_ratio"] = (attempts - raised[SAMPLES_FN]) / attempts if attempts else 1.0
        out.update(series_size(self.series.values()))
        return out, {cmd: dict(times) for cmd, times in per_command.items()}


def _command(job) -> str:
    if job[0] == "verify":
        return f"verify {job[job.index('--suite') + 1]}"
    return job[0]


def series_size(all_series):
    """Size counts of d/x/y series dicts: nonzero entries and the bits of
    every coefficient (summed), the largest numerator and denominator degrees."""
    entries = num_deg = den_deg = bits = 0
    for series in all_series:
        for mat in series.values():
            for f in mat.entries.values():
                entries += 1
                num_deg = max(num_deg, f.num.degree)
                den_deg = max(den_deg, f.den.degree)
                for c in f.num.coeffs + f.den.coeffs:
                    bits += c.numerator.bit_length() + c.denominator.bit_length()
    return {
        "exact.series.entries": entries,
        "exact.series.num_deg_max": num_deg,
        "exact.series.den_deg_max": den_deg,
        "exact.series.coeff_bits": bits,
    }
