"""Layer tracing for the lsfan benchmark, installed from outside the library.

`Tracer.install()` replaces the public functions of each layer with timing
wrappers: in the defining module and in every `lsfan` module that imported
the same function object, and on the class for `WeylGroup`, `DCP`, `Setup`
and `UnderlineW` methods.  `uninstall()` puts the originals back.

Every wrapped call opens a span (key, start, end, parent, job id), stored in
flat arrays so that a million spans cost about 28 MB.  A call whose caller is
a span with the same key opens no span of its own: `bruhat_leq` recursing
into `mult`, or `dumps` inside another serializer, are time of the outer
call, which keeps the span count to the layer crossings.  Calls are counted
either way.  A key's time is the self time of its spans: duration minus the
durations of their child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# One entry per wrapped function: (module, attribute, span key).  An
# attribute "Class.method" is patched on the class.  Each key is one
# per-layer time metric, named key + "_s".
WEYL_QUERIES = (
    "mult inverse from_word reduced_word has_right_descent has_left_descent "
    "bruhat_leq parabolic_elements longest_in_parabolic is_q_minimal "
    "stabilizer_parabolic coset all_cosets max_rep coset_leq pi min_lift "
    "max_lift coset_fiber is_lift_minimal is_lift_maximal deodhar_max_lift "
    "deodhar_min_lift covers_down covering_root product_decomposition "
    "bruhat_interval_cover simple_reflection reflection elements"
).split()

IO_FUNCTIONS = (
    "dumps word_of coset_to_json path_to_json tableau_to_json dcp_node_ids "
    "dcp_to_json fan_vector_to_json underline_w_to_json dcp_to_dot "
    "underline_w_to_dot"
).split()

TARGETS = (
    [
        ("lsfan.rootdata", "build_root_datum", "rootdata.build"),
        ("lsfan.weyl", "WeylGroup.__init__", "weyl.build"),
    ]
    + [("lsfan.weyl", f"WeylGroup.{name}", "weyl.query") for name in WEYL_QUERIES]
    + [
        ("lsfan.dcp", "Setup.__init__", "dcp.setup"),
        ("lsfan.dcp", "UnderlineW.__init__", "dcp.underline"),
        ("lsfan.dcp", "UnderlineW.covers", "dcp.underline"),
        ("lsfan.dcp", "UnderlineW.geq", "dcp.underline"),
        ("lsfan.dcp", "UnderlineW.generating_geq", "dcp.underline"),
        ("lsfan.dcp", "build_dcp_inductive", "dcp.build"),
        ("lsfan.dcp", "build_dcp_direct_w0", "dcp.build"),
        ("lsfan.dcp", "tau_standardness_report", "dcp.standardness"),
        ("lsfan.dcp", "DCP.maximal_chains", "dcp.chains"),
        ("lsfan.dcp", "rho_map", "dcp.rho"),
        ("lsfan.lspath", "enumerate_ls_paths", "lspath.enumerate"),
        ("lsfan.lspath", "validate_ls_path", "lspath.validate"),
        ("lsfan.tableaux", "enumerate_standard", "tableaux.enumerate"),
        ("lsfan.tableaux", "tableau_endpoint", "tableaux.endpoint"),
        ("lsfan.fan", "theta_d", "fan.theta"),
        ("lsfan.fan", "theta_d_inverse", "fan.theta_inverse"),
        ("lsfan.fan", "enumerate_fan_degree", "fan.enumerate"),
        ("lsfan.fan", "in_ls_plus", "fan.membership"),
        ("lsfan.fan", "hilbert_multidegrees", "fan.hilbert_fit"),
        ("lsfan.fan", "multidegree_conjecture_check", "fan.conjecture"),
        ("lsfan.demazure", "demazure_character", "demazure.character"),
        ("lsfan.demazure", "demazure_dimension", "demazure.dimension"),
        ("lsfan.demazure", "weyl_dimension", "demazure.dimension"),
    ]
    + [("lsfan.io", name, "io.serialize") for name in IO_FUNCTIONS]
)

# The span that each job runs in; its self time is job time no layer covers.
JOB_KEY = "cli.self"

TIME_KEYS = tuple(dict.fromkeys([key for _, _, key in TARGETS] + [JOB_KEY]))

# Per-layer count metrics taken from call counts of one wrapped attribute.
CALL_METRICS = {
    "weyl.builds": ("WeylGroup.__init__",),
    "weyl.mult_calls": ("WeylGroup.mult",),
    "weyl.bruhat_calls": ("WeylGroup.bruhat_leq",),
    "weyl.coset_calls": ("WeylGroup.coset",),
    "dcp.chains_calls": ("DCP.maximal_chains",),
    "dcp.rho_calls": ("rho_map",),
    "lspath.validate_calls": ("validate_ls_path",),
    "fan.theta_calls": ("theta_d",),
    "fan.theta_inverse_calls": ("theta_d_inverse",),
    "demazure.calls": ("demazure_character", "demazure_dimension", "weyl_dimension"),
}


def self_times(spans):
    """Self time of each span: its duration minus its children's durations.

    `spans` is a sequence of (start, end, parent) with parent the index of the
    enclosing span or -1.  Children lie inside their parent's interval.
    """
    spans = list(spans)
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Spans and counters of one traced pass over a workload."""

    def __init__(self):
        self.key_names: list[str] = []
        self.key_ids: dict[str, int] = {}
        self.span_key = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack = [-1]  # open span indices, -1 for "none"
        self.stack_keys = [-1]  # their key ids
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def key_id(self, key: str) -> int:
        kid = self.key_ids.get(key)
        if kid is None:
            kid = self.key_ids[key] = len(self.key_names)
            self.key_names.append(key)
        return kid

    def open(self, kid: int) -> int:
        idx = len(self.span_key)
        self.span_key.append(kid)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self.stack[-1])
        self.span_job.append(self.job)
        self.stack.append(idx)
        self.stack_keys.append(kid)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()
        self.stack_keys.pop()

    def layer(self, kid: int) -> str:
        """The layer of a span key id: "fan" for "fan.theta"."""
        return self.key_names[kid].split(".")[0] if kid >= 0 else ""

    def run_job(self, job: int, fn, *args):
        """Call fn(*args) inside the root span of job number `job`."""
        self.job = job
        idx = self.open(self.key_id(JOB_KEY))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.job = -1

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, fn, label: str, key: str):
        tracer = self
        kid = self.key_id(key)
        calls = self.calls
        stack_keys = self.stack_keys
        before, after = self._hooks(label)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            if stack_keys[-1] == kid:
                return fn(*args, **kwargs)
            caller = tracer.layer(stack_keys[-1])
            if before:
                before(caller)
            idx = tracer.open(kid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(result, caller)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, label: str):
        """Counts taken before a call from its caller's layer, or after it
        from its result; (before, after) with None for no hook."""
        counts = self.counts

        def dcp_built(dcp, caller):
            counts["dcp.nodes"] += len(dcp.nodes)
            counts["dcp.edges"] += len(dcp.edges)

        def chains(result, caller):
            counts["dcp.chains_listed"] += len(result)
            if caller == "fan":
                counts["fan.chains_listed"] += len(result)

        def lift(caller):
            if caller == "tableaux":
                counts["tableaux.lift_calls"] += 1

        def sized(name):
            def after(result, caller):
                counts[name] += len(result)
            return after

        return {
            "build_dcp_inductive": (None, dcp_built),
            "build_dcp_direct_w0": (None, dcp_built),
            "DCP.maximal_chains": (None, chains),
            "WeylGroup.deodhar_max_lift": (lift, None),
            "WeylGroup.deodhar_min_lift": (lift, None),
            "enumerate_standard": (None, sized("tableaux.count")),
            "enumerate_fan_degree": (None, sized("fan.vectors")),
            "enumerate_ls_paths": (None, sized("lspath.paths_kept")),
        }.get(label, (None, None))

    def _count_lattice_points(self, fn):
        """chain_lattice_points, counting the tuples it yields when called
        under enumerate_ls_paths.  It is a generator, so it opens no span:
        its time belongs to the span that iterates it."""
        tracer = self
        counts = self.counts
        kid = self.key_id("lspath.enumerate")

        def counted(gen):
            for item in gen:
                counts["lspath.lattice_points"] += 1
                yield item

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return counted(gen) if tracer.stack_keys[-1] == kid else gen

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        import lsfan.cli  # noqa: F401  (loads every lsfan module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lsfan" or name.startswith("lsfan.")]
        for module_name, attr, key in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, original, self._wrap(original, attr, key))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(modules, original,
                                       self._wrap(original, attr, key))
        original = sys.modules["lsfan.lspath"].chain_lattice_points
        self._patch_everywhere(modules, original,
                               self._count_lattice_points(original))

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, original, wrapper)

    def _set(self, owner, name, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def times_s(self) -> dict[str, float]:
        """Self time per span key, in seconds.  They add up to the time of
        the job spans, exactly in nanoseconds, or this raises."""
        spans = list(zip(self.span_start, self.span_end, self.span_parent))
        totals = dict.fromkeys(TIME_KEYS, 0)
        for kid, t in zip(self.span_key, self_times(spans)):
            totals[self.key_names[kid]] += t
        jobs = sum(end - start for start, end, parent in spans if parent < 0)
        if sum(totals.values()) != jobs:
            raise ValueError("self times do not add up to the job time")
        return {key: ns / 1e9 for key, ns in totals.items()}

    def all_counts(self) -> dict[str, int]:
        """Every count the pass produced: call counts and result counts."""
        out = {f"calls.{label}": n for label, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def layer_counts(self) -> dict[str, int]:
        out = {name: sum(self.calls.get(label, 0) for label in labels)
               for name, labels in CALL_METRICS.items()}
        for name in ("dcp.nodes", "dcp.edges", "dcp.chains_listed",
                     "fan.chains_listed", "fan.vectors", "lspath.paths_kept",
                     "lspath.lattice_points", "tableaux.count",
                     "tableaux.lift_calls"):
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path) -> int:
        """Write the spans as gzipped JSON lines, one [key, start_ns, end_ns,
        parent, job] list per span after a header line; returns the span
        count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"keys": self.key_names,
                                 "fields": ["key", "start_ns", "end_ns",
                                            "parent", "job"]}) + "\n")
            for row in zip(self.span_key, self.span_start, self.span_end,
                           self.span_parent, self.span_job):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
        return len(self.span_key)
