"""Layer spans and operation counters, installed from outside the package.

Each layer function is wrapped where it is looked up: a module-level name
that the caller reads at call time (``singular.screen_block_zero_kernel`` is
called by ``verify_bound`` through ``singular``'s globals; the CLI reads
``check_jacobi_closure`` from its own namespace), or a class attribute.
Nothing under ``src/`` is edited.

A span is (name, start, end, parent index).  Spans are kept in memory and
written with the pass result.  A layer's self time is its spans' durations
minus the time their direct child spans cover; ``layer_metrics`` turns the
spans and counts of a traced pass into the per-layer metrics.

Per-operation counters (every Q(i) ``+ - * /``, every contact bracket) run
in a pass of their own, so their wrappers do not inflate the span self
times.
"""

from __future__ import annotations

import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    """Records layer spans and the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._screened_blocks: set[int] = set()

    def wrap(self, name, fn, on_result=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's
        arguments.  ``on_result(args, result)`` runs after the span ends."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                label = name(args) if callable(name) else name
                spans[sid] = (label, start, end, parent)
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    # -- per-layer count hooks --------------------------------------------

    def _screen_name(self, args) -> str:
        block = args[0]
        if id(block) in self._screened_blocks:
            return "singular.screen_repeat"
        self._screened_blocks.add(id(block))
        return "singular.screen_first"

    def _on_assemble(self, args, block) -> None:
        c = self.counts
        c["singular.assemble_calls"] += 1
        c["singular.block_rows"] += block.nrows
        c["singular.block_cols"] += block.ncols
        c["singular.block_nnz"] += len(block.r_idx)

    def _on_screen(self, args, certified) -> None:
        self.counts["singular.screen_calls"] += 1
        self.counts["singular.screen_certified"] += bool(certified)

    def _on_exact(self, args, basis) -> None:
        self.counts["singular.exact_kernel_calls"] += 1
        self.counts["singular.kernel_dim_total"] += len(basis)
        self.counts["singular.exact_empty"] += not basis

    def _on_audit(self, args, report) -> None:
        self.counts["singular.audit_calls"] += 1

    def _on_commutator(self, args, report) -> None:
        self.counts["verma.pairs_checked"] += report["pairs_checked"]

    def install(self) -> None:
        """Wrap every layer function of the package for this process."""
        from e16verma import cli, gmodule, singular, verma

        patches = [
            (singular, "assemble_degree_block", "singular.assemble", self._on_assemble),
            (singular, "screen_block_zero_kernel", self._screen_name, self._on_screen),
            (singular, "exact_block_kernel", "singular.exact_kernel", self._on_exact),
            (singular, "nullspace", "linalg.nullspace", None),
            (singular, "kernel_vector_to_verma", "singular.recheck", None),
            (singular, "conditions_hold", "singular.recheck", None),
            (singular, "shape_compliant", "singular.recheck", None),
            (singular, "audit_technical_identities", "singular.audit", self._on_audit),
            (cli, "check_jacobi_closure", "contact.jacobi_closure", None),
            (cli, "check_L1_L2_L3", "contact.grading", None),
            (cli, "check_root_system", "contact.root_system", None),
            (cli, "reproduce_proof_steps", "singular.reproduce_proof", None),
            (cli, "render_report", "cli.render", None),
            (cli, "builtin", "gmodule.builtin", None),
            (gmodule, "builtin", "gmodule.builtin", None),
            (verma, "commutator_suite", "verma.commutator_suite", self._on_commutator),
            (verma.ActionMatrixSlice, "matrices", "verma.action_slice", None),
        ]
        for owner, attr, name, hook in patches:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))


class OpCounter:
    """Counts Q(i) arithmetic and contact brackets; records no time."""

    QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        from e16verma import contact, gmodule
        from e16verma.exactnum import GaussianRational

        for op in self.QI_OPS:
            setattr(GaussianRational, op,
                    self._counted("exactnum.qi_ops", getattr(GaussianRational, op)))
        bracket = self._counted("contact.bracket_calls", contact.contact_bracket)
        contact.contact_bracket = bracket
        gmodule.contact_bracket = bracket


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------

SPAN_METRICS = (
    "singular.assemble", "singular.screen_first", "singular.screen_repeat",
    "singular.exact_kernel", "linalg.nullspace", "singular.recheck",
    "singular.audit", "contact.jacobi_closure", "contact.grading",
    "contact.root_system", "verma.commutator_suite", "verma.action_slice",
    "singular.reproduce_proof", "gmodule.builtin", "cli.render",
)
COUNT_METRICS = (
    "singular.assemble_calls", "singular.block_rows", "singular.block_cols",
    "singular.block_nnz", "singular.screen_calls", "singular.screen_certified",
    "singular.exact_kernel_calls", "singular.kernel_dim_total",
    "singular.audit_calls", "verma.pairs_checked",
)
OP_METRICS = ("exactnum.qi_ops", "contact.bracket_calls")


def self_times(spans: list) -> dict[str, float]:
    """Sum of self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start - covered)
    return out


def layer_metrics(traced: dict, untraced_wall: float, op_counts: dict) -> dict:
    """Per-layer metrics of one traced run: self seconds per layer, counts,
    ratios, the tracing overhead and the time no layer span covers."""
    selfs = self_times(traced["spans"])
    counts = Counter(traced["counts"])
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        out[name + "_s"] = (selfs.get(name, 0.0), "s")
    for name in COUNT_METRICS:
        out[name] = (counts[name], "count")
    for name in OP_METRICS:
        out[name] = (op_counts.get(name, 0), "count")
    calls = counts["singular.screen_calls"]
    out["singular.screen_hit_ratio"] = (
        counts["singular.screen_certified"] / calls if calls else 0.0, "ratio")
    calls = counts["singular.exact_kernel_calls"]
    out["singular.exact_empty_ratio"] = (
        counts["singular.exact_empty"] / calls if calls else 0.0, "ratio")
    out["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    out["trace.remainder_s"] = (traced["wall_s"] - sum(selfs.values()), "s")
    return out
