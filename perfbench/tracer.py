"""Spans and counters around the program's layers, installed from outside.

Nothing here edits the program's files.  ``install`` replaces public
functions where their callers look them up (every ``skewgin`` module that
holds the same function object under some name) and hot methods on their
classes.  Spans are kept in memory and written once, when the pass ends;
``aggregate`` turns them into the per-layer metrics.

A span is ``[name_id, start, end, parent, run]``: ``parent`` is the index
of the enclosing span or -1, and ``run`` numbers the CLI command the span
belongs to.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time

# Every per-layer metric, in report order, with its unit.  BENCHMARK.json
# lists the same names; a layer the workload does not reach reads 0.
PER_LAYER = [
    ("cli.validate.wall_s", "s"), ("cli.invariance.wall_s", "s"),
    ("cli.ginzburg.wall_s", "s"), ("cli.reduce.wall_s", "s"),
    ("cli.transport.wall_s", "s"), ("cli.verify.wall_s", "s"),
    ("cli.weyl.wall_s", "s"),
    ("document.parse_s", "s"),
    ("morita.build_morita_s", "s"),
    ("morita.check_embedding_s", "s"), ("morita.check_embedding.self_s", "s"),
    ("morita.check_fullness_s", "s"),
    ("morita.transport_potential_s", "s"), ("morita.transport_potential.self_s", "s"),
    ("morita.dimension_check_s", "s"),
    ("action.extend_to_ginzburg_s", "s"),
    ("action.act_path.calls", "count"), ("action.act_path.hit_ratio", "ratio"),
    ("ginzburg.ginzburg_s", "s"), ("ginzburg.check_d_squared_s", "s"),
    ("ginzburg.jacobian_truncation_s", "s"),
    ("crossed.mul.calls", "count"), ("crossed.mul_s", "s"),
    ("crossed.commutator_basis_s", "s"), ("crossed.commutators", "count"),
    ("crossed.expand_certificate_s", "s"), ("crossed.certificate_len", "count"),
    ("linalg.busy_s", "s"), ("linalg.add.calls", "count"),
    ("linalg.add.enlarged", "count"), ("linalg.add.useful_ratio", "ratio"),
    ("linalg.express.calls", "count"), ("linalg.final_rank", "count"),
    ("fields.calls", "count"), ("fields.inv.calls", "count"),
    ("quiver.algelement_mul.calls", "count"), ("quiver.basis_up_to_s", "s"),
    ("weyl.bounded_exactness_s", "s"), ("weyl.dual_top_concentration_s", "s"),
    ("weyl.check_sp_equivariance_s", "s"), ("weyl.mul.calls", "count"),
    ("weyl.koszul_differential.calls", "count"),
    ("trace.overhead_s", "s"),
]

# Ratios and the count each is taken over.
RATIO_BASES = {
    "action.act_path.hit_ratio": "action.act_path.calls",
    "linalg.add.useful_ratio": "linalg.add.calls",
}

# (span name, module, function): timed where callers look the function up.
SPANNED_FUNCTIONS = [
    ("document.parse", "skewgin.document", "parse"),
    ("morita.build_morita", "skewgin.morita", "build_morita"),
    ("morita.check_embedding", "skewgin.morita", "check_embedding"),
    ("morita.check_fullness", "skewgin.morita", "check_fullness"),
    ("morita.transport_potential", "skewgin.morita", "transport_potential"),
    ("morita.dimension_check", "skewgin.morita", "morita_dimension_check"),
    ("action.extend_to_ginzburg", "skewgin.action", "extend_to_ginzburg"),
    ("ginzburg.ginzburg", "skewgin.ginzburg", "ginzburg"),
    ("ginzburg.check_d_squared", "skewgin.ginzburg", "check_d_squared"),
    ("ginzburg.jacobian_truncation", "skewgin.ginzburg", "jacobian_truncation"),
    ("crossed.commutator_basis", "skewgin.crossed", "commutator_basis"),
    ("crossed.expand_certificate", "skewgin.crossed", "expand_certificate"),
    ("linalg.invert_matrix", "skewgin.linalg", "invert_matrix"),
    ("quiver.basis_up_to", "skewgin.quiver", "basis_up_to"),
    ("weyl.bounded_exactness", "skewgin.weyl", "bounded_exactness"),
    ("weyl.dual_top_concentration", "skewgin.weyl", "dual_top_concentration"),
    ("weyl.check_sp_equivariance", "skewgin.weyl", "check_sp_equivariance"),
]

# (span name, module, class, method): timed on the class.
SPANNED_METHODS = [
    ("crossed.mul", "skewgin.crossed", "CrossedElement", "__mul__"),
    ("linalg.add", "skewgin.linalg", "LinSolver", "add"),
    ("linalg.express", "skewgin.linalg", "LinSolver", "express"),
    ("linalg.residual", "skewgin.linalg", "LinSolver", "residual"),
    ("linalg.contains", "skewgin.linalg", "LinSolver", "contains"),
]

# (counter, module, class, method): counted only, these run millions of times.
COUNTED_METHODS = [
    ("quiver.algelement_mul", "skewgin.quiver", "AlgElement", "__mul__"),
    ("weyl.mul", "skewgin.weyl", "WeylAlgebra", "mul"),
] + [(f"fields.{m}", "skewgin.fields", "Field", m)
     for m in ("zero", "one", "from_int", "add", "sub", "neg", "mul", "inv", "div", "pow")]

COUNTED_FUNCTIONS = [
    ("weyl.koszul_differential", "skewgin.weyl", "koszul_differential"),
]


class Tracer:
    """In-memory spans and counters for one pass over a command list."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self.run = 0
        self._cells = {}
        self.missing = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def cell(self, name):
        """The one-element list holding counter ``name``; hot wrappers keep it."""
        return self._cells.setdefault(name, [0])

    def bump(self, name, amount=1):
        self.cell(name)[0] += amount

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) may update counters."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        cell = self.cell(name)

        def counting(*args):
            cell[0] += 1
            return fn(*args)

        counting.__wrapped__ = fn
        return counting

    def command(self, argv, fn):
        """Run fn() as CLI command number ``run`` inside its own span."""
        self.run += 1
        return self.span("cli." + (argv[0] if argv else ""), fn)()

    def counters(self):
        return {name: cell[0] for name, cell in self._cells.items()}

    def dump(self):
        return {"names": self.names, "spans": self.spans, "counters": self.counters(),
                "missing_hooks": self.missing}


def _patch_function(tracer, module_name, attr, wrapper_for):
    """Replace a function in every skewgin module that refers to it."""
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None) if module is not None else None
    if original is None:
        tracer.missing.append(f"{module_name}.{attr}")
        return
    wrapper = wrapper_for(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "skewgin" or name.startswith("skewgin.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer, module_name, cls_name, attr, wrapper_for):
    cls = getattr(sys.modules.get(module_name), cls_name, None)
    original = cls.__dict__.get(attr) if cls is not None else None
    if original is None:
        tracer.missing.append(f"{module_name}.{cls_name}.{attr}")
        return
    setattr(cls, attr, wrapper_for(original))


def install(tracer):
    """Wrap the layers of an imported ``skewgin`` package."""
    import skewgin  # noqa: F401  (loads every module install looks up)
    import skewgin.cli  # noqa: F401

    after = {
        "crossed.commutator_basis":
            lambda args, result: tracer.bump("crossed.commutators", len(result)),
        "crossed.expand_certificate":
            lambda args, result: tracer.bump("crossed.certificate_len", len(args[1])),
    }
    for name, module, attr in SPANNED_FUNCTIONS:
        _patch_function(tracer, module, attr,
                        lambda fn, name=name: tracer.span(name, fn, after.get(name)))

    enlarged, final_rank = tracer.cell("linalg.add.enlarged"), tracer.cell("linalg.final_rank")

    def after_add(args, grew):
        if grew:
            enlarged[0] += 1
            final_rank[0] = max(final_rank[0], len(args[0].rows))

    after["linalg.add"] = after_add
    for name, module, cls, attr in SPANNED_METHODS:
        _patch_method(tracer, module, cls, attr,
                      lambda fn, name=name: tracer.span(name, fn, after.get(name)))

    for name, module, cls, attr in COUNTED_METHODS:
        _patch_method(tracer, module, cls, attr,
                      lambda fn, name=name: tracer.counted(name, fn))
    for name, module, attr in COUNTED_FUNCTIONS:
        _patch_function(tracer, module, attr,
                        lambda fn, name=name: tracer.counted(name, fn))

    hits, calls = tracer.cell("action.act_path.hits"), tracer.cell("action.act_path")

    def act_path_for(fn):
        def act_path(self, g, path):
            calls[0] += 1
            if (g, path) in getattr(self, "_path_cache", ()):
                hits[0] += 1
            return fn(self, g, path)
        act_path.__wrapped__ = fn
        return act_path

    _patch_method(tracer, "skewgin.action", "QuiverAction", "act_path", act_path_for)


def _outside(spans, idx, same):
    """True when no enclosing span of idx satisfies same(name_id)."""
    enclosing = spans[idx][3]
    while enclosing >= 0:
        if same(spans[enclosing][0]):
            return False
        enclosing = spans[enclosing][3]
    return True


def aggregate(dump, untraced_wall_s, traced_wall_s):
    """Per-layer metrics from one traced pass.

    A ``<span>_s`` metric sums the spans of that name that no span of the
    same name encloses; ``linalg.busy_s`` sums the linalg spans that no
    other linalg span encloses, so nested calls count once.
    """
    names, spans, counters = dump["names"], dump["spans"], dump["counters"]
    linalg = {i for i, n in enumerate(names) if n.startswith("linalg.")}
    total = {}
    child_time = [0.0] * len(spans)
    span_count = {}
    for idx, (nid, start, end, parent, _run) in enumerate(spans):
        name, duration = names[nid], end - start
        if parent >= 0:
            child_time[parent] += duration
        span_count[name] = span_count.get(name, 0) + 1
        if _outside(spans, idx, lambda other: other == nid):
            total[name] = total.get(name, 0.0) + duration
        if nid in linalg and _outside(spans, idx, lambda other: other in linalg):
            total["linalg.busy"] = total.get("linalg.busy", 0.0) + duration
    self_time = {}
    for idx, (nid, start, end, _parent, _run) in enumerate(spans):
        self_time[names[nid]] = self_time.get(names[nid], 0.0) + (end - start) - child_time[idx]

    def share(part, base):
        return part / base if base else 0.0

    special = {
        "fields.calls": sum(v for k, v in counters.items() if k.startswith("fields.")),
        "action.act_path.hit_ratio": share(counters.get("action.act_path.hits", 0),
                                           counters.get("action.act_path", 0)),
        "linalg.add.useful_ratio": share(counters.get("linalg.add.enlarged", 0),
                                         span_count.get("linalg.add", 0)),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    values = {}
    for name, _unit in PER_LAYER:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".wall_s"):  # cli.<command>.wall_s
            values[name] = total.get(name[:-len(".wall_s")], 0.0)
        elif name.endswith(".self_s"):
            values[name] = self_time.get(name[:-len(".self_s")], 0.0)
        elif name.endswith("_s"):
            values[name] = total.get(name[:-len("_s")], 0.0)
        elif name.endswith(".calls"):  # spans or counted calls of one function
            base = name[:-len(".calls")]
            values[name] = span_count.get(base, 0) + counters.get(base, 0)
        else:
            values[name] = counters.get(name, 0)
    return values
