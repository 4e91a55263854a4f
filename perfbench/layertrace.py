"""Outside-in span tracer for the k3carpets layers.

`Tracer.install` replaces each public function named in TARGETS by a thin
wrapper, under every name any k3carpets module binds it to (`carpets` and
`battery` import `propagate` and `chain` by name, so patching `exact_seq`
alone would miss their calls), and rebinds `battery.GROUPS` to wrapped
group functions.  A wrapper appends one (name, start, end, parent) span,
and for the few functions whose arguments or result feed a metric it
updates that metric's tally; spans are aggregated once, in `metrics`,
after the pass.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = {
    "cli": ("render",),
    "carpets": ("abstract_carpet_dim", "double_cover_k3_check", "hilbert_report",
                "carpet_report", "embedded_carpet_h0"),
    "exact_seq": ("propagate", "chain"),
    "cech_oracle": ("coh_oracle",),
    "line_cohomology": ("coh",),
}

COUNTED = ("exact_seq.propagate", "exact_seq.chain", "line_cohomology.coh",
           "carpets.abstract_carpet_dim", "carpets.double_cover_k3_check",
           "carpets.hilbert_report", "carpets.carpet_report",
           "carpets.embedded_carpet_h0", "cech_oracle.coh_oracle")
DISTINCT = ("line_cohomology.coh", "carpets.abstract_carpet_dim",
            "carpets.double_cover_k3_check")
SELF_TIMED = ("exact_seq.propagate", "exact_seq.chain", "line_cohomology.coh",
              "carpets.hilbert_report", "carpets.carpet_report",
              "carpets.embedded_carpet_h0", "cech_oracle.coh_oracle")
TOTAL_TIMED = ("carpets.hilbert_report", "carpets.carpet_report",
               "carpets.embedded_carpet_h0", "cli.render")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "k3carpets" or name.startswith("k3carpets.")]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.tightened = 0  # propagate calls whose result differs from their input
        self.box_rows = 0
        self.aliases: dict[str, list[str]] = {}  # span name -> patched "module.attr"
        self.originals: dict[str, object] = {}
        self.group_names: list[str] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = self._bookkeeping(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _bookkeeping(self, name: str):
        """What a wrapper records beyond its span, right after the call:
        keeping arguments or results for later would keep hundreds of
        thousands of objects alive, and the garbage collector's passes
        over them would cost more than the pass being traced."""
        if name == "exact_seq.propagate":
            def after(args, kwargs, result):
                self.tightened += result != (args[0] if args else kwargs["seq"])
        elif name == "cech_oracle.coh_oracle":
            from k3carpets import cech_oracle

            def after(args, kwargs, result):
                self.box_rows += _oracle_box_rows(cech_oracle, *args, **kwargs)
        elif name in DISTINCT:
            seen = self.distinct[name]

            def after(args, kwargs, result):
                seen.add((args, tuple(sorted(kwargs.items()))))
        else:
            after = None
        return after

    def _patch(self, name: str, fn, modules: list):
        wrapper = self._wrap(name, fn)
        self.originals[name] = fn
        self.aliases[name] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self.aliases[name].append(f"{module.__name__}.{attr}")
        return wrapper

    def install(self) -> None:
        """Wrap every target under all of its aliases (k3carpets must be
        imported completely first, `k3carpets.cli` included)."""
        modules = _package_modules()
        for layer, names in TARGETS.items():
            module = sys.modules[f"k3carpets.{layer}"]
            for fname in names:
                self._patch(f"{layer}.{fname}", getattr(module, fname), modules)
        battery = sys.modules["k3carpets.battery"]
        groups = []
        for label, fn in battery.GROUPS:
            name = f"battery.{fn.__name__}"
            self.group_names.append(name)
            groups.append((label, self._patch(name, fn, modules)))
        battery.GROUPS = tuple(groups)

    def call_counts(self) -> dict[str, int]:
        return dict(Counter(span[0] for span in self.spans))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (see README.md)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        in_children: defaultdict = defaultdict(float)
        propagate_in_chain = 0
        spans = self.spans
        for name, start, end, parent in spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                parent_name = spans[parent][0]
                in_children[parent_name] += end - start
                if name == "exact_seq.propagate" and parent_name == "exact_seq.chain":
                    propagate_in_chain += 1


        out: dict[str, float] = {}
        for name in COUNTED:
            out[f"{name}.calls"] = calls[name]
        for name in DISTINCT:
            out[f"{name}.distinct"] = len(self.distinct[name])
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = total[name] - in_children[name]
        for name in TOTAL_TIMED:
            out[f"{name}.total_s"] = total[name]
        for name in self.group_names:
            out[f"{name}.total_s"] = total[name]
        out["exact_seq.propagate.tightened"] = self.tightened
        chains = calls["exact_seq.chain"]
        out["exact_seq.chain.propagate_per_call"] = propagate_in_chain / chains if chains else 0
        out["cech_oracle.coh_oracle.box_rows"] = self.box_rows
        oracle_self = out["cech_oracle.coh_oracle.self_s"]
        out["cech_oracle.coh_oracle.ns_per_box_row"] = (
            oracle_self / self.box_rows * 1e9 if self.box_rows else 0)
        return out


def _oracle_box_rows(cech_oracle, surface, divisor, box=None, fan=None) -> int:
    """Rows the oracle's two box sweeps visit, computed from the public
    `default_box` (box and box + 3, each 2 * box + 1 rows)."""
    if box is None:
        box = cech_oracle.default_box(surface, cech_oracle.divisor_to_toric(surface, divisor))
    return (2 * box + 1) + (2 * (box + 3) + 1)


class CallCounter:
    """Independent call counts from `sys.setprofile`, keyed by code object;
    they must equal the tracer's `.calls` if every alias was patched."""

    def __init__(self, originals: dict[str, object]):
        self._codes = {fn.__code__: name for name, fn in originals.items()}
        self.counts: Counter = Counter()

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._codes.get(frame.f_code)
            if name is not None:
                self.counts[name] += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False
