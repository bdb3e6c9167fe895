"""Outside-in tracer: spans around galorb's public functions, recorded
from the benchmark's own code without editing the program.

``Tracer.install()`` wraps every public function of each layer module and
rebinds every module-level name that refers to it, in every loaded
galorb module: ``galorb.permgroup.group_order`` and the copies that
``from ... import`` left in ``galorb.cli``, ``galorb.chartab`` or the
package namespace all point at one wrapper.  Calls a module makes to its
own functions go through the module globals, so they are traced too.
``uninstall()`` puts every original back.

A span is (function id, start, end, parent span, item, extra); spans
live in a list until ``export()``.  ``extra`` is a count taken at the
boundary from the call's result, for the counters that need one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

LAYERS = ("cyclotomic", "permgroup", "classtheory", "chartab", "altcount",
          "screening", "matgroup", "numutil", "cli")

# Element-level primitives, called up to millions of times per pass; a
# span costs more than the call, so their time stays with the caller.
PRIMITIVES = {
    "permgroup": {"identity_perm", "pmul", "pinv", "ppow", "cycles",
                  "perm_order", "parity"},
    "numutil": {"is_prime"},
}

# CyclotomicNumber arithmetic, traced as cyclotomic.CyclotomicNumber.<op>.
CYCLOTOMIC_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                        "__mul__", "__rmul__", "__pow__")


def _screen_counts(args, kwargs, res):
    return [len(res.rows), sum(1 for r in res.rows if r.phi is not None)]


# Counters read from a call's arguments and result, keyed by span name.
EXTRA = {
    "permgroup.conjugacy_classes": lambda a, k, res: res.group_order,
    "classtheory.analyze": lambda a, k, res: res.num_classes,
    "chartab.parse_table": lambda a, k, res: res.num_classes ** 2,
    "altcount.frobenius_rank": lambda a, k, res: [a[0], res],
    "screening.exception_set": _screen_counts,
    "matgroup.element_order": lambda a, k, res: res,
}


def layer_of(name: str) -> str:
    """Layer of a span name; the per-item root span belongs to cli."""
    return "cli" if name == "item" else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = ["item"]
        self.spans: list = []
        self._stack: list[int] = []
        self._item = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (fid, t0, clock(), parent, tracer._item, 0)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (fid, t0, t1, parent, tracer._item,
                          extra(args, kwargs, res) if extra else 0)
            return res

        return wrapper

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"galorb.{layer}")
            skip = PRIMITIVES.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "galorb" or mod_name.startswith("galorb.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = importlib.import_module("galorb.cyclotomic").CyclotomicNumber
        for op in CYCLOTOMIC_OPERATORS:
            orig = vars(cls)[op]
            self._patched.append((cls, op, orig))
            setattr(cls, op, self._wrap(f"cyclotomic.CyclotomicNumber.{op}", orig))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- items ---------------------------------------------------------------

    @contextlib.contextmanager
    def item(self, index: int):
        """Root span of one workload item; its self time is the cli
        layer's share that no library span covers."""
        self._item = index
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, t0, t1, -1, index, 0)
            self._item = -1

    def export(self) -> dict:
        return {"names": list(self.names), "spans": [list(s) for s in self.spans]}
