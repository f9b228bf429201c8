"""Span tracing of sevrank's layers from outside the package.

`Tracer.install()` replaces every public function of each sevrank module
(the names in its `__all__`, plus every function defined in `cli`) with a
wrapper that records a span: name, start, end and the span that called
it.  Names bound elsewhere by `from ... import` and function objects held
in module-level dicts (such as the CLI's loader table) are patched too, so
`cli.preprocess` and `ensemble.lbfgs_minimize` are traced like the
originals.  `uninstall()` puts every original back.

A few hooks count work where it happens: vocabulary size, nnz, CG
residual, L-BFGS iterations, the distinct texts each CLI command
preprocesses and the distinct variants LIME asks its scorer for.  Hook
time is recorded as a `bench.hook` span so it is not charged to the
caller's self time.  An expected function that is missing or no longer
a function is listed in `absent` and otherwise ignored.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

MODULES = ("textproc", "corpus", "features", "regress", "evaluate",
           "optim", "ensemble", "explain", "cli")

HOOK = "bench.hook"
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    `spans` is a sequence of (name, start, end, parent) with parent the
    index of the enclosing span or -1.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def count_items(obj) -> int:
    """Rows in a call's input: 1 for one text or vector, else its length."""
    if isinstance(obj, str):
        return 1
    shape = getattr(obj, "shape", None)
    if isinstance(shape, tuple) and shape:
        return int(shape[0])
    if isinstance(obj, (list, tuple)):
        return len(obj)
    return 1


def _nnz(obj) -> int:
    if hasattr(obj, "nnz"):
        return int(obj.nnz)
    if hasattr(obj, "indices"):
        return len(obj.indices)
    if isinstance(obj, (list, tuple)):
        return sum(_nnz(x) for x in obj)
    return 0


def _coo(X):
    """(rows, cols, values, n, dim) of a list of sparse rows or a CSR batch."""
    import numpy as np

    if hasattr(X, "indptr"):
        n, dim = X.shape
        rows = np.repeat(np.arange(n), np.diff(X.indptr))
        return rows, np.asarray(X.indices), np.asarray(X.data), n, dim
    rows = np.concatenate([np.full(len(v.indices), i) for i, v in enumerate(X)])
    cols = np.concatenate([v.indices for v in X]).astype(np.int64)
    vals = np.concatenate([v.values for v in X])
    return rows, cols, vals, len(X), X[0].dim


def ridge_rel_residual(X, y, weights, alpha: float) -> float:
    """||X'(y - mean y) - (X'X + alpha I) w|| / ||X'(y - mean y)||."""
    import numpy as np

    rows, cols, vals, n, dim = _coo(X)
    yc = np.asarray(y, dtype=np.float64)
    yc = yc - yc.mean()
    b = np.bincount(cols, weights=vals * yc[rows], minlength=dim)
    xw = np.bincount(rows, weights=vals * weights[cols], minlength=n)
    ax = np.bincount(cols, weights=vals * xw[rows], minlength=dim) + alpha * weights
    b_norm = float(np.linalg.norm(b))
    return float(np.linalg.norm(b - ax)) / b_norm if b_norm else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._patched: list[tuple[object, str, object, object]] = []
        self._cmd_texts: set[str] = set()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def _hook(self, name: str):
        """Run a hook in its own span; a hook that no longer fits the
        function's signature is reported, never raised."""
        idx = self._open(HOOK)
        try:
            yield
        except _HOOK_ERRORS:
            self.hook_errors.add(name)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        pre = _PRE.get(name)
        post = _POST.get(name)
        items_of = _ITEMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                with self._hook(name):
                    args = pre(self, args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            with self._hook(name):
                self.items[name] += (
                    count_items(items_of(args, result)) if items_of else 1
                )
                if post is not None:
                    post(self, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, expected=()) -> None:
        """Wrap every traced function; `expected` names ("module.function")
        that cannot be wrapped are listed in `absent`."""
        modules = {m: importlib.import_module(f"sevrank.{m}") for m in MODULES}
        package = importlib.import_module("sevrank")
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            if short == "cli":
                names = [n for n, v in vars(module).items()
                         if inspect.isfunction(v) and v.__module__ == module.__name__
                         and n != "entry"]
            else:
                names = list(getattr(module, "__all__", ()))
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for qual in expected:
            short, name = qual.split(".")
            if not inspect.isfunction(getattr(modules[short], name, None)):
                self.absent.append(qual)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(module, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in wrappers:
                            self._patch(value, key, item, wrappers[id(item)])

    def _patch(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patched.append((owner, key, original, wrapper))

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds, calls and items."""
        out: dict[str, dict[str, float]] = {}
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
        for name, entry in out.items():
            entry["items"] = self.items.get(name, entry["calls"])
        return out


# -- hooks -------------------------------------------------------------------

def _pre_cmd(tracer: Tracer, args):
    tracer._cmd_texts = set()
    return args


def _pre_preprocess(tracer: Tracer, args):
    texts = [args[0]] if isinstance(args[0], str) else list(args[0])
    tracer.counters["cli.texts"] += len(texts)
    for text in texts:
        if text not in tracer._cmd_texts:
            tracer._cmd_texts.add(text)
            tracer.counters["cli.unique_texts"] += 1
    return args


def _pre_lime(tracer: Tracer, args):
    scorer = args[0]
    seen: set[str] = set()

    def counting_scorer(variants):
        batch = [variants] if isinstance(variants, str) else list(variants)
        tracer.counters["explain.scorer_calls"] += 1
        tracer.counters["explain.variants"] += len(batch)
        for v in batch:
            if v not in seen:
                seen.add(v)
                tracer.counters["explain.unique_variants"] += 1
        return scorer(variants)

    return (counting_scorer, *args[1:])


def _post_vocab(tracer: Tracer, args, kwargs, model) -> None:
    dim = getattr(model, "dim", None)
    if dim is not None:
        tracer.counters["features.vocab_size"] = max(
            tracer.counters["features.vocab_size"], int(dim))


def _post_transform(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["features.nnz"] += _nnz(result)


def _post_fit_ridge(tracer: Tracer, args, kwargs, model) -> None:
    X = args[0] if args else kwargs["X"]
    y = args[1] if len(args) > 1 else kwargs["y"]
    rel = ridge_rel_residual(X, y, model.weights, model.alpha)
    if math.isfinite(rel):
        key = "regress.fit_ridge.rel_residual"
        tracer.counters[key] = max(tracer.counters[key], rel)


def _post_lbfgs(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["optim.lbfgs_minimize.iterations"] += getattr(
        result, "iterations", 0)
    tracer.counters["optim.lbfgs_minimize.unconverged"] += int(
        not getattr(result, "converged", True))


_PRE = {
    "textproc.preprocess": _pre_preprocess,
    "explain.lime_explain": _pre_lime,
    **{f"cli.cmd_{c}": _pre_cmd for c in (
        "transform", "train", "score", "evaluate", "ensemble", "search",
        "explain")},
}
_POST = {
    "features.fit_tfidf": _post_vocab,
    "features.load_tfidf": _post_vocab,
    "features.transform": _post_transform,
    "regress.fit_ridge": _post_fit_ridge,
    "optim.lbfgs_minimize": _post_lbfgs,
}
_ITEMS = {
    "textproc.preprocess": lambda args, result: args[0],
    "features.transform": lambda args, result: args[1],
    "regress.predict": lambda args, result: args[1],
    "corpus.load_pairs": lambda args, result: result,
    "corpus.load_comments": lambda args, result: result,
    "corpus.load_labeled": lambda args, result: result,
}
