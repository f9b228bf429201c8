"""Benchmark of the sevrank CLI on a seeded synthetic corpus.

    python3 bench/run.py --workload fit|score --seed N --seconds S --trace 0|1

Run from a source checkout: the program under test is `src/sevrank` next
to this directory; nothing is installed.  A run first trains the scoring
model and scores a text pool (prep, not sampled), then times a one-row
call of the workload's first command several times (set-up), then runs
rounds until --seconds have passed.  A round is every CLI command once,
in pipeline order: transform, train, search, score, evaluate, ensemble,
explain.  The workload decides the input sizes.  Calls run one at a time
as child processes (a closed loop with one client).  A call's time is
its CPU time scaled by the host's speed next to it (see HostProbe).
Every output is checked; a failed check counts as a failed operation.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 the rounds run in this process through `sevrank.cli.main`,
plain ones in turn with ones that wrap every layer in spans (see
spans.py), and the last line holds the per-layer metrics.  See NOTE.md
for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

# Input sizes per workload.  Every workload runs every command in each
# round, so every end-to-end metric exists on every workload and every
# metric gets one sample per round, spread over the run.  A workload's own
# commands get the large inputs; the rest are kept small so that a round
# is short and a run holds many rounds.
PROFILES = {
    "fit": dict(round_train=500, search_docs=200, search_pairs=300,
                comments=50, pool=300, eval_pairs=600, ensemble_pairs=1000),
    "score": dict(round_train=100, search_docs=100, search_pairs=200,
                  comments=1000, pool=500, eval_pairs=1000,
                  ensemble_pairs=8000),
}
# The model that score, evaluate and explain use is trained once per run,
# before the rounds, on this many docs.
MODEL_DOCS = 1000
# Explain texts per length class.  Each round explains one short and one
# long text; rounds cycle through them, so every text is explained more
# than once in a run and its output can be compared.
EXPLAIN_TEXTS = 3
SEARCH_TRIALS = 3
# search is timed on the same three configurations in every run; the
# workload seed varies the corpus, not the hyperparameters drawn.
SEARCH_SEED = 0
TOP_ERRORS = 50
SETUP_REPEATS = 9
CALL_TIMEOUT_S = 150
# Accuracy floors on the synthetic corpus; a model below them is wrong.
FLOORS = {"search_best_accuracy": 0.55, "pair_accuracy": 0.65,
          "blend_accuracy": 0.7}
# evaluate's accuracy must agree with the one computed here from the
# model's scores of the pool texts.
ACCURACY_AGREEMENT = 0.002


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile of `values` with at
    least `beyond` samples above it, or a quarter of the samples when
    there are fewer than 4 * beyond, so that a short run still reports a
    percentile and not its single slowest sample."""
    xs = sorted(values)
    n = len(xs)
    k = min(beyond, n // 4)
    return xs[n - 1 - k], 100.0 * (n - k) / n, n


def success_rate(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded (1 - error rate)."""
    return (attempted - failed) / attempted


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    work: Path
    n_model_docs: int
    n_round_docs: int
    n_search_pairs: int
    comment_ids: list[str]
    n_pool: int
    pool_severity: np.ndarray    # hidden severity of every pool text
    pool_words: np.ndarray
    n_eval_pairs: int
    eval_sides: np.ndarray       # pool index of each less side, then each more side
    n_ensemble_pairs: int
    ensemble_sides: np.ndarray
    explain_texts: list[dict[str, str]]   # per round in turn: class -> text
    properties: dict

    def file(self, name: str) -> Path:
        return self.work / f"{name}.csv"


def make_inputs(work: Path, workload: str, seed: int) -> Inputs:
    p = PROFILES[workload]
    rng = np.random.default_rng(seed)
    lex = gen.make_lexicon(rng)

    def texts(n: int, words: tuple[int, int]) -> gen.Texts:
        return gen.make_texts(rng, lex, gen.draw_lengths(rng, n, words))

    model_docs = texts(MODEL_DOCS, gen.LONG_WORDS)
    round_docs = texts(p["round_train"], gen.LONG_WORDS)
    comments = texts(p["comments"], gen.LONG_WORDS)
    search_pool = texts(p["search_pairs"], gen.PAIR_WORDS)
    search_pairs, _ = gen.make_pairs(rng, search_pool, p["search_pairs"])
    pool = texts(p["pool"], gen.PAIR_WORDS)
    eval_pairs, eval_sides = gen.make_pairs(rng, pool, p["eval_pairs"])
    ensemble_pairs, ensemble_sides = gen.make_pairs(rng, pool, p["ensemble_pairs"])
    # one length per class, so the class medians do not depend on how
    # many times each text came round
    shorts = gen.make_texts(
        rng, lex, gen.spread_lengths(1, gen.SHORT_WORDS).repeat(EXPLAIN_TEXTS)).texts
    longs = gen.make_texts(
        rng, lex, gen.spread_lengths(1, gen.LONG_WORDS).repeat(EXPLAIN_TEXTS)).texts
    explain_texts = [{"short": s, "long": l} for s, l in zip(shorts, longs)]

    inp = Inputs(
        work=work,
        n_model_docs=gen.write_raw_labeled(work / "model_raw.csv", model_docs, "m"),
        n_round_docs=gen.write_raw_labeled(work / "raw.csv", round_docs, "t"),
        n_search_pairs=gen.write_pairs(work / "search_pairs.csv", search_pairs),
        comment_ids=[f"c{i}" for i in range(len(comments.texts))],
        n_pool=gen.write_comments(work / "pool.csv", pool.texts, "e"),
        pool_severity=pool.true_severity, pool_words=pool.n_words,
        n_eval_pairs=gen.write_pairs(work / "eval_pairs.csv", eval_pairs),
        eval_sides=eval_sides,
        n_ensemble_pairs=gen.write_pairs(work / "ensemble_pairs.csv",
                                         ensemble_pairs),
        ensemble_sides=ensemble_sides,
        explain_texts=explain_texts,
        properties={},
    )
    gen.write_comments(inp.file("comments"), comments.texts, "c")
    gen.write_csv(inp.file("search_labeled"), ["comment_id", "text", "score"], (
        (f"m{i}", t, f"{s:.6f}") for i, (t, s) in enumerate(
            zip(model_docs.texts[: p["search_docs"]], model_docs.severity))))
    gen.write_raw_labeled(inp.file("one_raw"), gen.Texts(
        round_docs.texts[:1], round_docs.severity[:1],
        round_docs.true_severity[:1]), "o")
    gen.write_comments(inp.file("one_comments"), comments.texts[:1], "c")

    sides_text = [t for pair in eval_pairs for t in pair]
    search_text = [t for pair in search_pairs for t in pair]
    inp.properties = {
        "workload": workload, "seed": seed,
        "model_docs": inp.n_model_docs,
        "train_docs": inp.n_round_docs,
        "train_words_per_doc": float(round_docs.n_words.mean()),
        "search_docs": p["search_docs"], "search_pairs": inp.n_search_pairs,
        "search_pairs_repeated_text_share": gen.repeat_share(search_text),
        "comments": len(inp.comment_ids),
        "comments_words_per_doc": float(comments.n_words.mean()),
        "comments_repeated_text_share": gen.repeat_share(comments.texts),
        "eval_pairs": inp.n_eval_pairs,
        "eval_distinct_texts": len(set(sides_text)),
        "eval_words_per_doc": float(np.mean([len(t.split()) for t in sides_text])),
        "eval_pairs_repeated_text_share": gen.repeat_share(sides_text),
        "ensemble_pairs": inp.n_ensemble_pairs,
        "matrix_rows": 2 * inp.n_ensemble_pairs,
        "explain_short_words": [len(t.split()) for t in shorts],
        "explain_long_words": [len(t.split()) for t in longs],
    }
    return inp


def write_matrix(inp: Inputs, pool_scores: np.ndarray, seed: int) -> None:
    """3-column score matrix over the ensemble pair sides: the trained
    model, a noisy view of the hidden severity and a weak length score."""
    rng = np.random.default_rng([seed, 1])
    n = inp.n_ensemble_pairs
    sides = inp.ensemble_sides
    ids = [f"p{r + 2}_l" for r in range(n)] + [f"p{r + 2}_m" for r in range(n)]
    lexicon = inp.pool_severity[sides] + rng.normal(0.0, 0.15, size=2 * n)
    length = inp.pool_words[sides] + rng.normal(0.0, 5.0, size=2 * n)
    gen.write_csv(inp.file("matrix"), ["comment_id", "ridge", "lexicon", "length"], (
        (cid, repr(float(a)), repr(float(b)), repr(float(c)))
        for cid, a, b, c in zip(ids, pool_scores[sides], lexicon, length)))


# ---------------------------------------------------------------------------
# Running CLI calls
# ---------------------------------------------------------------------------

@dataclass
class Call:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float     # user + system time of the call; wall time in process
    rss_mb: float
    scale: float = 1.0   # host speed factor from HostProbe; 1 in process

    @property
    def host_s(self) -> float:
        """CPU time scaled to the nominal host (see HostProbe)."""
        return self.cpu_s * self.scale


class HostProbe:
    """A fixed piece of work, timed next to every CLI call, that tells how
    fast the host is running at that moment.

    The host is shared, and its speed swings by up to half within tens of
    seconds, on every command alike.  A call's CPU time divided by the
    probe's time next to it leaves the program's own cost: on a 2-vCPU
    shared host, over four commands each repeated 45 times, this cut the
    spread of identical calls from 0.15-0.18 of their mean to 0.08-0.13.
    The work mixes interpreted string and dict operations with numpy
    sorting and counting, as the CLI does.
    """

    NOMINAL_S = 0.020   # reported times are scaled to a host where one probe takes this

    def __init__(self) -> None:
        self.values = np.random.default_rng(0).random(300_000)
        self.words = [f"Word{i % 977}'s" for i in range(30_000)]
        self.times: list[float] = []

    def __call__(self) -> float:
        start = time.process_time()
        counts: dict[str, int] = {}
        for word in self.words:
            key = word.lower().replace("'", " ")
            counts[key] = counts.get(key, 0) + 1
        np.argsort(self.values)
        np.bincount((self.values * 1000).astype(np.int64), weights=self.values)
        elapsed = time.process_time() - start
        self.times.append(elapsed)
        return elapsed


class ChildRunner:
    """Runs `python -m sevrank.cli` as a child, one at a time."""

    def __init__(self, work: Path) -> None:
        self.work = work
        threads = "1"  # one BLAS thread: a single numpy process, steady timings
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        self.probe = HostProbe()
        self.last_probe_s = self.probe()

    def run(self, argv: list[str]) -> Call:
        """The call, with the host's speed as the mean of the probes just
        before and just after it."""
        before = self.last_probe_s
        call = self._run(argv)
        self.last_probe_s = self.probe()
        call.scale = HostProbe.NOMINAL_S / ((before + self.last_probe_s) / 2.0)
        return call

    def _run(self, argv: list[str]) -> Call:
        out_path, err_path = self.work / "call.out", self.work / "call.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "sevrank.cli", *argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=self.work, env=self.env)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(proc.returncode,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"),
                    wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


class InProcessRunner:
    """Calls `sevrank.cli.main(argv)` in this process."""

    def __init__(self, work: Path) -> None:
        self.work = work
        from sevrank import cli
        self.cli = cli

    def run(self, argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback is a failed call, not a crash
                    traceback.print_exc(file=err)
                    code = 1
        finally:
            wall = time.perf_counter() - start
            os.chdir(cwd)
        return Call(code, out.getvalue(), err.getvalue(), wall, wall, 0.0)


# ---------------------------------------------------------------------------
# Operations and checks
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    values: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    fingerprints: dict[str, str] = field(default_factory=dict)
    calls: list[tuple[str, float, float]] = field(default_factory=list)  # key, cpu_s, scale


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class Session:
    """One workload's calls against one runner, with their checks."""

    def __init__(self, runner, inp: Inputs, workload: str, seed: int,
                 tally: Tally) -> None:
        self.runner = runner
        self.inp = inp
        self.workload = workload
        self.seed = seed
        self.tally = tally
        self.model = str(inp.work / "model" / "m")
        self.pool_scores: np.ndarray | None = None
        self.rounds = 0

    def op(self, key: str, argv: list[str], outputs: tuple[Path, ...] = (),
           verify=None) -> Call | None:
        """One CLI call: exit code 0, then `verify(call)`, then the output
        must be byte-identical to the last call under the same key."""
        self.tally.attempted += 1
        call = self.runner.run(argv)
        self.tally.calls.append((key, call.cpu_s, call.scale))
        self.tally.peak_rss_mb = max(self.tally.peak_rss_mb, call.rss_mb)
        try:
            check(call.code == 0,
                  f"exit {call.code}: {call.stderr.strip()[-400:]}")
            if verify is not None:
                verify(call)
            digest = hashlib.sha256(call.stdout.encode("utf-8"))
            for path in outputs:
                digest.update(path.read_bytes())
            seen = self.tally.fingerprints.setdefault(key, digest.hexdigest())
            check(seen == digest.hexdigest(), "output differs from an earlier run")
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.tally.failed += 1
            self.tally.failures.append(f"{key}: {exc}")
            return None
        return call

    def sample(self, name: str, value: float) -> None:
        self.tally.samples[name].append(value)

    # -- commands ----------------------------------------------------------

    def transform(self, key: str, raw: str, rows: int) -> Call | None:
        out = self.inp.file(raw.replace("raw", "labeled"))

        def verify(call: Call) -> None:
            check(f"rows: {rows}\n" in call.stdout, "transform row count")
            check(len(_csv_rows(out)) == rows + 1, "labeled file row count")

        return self.op(key, ["transform", "--kind", "ruddit",
                             "--in", str(self.inp.file(raw)), "--out", str(out)],
                       (out,), verify)

    def train(self, key: str, labeled: str, prefix: str) -> Call | None:
        def verify(call: Call) -> None:
            line = call.stdout.strip().splitlines()[-1]
            check(line.startswith("training objective: "), "train output")
            check(math.isfinite(float(line.split(": ", 1)[1])), "objective")

        return self.op(key, ["train", "--labeled", str(self.inp.file(labeled)),
                             "--out-prefix", prefix], (), verify)

    def search(self) -> None:
        def verify(call: Call) -> None:
            records = [json.loads(x) for x in call.stdout.splitlines() if x]
            check(len(records) == SEARCH_TRIALS + 1, "search record count")
            best = records[-1]["best"]["accuracy"]
            check(best == max(r["accuracy"] for r in records[:-1]), "best trial")
            check(best >= FLOORS["search_best_accuracy"],
                  f"search accuracy {best} below floor")
            self.tally.values["search_best_accuracy"] = best

        call = self.op("search", [
            "search", "--labeled", str(self.inp.file("search_labeled")),
            "--pairs", str(self.inp.file("search_pairs")),
            "--trials", str(SEARCH_TRIALS), "--seed", str(SEARCH_SEED)],
            (), verify)
        if call:
            self.sample("search_s_per_trial", call.host_s / SEARCH_TRIALS)

    def score(self, key: str, comments: str, ids: list[str]) -> Call | None:
        out = self.inp.file(f"{comments}_scores")

        def verify(call: Call) -> None:
            rows = _csv_rows(out)[1:]
            check([r[0] for r in rows] == ids, "score ids or row count")
            check(all(math.isfinite(float(r[1])) for r in rows), "score finite")

        return self.op(key, [
            "score", "--model-prefix", self.model,
            "--comments", str(self.inp.file(comments)), "--out", str(out)],
            (out,), verify)

    def evaluate(self) -> None:
        errors = self.inp.file("errors")
        n = self.inp.n_eval_pairs

        def verify(call: Call) -> None:
            report = json.loads(call.stdout.strip().splitlines()[-1])
            check(report["n_pairs"] == n, "evaluate pair count")
            acc = report["accuracy"]
            check(acc >= FLOORS["pair_accuracy"], f"pair accuracy {acc} below floor")
            wrong = n - report["n_correct"]
            check(len(_csv_rows(errors)) == min(TOP_ERRORS, wrong) + 1,
                  "ranked error row count")
            check(self.pool_scores is not None, "no pool scores to compare with")
            side = self.pool_scores[self.inp.eval_sides]
            mine = float(np.mean(side[n:] > side[:n]))
            check(abs(mine - acc) <= ACCURACY_AGREEMENT,
                  f"evaluate accuracy {acc} != {mine} from the pool scores")
            self.tally.values["pair_accuracy"] = acc

        call = self.op("evaluate", [
            "evaluate", "--model-prefix", self.model,
            "--pairs", str(self.inp.file("eval_pairs")),
            "--top-errors", str(TOP_ERRORS), "--errors-out", str(errors)],
            (errors,), verify)
        if call:
            self.sample("evaluate_pairs_per_s", n / call.host_s)

    def ensemble(self) -> None:
        weights = self.inp.file("weights")
        blend = self.inp.file("blend")
        rows = 2 * self.inp.n_ensemble_pairs

        def verify(call: Call) -> None:
            check(len(_csv_rows(blend)) == rows + 1, "blend row count")
            text = weights.read_text(encoding="utf-8")
            check(all(m in text for m in ("ridge", "lexicon", "length")),
                  "weights lists every model")
            report = json.loads(call.stdout.strip().splitlines()[-1])
            check(report["n_pairs"] == self.inp.n_ensemble_pairs,
                  "blend pair count")
            acc = report["accuracy"]
            check(acc >= FLOORS["blend_accuracy"], f"blend accuracy {acc} below floor")
            self.tally.values["blend_accuracy"] = acc

        call = self.op("ensemble", [
            "ensemble", "--matrix", str(self.inp.file("matrix")),
            "--pairs", str(self.inp.file("ensemble_pairs")), "--mode", "rank",
            "--out-weights", str(weights), "--out-blend", str(blend)],
            (weights, blend), verify)
        if call:
            self.sample("ensemble_rows_per_s", rows / call.host_s)

    def explain(self, key: str, text: str) -> Call | None:
        def verify(call: Call) -> None:
            result = json.loads(call.stdout.strip().splitlines()[-1])
            check(result["tokens"] == text.split(), "explain tokens")
            weights = [w["weight"] for w in result["importances"]]
            check(len(weights) == min(10, len(text.split())), "explain features")
            check(all(math.isfinite(w) for w in weights), "explain weights finite")
            check(0.0 <= result["local_r2"] <= 1.0, "explain local r2")

        return self.op(key, ["explain", "--model-prefix", self.model,
                             "--text", text, "--seed", str(self.seed)], (), verify)

    # -- schedule ----------------------------------------------------------

    def prep(self) -> None:
        """Train the scoring model and score the pool once; not sampled."""
        self.transform("prep_transform", "model_raw", self.inp.n_model_docs)
        self.train("prep_train", "model_labeled", self.model)
        ids = [f"e{i}" for i in range(self.inp.n_pool)]
        if self.score("prep_score_pool", "pool", ids):
            self.pool_scores = np.array(
                [float(r[1]) for r in _csv_rows(self.inp.file("pool_scores"))[1:]])
            write_matrix(self.inp, self.pool_scores, self.seed)

    def setup(self) -> None:
        """The workload's first command on a one-row input, several times."""
        first = {
            "fit": lambda: self.transform("setup", "one_raw", 1),
            "score": lambda: self.score("setup", "one_comments",
                                        self.inp.comment_ids[:1]),
        }[self.workload]
        for _ in range(SETUP_REPEATS):
            call = first()
            if call:
                self.sample("setup_s", call.host_s)

    def round(self) -> None:
        """Every command once, in pipeline order."""
        docs = self.inp.n_round_docs
        # raw file to trained model: transform and train together
        prepared = self.transform("transform", "raw", docs)
        call = self.train("train", "labeled", str(self.inp.work / "model" / "r"))
        if prepared and call:
            self.sample("train_docs_per_s", docs / (prepared.host_s + call.host_s))
        self.search()
        ids = self.inp.comment_ids
        call = self.score("score", "comments", ids)
        if call:
            self.sample("score_comments_per_s", len(ids) / call.host_s)
        self.evaluate()
        self.ensemble()
        turn = self.rounds % len(self.inp.explain_texts)
        for kind, text in self.inp.explain_texts[turn].items():
            call = self.explain(f"explain{turn}.{kind}", text)
            if call:
                self.sample(f"explain_{kind}_s", call.host_s)
                self.sample("explain_s", call.host_s)
        self.rounds += 1

    def rounds_until(self, until: float) -> None:
        """Rounds while one more is expected to end before `until` (a
        perf_counter time); always at least one."""
        last = 0.0
        while self.rounds == 0 or time.perf_counter() + last <= until:
            start = time.perf_counter()
            self.round()
            last = time.perf_counter() - start


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def end_to_end(tally: Tally) -> dict[str, float]:
    s = tally.samples
    med = {k: statistics.median(v) for k, v in s.items() if v}
    metrics = {
        "setup_s": med.get("setup_s"),
        "peak_rss_mb": tally.peak_rss_mb,
        "success_rate": success_rate(tally.attempted, tally.failed),
        "train_docs_per_s": med.get("train_docs_per_s"),
        "search_s_per_trial": med.get("search_s_per_trial"),
        "search_best_accuracy": tally.values.get("search_best_accuracy"),
        "score_comments_per_s": med.get("score_comments_per_s"),
        "evaluate_pairs_per_s": med.get("evaluate_pairs_per_s"),
        "ensemble_rows_per_s": med.get("ensemble_rows_per_s"),
        "pair_accuracy": tally.values.get("pair_accuracy"),
        "blend_accuracy": tally.values.get("blend_accuracy"),
        "explain_short_s": med.get("explain_short_s"),
        "explain_long_s": med.get("explain_long_s"),
        "explain_tail_s": tail(s["explain_s"])[0] if s["explain_s"] else None,
    }
    # a metric with no successful sample is only possible after failures,
    # which already mark the run incorrect
    return {k: (0.0 if v is None else float(v)) for k, v in metrics.items()}


def per_layer(tracer: spans.Tracer, traced_s: float, plain_s: float) -> dict[str, float]:
    summary = tracer.summary()
    c = tracer.counters

    def get(name: str, what: str) -> float:
        return float(summary.get(name, {}).get(what, 0.0))

    out: dict[str, float] = {}
    for name, what in PER_LAYER_SPANS:
        out[f"{name}.{what}"] = get(name, what)
    out["features.vocab_size"] = c["features.vocab_size"]
    out["features.nnz"] = c["features.nnz"]
    out["regress.fit_ridge.rel_residual"] = c["regress.fit_ridge.rel_residual"]
    out["optim.lbfgs_minimize.iterations"] = c["optim.lbfgs_minimize.iterations"]
    out["explain.scorer_calls"] = c["explain.scorer_calls"]
    out["explain.unique_variant_share"] = (
        c["explain.unique_variants"] / c["explain.variants"]
        if c["explain.variants"] else 0.0)
    out["cli.unique_text_share"] = (
        c["cli.unique_texts"] / c["cli.texts"] if c["cli.texts"] else 0.0)
    out["trace.spans"] = float(len(tracer.spans))
    out["trace.overhead_share"] = traced_s / plain_s - 1.0
    return out


PER_LAYER_SPANS = (
    ("textproc.preprocess", "self_s"), ("textproc.preprocess", "calls"),
    ("textproc.preprocess", "items"),
    ("textproc.char_wb_ngrams", "self_s"), ("textproc.char_wb_ngrams", "calls"),
    ("features.fit_tfidf", "self_s"), ("features.transform", "self_s"),
    ("features.transform", "calls"), ("features.transform", "items"),
    ("features.load_tfidf", "self_s"), ("features.save_tfidf", "self_s"),
    ("regress.fit_ridge", "self_s"), ("regress.fit_ridge", "calls"),
    ("regress.predict", "self_s"), ("regress.predict", "calls"),
    ("regress.predict", "items"),
    ("regress.load_ridge", "self_s"), ("regress.ridge_objective", "self_s"),
    ("evaluate.pairwise_accuracy", "self_s"), ("evaluate.rank_errors", "self_s"),
    ("ensemble.normalize_scores", "self_s"), ("ensemble.fit_weights", "self_s"),
    ("ensemble.load_score_matrix", "self_s"), ("ensemble.blend", "self_s"),
    ("optim.lbfgs_minimize", "self_s"),
    ("explain.lime_explain", "self_s"), ("explain.lime_explain", "calls"),
    ("corpus.load_pairs", "self_s"), ("corpus.load_pairs", "items"),
    ("corpus.load_comments", "self_s"), ("corpus.load_labeled", "self_s"),
    ("corpus.load_labeled", "items"), ("corpus.load_ruddit", "self_s"),
    ("corpus.save_labeled", "self_s"),
    ("cli.cmd_transform", "self_s"), ("cli.cmd_train", "self_s"),
    ("cli.cmd_score", "self_s"), ("cli.cmd_evaluate", "self_s"),
    ("cli.cmd_ensemble", "self_s"), ("cli.cmd_search", "self_s"),
    ("cli.cmd_explain", "self_s"), ("cli.write_scores_csv", "self_s"),
)


def emit(tally: Tally, metrics: dict[str, float], kind: str) -> None:
    """The result line; `kind` names the BENCHMARK.json list ("end_to_end"
    or "per_layer") that gives each metric its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_plain(inp: Inputs, workload: str, seed: int, seconds: int) -> None:
    tally = Tally()
    runner = ChildRunner(inp.work)
    session = Session(runner, inp, workload, seed, tally)
    session.prep()
    session.setup()
    start = time.perf_counter()
    session.rounds_until(start + seconds)
    measured_s = time.perf_counter() - start
    explain_tail = tail(tally.samples["explain_s"])
    print(json.dumps({"inputs": inp.properties}))
    print(json.dumps({
        "rounds": session.rounds, "measured_s": measured_s,
        "probe_s": {"median": statistics.median(runner.probe.times),
                    "min": min(runner.probe.times), "max": max(runner.probe.times),
                    "nominal": HostProbe.NOMINAL_S},
        "samples": dict(tally.samples),
        "explain_tail": {"percentile": explain_tail[1], "calls": explain_tail[2]},
        "failures": tally.failures[:20],
        "calls": tally.calls,
    }))
    emit(tally, end_to_end(tally), "end_to_end")


def run_traced(inp: Inputs, workload: str, seed: int, seconds: int) -> None:
    sys.path.insert(0, str(SRC))
    import sevrank
    check(Path(sevrank.__file__).resolve().is_relative_to(SRC),
          f"imported sevrank from {sevrank.__file__}, not {SRC}")
    tally = Tally()
    session = Session(InProcessRunner(inp.work), inp, workload, seed, tally)
    session.prep()

    probe = HostProbe()
    expected = sorted({name for name, _ in PER_LAYER_SPANS})

    def timed_round(tracer: spans.Tracer | None) -> float:
        """One round, traced if `tracer` is given: its CPU time, scaled by
        the probes on either side of it."""
        before = probe()
        start = time.process_time()
        if tracer is not None:
            tracer.install(expected=expected)
        try:
            session.round()
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu_s = time.process_time() - start
        return cpu_s * HostProbe.NOMINAL_S / ((before + probe()) / 2.0)

    # Traced and plain rounds alternate for `seconds`, so the overhead
    # compares medians taken over the same stretch of the host's speed.
    # The per-layer figures are the first traced round's; later traced
    # rounds only time the overhead.  A first plain round warms up.
    timed_round(None)
    until = time.perf_counter() + seconds
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    last = 0.0
    while not traced or time.perf_counter() + last <= until:
        pair_start = time.perf_counter()
        traced.append(timed_round(tracer if not traced else spans.Tracer()))
        plain.append(timed_round(None))
        last = time.perf_counter() - pair_start
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    print(json.dumps({"inputs": inp.properties}))
    print(json.dumps({
        "trace": {"plain_round_s": plain, "traced_round_s": traced,
                  "absent": tracer.absent, "hook_errors": sorted(tracer.hook_errors),
                  "counters": dict(tracer.counters)},
        "failures": tally.failures[:20],
    }))
    trace_file = ROOT / ".bench_work" / f"trace-{workload}.json"
    trace_file.write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": tracer.spans}),
        encoding="utf-8")
    emit(tally, per_layer(tracer, traced_s, plain_s), "per_layer")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sevrank" / "cli.py").is_file():
        print(f"bench: no sevrank sources at {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work = work_root / f"run-{os.getpid()}"
    (work / "model").mkdir(parents=True, exist_ok=True)
    try:
        inp = make_inputs(work, args.workload, args.seed)
        if args.trace:
            run_traced(inp, args.workload, args.seed, args.seconds)
        else:
            run_plain(inp, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
