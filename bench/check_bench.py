"""Tests of the benchmark's own arithmetic, generator and span wrappers.

    python3 -m unittest discover -s bench -p 'check_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def _files(self, workload: str, seed: int) -> dict[str, bytes]:
        with tempfile.TemporaryDirectory() as tmp:
            inp = run.make_inputs(Path(tmp), workload, seed)
            files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
        files["explain"] = repr(inp.explain_texts).encode()
        return files

    def test_same_seed_same_inputs(self):
        self.assertEqual(self._files("fit", 3), self._files("fit", 3))

    def test_other_seed_other_inputs(self):
        a, b = self._files("fit", 3), self._files("fit", 4)
        self.assertEqual(a.keys(), b.keys())
        self.assertNotEqual(a["raw.csv"], b["raw.csv"])

    def test_input_properties(self):
        with tempfile.TemporaryDirectory() as tmp:
            props = run.make_inputs(Path(tmp), "score", 0).properties
        self.assertEqual(props["comments_repeated_text_share"], 0.0)
        self.assertGreater(props["eval_pairs_repeated_text_share"], 0.6)

    def test_explain_texts_have_one_length_per_class(self):
        self.assertEqual(list(gen.spread_lengths(4, gen.SHORT_WORDS)), [3, 5, 6, 8])
        self.assertEqual(list(gen.spread_lengths(1, gen.SHORT_WORDS)), [6])
        self.assertEqual(list(gen.spread_lengths(1, gen.LONG_WORDS)), [44])
        with tempfile.TemporaryDirectory() as tmp:
            texts = run.make_inputs(Path(tmp), "score", 0).explain_texts
        pairs = [item for turn in texts for item in turn.items()]
        self.assertEqual([kind for kind, _ in pairs],
                         ["short", "long"] * run.EXPLAIN_TEXTS)
        self.assertEqual(len({text for _, text in pairs}), len(pairs))
        for kind, text in pairs:
            # a URL adds one word to a text
            want = 6 if kind == "short" else 44
            self.assertIn(len(text.split()) - want, (0, 1))


class ArithmeticTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        values = [float(v) for v in range(60, 0, -1)]
        value, pct, n = run.tail(values)
        self.assertEqual((value, n), (50.0, 60))
        self.assertAlmostEqual(pct, 100.0 * 50 / 60)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(run.tail([float(v) for v in range(1, 41)]),
                         (30.0, 75.0, 40))

    def test_tail_of_few_samples_keeps_a_quarter_beyond(self):
        self.assertEqual(run.tail([float(v) for v in range(1, 21)]),
                         (15.0, 75.0, 20))
        self.assertEqual(run.tail([0.3, 0.1, 0.2]), (0.3, 100.0, 3))

    def test_self_time_subtracts_direct_children(self):
        rows = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0),
                ("c", 5.0, 7.0, 0), ("d", 2.0, 3.0, 1)]
        self.assertEqual(spans.self_times(rows), [5.0, 2.0, 2.0, 1.0])

    def test_probe_scales_cpu_time_to_the_nominal_host(self):
        call = run.Call(0, "", "", wall_s=2.0, cpu_s=1.5, rss_mb=0.0)
        self.assertEqual(call.host_s, 1.5)
        call.scale = run.HostProbe.NOMINAL_S / (2 * run.HostProbe.NOMINAL_S)
        self.assertEqual(call.host_s, 0.75)
        probe = run.HostProbe()
        self.assertGreater(probe(), 0.0)
        self.assertEqual(len(probe.times), 1)

    def test_success_rate_is_one_minus_error_rate(self):
        self.assertEqual(run.success_rate(10, 0), 1.0)
        self.assertEqual(run.success_rate(8, 2), 0.75)

    def test_reported_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = {kind: {m["name"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer")}
        self.assertEqual(set(run.end_to_end(run.Tally(attempted=1))),
                         names["end_to_end"])
        self.assertEqual(set(run.per_layer(spans.Tracer(), 1.0, 1.0)),
                         names["per_layer"])
        self.assertEqual(set(run.PROFILES), {w["name"] for w in spec["workloads"]})


class TracerTest(unittest.TestCase):
    def test_patches_from_imports_and_restores(self):
        from sevrank import cli, ensemble, optim, textproc

        originals = (textproc.preprocess, cli.preprocess, ensemble.lbfgs_minimize)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIs(cli.preprocess, textproc.preprocess)
            self.assertIsNot(cli.preprocess, originals[0])
            self.assertIs(ensemble.lbfgs_minimize, optim.lbfgs_minimize)
            cli.preprocess("Don't  SHOUT")
            cli.preprocess("Don't  SHOUT")
        finally:
            tracer.uninstall()
        self.assertEqual(
            (textproc.preprocess, cli.preprocess, ensemble.lbfgs_minimize),
            originals)
        summary = tracer.summary()
        self.assertEqual(summary["textproc.preprocess"]["calls"], 2)
        self.assertEqual(tracer.counters["cli.unique_texts"], 1)
        self.assertEqual(tracer.absent, [])

    def test_missing_function_is_absent_not_fatal(self):
        from sevrank import regress

        original = regress.predict
        regress.predict = 42
        tracer = spans.Tracer()
        try:
            tracer.install(expected=("regress.predict", "regress.fit_ridge"))
            tracer.uninstall()
        finally:
            regress.predict = original
        self.assertEqual(tracer.absent, ["regress.predict"])

    def test_lime_scorer_counts_distinct_variants(self):
        from sevrank import explain

        tracer = spans.Tracer()
        tracer.install()
        try:
            explain.lime_explain(lambda text: float(len(text)), "a b",
                                 explain.ExplainConfig(num_samples=50))
        finally:
            tracer.uninstall()
        c = tracer.counters
        self.assertEqual(c["explain.scorer_calls"], 50)
        self.assertEqual(c["explain.variants"], 50)
        self.assertLessEqual(c["explain.unique_variants"], 4)


if __name__ == "__main__":
    unittest.main()
