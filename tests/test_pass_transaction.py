"""The one pass transaction (DESIGN.md §7): how often it analyses the graph,
what it validates, where its failures are recorded, and that nothing else
under ``src/repro`` snapshots, gates or rolls back on its own."""

import os
import re
import warnings
from collections import Counter

import numpy as np
import pytest

import repro
from repro import Config
from repro.autoopt import AUTOOPT_STEPS, auto_optimize
from repro.bench import registry
from repro.cache import fingerprint
from repro.ir import SDFG, AccessNode, InvalidSDFGError
from repro.resilience import FailureReport, ResilienceWarning
from repro.transformations import pipeline
from repro.transformations.pipeline import PassTransaction

SRC = os.path.dirname(os.path.abspath(repro.__file__))


@repro.program
def triangular(A: repro.float64[2, 2], D: repro.float64[2, 2]):
    # LoopToMap's result is rolled back here twice over: by StateFusion's
    # gate inside the step's nested simplify, then by the step's own
    # (tests/fuzz_corpus/case_4)
    t0 = np.sqrt(np.abs(D))
    for it in range(2):
        for p in repro.map[0:it]:
            t0[it, p] = D[it, p] * 2.0
    return np.sum(A)


def _unsimplified(name):
    if name == "triangular":
        return triangular.to_sdfg(simplify=False).clone()
    bench = registry.get(name)
    program = repro.program(bench.program.func)
    if program._annotation_descs() is None:
        return program.to_sdfg(simplify=False,
                               **bench.arguments("small")).clone()
    return program.to_sdfg(simplify=False).clone()


@pytest.fixture
def census(monkeypatch):
    """Per-graph counts of static analyses and of runs whose body changed
    the graph (whether or not the change survived)."""
    analyses, changed = Counter(), Counter()
    real_keys, real_run = pipeline.static_issue_keys, PassTransaction.run

    def counting_keys(sdfg):
        analyses[id(sdfg)] += 1
        return real_keys(sdfg)

    def counting_run(self, name, body, **kwargs):
        def watched():
            before = fingerprint(self.sdfg)
            try:
                return body()
            finally:
                if fingerprint(self.sdfg) != before:
                    changed[id(self.sdfg)] += 1
        return real_run(self, name, watched, **kwargs)

    monkeypatch.setattr(pipeline, "static_issue_keys", counting_keys)
    monkeypatch.setattr(PassTransaction, "run", counting_run)
    return analyses, changed


class TestAnalysisBudget:
    @pytest.mark.parametrize("name", ["hdiff", "atax", "triangular"])
    def test_one_analysis_per_driver_call_plus_one_per_changing_run(
            self, name, census):
        analyses, changed = census
        sdfg = _unsimplified(name)
        total = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            for driver in (sdfg.simplify, sdfg.auto_optimize):
                analyses.clear()
                changed.clear()
                driver()
                assert analyses[id(sdfg)] >= 1, "gate never ran"
                for graph, count in analyses.items():
                    assert count <= 1 + changed[graph]
                total += sum(analyses.values())
        if name == "hdiff":
            # one cold compile: 24 before the transaction remembered
            assert total <= 14

    def test_nested_rollbacks_keep_their_verdicts(self):
        sdfg = triangular.to_sdfg().clone()
        report = FailureReport()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            auto_optimize(sdfg, report=report)
        assert [(r.kind, r.subject, r.action) for r in report.records][:2] == [
            ("transformation", "StateFusion", "rolled-back"),
            ("optimization", "loop_to_map", "rolled-back")]


class TestStepValidation:
    def test_invalid_graph_from_thunk_rolled_back_inside_its_step(
            self, monkeypatch):
        # expand_library_nodes bypasses apply_once; the transaction's own
        # validate must catch what it leaves behind while the snapshot can
        # still undo it (it used to surface later, in build())
        def corrupting_expand(self, implementation=None, device="CPU"):
            self.states()[0].add_node(AccessNode("__corrupt"))
            return 1

        monkeypatch.setattr(SDFG, "expand_library_nodes", corrupting_expand)

        @repro.program
        def scale(A: repro.float64[8], B: repro.float64[8]):
            B[:] = A * 2.0

        sdfg = scale.to_sdfg().clone()
        report = FailureReport()
        with pytest.warns(ResilienceWarning, match="library"):
            auto_optimize(sdfg, report=report)
        (record,) = report.records
        assert (record.kind, record.subject) == ("optimization", "library")
        assert isinstance(record.error, InvalidSDFGError)
        sdfg.validate()
        assert not any(isinstance(n, AccessNode) and n.data == "__corrupt"
                       for s in sdfg.states() for n in s.nodes())


class TestProgramFailureReport:
    def test_rollbacks_of_a_normal_call_reach_the_programs_report(
            self, tmp_path):
        bench = registry.get("nbody")
        program = repro.program(bench.program.func, auto_optimize=True)
        args, ref_args = bench.arguments("test"), bench.arguments("test")
        # a cold cache: a disk hit skips the pipeline and its rollbacks
        with Config.override(cache__dir=str(tmp_path)), \
                pytest.warns(ResilienceWarning, match="fusion"):
            program(**args)
        assert [(r.kind, r.subject, r.action)
                for r in program.failure_report.records] == [
            ("optimization", "fusion", "rolled-back")]
        bench.reference(**ref_args)
        for name in bench.outputs:
            assert np.allclose(args[name], ref_args[name])


def _sources():
    for dirpath, _dirs, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    yield os.path.relpath(path, SRC), fh.read()


class TestOneMechanism:
    @pytest.mark.parametrize("call", [
        "SDFGSnapshot.capture(", "static_issue_keys(", "snapshot.restore("])
    def test_single_call_site_is_the_transaction(self, call):
        sites = [path for path, text in _sources()
                 for line in text.splitlines()
                 if call in line and not line.lstrip().startswith("def ")]
        assert sites == [os.path.join("transformations", "pipeline.py")]

    def test_autoopt_owns_no_transaction_machinery(self):
        text = dict(_sources())["autoopt.py"]
        for needle in ("SDFGSnapshot", "_static_issues", "restore(",
                       "perf_counter"):
            assert needle not in text

    def test_one_serialisation_one_content_hash(self):
        assert not any("sdfg_fingerprint" in text for _, text in _sources())
        users = sorted(path for path, text in _sources()
                       if re.search(r"(?<!def )canonical_json\(", text))
        assert users == [os.path.join("cache", "fingerprint.py"),
                         os.path.join("resilience", "core.py")]

    def test_knobs_with_one_value_are_gone(self):
        keys = set(Config.keys())
        assert len(keys) == 43
        assert not keys & {"resilience.transactional",
                           "validate.after_transform",
                           "sanitize.check_transforms",
                           "optimizer.autooptimize"}

    def test_oracle_bisects_the_declared_steps(self):
        from repro.sanitizer import oracle

        assert oracle.AUTOOPT_STEPS is AUTOOPT_STEPS
        assert "commopt" in AUTOOPT_STEPS
