"""Regression tests for the hot-path bugfixes that shipped with the
pre-decoded engine: single evaluation of ``work`` amounts, detector-plan
encapsulation, and the vector fleet executor's pool/in-process choice.
(The ``derive_seed`` part-boundary fix is covered in test_energy.py.)
"""

from __future__ import annotations

import pytest

from repro.analysis.provenance import Chain
from repro.core.pipeline import compile_source
from repro.fleet import FleetError, VectorFleetExecutor, run_fleet
from repro.fleet.vector import POOL_MIN_SHARE
from repro.ir.instructions import InstrId
from repro.runtime.detector import Check, DetectorPlan
from repro.runtime.executor import Machine
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment, constant

WORK_SRC = """\
inputs ch;

fn main() {
  let n = input(ch);
  work(n * 3);
  log(n);
}
"""


class TestWorkSingleEvaluation:
    def test_work_expression_evaluated_once_per_step(self):
        """The cycle expression used to be evaluated twice per executed
        ``work``: once for the comparator estimate, once for execution."""
        compiled = compile_source(WORK_SRC, "jit")
        env = Environment({"ch": constant(5)})
        machine = Machine(
            compiled.module, env, ContinuousPower(),
            plan=compiled.detector_plan(),
        )
        work_evals = 0
        original_eval = machine.eval

        def counting_eval(expr):
            nonlocal work_evals
            from repro.lang import ast as lang_ast

            if isinstance(expr, lang_ast.Binary) and expr.op == "*":
                work_evals += 1
            return original_eval(expr)

        machine.eval = counting_eval
        result = machine.run()
        assert result.stats.completed
        # One dynamic execution of the work instruction => one evaluation.
        assert work_evals == 1

    def test_work_cycles_still_charged_correctly(self):
        compiled = compile_source(WORK_SRC, "jit")
        env = Environment({"ch": constant(5)})
        machine = Machine(compiled.module, env, ContinuousPower())
        result = machine.run()
        # input(40) + work(15) + log(60) + assorted alu/ret cycles.
        assert result.stats.cycles_on >= 40 + 15 + 60


class TestDetectorPlanEncapsulation:
    def _plan(self):
        site = Chain(ids=(InstrId("main", 1),))
        required = (Chain(ids=(InstrId("main", 2),)),)
        check = Check(site=site, pid="fresh@main:1", kind="fresh", required=required)
        return site, check, DetectorPlan(
            bit_chains=frozenset(required),
            checks={site: [check]},
            trigger_uids=frozenset({site.op}),
        )

    def test_checks_at_returns_a_copy(self):
        site, check, plan = self._plan()
        got = plan.checks_at(site)
        assert isinstance(got, tuple)
        assert got == (check,)
        # The historical list return let callers corrupt the plan:
        # plan.checks_at(chain).clear() silently disabled detection.
        assert plan.checks[site] == [check]
        assert plan.checks_at(site) == (check,)

    def test_checks_at_unknown_chain_is_empty_tuple(self):
        _, _, plan = self._plan()
        assert plan.checks_at(Chain(ids=(InstrId("main", 99),))) == ()


class TestVectorPool:
    def _spec(self, devices: int):
        from tests.test_fleet import small_spec

        return small_spec().with_total_devices(devices)

    def test_single_process_runs_in_process(self):
        executor = VectorFleetExecutor(processes=1)
        result = run_fleet(self._spec(4 * POOL_MIN_SHARE), executor)
        assert executor.used == "vector"
        assert result.executor == "vector"
        assert result.executor_used == "vector"

    def test_small_batches_run_in_process(self):
        # Too few devices for two fair shares: fork and result shipping
        # would cost more than the split wins.
        executor = VectorFleetExecutor(processes=2)
        result = run_fleet(self._spec(2 * POOL_MIN_SHARE - 1), executor)
        assert executor.used == "vector"
        assert result.executor_used == "vector"

    def test_large_batches_use_the_pool(self):
        executor = VectorFleetExecutor(processes=2)
        result = run_fleet(self._spec(2 * POOL_MIN_SHARE), executor)
        assert executor.used == "vector-pool"
        assert result.executor_used == "vector-pool"

    def test_many_workers_right_size_the_pool(self):
        # More workers than fair shares: the pool shrinks to the shares
        # there are instead of dropping to the in-process path.
        executor = VectorFleetExecutor(processes=16)
        result = run_fleet(self._spec(2 * POOL_MIN_SHARE), executor)
        assert executor.used == "vector-pool"
        assert result.executor_used == "vector-pool"

    def test_pooled_and_in_process_aggregates_are_identical(self):
        from repro.fleet import aggregate_fingerprint

        spec = self._spec(2 * POOL_MIN_SHARE)
        serial = run_fleet(spec, "serial")
        in_process = run_fleet(spec, VectorFleetExecutor())
        pooled = run_fleet(spec, VectorFleetExecutor(processes=2))
        assert pooled.executor_used == "vector-pool"
        assert aggregate_fingerprint(in_process) == aggregate_fingerprint(serial)
        assert aggregate_fingerprint(pooled) == aggregate_fingerprint(serial)
        assert pooled.memo["hits"] + pooled.memo["misses"] == (
            in_process.memo["hits"] + in_process.memo["misses"]
        )

    def test_report_records_engine_and_executor_used(self):
        result = run_fleet(
            self._spec(2 * POOL_MIN_SHARE), "vector", processes=2
        )
        payload = result.to_dict()
        assert payload["executor"] == "vector"
        assert payload["executor_used"] == "vector-pool"
        assert payload["engine"] == "fast"

    def test_bad_process_count_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            VectorFleetExecutor(processes=0)

    def test_serial_executor_rejects_jobs(self):
        with pytest.raises(FleetError, match="vector"):
            run_fleet(self._spec(4), "serial", processes=2)
        # One process is what serial does anyway.
        assert run_fleet(self._spec(4), "serial", processes=1).devices == 4

    def test_default_executor_rejects_jobs_and_memo_dir(self, tmp_path):
        # No executor means serial, which must refuse vector-only knobs
        # exactly as the named "serial" executor does.
        with pytest.raises(FleetError, match="vector"):
            run_fleet(self._spec(4), processes=2)
        with pytest.raises(FleetError, match="vector"):
            run_fleet(self._spec(4), memo_dir=tmp_path)
        assert run_fleet(self._spec(4), processes=1).executor_used == "serial"

    def test_executor_instance_rejects_jobs_and_memo_dir(self, tmp_path):
        # An instance carries its own configuration; a knob beside it
        # would be silently ignored.
        from repro.fleet import SerialFleetExecutor

        for executor in (SerialFleetExecutor(), VectorFleetExecutor()):
            with pytest.raises(FleetError, match="instance"):
                run_fleet(self._spec(4), executor, processes=2)
            with pytest.raises(FleetError, match="instance"):
                run_fleet(self._spec(4), executor, memo_dir=tmp_path)


class TestSeedSchemeFingerprint:
    def test_checkpoint_fingerprint_binds_seed_scheme(self, monkeypatch):
        """A checkpoint written under an older seed-derivation scheme
        must fingerprint-mismatch, not resume into a mixed aggregate."""
        from tests.test_fleet import small_spec

        spec = small_spec()
        current = spec.fingerprint()
        monkeypatch.setattr("repro.fleet.spec.SEED_SCHEME", "legacy-join")
        assert spec.fingerprint() != current


class TestPreDecodedCodeValidation:
    def test_cost_model_mismatch_rejected(self):
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.runtime.engine import EngineError, FastMachine, code_for

        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        plan = compiled.detector_plan()
        code = code_for(compiled, plan=plan)  # decoded under DEFAULT_COSTS
        with pytest.raises(EngineError, match="cost model"):
            FastMachine(
                compiled.module,
                meta.env_factory(0),
                ContinuousPower(),
                costs=meta.cost_model(),
                plan=plan,
                code=code,
            )

    def test_equal_but_fresh_plans_share_the_decode(self):
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.runtime.detector import build_detector_plan
        from repro.runtime.engine import code_for

        meta = BENCHMARKS["greenhouse"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        first = code_for(compiled, plan=build_detector_plan(compiled.policies))
        before = len(compiled._engine_code)
        again = code_for(compiled, plan=build_detector_plan(compiled.policies))
        assert first is again
        assert len(compiled._engine_code) == before

    def test_fresh_equal_plan_accepted_end_to_end(self):
        """create_machine with a fresh (equal, non-identical) plan must
        reuse the cached decode, not reject it on plan identity."""
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.runtime.detector import build_detector_plan
        from repro.runtime.engine import create_machine

        meta = BENCHMARKS["greenhouse"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        results = [
            create_machine(
                "fast",
                compiled,
                meta.env_factory(0),
                ContinuousPower(),
                plan=build_detector_plan(compiled.policies),
            ).run()
            for _ in range(2)
        ]
        assert results[0].stats == results[1].stats
