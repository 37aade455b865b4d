"""Evaluation harness tests: the shapes the paper's tables/figures report.

These run the real experiments at reduced budgets, asserting the *shape*
claims rather than absolute numbers:

* Figure 7: Ocelot within ~15% of JIT on continuous power; Atomics-only
  far slower on CEM; Atomics-only not slower than Ocelot on Tire.
* Table 2a: Ocelot 0%, JIT 100%.
* Table 2b: Ocelot 0% everywhere; JIT ordering Photo highest, CEM ~0.
* Table 4: Ocelot cheapest overall; exact paper matches where modeled.
* Figure 2: every failure point tears the JIT weather program; Ocelot
  always refines a continuous run.
* Ablations: the undo-log cost drives CEM's Atomics blowup, boot jitter
  does not hide violations, nested regions flatten for free.
"""

from dataclasses import replace

import pytest

from repro.apps import BENCHMARKS
from repro.core.pipeline import compile_source
from repro.eval.figure7 import measure_figure7
from repro.eval.figure8 import measure_figure8
from repro.eval.profiles import EnergyProfile
from repro.eval.report import Table, geometric_mean
from repro.eval.table1 import table1
from repro.eval.table2 import measure_table2a, measure_table2b
from repro.eval.table3 import table3
from repro.eval.table4 import measure_table4, table4
from repro.runtime.executor import Machine
from repro.runtime.harness import run_activations, run_continuous
from repro.runtime.refinement import check_refinement
from repro.runtime.supply import ContinuousPower, FailurePoint, ScheduledFailures
from repro.sensors.environment import Environment, steps

from tests.conftest import WEATHER_SRC


@pytest.fixture(scope="module")
def continuous_rows():
    return measure_figure7(activations=12)


class TestTable1:
    def test_six_rows_plus_note(self):
        table = table1()
        assert len(table.rows) == 6
        apps = [row[0] for row in table.rows]
        assert apps == sorted(apps) or len(set(apps)) == 6
        assert set(apps) == {
            "activity", "cem", "greenhouse", "photo", "send_photo", "tire",
        }

    def test_renders_text_and_markdown(self):
        table = table1()
        assert "Table 1" in table.render_text()
        assert table.render_markdown().startswith("###")


class TestFigure7Shape:
    def test_ocelot_close_to_jit(self, continuous_rows):
        overheads = [row.normalized("ocelot") for row in continuous_rows]
        assert max(overheads) <= 1.35
        # Paper: "Ocelot has a mean 7% runtime increase".
        assert geometric_mean(overheads) < 1.12

    def test_cem_atomics_blowup(self, continuous_rows):
        cem = next(r for r in continuous_rows if r.app == "cem")
        assert cem.normalized("atomics") > 1.8
        assert cem.normalized("ocelot") < 1.15

    def test_tire_atomics_not_slower_than_ocelot(self, continuous_rows):
        tire = next(r for r in continuous_rows if r.app == "tire")
        assert tire.normalized("atomics") <= tire.normalized("ocelot") + 0.02

    def test_jit_is_fastest(self, continuous_rows):
        for row in continuous_rows:
            assert row.normalized("ocelot") >= 0.97
            assert row.normalized("atomics") >= 0.97


class TestFigure8Shape:
    @pytest.fixture(scope="class")
    def rows(self, continuous_rows):
        return measure_figure8(
            budget=120_000, continuous=continuous_rows, seed=3
        )

    def test_charging_dominates(self, rows):
        for row in rows:
            for config in ("jit", "ocelot", "atomics"):
                on = row.normalized_on(config)
                total = row.normalized_total(config)
                assert total > on * 1.5, (row.app, config)
                # The grey charging stack is the taller part of every bar.
                on_cycles, off_cycles = row.cycles[config]
                assert 0 < on_cycles < off_cycles, (row.app, config)

    def test_on_time_ordering_matches_continuous(self, rows):
        cem = next(r for r in rows if r.app == "cem")
        assert cem.normalized_on("atomics") > cem.normalized_on("ocelot")


class TestTable2aShape:
    def test_ocelot_zero_jit_hundred(self):
        rows = measure_table2a(off_cycles=20_000)
        for row in rows:
            assert row.rate("ocelot") == 0.0, row.app
            assert row.rate("jit") == 100.0, row.app
            assert row.results["jit"][1] > 0


class TestTable2bShape:
    @pytest.fixture(scope="class")
    def rows(self):
        return measure_table2b(budget=150_000, seed=1)

    def test_ocelot_never_violates(self, rows):
        for row in rows:
            assert row.results["ocelot"][0] == 0.0, row.app
            assert row.results["ocelot"][1] > 0, row.app

    def test_jit_ordering(self, rows):
        rates = {r.app: r.results["jit"][0] for r in rows}
        assert rates["photo"] >= rates["greenhouse"]
        assert rates["photo"] >= rates["tire"]
        assert rates["cem"] <= 0.05
        assert rates["photo"] > 0.2

    def test_runs_completed(self, rows):
        for row in rows:
            assert row.results["jit"][1] > 5, row.app


class TestTables3And4:
    def test_table3_lists_five_systems(self):
        assert len(table3().rows) == 5

    def test_table4_ocelot_column_minimal(self):
        rows = measure_table4()
        for row in rows:
            assert row.ours["ocelot"] <= row.ours["tics"]

    def test_table4_paper_matches(self):
        rows = {r.app: r for r in measure_table4()}
        for app in ("activity", "cem", "greenhouse", "photo", "tire"):
            assert rows[app].ours == rows[app].paper, app

    def test_table4_renders_every_app(self):
        assert len(table4().rows) == 6


def _weather_env():
    return Environment(
        {
            "temp": steps([2, 9], 3000),
            "pres": steps([100, 60], 3000),
            "hum": steps([20, 85], 3000),
        }
    )


def _weather_sweep(config):
    """Fail before every check site of Figure 2's weather program."""
    compiled = compile_source(WEATHER_SRC, config)
    plan = compiled.detector_plan()
    points = violating = unrefined = 0
    for site in sorted(plan.checks):
        supply = ScheduledFailures([FailurePoint(chain=site)], off_cycles=3000)
        result = Machine(compiled.module, _weather_env(), supply, plan=plan).run()
        assert result.stats.completed
        if not supply.all_fired:
            continue
        points += 1
        violating += bool(result.stats.violations)
        refined = check_refinement(compiled, result.trace, _weather_env).refined
        unrefined += not refined
    return points, violating, unrefined


class TestFigure2Sweep:
    def test_jit_misbehaves_at_every_point(self):
        points, violating, unrefined = _weather_sweep("jit")
        assert points > 0
        assert violating == points
        # Some torn log matches no continuous execution at all.
        assert unrefined >= 1

    def test_ocelot_always_refines(self):
        assert _weather_sweep("ocelot")[1:] == (0, 0)


def _cem_atomics_ratio(costs):
    meta = BENCHMARKS["cem"]
    cycles = {}
    for config in ("jit", "atomics"):
        result = run_activations(
            compile_source(meta.source, config),
            meta.env_factory(0),
            ContinuousPower(),
            budget_cycles=10**12,
            costs=costs,
            max_activations=8,
        )
        cycles[config] = result.total_cycles_on / len(result.records)
    return cycles["atomics"] / cycles["jit"]


class TestAblations:
    def test_undo_log_cost_drives_cem_blowup(self):
        base = BENCHMARKS["cem"].cost_model()
        cheap = _cem_atomics_ratio(replace(base, region_per_nv_word=0))
        expensive = _cem_atomics_ratio(replace(base, region_per_nv_word=6))
        assert cheap < 1.4, f"free undo log still slow: {cheap:.2f}"
        assert expensive > 2.5, f"expensive undo log too cheap: {expensive:.2f}"
        assert expensive > cheap * 1.8

    def test_boot_jitter_does_not_hide_violations(self):
        meta = BENCHMARKS["greenhouse"]
        compiled = compile_source(meta.source, "jit")

        def mean_rate(boot):
            profile = EnergyProfile(boot_fraction=boot)
            rates = [
                run_activations(
                    compiled,
                    meta.env_factory(0),
                    profile.make_supply(seed=seed),
                    budget_cycles=100_000,
                    costs=meta.cost_model(),
                ).violation_rate
                for seed in (1, 2, 3)
            ]
            return sum(rates) / len(rates)

        deterministic, jittered = mean_rate((1.0, 1.0)), mean_rate((0.65, 1.0))
        assert jittered >= deterministic - 0.05

    def test_nested_region_flattening_is_cheap(self):
        nested = "fn main() { atomic { atomic { atomic { work(50); } } } }"
        flat = "fn main() { atomic { work(50); } }"
        cycles = {
            src: run_continuous(
                compile_source(src, "ocelot"), Environment()
            ).stats.cycles_on
            for src in (nested, flat)
        }
        # Inner start/end pairs cost only counter bookkeeping.
        assert cycles[nested] - cycles[flat] <= 8


class TestReportRendering:
    def test_table_alignment(self):
        table = Table(title="T", headers=["a", "bb"])
        table.add_row("x", 1)
        table.add_row("yyyy", 2.5)
        text = table.render_text()
        assert "yyyy" in text and "2.50" in text

    def test_geometric_mean(self):
        assert abs(geometric_mean([1.0, 4.0]) - 2.0) < 1e-9
        with pytest.raises(ValueError):
            geometric_mean([])
