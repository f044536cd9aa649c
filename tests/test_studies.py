"""Tests for the declarative study layer (:mod:`repro.studies`).

Covers the schema (validation, TOML/JSON loading), the compiler
(lattice expansion, content-derived run IDs, within-plan dedupe,
parameter values checked before anything runs), execution on the
drivers' result cache (failure containment, importance ranking), the
``repro-study`` CLI, and — the migration contract — byte-identical
equivalence between each migrated ablation declaration and the
hand-written loop it replaced.
"""

import dataclasses
import json

import pytest

from repro.errors import StudyError
from repro.experiments.scale import ExperimentScale
from repro.parallel.cache import SimulationCache, records
from repro.studies.engine import compile_study, run_study
from repro.studies.registry import (
    get_study,
    study_names,
    threshold_study,
)
from repro.studies.spec import Factor, Study, load_study, study_from_mapping
from repro.studies.units import UNIT_KINDS, UnitKind, get_kind
from repro.trace import derived

SCALE = ExperimentScale(
    trace_length=30_000, window=5_000, use_cache=False,
    use_result_cache=False,
)


def _sans_counters(rendered):
    """A rendering with the provenance-counter line removed."""
    return [
        line for line in rendered.splitlines()
        if not line.startswith("units:")
    ]


def single_study(workloads=("matrix300",), metrics=("cpi_tlb",), **extra):
    defaults = dict(
        name="unit-test",
        kind="single",
        workloads=workloads,
        metrics=metrics,
        factors=(Factor("entries", (8, 16)),),
    )
    defaults.update(extra)
    return Study(**defaults)


class TestSpec:
    def test_requires_workloads_metrics_and_kind(self):
        with pytest.raises(StudyError, match="workloads"):
            Study(name="s", workloads=(), metrics=("cpi_tlb",), kind="single")
        with pytest.raises(StudyError, match="metrics"):
            Study(name="s", workloads=("li",), metrics=(), kind="single")
        with pytest.raises(StudyError, match="unit kind"):
            Study(name="s", workloads=("li",), metrics=("cpi_tlb",))

    def test_kind_as_factor_satisfies_the_kind_requirement(self):
        study = Study(
            name="s", workloads=("li",), metrics=("cpi_tlb",),
            factors=(Factor("kind", ("single", "two_size")),),
            fixed={"entries": 16},
        )
        assert study.factor_names == ("workload", "kind")

    def test_rejects_reserved_and_duplicate_factors(self):
        with pytest.raises(StudyError, match="implicit"):
            single_study(factors=(Factor("workload", ("li",)),))
        with pytest.raises(StudyError, match="repeats"):
            single_study(
                factors=(Factor("entries", (8,)), Factor("entries", (16,)))
            )
        with pytest.raises(StudyError, match="both fixed and a factor"):
            single_study(fixed={"entries": 8})

    def test_factor_validation(self):
        with pytest.raises(StudyError, match="no levels"):
            Factor("entries", ())
        with pytest.raises(StudyError, match="repeats a level"):
            Factor("entries", (8, 8))

    def test_with_overrides_replaces_levels(self):
        study = single_study().with_overrides(entries=(4, 32, 64))
        assert study.factor("entries").levels == (4, 32, 64)
        with pytest.raises(StudyError, match="no factor"):
            single_study().with_overrides(banana=(1,))

    def test_mapping_rejects_unknown_fields(self):
        with pytest.raises(StudyError, match="unknown study field"):
            study_from_mapping({"name": "s", "workload": ["li"]})
        with pytest.raises(StudyError, match="exactly the fields"):
            study_from_mapping(
                {
                    "name": "s", "kind": "single", "workloads": ["li"],
                    "metrics": ["cpi_tlb"],
                    "factors": [{"name": "entries", "extra": 1}],
                }
            )


class TestLoading:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(
            json.dumps(
                {
                    "name": "geometry", "kind": "single",
                    "workloads": ["li"], "metrics": ["cpi_tlb"],
                    "factors": [{"name": "entries", "levels": [8, 16]}],
                    "fixed": {"replacement": "fifo"},
                }
            )
        )
        study = load_study(path)
        assert study.name == "geometry"
        assert study.factor("entries").levels == (8, 16)
        assert study.fixed == {"replacement": "fifo"}

    def test_toml_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "study.toml"
        path.write_text(
            'name = "geometry"\nkind = "single"\n'
            'workloads = ["li"]\nmetrics = ["cpi_tlb"]\n'
            "[[factors]]\nname = \"entries\"\nlevels = [8, 16]\n"
        )
        study = load_study(path)
        assert study.factor("entries").levels == (8, 16)

    def test_unreadable_and_unsupported_files(self, tmp_path):
        with pytest.raises(StudyError, match="cannot read"):
            load_study(tmp_path / "missing.json")
        bad = tmp_path / "study.yaml"
        bad.write_text("name: nope")
        with pytest.raises(StudyError, match="suffix"):
            load_study(bad)
        torn = tmp_path / "torn.json"
        torn.write_text("{not json")
        with pytest.raises(StudyError, match="not valid JSON"):
            load_study(torn)

    def test_example_toml_declaration_compiles(self):
        pytest.importorskip("tomllib")
        study = load_study("examples/studies/geometry.toml")
        plan = compile_study(study, SCALE)
        # 3 workloads x 3 entries x 2 replacement policies.
        assert len(plan.units) == 18


class TestCompile:
    def test_lattice_expansion_in_declaration_order(self):
        study = single_study(workloads=("matrix300", "li"))
        plan = compile_study(study, SCALE)
        points = [
            (u.point["workload"], u.point["entries"]) for u in plan.units
        ]
        assert points == [
            ("matrix300", 8), ("matrix300", 16), ("li", 8), ("li", 16),
        ]

    def test_validation_catches_typos(self):
        with pytest.raises(StudyError, match="unknown workload"):
            compile_study(single_study(workloads=("nope",)), SCALE)
        with pytest.raises(StudyError, match="produces metric"):
            compile_study(single_study(metrics=("banana",)), SCALE)
        with pytest.raises(StudyError, match="not a parameter"):
            compile_study(
                single_study(
                    factors=(Factor("entries", (8,)), Factor("nope", (1,)))
                ),
                SCALE,
            )
        with pytest.raises(StudyError, match="not consumed"):
            compile_study(single_study(fixed={"nope": 1}), SCALE)
        with pytest.raises(StudyError, match="unknown unit kind"):
            compile_study(single_study(kind="banana"), SCALE)
        with pytest.raises(StudyError, match="requires parameter"):
            compile_study(
                Study(
                    name="s", kind="split", workloads=("li",),
                    metrics=("cpi_tlb",),
                ),
                SCALE,
            )

    def test_bad_parameter_value_fails_before_traces(self, monkeypatch):
        def no_traces(scale, name):
            raise AssertionError("a trace was generated")

        monkeypatch.setattr(ExperimentScale, "trace", no_traces)
        for kind, fixed, message in (
            ("two_size", {"indexing": "bogus"}, "'bogus' is not a valid"),
            ("single", {"replacement": "bogus"}, "unknown replacement policy"),
        ):
            study = Study(
                name="s", kind=kind, workloads=("li", "matrix300"),
                metrics=("cpi_tlb",), factors=(Factor("entries", (8, 16)),),
                fixed=fixed,
            )
            with pytest.raises(StudyError, match=f"unit {kind}:entries=8: {message}"):
                compile_study(study, SCALE)

    def test_bad_parameter_value_exits_2_before_any_unit(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.studies.cli import main

        monkeypatch.setenv("REPRO_TRACE_LENGTH", "30000")
        monkeypatch.setenv("REPRO_WINDOW", "5000")
        declaration = tmp_path / "bogus.json"
        declaration.write_text(
            json.dumps(
                {
                    "name": "bogus", "kind": "single", "workloads": ["li"],
                    "metrics": ["cpi_tlb"],
                    "factors": [{"name": "entries", "levels": [8, 12]}],
                    "fixed": {"associativity": 8},
                }
            )
        )
        visits = []
        monkeypatch.setattr(
            UnitKind, "run", lambda kind, *args: visits.append(kind.name)
        )
        assert main([str(declaration)]) == 2
        assert visits == []
        err = capsys.readouterr().err
        assert "unit single:entries=12" in err
        assert "does not divide 12 entries" in err

    def test_window_resolved_from_scale_into_run_id(self):
        study = Study(
            name="s", kind="two_size", workloads=("li",),
            metrics=("cpi_tlb",), fixed={"entries": 16},
        )
        (unit,) = compile_study(study, SCALE).units
        assert unit.params["window"] == SCALE.window
        other = dataclasses.replace(SCALE, window=6_000)
        (unit2,) = compile_study(study, other).units
        assert unit.run_id != unit2.run_id


class TestRunIDs:
    def test_identical_across_compiles_and_study_names(self):
        a = compile_study(single_study(), SCALE)
        b = compile_study(single_study(name="renamed"), SCALE)
        assert [u.run_id for u in a.units] == [u.run_id for u in b.units]

    def test_cover_only_consumed_params(self):
        # A factor consumed by just one kind in a multi-kind lattice
        # collapses to a single unit for the other kind.
        study = Study(
            name="s", workloads=("li",), metrics=("cpi_tlb",),
            factors=(
                Factor("kind", ("single", "two_size")),
                Factor("promote_fraction", (0.25, 0.75)),
            ),
            fixed={"entries": 16},
        )
        plan = compile_study(study, SCALE)
        assert len(plan.units) == 4
        assert len(plan.unique_units) == 3  # one single + two two_size


class TestRunStudy:
    def test_within_plan_dedupe_simulates_unique_units_once(self):
        study = Study(
            name="s", workloads=("li",), metrics=("cpi_tlb",),
            factors=(
                Factor("kind", ("single", "two_size")),
                Factor("promote_fraction", (0.25, 0.75)),
            ),
            fixed={"entries": 16},
        )
        result = run_study(study, scale=SCALE, jobs=1, cache=None)
        assert result.counters["planned"] == 4
        assert result.counters["unique"] == 3
        assert result.counters["simulated"] == 3
        sources = [r.source for r in result.units]
        assert sources.count("dedup") == 1
        # Both single-kind points carry the same payload.
        a, b = [r for r in result.units if r.unit.kind == "single"]
        assert a.metrics == b.metrics

    def test_second_run_resolves_entirely_from_cache(self, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        study = single_study()
        first = run_study(study, scale=SCALE, jobs=1, cache=cache)
        assert first.counters["simulated"] == 2
        second = run_study(study, scale=SCALE, jobs=1, cache=cache)
        assert second.counters["simulated"] == 0
        assert second.counters["from_cache"] == 2
        for r1, r2 in zip(first.units, second.units):
            assert r1.metrics == r2.metrics
        # The table and ranking are identical; only provenance counters
        # differ between a fresh and a fully cached run.
        assert _sans_counters(first.render()) == _sans_counters(
            second.render()
        )

    @pytest.mark.parametrize("name", ["probe", "threshold"])
    def test_second_run_inside_a_run_replays_from_memory(self, tmp_path, name):
        cache = SimulationCache(tmp_path / "cache")
        study = get_study(name)
        with derived.run():
            run_study(study, scale=SCALE, jobs=1, cache=cache)
            stores = cache.stats.stores
            second = run_study(study, scale=SCALE, jobs=1, cache=cache)
        assert second.counters["simulated"] == 0
        assert second.counters["from_cache"] == second.counters["unique"]
        assert cache.stats.stores == stores

    def test_cache_entry_missing_a_wanted_metric_recomputes(self, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        narrow = threshold_study(fractions=(0.5,))
        narrow = dataclasses.replace(
            narrow, workloads=("li",), metrics=("cpi_tlb",)
        )
        run_study(narrow, scale=SCALE, jobs=1, cache=cache)
        wide = dataclasses.replace(
            narrow, metrics=("cpi_tlb", "ws_normalized")
        )
        upgraded = run_study(wide, scale=SCALE, jobs=1, cache=cache)
        assert upgraded.counters["simulated"] == 1  # lazy metric absent
        again = run_study(wide, scale=SCALE, jobs=1, cache=cache)
        assert again.counters["simulated"] == 0
        assert again.units[0].metrics["ws_normalized"] > 0

    def test_persistent_failure_strict_and_lenient(self, monkeypatch):
        def broken(kind, *args):
            raise RuntimeError("driver exploded")

        monkeypatch.setattr(UnitKind, "run", broken)
        with pytest.raises(StudyError, match="unit\\(s\\) failed"):
            run_study(single_study(), scale=SCALE, jobs=1, cache=None)
        lenient = run_study(
            single_study(), scale=SCALE, jobs=1, cache=None, strict=False
        )
        assert lenient.counters["failed"] == 2
        assert lenient.units == []
        assert "FAILED" in lenient.render()
        assert "driver exploded" in lenient.render()

    def test_value_and_table_lookup(self):
        result = run_study(
            single_study(), scale=SCALE, jobs=1, cache=None
        )
        v8 = result.value("cpi_tlb", workload="matrix300", entries=8)
        v16 = result.value("cpi_tlb", workload="matrix300", entries=16)
        assert v8 > v16  # more entries, fewer misses
        table = result.table("cpi_tlb", "entries")
        assert table == {"matrix300": {8: v8, 16: v16}}
        with pytest.raises(StudyError, match="no unit matches"):
            result.value("cpi_tlb", entries=99)
        with pytest.raises(StudyError, match="ambiguous"):
            result.value("cpi_tlb", workload="matrix300")

    def test_importance_ranks_largest_effect_first(self):
        result = run_study(
            single_study(workloads=("matrix300", "espresso")),
            scale=SCALE, jobs=1, cache=None,
        )
        effects = result.importance()
        assert [e.factor for e in effects] == ["workload", "entries"]
        deltas = [e.delta for e in effects]
        assert deltas == sorted(deltas, reverse=True)
        assert all(e.delta >= 0 for e in effects)

    def test_parallel_run_matches_serial(self):
        study = single_study(workloads=("matrix300", "li"))
        serial = run_study(study, scale=SCALE, jobs=1, cache=None)
        parallel = run_study(study, scale=SCALE, jobs=2, cache=None)
        assert [r.metrics for r in serial.units] == [
            r.metrics for r in parallel.units
        ]
        assert serial.render() == parallel.render()

    def test_to_json_shape(self):
        result = run_study(single_study(), scale=SCALE, jobs=1, cache=None)
        document = result.to_json()
        assert document["schema"] == "repro-study/2"
        assert document["counters"]["planned"] == 2
        assert len(document["units"]) == 2
        assert {u["source"] for u in document["units"]} == {"run"}
        json.dumps(document)  # must be serializable


class TestUnitKinds:
    def test_every_registered_study_compiles(self):
        for name in study_names():
            plan = compile_study(get_study(name), SCALE)
            assert plan.units

    def test_unknown_kind_and_metric_errors(self):
        with pytest.raises(StudyError, match="unknown unit kind"):
            get_kind("banana")
        with pytest.raises(StudyError, match="no metric"):
            UNIT_KINDS["single"].check_metrics(("banana",))


# ---------------------------------------------------------------------------
# Equivalence: each migrated ablation's declaration must render the
# byte-identical table its hand-written loop produced.  The loops below
# are condensed copies of the pre-migration implementations.
# ---------------------------------------------------------------------------


def _hand_threshold(scale, fractions=(0.25, 0.5, 0.75, 1.0)):
    from repro.experiments.ablations import (
        ABLATION_WORKLOADS, ThresholdAblation,
    )
    from repro.policy.dynamic_ws import dynamic_average_working_set
    from repro.sim.config import TLBConfig, TwoSizeScheme
    from repro.sim.driver import run_two_sizes
    from repro.stacksim.working_set import average_working_set_bytes
    from repro.types import PAGE_4KB, PAIR_4KB_32KB

    config, cache = TLBConfig(16), scale.sim_cache()
    cpi, ws = {}, {}
    for name in ABLATION_WORKLOADS:
        trace = scale.trace(name)
        baseline_ws = average_working_set_bytes(
            trace, PAGE_4KB, [scale.window]
        )[scale.window]
        cpi[name], ws[name] = {}, {}
        for fraction in fractions:
            scheme = TwoSizeScheme(
                window=scale.window, promote_fraction=fraction
            )
            (result,) = run_two_sizes(trace, scheme, [config], cache=cache)
            cpi[name][fraction] = result.cpi_tlb
            dynamic = dynamic_average_working_set(
                trace, PAIR_4KB_32KB, scale.window, promote_fraction=fraction
            )
            ws[name][fraction] = (
                dynamic.average_bytes / baseline_ws if baseline_ws else 1.0
            )
    return ThresholdAblation(cpi, ws, tuple(fractions), scale)


def _hand_penalty(scale, factors=(1.0, 1.25, 1.5, 2.0, 4.0)):
    from repro.experiments.ablations import (
        ABLATION_WORKLOADS, PenaltyAblation,
    )
    from repro.sim.config import SingleSizeScheme, TLBConfig, TwoSizeScheme
    from repro.sim.driver import run_single_size, run_two_sizes
    from repro.types import PAGE_4KB

    config, cache = TLBConfig(16), scale.sim_cache()
    baseline, cpi = {}, {}
    for name in ABLATION_WORKLOADS:
        trace = scale.trace(name)
        baseline[name] = run_single_size(
            trace, SingleSizeScheme(PAGE_4KB), config, cache=cache
        ).cpi_tlb
        (result,) = run_two_sizes(
            trace, TwoSizeScheme(window=scale.window), [config],
            penalty_factor=1.0, cache=cache,
        )
        cpi[name] = {factor: result.cpi_tlb * factor for factor in factors}
    return PenaltyAblation(baseline, cpi, tuple(factors), scale)


def _hand_probe(scale):
    from repro.experiments.ablations import ABLATION_WORKLOADS, ProbeAblation
    from repro.sim.config import TLBConfig, TwoSizeScheme
    from repro.sim.driver import run_two_sizes
    from repro.tlb.indexing import IndexingScheme, ProbeStrategy

    config = TLBConfig(
        16, 2, IndexingScheme.EXACT_INDEX,
        probe_strategy=ProbeStrategy.SEQUENTIAL,
    )
    cache = scale.sim_cache()
    misses, reprobes, references = {}, {}, {}
    for name in ABLATION_WORKLOADS:
        trace = scale.trace(name)
        (result,) = run_two_sizes(
            trace, TwoSizeScheme(window=scale.window), [config], cache=cache
        )
        misses[name] = result.misses
        reprobes[name] = result.reprobes
        references[name] = result.references
    return ProbeAblation(misses, reprobes, references, scale)


def _hand_replacement(scale, policies=("lru", "fifo", "random", "plru")):
    from repro.experiments.ablations import (
        ABLATION_WORKLOADS, ReplacementAblation,
    )
    from repro.sim.config import SingleSizeScheme, TLBConfig
    from repro.sim.driver import run_single_size
    from repro.types import PAGE_4KB

    cache = scale.sim_cache()
    cpi = {}
    for name in ABLATION_WORKLOADS:
        trace = scale.trace(name)
        cpi[name] = {}
        for policy in policies:
            result = run_single_size(
                trace, SingleSizeScheme(PAGE_4KB),
                TLBConfig(16, replacement=policy), cache=cache,
            )
            cpi[name][policy] = result.cpi_tlb
    return ReplacementAblation(cpi, tuple(policies), scale)


def _hand_split(scale):
    from repro.experiments.ablations import ABLATION_WORKLOADS, SplitAblation
    from repro.sim.config import TLBConfig, TwoSizeScheme
    from repro.sim.driver import run_split_two_sizes, run_two_sizes

    cache = scale.sim_cache()
    unified_cpi, split_cpi, utilisation = {}, {}, {}
    for name in ABLATION_WORKLOADS:
        trace = scale.trace(name)
        scheme = TwoSizeScheme(window=scale.window)
        (unified,) = run_two_sizes(
            trace, scheme, [TLBConfig(16)], cache=cache
        )
        unified_cpi[name] = unified.cpi_tlb
        split = run_split_two_sizes(
            trace, scheme, TLBConfig(12), TLBConfig(4), cache=cache
        )
        instructions = len(trace) / trace.refs_per_instruction
        split_cpi[name] = split.misses * 25.0 / instructions
        utilisation[name] = split.large_occupancy / 4.0
    return SplitAblation(unified_cpi, split_cpi, utilisation, scale)


def _hand_twolevel(scale, l1=4, l2=32, l2_hit_cycles=4.0):
    from repro.experiments.ablations import (
        ABLATION_WORKLOADS, TwoLevelAblation,
    )
    from repro.sim.config import TLBConfig, TwoLevelConfig, TwoSizeScheme
    from repro.sim.driver import run_two_level, run_two_sizes

    cache = scale.sim_cache()
    config = TwoLevelConfig(
        level1=TLBConfig(l1), level2=TLBConfig(l2),
        l2_hit_cycles=l2_hit_cycles,
    )
    flat_cpi, hierarchy_cpi, l2_rate = {}, {}, {}
    for name in ABLATION_WORKLOADS:
        trace = scale.trace(name)
        scheme = TwoSizeScheme(window=scale.window)
        (flat,) = run_two_sizes(trace, scheme, [TLBConfig(16)], cache=cache)
        flat_cpi[name] = flat.cpi_tlb
        hierarchy = run_two_level(trace, scheme, config, cache=cache)
        hierarchy_cpi[name] = hierarchy.cpi_tlb
        l1_misses = hierarchy.l2_hits + hierarchy.misses
        l2_rate[name] = hierarchy.l2_hits / l1_misses if l1_misses else 0.0
    return TwoLevelAblation(flat_cpi, hierarchy_cpi, l2_rate, l1, l2, scale)


class TestMigrationEquivalence:
    """Declaration output == hand-loop output, byte for byte."""

    def test_threshold(self):
        from repro.experiments.ablations import run_threshold_ablation

        assert (
            run_threshold_ablation(SCALE).render()
            == _hand_threshold(SCALE).render()
        )

    def test_penalty(self):
        from repro.experiments.ablations import run_penalty_ablation

        assert (
            run_penalty_ablation(SCALE).render()
            == _hand_penalty(SCALE).render()
        )

    def test_probe(self):
        from repro.experiments.ablations import run_probe_ablation

        assert (
            run_probe_ablation(SCALE).render() == _hand_probe(SCALE).render()
        )

    def test_replacement(self):
        from repro.experiments.ablations import run_replacement_ablation

        # plru's scalar-walk fallback dominates runtime; two policies
        # are enough to prove the mapping.
        policies = ("lru", "fifo")
        assert (
            run_replacement_ablation(SCALE, policies).render()
            == _hand_replacement(SCALE, policies).render()
        )

    def test_split(self):
        from repro.experiments.ablations import run_split_ablation

        assert (
            run_split_ablation(SCALE).render() == _hand_split(SCALE).render()
        )

    def test_twolevel(self):
        from repro.experiments.ablations import run_twolevel_ablation

        assert (
            run_twolevel_ablation(SCALE).render()
            == _hand_twolevel(SCALE).render()
        )


class TestCLI:
    def _tiny_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LENGTH", "30000")
        monkeypatch.setenv("REPRO_WINDOW", "5000")

    def test_list_names(self, capsys):
        from repro.studies.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in study_names():
            assert name in out

    def test_unknown_study_exits_2(self, capsys):
        from repro.studies.cli import main

        assert main(["banana"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_no_study_exits_2(self, capsys):
        from repro.studies.cli import main

        assert main([]) == 2

    def test_registered_study_with_json_artifact(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        artifact = tmp_path / "report.json"
        assert main(["probe", "--json", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "sequential exact-index probing" in out
        document = json.loads(artifact.read_text())
        assert document["study"] == "probe"
        assert document["counters"]["failed"] == 0

    def test_declaration_file_run(self, monkeypatch, tmp_path, capsys):
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        declaration = tmp_path / "tiny.json"
        declaration.write_text(
            json.dumps(
                {
                    "name": "tiny", "kind": "single", "workloads": ["li"],
                    "metrics": ["cpi_tlb"],
                    "factors": [{"name": "entries", "levels": [8, 16]}],
                }
            )
        )
        assert main([str(declaration)]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_expect_cached_fails_without_cache(self, monkeypatch, capsys):
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        # Hermetic env disables the result cache, so units simulate.
        assert main(["probe", "--expect-cached"]) == 3
        assert "expected a fully cached run" in capsys.readouterr().err

    def test_second_run_is_fully_cached(self, monkeypatch, tmp_path, capsys):
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["probe"]) == 0
        assert main(["probe", "--expect-cached"]) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_run_on_a_cache_filled_by_direct_driver_calls(
        self, monkeypatch, tmp_path, capsys
    ):
        # The study keeps no entries of its own: the driver calls the
        # probe ablation makes by hand fill every entry its units read.
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        _hand_probe(dataclasses.replace(SCALE, use_result_cache=True))

        def files():
            return {
                path.name: path.stat().st_mtime_ns
                for path in (tmp_path / "cache").rglob("*")
            }

        filled = files()
        assert len(records(tmp_path / "cache")) == 3
        cache = SimulationCache.from_environment()
        stores = cache.stats.stores
        assert main(["probe", "--expect-cached"]) == 0
        assert "3 from cache, 0 simulated" in capsys.readouterr().out
        assert cache.stats.stores == stores
        assert files() == filled
        assert len(records(tmp_path / "cache")) == 3

    @pytest.mark.parametrize(
        "variable", ["REPRO_TRACE_LENGTH", "REPRO_WINDOW", "REPRO_JOBS"]
    )
    def test_non_integer_variable_exits_2(self, monkeypatch, capsys, variable):
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        monkeypatch.setenv(variable, "x")
        assert main(["probe"]) == 2
        assert f"{variable} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trace-length", "--window"])
    def test_zero_scale_flag_exits_2(self, monkeypatch, capsys, flag):
        from repro.studies.cli import main

        self._tiny_env(monkeypatch)
        assert main(["probe", flag, "0"]) == 2
        assert f"{flag} must be positive" in capsys.readouterr().err
