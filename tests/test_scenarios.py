"""The scenario matrix: spec identity, axis composition, generator
determinism, behavioural effects of each axis, and the sweep harness's
smoke subset (the default test job's quick lane through
``repro.experiments.scenarios``)."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.__main__ import main
from repro.experiments.bench_summary import BenchSummary
from repro.experiments.scenarios import (
    SCHEMA_VERSION,
    format_matrix,
    load_matrix,
    merge_into_summary,
    sweep,
    write_matrix,
)
from repro.scenarios import (
    ID_HEX_CHARS,
    SCENARIO_MATRIX,
    SMOKE_FRAMES,
    SMOKE_SUBSET,
    DropoutAxis,
    ScenarioSpec,
    SurgeAxis,
    TailAxis,
    WeatherAxis,
    build_scenario,
    compact_scene,
    compose_fault_profile,
    compose_scene,
    derive_seeds,
    fault_parts,
    scenario_by_name,
    smoke_variant,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: Representative scenarios whose ``Scenario.fingerprint()`` digests are
#: pinned in ``fixtures/scenario_golden.json`` — one clear run plus one
#: scenario per axis family, all at seed 0.
GOLDEN_PATH = FIXTURES / "scenario_golden.json"


class TestMatrix:
    def test_matrix_is_at_least_twenty_scenarios(self):
        assert len(SCENARIO_MATRIX) >= 20

    def test_names_are_unique(self):
        names = [spec.name for spec in SCENARIO_MATRIX]
        assert len(names) == len(set(names))

    def test_ids_are_injective_over_the_matrix(self):
        ids = [spec.scenario_id for spec in SCENARIO_MATRIX]
        assert len(ids) == len(set(ids))
        assert all(len(sid) == ID_HEX_CHARS for sid in ids)

    def test_every_axis_family_is_exercised(self):
        for axis in ("surge", "weather", "dropout", "tail"):
            assert any(
                axis in spec.active_axes for spec in SCENARIO_MATRIX
            ), f"no scenario exercises the {axis} axis"
        assert any(not spec.active_axes for spec in SCENARIO_MATRIX), (
            "the matrix needs at least one clear (axis-free) scenario"
        )

    def test_every_preset_is_exercised(self):
        presets = {spec.preset for spec in SCENARIO_MATRIX}
        assert presets == {"mot17", "kitti", "pathtrack"}

    def test_scenario_by_name_round_trips(self):
        for spec in SCENARIO_MATRIX:
            assert scenario_by_name(spec.name) is spec

    def test_scenario_by_name_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="mot17-clear"):
            scenario_by_name("no-such-scenario")

    def test_smoke_subset_is_part_of_the_matrix(self):
        assert set(SMOKE_SUBSET) <= {spec.name for spec in SCENARIO_MATRIX}

    def test_smoke_variant_caps_frames_and_moves_the_id(self):
        spec = scenario_by_name("mot17-clear")
        smoke = smoke_variant(spec)
        assert smoke.n_frames == SMOKE_FRAMES < spec.n_frames
        assert smoke.scenario_id != spec.scenario_id

    def test_smoke_variant_is_a_noop_below_the_cap(self):
        spec = ScenarioSpec(name="tiny", preset="mot17", n_frames=100)
        assert smoke_variant(spec) == spec


class TestSpecIdentity:
    def test_id_is_stable_across_processes(self):
        # Pinned literals; the smoke-variant id also appears in the
        # committed scenario-matrix baseline (which runs at smoke scale).
        spec = scenario_by_name("chaos-baseline")
        assert spec.scenario_id == "c90f0e6a4f47"
        assert smoke_variant(spec).scenario_id == "4bd20d0fc4a4"

    def test_id_moves_with_every_field(self):
        base = scenario_by_name("mot17-clear")
        variants = [
            replace(base, name="renamed"),
            replace(base, preset="kitti"),
            replace(base, n_frames=base.n_frames + 1),
            replace(base, window_length=base.window_length + 1),
            replace(base, surge=SurgeAxis(max_objects_boost=1)),
            replace(base, weather=WeatherAxis(corrupt_rate=0.01)),
            replace(base, dropout=DropoutAxis(frame_drop_rate=0.01)),
            replace(base, tail=TailAxis(alpha=2.0)),
        ]
        ids = {base.scenario_id} | {v.scenario_id for v in variants}
        assert len(ids) == 1 + len(variants)

    def test_canonical_json_is_sorted_and_compact(self):
        blob = scenario_by_name("mot17-clear").canonical_json()
        decoded = json.loads(blob)
        assert blob == json.dumps(
            decoded, sort_keys=True, separators=(",", ":")
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScenarioSpec(name="", preset="mot17")
        with pytest.raises(KeyError):
            ScenarioSpec(name="x", preset="no-such-preset")
        with pytest.raises(ValueError, match="n_frames"):
            ScenarioSpec(name="x", preset="mot17", n_frames=0)
        with pytest.raises(ValueError, match="window_length"):
            ScenarioSpec(name="x", preset="mot17", window_length=1)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="start <= end"):
            SurgeAxis(bursts=((0.8, 0.2, 2.0),))
        with pytest.raises(ValueError, match="corrupt_mode"):
            WeatherAxis(corrupt_rate=0.1, corrupt_mode="zero")
        with pytest.raises(ValueError, match="frame_drop_rate"):
            DropoutAxis(frame_drop_rate=1.5)
        with pytest.raises(ValueError, match="alpha"):
            TailAxis(alpha=0.0)

    def test_active_axes_of_the_perfect_storm(self):
        spec = scenario_by_name("mot17-perfect-storm")
        assert spec.active_axes == ("surge", "weather", "dropout", "tail")
        assert scenario_by_name("mot17-clear").active_axes == ()


class TestComposition:
    def test_clear_scene_is_the_compact_preset(self):
        spec = scenario_by_name("kitti-clear")
        assert compose_scene(spec) == compact_scene("kitti")

    def test_surge_becomes_an_absolute_frame_schedule(self):
        spec = scenario_by_name("mot17-rush-hour")
        scene = compose_scene(spec)
        base = compact_scene("mot17")
        (start, end, multiplier) = spec.surge.bursts[0]
        assert scene.spawn_rate_schedule == (
            (
                int(round(start * spec.n_frames)),
                int(round(end * spec.n_frames)),
                multiplier,
            ),
        )
        assert scene.max_objects == (
            base.max_objects + spec.surge.max_objects_boost
        )

    def test_weather_adjusts_the_glare_climate(self):
        spec = scenario_by_name("mot17-glare-storm")
        scene = compose_scene(spec)
        base = compact_scene("mot17")
        assert scene.glare_rate == pytest.approx(
            base.glare_rate + spec.weather.glare_rate_boost
        )
        assert scene.glare_strength == spec.weather.glare_strength

    def test_tail_switches_the_lifetime_draw(self):
        spec = scenario_by_name("mot17-longtail")
        scene = compose_scene(spec)
        assert scene.track_length_tail == spec.tail.alpha
        assert scene.max_track_length == max(
            compact_scene("mot17").max_track_length, spec.tail.max_length
        )

    def test_fault_seam_axes_do_not_touch_the_scene(self):
        spec = scenario_by_name("kitti-camera-dropout")
        assert compose_scene(spec) == compact_scene("kitti")

    def test_clear_scenarios_compose_no_fault_profile(self):
        spec = scenario_by_name("pathtrack-clear")
        assert fault_parts(spec) == []
        assert compose_fault_profile(spec, fault_seed=7) is None

    def test_composed_profile_carries_the_axis_rates(self):
        spec = scenario_by_name("mot17-perfect-storm")
        parts = fault_parts(spec)
        assert len(parts) == 2  # weather corruption + dropout bundles
        profile = compose_fault_profile(spec, fault_seed=7)
        assert profile.name == f"scenario:{spec.name}"
        assert profile.seed == 7
        assert profile.corrupt_rate == spec.weather.corrupt_rate
        assert profile.corrupt_mode == spec.weather.corrupt_mode
        assert profile.frame_drop_rate == spec.dropout.frame_drop_rate
        assert profile.window_crash_rate == spec.dropout.window_crash_rate


class TestAxisBehaviour:
    """The axes change what they claim to change, on simulated worlds."""

    def test_surge_raises_the_population(self):
        clear = build_scenario(scenario_by_name("mot17-clear"), seed=0)
        rush = build_scenario(scenario_by_name("mot17-rush-hour"), seed=0)
        assert len(rush.world.objects) > len(clear.world.objects)

    def test_tail_reaches_past_the_compact_lifetime_cap(self):
        clear = build_scenario(scenario_by_name("mot17-clear"), seed=0)
        longtail = build_scenario(
            scenario_by_name("mot17-longtail"), seed=0
        )
        cap = clear.scene.max_track_length
        lifetimes = [
            obj.lifetime for obj in longtail.world.objects.values()
        ]
        assert max(lifetimes) > cap

    def test_light_tail_shortens_lifetimes(self):
        clear = build_scenario(scenario_by_name("kitti-clear"), seed=0)
        short = build_scenario(
            scenario_by_name("kitti-shortlived"), seed=0
        )

        def mean_lifetime(scenario):
            lifetimes = [
                obj.lifetime for obj in scenario.world.objects.values()
            ]
            return sum(lifetimes) / len(lifetimes)

        assert mean_lifetime(short) < mean_lifetime(clear)


class TestGeneratorDeterminism:
    def test_equal_spec_and_seed_rebuild_bit_identically(self):
        spec = smoke_variant(scenario_by_name("mot17-perfect-storm"))
        assert (
            build_scenario(spec, seed=5).fingerprint()
            == build_scenario(spec, seed=5).fingerprint()
        )

    def test_seed_moves_the_scenario(self):
        spec = smoke_variant(scenario_by_name("mot17-clear"))
        assert (
            build_scenario(spec, seed=0).fingerprint()
            != build_scenario(spec, seed=1).fingerprint()
        )

    def test_spec_moves_the_scenario(self):
        a = smoke_variant(scenario_by_name("mot17-clear"))
        b = smoke_variant(scenario_by_name("kitti-clear"))
        assert (
            build_scenario(a, seed=0).fingerprint()
            != build_scenario(b, seed=0).fingerprint()
        )

    def test_derived_seeds_are_stable(self):
        spec = scenario_by_name("mot17-clear")
        first = derive_seeds(spec, seed=3)
        again = derive_seeds(spec, seed=3)
        assert (
            first.fault_seed,
            first.reid_seed,
            first.detector_seed,
            first.disorder_seed,
        ) == (
            again.fault_seed,
            again.reid_seed,
            again.detector_seed,
            again.disorder_seed,
        )


class TestGoldenFingerprints:
    """``(spec, seed=0)`` digests pinned for representative scenarios.

    Regenerate (after a conscious generator change) with::

        PYTHONPATH=src python tests/fixtures/make_scenario_golden.py
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_fixture_covers_five_scenarios(self, golden):
        assert len(golden) == 5

    @pytest.mark.parametrize(
        "name",
        json.loads(GOLDEN_PATH.read_text()).keys(),
    )
    def test_build_matches_golden(self, golden, name):
        spec = scenario_by_name(name)
        scenario = build_scenario(spec, seed=0)
        assert spec.scenario_id == golden[name]["scenario_id"]
        assert scenario.fingerprint() == golden[name]["fingerprint"]
        assert len(scenario.world.objects) == golden[name]["n_objects"]


@pytest.fixture(scope="module")
def smoke_document():
    """One sweep of the CI smoke subset (three scenarios, smoke scale)."""
    return sweep(seed=0, smoke=True, only=SMOKE_SUBSET)


class TestSweepSmoke:
    def test_document_shape(self, smoke_document):
        assert smoke_document["schema"] == SCHEMA_VERSION
        assert smoke_document["mode"] == "smoke"
        assert smoke_document["seed"] == 0
        assert set(smoke_document["scenarios"]) == set(SMOKE_SUBSET)

    def test_records_carry_both_legs(self, smoke_document):
        for record in smoke_document["scenarios"].values():
            assert 0.0 <= record["recall"] <= 1.0
            assert record["reid_budget"] > 0
            assert record["windows"] >= 1
            assert record["stream"]["emissions"] >= 1

    def test_sweep_is_deterministic(self, smoke_document):
        again = sweep(seed=0, smoke=True, only=SMOKE_SUBSET)
        assert again == smoke_document

    def test_write_load_round_trip_is_byte_stable(
        self, smoke_document, tmp_path
    ):
        first = write_matrix(smoke_document, tmp_path / "m.json")
        loaded = load_matrix(first)
        assert loaded == smoke_document
        second = write_matrix(loaded, tmp_path / "m2.json")
        assert first.read_bytes() == second.read_bytes()

    def test_load_rejects_foreign_schemas(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "scenarios": {}}))
        with pytest.raises(ValueError, match="schema 99"):
            load_matrix(path)

    def test_merge_into_summary_records_worst_case(
        self, smoke_document, tmp_path
    ):
        path = merge_into_summary(smoke_document, tmp_path / "s.json")
        summary = BenchSummary.load(path)
        record = summary.benchmarks["scenario_matrix"]
        scenarios = smoke_document["scenarios"].values()
        assert record["recall"] == min(r["recall"] for r in scenarios)
        assert record["reid_invocations"] == sum(
            r["reid_budget"] for r in scenarios
        )
        for name in SMOKE_SUBSET:
            assert f"{name}.recall" in record["extras"]

    def test_format_matrix_names_every_scenario(self, smoke_document):
        table = format_matrix(smoke_document)
        for name in SMOKE_SUBSET:
            assert name in table

    def test_cli_runs_the_smoke_subset(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        status = main(
            [
                "scenarios",
                "--smoke",
                "--only",
                *SMOKE_SUBSET,
                "--matrix-out",
                str(out),
            ]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "scenario matrix written to" in printed
        assert load_matrix(out)["mode"] == "smoke"
