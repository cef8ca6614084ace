import dataclasses

import pytest

from netaug import (
    DisconnectedGraphError,
    ExperimentConfig,
    aggregates_to_csv,
    records_to_csv,
    run_experiment,
    trial_seed,
)


def small_config(**overrides):
    base = dict(
        model="erdos-renyi",
        n=10,
        parameters=(0.5,),
        leader_counts=(2,),
        instances=3,
        repetitions=2,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_leader_count_above_n_rejected(self):
        with pytest.raises(ValueError, match="impossible"):
            small_config(leader_counts=(11,))

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            small_config(model="watts-strogatz")

    def test_instances_validated(self):
        with pytest.raises(ValueError):
            small_config(instances=0)

    @pytest.mark.parametrize(
        "model, value",
        [
            ("barabasi-albert", 2.5),
            ("barabasi-albert", 0),
            ("barabasi-albert", 10),
            ("barabasi-albert", float("nan")),
            ("erdos-renyi", 1.5),
            ("erdos-renyi", -0.1),
        ],
    )
    def test_parameter_outside_model_range_rejected(self, model, value):
        with pytest.raises(ValueError, match="edge probability|attachment count"):
            small_config(model=model, parameters=(value,))

    def test_integral_float_attachment_count_accepted(self):
        assert small_config(model="barabasi-albert", parameters=(2.0,)).parameters == (2.0,)

    def test_json_round_trip(self):
        config = small_config()
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_json_defaults(self):
        config = ExperimentConfig.from_json(
            {"model": "erdos-renyi", "n": 5, "parameters": [0.4], "leader_counts": [1]}
        )
        assert config.instances == 20 and config.repetitions == 30
        assert config.resample_until_connected and not config.measure_runtime

    def test_json_non_numeric_parameters_rejected(self):
        for bad in ("0.3", True, None):
            with pytest.raises(ValueError, match="parameters must be numbers"):
                ExperimentConfig.from_json(
                    {"model": "erdos-renyi", "n": 5, "parameters": [bad], "leader_counts": [1]}
                )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("resample_until_connected", "false"),
            ("measure_runtime", "no"),
            ("n", 8.9),
            ("leader_counts", [2.7]),
            ("instances", True),
        ],
    )
    def test_json_fields_checked_not_coerced(self, field, value):
        data = {"model": "erdos-renyi", "n": 8, "parameters": [0.4], "leader_counts": [2]}
        data[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json(data)

    def test_json_integral_float_count_accepted(self):
        config = ExperimentConfig.from_json(
            {"model": "erdos-renyi", "n": 8.0, "parameters": [0.4], "leader_counts": [2]}
        )
        assert config.n == 8 and isinstance(config.n, int)


class TestTrialSeed:
    def test_frozen_value(self):
        # Pinned so accidental changes to the fan-out hash are caught.
        assert trial_seed(0, "erdos-renyi", 0.2, 2, 0) == 10570148564315973243

    def test_grid_extension_stability(self):
        seed = trial_seed(3, "erdos-renyi", 0.2, 5, 17)
        assert trial_seed(3, "erdos-renyi", 0.2, 5, 17) == seed
        assert trial_seed(3, "erdos-renyi", 0.3, 5, 17) != seed
        assert trial_seed(3, "erdos-renyi", 0.2, 6, 17) != seed


class TestRunExperiment:
    def test_complete_graphs(self):
        records, aggregates = run_experiment(small_config(parameters=(1.0,)))
        assert len(records) == 3
        for rec in records:
            assert rec.edges_before == 45
            assert rec.edges_after_intersection == 45
            assert rec.edges_after_randomized == 45
            assert rec.upper_bound == 0
        assert aggregates[0].mean_edges_before == 45

    def test_row_count_matches_grid(self):
        config = small_config(parameters=(0.4, 0.6), leader_counts=(1, 3), instances=2)
        records, aggregates = run_experiment(config)
        assert len(records) == 2 * 2 * 2
        assert len(aggregates) == 4

    def test_determinism_bytes(self):
        config = small_config()
        first = records_to_csv(run_experiment(config)[0])
        second = records_to_csv(run_experiment(config)[0])
        assert first == second

    def test_record_invariants(self):
        records, _ = run_experiment(small_config(parameters=(0.3,), leader_counts=(1, 2)))
        for rec in records:
            assert rec.pmi_length <= rec.n
            assert rec.edges_before <= rec.edges_after_intersection
            assert rec.edges_before <= rec.edges_after_randomized
            assert rec.edges_after_intersection <= rec.edges_before + rec.upper_bound
            assert rec.edges_after_randomized <= rec.edges_before + rec.upper_bound
            assert rec.kirchhoff_after_intersection <= rec.kirchhoff_before + 1e-12
            assert rec.kirchhoff_after_randomized <= rec.kirchhoff_before + 1e-12
            assert rec.runtime_intersection_ms == 0.0
            assert rec.runtime_randomized_ms == 0.0

    def test_records_sorted(self):
        config = small_config(parameters=(0.6, 0.4), leader_counts=(3, 1), instances=2)
        records, _ = run_experiment(config)
        keys = [(r.parameter, r.num_leaders, r.trial) for r in records]
        assert keys == sorted(keys)

    def test_barabasi_albert_model(self):
        config = small_config(model="barabasi-albert", parameters=(3,), leader_counts=(2,))
        records, _ = run_experiment(config)
        assert all(rec.edges_before == 3 + 7 * 3 for rec in records)

    def test_resample_off_raises_on_disconnected(self):
        config = small_config(parameters=(0.05,), resample_until_connected=False)
        with pytest.raises(DisconnectedGraphError):
            run_experiment(config)

    def test_measure_runtime_flag(self):
        config = small_config(instances=1, measure_runtime=True)
        records, _ = run_experiment(config)
        assert records[0].runtime_randomized_ms > 0.0


class TestCSV:
    def test_header_and_shape(self):
        records, aggregates = run_experiment(small_config(instances=2))
        text = records_to_csv(records)
        lines = text.split("\n")
        assert lines[0] == (
            "model,parameter,n,num_leaders,trial,seed,pmi_length,edges_before,"
            "edges_after_intersection,edges_after_randomized,upper_bound,"
            "kirchhoff_before,kirchhoff_after_intersection,kirchhoff_after_randomized,"
            "runtime_intersection_ms,runtime_randomized_ms,resamples"
        )
        assert len(lines) == 2 + 2  # header + rows + trailing newline
        agg_text = aggregates_to_csv(aggregates)
        assert agg_text.startswith("model,parameter,num_leaders,trials,mean_pmi_length")

    def test_floats_six_significant_digits(self):
        records, _ = run_experiment(small_config(instances=1))
        row = records_to_csv(records).split("\n")[1]
        kirchhoff_field = row.split(",")[11]
        mantissa = kirchhoff_field.replace(".", "").lstrip("0")
        assert len(mantissa) <= 6
