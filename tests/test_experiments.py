import csv
import dataclasses
import importlib.util
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from netaug import (
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
        assert not config.measure_runtime

    def test_json_non_numeric_parameters_rejected(self):
        # GenSpec checks an edge probability, _json_int an attachment count.
        for model, message in (
            ("erdos-renyi", "edge probability must be a real number"),
            ("barabasi-albert", "attachment count must be an integer"),
        ):
            for bad in ("0.3", True, None):
                with pytest.raises(ValueError, match=f"^{message}, got {re.escape(repr(bad))}$"):
                    ExperimentConfig.from_json(
                        {"model": model, "n": 5, "parameters": [bad], "leader_counts": [1]}
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

    @pytest.mark.parametrize("field, value", [("parameters", "0.2"), ("leader_counts", "2")])
    def test_json_grid_string_rejected(self, field, value):
        # A string would be split into characters: "0.2" read as the grid "0", ".", "2".
        data = {"model": "erdos-renyi", "n": 8, "parameters": [0.4], "leader_counts": [2]}
        with pytest.raises(ValueError, match=f"^{field} must be a sequence of values, got '{value}'$"):
            ExperimentConfig.from_json(dict(data, **{field: value}))

    @pytest.mark.parametrize("field, value", [("parameters", "0.2"), ("leader_counts", "2")])
    def test_python_grid_string_rejected(self, field, value):
        # Built from Python, "0.2" used to be split into the grid "0", ".", "2".
        with pytest.raises(ValueError, match=f"^{field} must be a sequence of values, got '{value}'$"):
            small_config(**{field: value})

    def test_iterator_grid_kept(self):
        # Checking the grid used to consume an iterator, so the config kept no
        # cell and ran no trial.
        config = small_config(parameters=iter([0.5]), leader_counts=iter([2]))
        assert (config.parameters, config.leader_counts) == ((0.5,), (2,))
        records, aggregates = run_experiment(config)
        assert len(records) == 3 and len(aggregates) == 1
        with pytest.raises(ValueError, match="^parameters must not be empty$"):
            small_config(parameters=iter([]))

    def test_numpy_array_grid_stored_as_python_numbers(self):
        # An array grid used to fail on its ambiguous truth value.
        config = small_config(parameters=np.array([0.3, 0.5]), leader_counts=np.array([2, 3]))
        listed = small_config(parameters=[0.3, 0.5], leader_counts=[2, 3])
        assert config == listed
        assert [type(v) for v in config.parameters + config.leader_counts] == [float, float, int, int]
        seeds = lambda cfg: [r.seed for r in run_experiment(cfg)[0]]
        assert seeds(config) == seeds(listed)

    @pytest.mark.parametrize("field, value", [("parameters", {0.5: 1}), ("leader_counts", {2: 1}),
                                              ("leader_counts", 2)])
    def test_mapping_or_scalar_grid_rejected(self, field, value):
        # A dict used to raise TypeError ("unhashable type: 'slice'").
        with pytest.raises(ValueError, match=f"^{field} must be a sequence of values, got "
                                             f"{re.escape(repr(value))}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "key", ["repetiton", "resample_until_connected", "output_path", "Model"]
    )
    def test_json_unknown_field_rejected(self, key):
        data = {"model": "erdos-renyi", "n": 8, "parameters": [0.4], "leader_counts": [2]}
        with pytest.raises(ValueError, match=f"^unknown field '{key}'; the fields are model, "):
            ExperimentConfig.from_json(dict(data, **{key: 150}))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 10.0, "node count must be an integer, got 10.0"),
            ("instances", 2.5, "instances must be an integer, got 2.5"),
            ("repetitions", True, "repetitions must be an integer, got True"),
            ("leader_counts", (2.0,), "leader_counts entry must be an integer, got 2.0"),
            ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
            ("measure_runtime", "no", "measure_runtime must be true or false, got 'no'"),
            ("parameters", ("0.3",), "edge probability must be a real number, got '0.3'"),
        ],
    )
    def test_python_fields_checked_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "model, field, values, repeated",
        [
            ("erdos-renyi", "parameters", [0.4, 0.4], "0.4"),
            ("erdos-renyi", "leader_counts", [2, 3, 2], "2"),
            ("barabasi-albert", "parameters", [1, 1.0], "1.0"),
        ],
    )
    def test_json_repeated_grid_value_rejected(self, model, field, values, repeated):
        data = {"model": model, "n": 8, "parameters": [1], "leader_counts": [2]}
        data[field] = values
        with pytest.raises(ValueError, match=f"{field} repeats the value {repeated}$"):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize(
        "model, parameter, numpy_parameter",
        [("erdos-renyi", 0.3, np.float64(0.3)), ("barabasi-albert", 2, np.int64(2))],
    )
    def test_numpy_scalars_reproduce_python_numbers(self, model, parameter, numpy_parameter):
        # trial_seed hashes the repr, which differs for NumPy scalars (np.float64(0.3)).
        counts = dict(n=10, leader_counts=(2,), instances=2, repetitions=2, master_seed=7)
        plain = small_config(model=model, parameters=(parameter,), **counts)
        numpy = small_config(
            model=model, parameters=(numpy_parameter,), **{
                name: tuple(map(np.int64, value)) if isinstance(value, tuple) else np.int64(value)
                for name, value in counts.items()
            }
        )
        (records, aggregates), (plain_records, plain_aggregates) = map(run_experiment, (numpy, plain))
        assert records_to_csv(records) == records_to_csv(plain_records)
        assert aggregates_to_csv(aggregates) == aggregates_to_csv(plain_aggregates)
        assert json.dumps(numpy.to_json()) == json.dumps(plain.to_json())

    @pytest.mark.parametrize("flag", [np.True_, np.False_])
    def test_numpy_bool_runtime_flag_is_the_python_bool(self, flag):
        numpy, plain = (small_config(instances=1, measure_runtime=f) for f in (flag, bool(flag)))
        assert numpy.measure_runtime is bool(flag)
        assert json.dumps(numpy.to_json()) == json.dumps(plain.to_json())
        if not flag:
            assert records_to_csv(run_experiment(numpy)[0]) == records_to_csv(run_experiment(plain)[0])

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

    def test_aggregate_means_every_record_column(self):
        config = small_config(parameters=(0.3, 0.6), instances=3)
        records, aggregates = run_experiment(config)
        assert [(a.parameter, a.trials) for a in aggregates] == [(0.3, 3), (0.6, 3)]
        columns = [f.name for f in dataclasses.fields(aggregates[0]) if f.name.startswith("mean_")]
        assert len(columns) == 8
        for agg in aggregates:
            cell = [r for r in records if r.parameter == agg.parameter]
            for column in columns:
                values = [getattr(r, column.removeprefix("mean_")) for r in cell]
                assert getattr(agg, column) == pytest.approx(sum(values) / len(values))

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


class TestEnsembleDemo:
    """``demos/ensemble_study.py`` writes ``demos/ensemble_records.csv``, which is
    committed: 60 ER(30) trials at c = 10, a larger ensemble than A9's."""

    def test_config_reproduces_the_committed_csv(self):
        demos = Path(__file__).resolve().parents[1] / "demos"
        spec = importlib.util.spec_from_file_location("ensemble_study", demos / "ensemble_study.py")
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        got = list(csv.reader(io.StringIO(records_to_csv(run_experiment(demo.CONFIG)[0]))))
        expected = list(csv.reader(io.StringIO((demos / "ensemble_records.csv").read_text())))
        assert len(got) == len(expected) == 61 and got[0] == expected[0]
        for row, want in zip(got[1:], expected[1:]):
            for column, value, pinned in zip(got[0], row, want):
                # The last digits of the Kirchhoff indices depend on the LAPACK build.
                if column.startswith("kirchhoff_"):
                    assert float(value) == pytest.approx(float(pinned), rel=1e-5), column
                else:
                    assert value == pinned, column
