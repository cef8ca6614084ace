import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netaug
from netaug import PMISequence, augment_intersection, augment_randomized, parse_edge_list, pmi_greedy
from netaug.cli import _augment_json, _build_parser, cli
from helpers import complete_graph, random_connected_graph


@pytest.fixture
def path3(tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    return str(path)


@pytest.fixture
def star6(tmp_path):
    leaves = "\n".join(f"0 {i}" for i in range(1, 6))
    path = tmp_path / "star6.txt"
    path.write_text(f"n 6\n{leaves}\n")
    return str(path)


class TestGen:
    def test_empty_er(self, tmp_path):
        out = tmp_path / "g.txt"
        code = cli(["gen", "--model", "er", "--n", "10", "--p", "0", "--seed", "1", "-o", str(out)])
        assert code == 0
        assert out.read_text() == "n 10\n"

    def test_gen_roundtrips_through_parser(self, tmp_path):
        out = tmp_path / "g.txt"
        assert cli(["gen", "--model", "ba", "--n", "12", "--gamma", "3", "-o", str(out)]) == 0
        g = parse_edge_list(out.read_text())
        assert g.n == 12 and g.num_edges() == 3 + 9 * 3

    def test_gen_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--model", "er", "--n", "15", "--p", "0.4", "--seed", "9"]
        assert cli(args + ["-o", str(a)]) == 0
        assert cli(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_p_is_domain_error(self, tmp_path):
        code = cli(["gen", "--model", "er", "--n", "5", "-o", str(tmp_path / "x.txt")])
        assert code == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "er", "--n", "0", "--p", "0.5"], "node count must be positive"),
            (["--model", "er", "--n", "5", "--p", "0.5", "--seed", "-1"], "64-bit unsigned"),
            (["--model", "ba", "--n", "5", "--gamma", "5"], "1 <= gamma < n"),
            (["--model", "ba", "--n", "5"], "--gamma is required for the barabasi-albert model"),
        ],
    )
    def test_bad_value_is_domain_error(self, flags, message, capsys):
        assert cli(["gen", *flags]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1


class TestPMI:
    def test_json_output(self, path3, tmp_path):
        out = tmp_path / "pmi.json"
        assert cli(["pmi", "-g", path3, "--leaders", "0", "2", "-o", str(out)]) == 0
        seq = PMISequence.from_json(json.loads(out.read_text()))
        assert len(seq) == 3

    def test_exact_method(self, path3, capsys):
        assert cli(["pmi", "-g", path3, "--leaders", "0", "--method", "exact"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [item["node"] for item in data] == [0, 1, 2]


class TestAugment:
    def test_path_intersect_adds_nothing(self, path3, capsys):
        assert cli(["augment", "-g", path3, "--leaders", "0", "--algorithm", "intersect"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["added_edges"] == []
        assert data["algorithm"] == "intersection"

    def test_star_random_completes(self, star6, capsys):
        code = cli(
            ["augment", "-g", star6, "--leaders", "0", "--algorithm", "random",
             "--seed", "3", "-c", "2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["edges_after"] == 15
        assert data["c"] == 2 and data["seed"] == 3

    def test_runtime_zero_without_time_flag(self, star6, capsys):
        assert cli(["augment", "-g", star6, "--leaders", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["runtime_ms"] == 0.0

    def test_consumes_precomputed_pmi_file(self, star6, tmp_path, capsys):
        pmi_file = tmp_path / "pmi.json"
        assert cli(["pmi", "-g", star6, "--leaders", "0", "-o", str(pmi_file)]) == 0
        code = cli(["augment", "-g", star6, "--leaders", "0", "--pmi", str(pmi_file)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["edges_after"] == 15

    def test_byte_determinism(self, star6, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["augment", "-g", star6, "--leaders", "0", "--algorithm", "random", "--seed", "5"]
        assert cli(args + ["-o", str(a)]) == 0
        assert cli(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repetitions_default_to_30(self, star6, capsys):
        assert cli(["augment", "-g", star6, "--leaders", "0", "--algorithm", "random"]) == 0
        assert json.loads(capsys.readouterr().out)["c"] == 30


class TestAugmentJson:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        p=st.sampled_from([0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**16),
        randomized=st.booleans(),
        include_runtime=st.booleans(),
    )
    @example(n=1, p=0.3, seed=0, randomized=False, include_runtime=False)
    @example(n=1, p=0.3, seed=0, randomized=True, include_runtime=True)
    @example(n=7, p=1.0, seed=0, randomized=False, include_runtime=True)
    @example(n=7, p=1.0, seed=0, randomized=True, include_runtime=False)
    def test_equals_generic_encoder(self, n, p, seed, randomized, include_runtime):
        g = complete_graph(n) if p == 1.0 else random_connected_graph(n, p, seed)
        leaders = sorted({0, n - 1})
        pmi = pmi_greedy(g, leaders)
        if randomized:
            result = augment_randomized(g, leaders, pmi, seed=seed, repetitions=2)
        else:
            result = augment_intersection(g, leaders, pmi)
        if p == 1.0:
            assert not result.added
        expected = json.dumps(result.to_json(include_runtime), indent=2) + "\n"
        assert _augment_json(result, include_runtime) == expected


class TestValidate:
    def test_report(self, path3, capsys):
        assert cli(["validate", "-g", path3, "--leaders", "0", "--trials", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["claimed_bound"] == 3
        assert data["min_rank"] == 3

    def test_impossible_bound_reports_failure(self, path3, capsys):
        assert cli(["validate", "-g", path3, "--leaders", "0", "--trials", "3", "--bound", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is False


class TestExperiment:
    def test_csv_written(self, tmp_path):
        config = {
            "model": "erdos-renyi",
            "n": 8,
            "parameters": [0.5],
            "leader_counts": [2],
            "instances": 2,
            "repetitions": 2,
            "master_seed": 1,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        agg = tmp_path / "agg.csv"
        assert cli(["experiment", "-c", str(cfg), "-o", str(out), "--aggregates", str(agg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("model,parameter,n,num_leaders,trial,seed,pmi_length")
        assert len(lines) == 3
        assert agg.read_text().count("\n") == 2

    def test_experiment_byte_determinism(self, tmp_path):
        config = {
            "model": "erdos-renyi",
            "n": 8,
            "parameters": [0.6],
            "leader_counts": [1],
            "instances": 2,
            "repetitions": 2,
            "master_seed": 4,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli(["experiment", "-c", str(cfg), "-o", str(a)]) == 0
        assert cli(["experiment", "-c", str(cfg), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_unknown_flag(self):
        assert cli(["gen", "--model", "er", "--n", "5", "--p", "0.2", "--bogus"]) == 2

    def test_unknown_subcommand(self):
        assert cli(["frobnicate"]) == 2

    def test_missing_file(self):
        assert cli(["pmi", "-g", "/nonexistent/graph.txt", "--leaders", "0"]) == 2

    def test_help_exits_zero(self):
        assert cli(["--help"]) == 0

    def test_pmi_file_with_pmi_method_is_usage_error(self, star6, tmp_path, capsys):
        pmi_file = tmp_path / "pmi.json"
        assert cli(["pmi", "-g", star6, "--leaders", "0", "-o", str(pmi_file)]) == 0
        augment = ["augment", "-g", star6, "--leaders", "0", "--pmi", str(pmi_file)]
        assert cli(augment + ["--pmi-method", "exact"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, path3, tmp_path, capsys):
        parser = _build_parser()
        seeded, default = tmp_path / "seeded.txt", tmp_path / "default.txt"
        gen = ["gen", "--model", "er", "--n", "12", "--p", "0.5"]
        assert cli(gen + ["--seed", "5", "-o", str(seeded)]) == 0
        assert cli(["pmi", "-g", path3, "--leaders", "0"]) == 0
        assert cli(["pmi", "-g", path3, "--leaders", "9"]) == 1
        assert cli(gen + ["--bogus"]) == 2
        assert cli(gen + ["-o", str(default)]) == 0
        capsys.readouterr()
        # An earlier call's values do not stick: the second gen uses seed 0.
        assert cli(gen + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == default.read_text() != seeded.read_text()
        assert _build_parser() is parser

    @pytest.mark.parametrize("command", [["augment", "--algorithm", "random"], ["validate"]])
    def test_negative_seed_is_domain_error(self, star6, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert cli(command + ["-g", star6, "--leaders", "0", "--seed", "-1", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_domain_error_disconnected(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("n 2\n")
        assert cli(["pmi", "-g", str(path), "--leaders", "0"]) == 1

    def test_domain_error_bad_leader(self, path3):
        assert cli(["pmi", "-g", path3, "--leaders", "9"]) == 1

    def test_parse_error_is_domain_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\n0 0\n")
        assert cli(["augment", "-g", str(path), "--leaders", "0"]) == 1

    def test_size_guard_is_domain_error(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("n 5000\n0 1\n")
        big_path = tmp_path / "big_path.txt"
        big_path.write_text("n 5000\n" + "".join(f"{i} {i + 1}\n" for i in range(4999)))
        pmi_file = tmp_path / "pmi.json"
        pmi_file.write_text(json.dumps([{"node": 1, "vector": [1], "witness": 0}]))
        for argv in (
            ["gen", "--model", "er", "--n", "5000", "--p", "0.1"],
            ["augment", "-g", str(big), "--leaders", "0", "--pmi", str(pmi_file)],
            ["validate", "-g", str(big_path), "--leaders", "0", "--bound", "1"],
            ["validate", "-g", str(big_path), "--leaders", "0"],
        ):
            assert cli(argv) == 1
            err = capsys.readouterr().err
            assert "limited to n <= 4096" in err and err.count("\n") == 1

    def test_pmi_witness_that_fails_is_domain_error(self, path3, tmp_path, capsys):
        pmi_file = tmp_path / "pmi.json"
        augment = ["augment", "-g", path3, "--leaders", "0", "2", "--pmi", str(pmi_file)]
        assert cli(["pmi", "-g", path3, "--leaders", "0", "2", "-o", str(pmi_file)]) == 0
        assert cli(augment) == 0
        capsys.readouterr()
        entries = json.loads(pmi_file.read_text())
        for witness, message in ((99, "is outside 0..1"), (-1, "is outside 0..1"),
                                 (1, "does not hold")):
            pmi_file.write_text(json.dumps([dict(entries[0], witness=witness)] + entries[1:]))
            assert cli(augment) == 1
            err = capsys.readouterr().err
            assert f"witness {witness} for node 0 {message}" in err and err.count("\n") == 1

    def test_directory_as_graph_is_usage_error(self, tmp_path):
        assert cli(["pmi", "-g", str(tmp_path), "--leaders", "0"]) == 2

    def test_config_missing_field_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "parameters": [0.5], "leader_counts": [2]}))
        assert cli(["experiment", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "missing field 'model'" in err and err.count("\n") == 1

    def test_pmi_entry_missing_field_is_domain_error(self, star6, tmp_path, capsys):
        pmi_file = tmp_path / "pmi.json"
        pmi_file.write_text(json.dumps([{"node": 0, "witness": 0}]))
        assert cli(["augment", "-g", star6, "--leaders", "0", "--pmi", str(pmi_file)]) == 1
        err = capsys.readouterr().err
        assert "missing field 'vector'" in err and err.count("\n") == 1

    def test_config_parameters_of_wrong_shape_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "erdos-renyi", "n": 8, "parameters": 0.3, "leader_counts": [2]}))
        assert cli(["experiment", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1

    def test_config_parameters_string_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "erdos-renyi", "n": 8, "parameters": "0.2", "leader_counts": [2]}))
        assert cli(["experiment", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: parameters must be a sequence of values, got '0.2'\n"

    @pytest.mark.parametrize("parameter", [0.5, 2])
    def test_config_unknown_model_is_named(self, tmp_path, capsys, parameter):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"model": "watts-strogatz", "n": 10, "parameters": [parameter],
                                   "leader_counts": [2]}))
        assert cli(["experiment", "-c", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown model 'watts-strogatz'\n"
        assert not out.exists()

    def test_config_fractional_attachment_count_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "barabasi-albert", "n": 8, "parameters": [2.5],
                                   "leader_counts": [2]}))
        assert cli(["experiment", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "attachment count must be an integer" in err and "2.5" in err
        assert err.count("\n") == 1

    def test_config_repeated_grid_value_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "records.csv"
        cfg.write_text(json.dumps({"model": "erdos-renyi", "n": 8, "parameters": [0.4, 0.4],
                                   "leader_counts": [2, 2], "instances": 1}))
        assert cli(["experiment", "-c", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "parameters repeats the value 0.4" in err and err.count("\n") == 1
        assert not out.exists()

    def test_config_flag_of_wrong_type_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "erdos-renyi", "n": 8, "parameters": [0.5],
                                   "leader_counts": [2], "measure_runtime": "false"}))
        assert cli(["experiment", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "measure_runtime must be true or false" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [("repetiton", 150), ("resample_until_connected", False), ("output_path", "r.csv")],
    )
    def test_config_unknown_field_is_domain_error(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "records.csv"
        cfg.write_text(json.dumps({"model": "erdos-renyi", "n": 8, "parameters": [0.5],
                                   "leader_counts": [2], "instances": 1, key: value}))
        assert cli(["experiment", "-c", str(cfg), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"unknown field '{key}'" in captured.err and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["--full", "--time"])
    def test_experiment_setting_flag_is_usage_error(self, tmp_path, capsys, flag):
        # Scale and runtime columns are config fields, not flags.
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "records.csv"
        cfg.write_text(json.dumps({"model": "erdos-renyi", "n": 8, "parameters": [0.5],
                                   "leader_counts": [2], "instances": 1}))
        assert cli(["experiment", "-c", str(cfg), flag, "-o", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [{"node": 0}, [1, 2]], ids=["object", "int-list"])
    def test_pmi_file_of_wrong_shape_is_domain_error(self, star6, tmp_path, capsys, payload):
        pmi_file = tmp_path / "pmi.json"
        pmi_file.write_text(json.dumps(payload))
        assert cli(["augment", "-g", star6, "--leaders", "0", "--pmi", str(pmi_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pmi_file}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "role, content",
        [("config", b'{\n,}'), ("pmi", b"[\n,]"), ("pmi", b"\xff[]"), ("graph", b"n 6\n0 1\xff\n")],
        ids=["config-json", "pmi-json", "pmi-utf8", "graph-utf8"],
    )
    def test_file_that_does_not_decode_is_named(self, star6, tmp_path, capsys, role, content):
        bad, out = tmp_path / "bad", tmp_path / "out"
        bad.write_bytes(content)
        pmi_file = tmp_path / "pmi.json"
        pmi_file.write_text(json.dumps([{"node": 1, "vector": [1], "witness": 0}]))
        argv = {
            "config": ["experiment", "-c", str(bad)],
            "pmi": ["augment", "-g", star6, "--leaders", "0", "--pmi", str(bad)],
            "graph": ["augment", "-g", str(bad), "--leaders", "0", "--pmi", str(pmi_file)],
        }[role]
        assert cli(argv + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pmi", "augment", "validate"])
    def test_duplicate_lines_counted_once(self, tmp_path, capsys, command):
        # Three edge lines but one distinct edge: too few to connect four nodes.
        path = tmp_path / "dup.txt"
        path.write_text("n 4\n0 1\n1 0\n0 1\n")
        out = tmp_path / "out.json"
        assert cli([command, "-g", str(path), "--leaders", "0", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: 1 distinct edges cannot connect n=4\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pmi", "augment", "validate"])
    def test_header_above_edge_lines_is_domain_error(self, tmp_path, command):
        # Ten to the eleven adjacency sets would exhaust the memory; a 2 GB
        # address-space cap makes an unchecked header fail fast instead.
        path = tmp_path / "huge.txt"
        path.write_text("n 99999999999\n0 1\n")
        cap = 2 << 30
        run_capped = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from netaug.cli import main\n"
            "main()\n"
        )
        src = os.path.dirname(os.path.dirname(netaug.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", run_capped, command, "-g", str(path), "--leaders", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_module_entry_point_runs_main(self):
        src = os.path.dirname(os.path.dirname(netaug.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "netaug.cli", "frobnicate"],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
