import pytest

from meansets.experiments import (
    ExperimentConfig,
    decay_to_csv,
    derive_seed,
    require_increasing,
    run_decay_experiment,
    run_invariant_suite,
    run_invariant_sweep,
    run_table_cell,
    run_table_experiment,
    table_to_csv,
    table_to_json,
)
from meansets.freegroup import CayleyGraph
from meansets.graphs import path_graph
from meansets.measures import AtomicMeasure

from freewords import sphere_words, word_id


def sphere_measure(rank: int, length: int) -> AtomicMeasure:
    words = [word_id(w) for w in sphere_words(rank, length)]
    return AtomicMeasure.uniform(words)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, "table", 5, 2, 0) == derive_seed(42, "table", 5, 2, 0)

    def test_distinct_paths(self):
        seeds = {derive_seed(42, "table", L, n, t) for L in (5, 10) for n in (2, 4) for t in range(5)}
        assert len(seeds) == 20

    def test_master_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestConfig:
    def test_validates_sample_order(self):
        with pytest.raises(ValueError):
            ExperimentConfig(samples=(4, 2))
        with pytest.raises(ValueError):
            ExperimentConfig(samples=(2, 2))

    def test_validates_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_validates_rank(self, rank):
        # refused at construction, not when the first cell builds its graph
        with pytest.raises(ValueError, match="^rank must be >= 1$"):
            ExperimentConfig(rank=rank)

    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lengths=(-3,))
        ExperimentConfig(lengths=(0,))

    def test_validates_length_order(self):
        # a repeated length would run and write its cells twice; an
        # unsorted one would echo an order the sorted cells do not have
        for lengths in ((5, 5), (20, 5), (0, 10, 10)):
            with pytest.raises(ValueError, match="strictly increasing"):
                ExperimentConfig(lengths=lengths)
        ExperimentConfig(lengths=(0, 1, 5))

    @pytest.mark.parametrize("field, values, message", [
        ("samples", (0, 2), "sample sizes must be at least 1"),
        ("samples", (2, 2), "sample sizes must be strictly increasing"),
        ("lengths", (-1, 5), "sphere lengths must be at least 0"),
        ("lengths", (20, 5), "sphere lengths must be strictly increasing"),
        # an empty list would give a table with no cell
        ("samples", (), "sample sizes must not be empty"),
        ("lengths", (), "sphere lengths must not be empty"),
    ])
    def test_list_rule_messages(self, field, values, message):
        # the config, the decay runner and the CLI's --samples and --lengths
        # all apply require_increasing
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**{field: values})

    def test_frozen(self):
        # the table lists its cells in config order, so a list set after
        # the checks ran could unsort it
        cfg = ExperimentConfig()
        with pytest.raises(AttributeError):
            cfg.samples = (4, 2)

    def test_list_rule_returns_a_tuple(self):
        assert require_increasing(iter([0, 3, 7]), 0, "sphere lengths") == (0, 3, 7)


class TestTableExperiment:
    def test_cell_counts_sum_to_trials(self):
        cell = run_table_cell(2, 3, 4, trials=50, seed=1)
        assert sum(cell.histogram.values()) == 50
        assert sum(cell.histogram_min.values()) == 50

    def test_cell_deterministic(self):
        a = run_table_cell(2, 4, 4, trials=30, seed=9)
        b = run_table_cell(2, 4, 4, trials=30, seed=9)
        assert a == b

    def test_min_displacement_never_exceeds_max(self):
        cell = run_table_cell(2, 3, 2, trials=200, seed=5)
        avg = sum(d * c for d, c in cell.histogram.items()) / 200
        avg_min = sum(d * c for d, c in cell.histogram_min.items()) / 200
        assert avg_min <= avg

    def test_two_sample_displacement_distribution(self):
        # with n=2 sphere draws the sample mean-set is the common prefix of
        # the two words, so displacement 0 has probability 1 - 1/(2r)
        cell = run_table_cell(4, 5, 2, trials=500, seed=3)
        zero_rate = cell.histogram.get(0, 0) / 500
        assert abs(zero_rate - 0.875) < 0.06

    def test_large_n_all_zero(self):
        cfg = ExperimentConfig(rank=4, lengths=(5,), samples=(256,), trials=50, seed=11)
        (cell,) = run_table_experiment(cfg)
        assert cell.histogram == {0: 50}

    def test_csv_shape_and_determinism(self):
        cfg = ExperimentConfig(rank=2, lengths=(3, 5), samples=(2, 4), trials=20, seed=7)
        cells = run_table_experiment(cfg)
        text = table_to_csv(cells)
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header == ["rank", "L", "n", "trials", "d0", "d1", "d2", "d3plus",
                          "min_d0", "min_d1", "min_d2", "min_d3plus"]
        assert len(lines) == 2 + 4  # comment + header + 4 cells
        assert text == table_to_csv(run_table_experiment(cfg))

    def test_json_output(self):
        import json

        cfg = ExperimentConfig(rank=2, lengths=(3,), samples=(2,), trials=10, seed=7)
        cells = run_table_experiment(cfg)
        payload = json.loads(table_to_json(cfg, cells))
        assert payload["config"]["seed"] == 7
        assert len(payload["cells"]) == 1
        assert sum(payload["cells"][0]["histogram"].values()) == 10

    def test_seed_42_table_bytes_pinned(self):
        # the digest bench/workloads.json pins for table-f4, seed 42
        import hashlib

        text = table_to_csv(run_table_experiment(ExperimentConfig(trials=10, seed=42)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6e732a2f3709f41582e13dce61955d8815d6054b23b7bb95ef88f113948966a2"
        )

    def test_parallel_run_matches_sequential(self):
        cfg = ExperimentConfig(rank=2, lengths=(3, 4), samples=(2, 4), trials=25, seed=13)
        assert run_table_experiment(cfg, workers=2) == run_table_experiment(cfg)


class TestDecayExperiment:
    def test_point_mass_never_misses(self):
        g = path_graph(4)
        mu = AtomicMeasure.point_mass(1)
        points = run_decay_experiment(g, mu, (2, 4, 8), trials=50, seed=1)
        assert all(p.misses == 0 for p in points)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_decay_experiment(path_graph(4), AtomicMeasure.point_mass(1), (2,), trials=0, seed=1)

    @pytest.mark.parametrize("samples, message", [
        ((8, 4, 4), "sample sizes must be strictly increasing"),
        ((0, 4), "sample sizes must be at least 1"),
        # an empty list would give a CSV with no point
        ((), "sample sizes must not be empty"),
    ])
    def test_samples_follow_the_list_rule(self, samples, message):
        # a repeated size would report two points for one n, as the CLI and
        # ExperimentConfig already refuse
        mu = AtomicMeasure.uniform([0, 2])
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_decay_experiment(path_graph(3), mu, samples, 5, 1)

    def test_multi_vertex_truth_misses_only_outside_it(self):
        g = path_graph(2)
        mu = AtomicMeasure.uniform([0, 1])
        points = run_decay_experiment(g, mu, (2, 4), trials=50, seed=1)
        # S_n is always a subset of E = {0, 1} here, so no trial misses
        assert all(p.misses == 0 for p in points)

    def test_path5_csv_bytes_pinned(self):
        # the decay instance the CI hash-seed step runs: masses 4, 1, 3, 1, 3
        # on path(5), whose mean-set is one vertex
        import hashlib

        mu = AtomicMeasure.from_masses({0: 4, 1: 1, 2: 3, 3: 1, 4: 3})
        text = decay_to_csv(run_decay_experiment(path_graph(5), mu, (4, 16, 64), 50, 42))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5146083f17702cb0a214a87828ed215af6ab0ac402131e62c98032644d009d0d"
        )

    def test_two_vertex_truth_csv_bytes_pinned(self):
        # masses 1 and 1 on the ends of path(4) have mean-set {1, 2}; a miss
        # is a sample mean-set that holds 0 or 3
        import hashlib

        g = path_graph(4)
        mu = AtomicMeasure.from_masses({0: 1, 3: 1})
        points = run_decay_experiment(g, mu, (2, 4, 8), 50, 42)
        assert [p.misses for p in points] == [27, 7, 2]
        assert hashlib.sha256(decay_to_csv(points).encode()).hexdigest() == (
            "9202d0b6aa33fa86fcb58455324149ea06b87416fd8736379372953a7c408e29"
        )

    def test_sphere_measure_envelope(self):
        # free group rank 2, uniform on the length-3 sphere: the miss rate
        # falls and n * rate stays within a constant band
        g = CayleyGraph(2)
        mu = sphere_measure(2, 3)
        medians = []
        for n in (2, 4, 8, 16, 32):
            rates = []
            for seed in range(5):
                pts = run_decay_experiment(g, mu, (n,), trials=200, seed=1000 + seed)
                rates.append(pts[0].miss_rate)
            medians.append(sorted(rates)[2])
        assert all(a >= b for a, b in zip(medians, medians[1:]))
        envelope = [n * r for n, r in zip((2, 4, 8, 16, 32), medians)]
        assert max(envelope) <= 4  # measured ~1.1 at the top of the sweep

    def test_csv_columns(self):
        g = path_graph(4)
        mu = AtomicMeasure.from_masses({0: 1, 1: 2, 2: 1})
        text = decay_to_csv(run_decay_experiment(g, mu, (2, 4), trials=30, seed=3))
        lines = text.strip().splitlines()
        assert lines[0].split(",") == [
            "n", "trials", "misses", "miss_rate", "n_times_miss_rate", "log_miss_rate"
        ]
        assert len(lines) == 3


class TestInvariantSweep:
    def test_default_sweep_passes(self):
        report = run_invariant_sweep(seed=42, cases=12)
        assert report.all_passed
        names = [s.name for s in report.suites]
        assert names == [
            "shift-property",
            "tree-configuration",
            "cut-point-inequality",
            "dimension-invariance",
            "classical-mean-gap",
        ]
        for s in report.suites:
            assert s.failures == 0
            assert s.first_failure_seed is None

    def test_injected_fault_breaks_shift_suite(self):
        report = run_invariant_sweep(seed=42, cases=12, inject_fault=True)
        by_name = {s.name: s for s in report.suites}
        assert by_name["shift-property"].failures > 0
        assert by_name["shift-property"].first_failure_seed is not None
        assert not report.all_passed

    def test_report_byte_identical(self):
        a = run_invariant_sweep(seed=7, cases=8).render()
        b = run_invariant_sweep(seed=7, cases=8).render()
        assert a == b
        assert "ALL PASS" in a

    @pytest.mark.parametrize("cases", [0, -3])
    def test_cases_must_be_positive(self, cases):
        # the divisor's floor of one case must not hide a count below one
        with pytest.raises(ValueError, match="^cases must be >= 1$"):
            run_invariant_suite("shift-property", 42, cases)
