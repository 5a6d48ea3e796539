import json
import random

import pytest

from meansets import cli, experiments
from meansets.cli import build_parser, main
from meansets.errors import VertexIdError
from meansets.experiments import derive_seed
from meansets.freegroup import CayleyGraph
from meansets.measures import AtomicMeasure
from meansets.multivertex import simulate_walk


@pytest.fixture
def path_instance(tmp_path):
    graph = tmp_path / "path.txt"
    graph.write_text("# 5-vertex path\n0 1\n1 2\n2 3\n3 4\n")
    measure = tmp_path / "mu.txt"
    measure.write_text("0 1\n4 1\n")
    return str(graph), str(measure)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeansetCommand:
    def test_exact_on_path(self, capsys, path_instance):
        graph, measure = path_instance
        code, out, _ = run_cli(
            capsys, "meanset", "--graph", graph, "--measure", measure, "--method", "exact"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == [2]
        assert payload["min_weight"] == "4/1"
        assert payload["method"] == "exact"
        assert payload["class"] == 2

    def test_class_one(self, capsys, path_instance):
        graph, measure = path_instance
        code, out, _ = run_cli(
            capsys, "meanset", "--graph", graph, "--measure", measure, "--class", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == [0, 1, 2, 3, 4]
        assert payload["min_weight"] == "2/1"

    def test_free_rank_descent(self, capsys, tmp_path):
        measure = tmp_path / "mu.txt"
        measure.write_text("e 1\na 1\nA 1\n")
        code, out, _ = run_cli(
            capsys, "meanset", "--free-rank", "2", "--measure", str(measure),
            "--method", "descent",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["e"]
        assert payload["min_weight"] == "2/3"
        assert payload["method"] == "descent"

    def test_free_rank_bounded_refused(self, capsys, tmp_path, monkeypatch):
        # the radius-30 ball of these two words has ~3^30 vertices and used
        # to end in MemoryError; the refusal must come before any ball
        def no_ball(self, v, r):
            raise AssertionError(f"ball of radius {r} built")

        monkeypatch.setattr(CayleyGraph, "ball", no_ball)
        measure = tmp_path / "mu.txt"
        measure.write_text("aaaaa 1\nbbbbb 1\n")
        code, out, err = run_cli(
            capsys, "meanset", "--free-rank", "2", "--measure", str(measure),
            "--method", "bounded",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("rank, atom", [(4, "aA"), (4, "a%"), (4, "f"), (27, "g28")])
    def test_free_rank_non_canonical_atom(self, capsys, tmp_path, rank, atom):
        measure = tmp_path / "mu.txt"
        measure.write_text(f"e 1\n{atom} 1\n")
        code, out, err = run_cli(
            capsys, "meanset", "--free-rank", str(rank), "--measure", str(measure),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("atom", ["e", "abc"])
    def test_free_rank_27_letter_spelling(self, capsys, tmp_path, atom):
        # above rank 26 ids are g/G tokens, so letters name no word
        measure = tmp_path / "mu.txt"
        measure.write_text(f"{atom} 1\n1 1\n")
        code, out, err = run_cli(
            capsys, "meanset", "--free-rank", "27", "--measure", str(measure),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_free_rank_27_multi_token_words(self, capsys, tmp_path):
        # above rank 26 a word is several g/G tokens; every field before
        # the mass is the word, so "g1 g2 1" is g1*g2 with mass 1
        measure = tmp_path / "mu.txt"
        measure.write_text("g1 g2 1\ng1  g2   2 # repeated atom\ng1 G3 3\n")
        code, out, _ = run_cli(
            capsys, "meanset", "--free-rank", "27", "--measure", str(measure),
        )
        assert code == 0
        payload = json.loads(out)
        # g1 carries all the mass below it: 3 at distance 1 each way
        assert payload["vertices"] == ["g1"]
        assert payload["min_weight"] == "1/1"
        assert payload["steps"] == 4

    # (rank, spelling, its id, or None where the spelling names no word)
    SPELLINGS = [
        (4, "", "e"), (5, "", "1"), (4, "1", "e"), (5, "1", "1"), (4, "e", "e"),
        (5, "e", "e"),  # generator 5 from rank 5 on
        (2, "g1 G2", "aB"), (2, " ab ", "ab"), (27, " g1  g2 ", "g1 g2"),
        (26, "g26", "z"), (26, "G26 g3", "Zc"), (27, "g26", "g26"), (27, "z", None),
        (26, "g27", None), (27, "g28", None), (2, "aA", None), (27, "g3 G3", None),
        (2, "g01", "a"), (27, "g027", "g27"), (3, "g\u0663", "c"),  # ARABIC-INDIC DIGIT THREE
        (2, "g99999999999", None), (27, "g99999999999", None), (27, "G0", None),
        (2, "g1 b", None),
    ]

    @pytest.mark.parametrize("rank, text, vid", SPELLINGS)
    def test_measure_spellings(self, capsys, tmp_path, rank, text, vid):
        # the one canonicaliser the measure reader applies to each vertex
        if vid is None:
            with pytest.raises(VertexIdError):
                CayleyGraph(rank).read_id(text)
        else:
            assert CayleyGraph(rank).read_id(text) == vid
        if text.strip() != text or not text:
            return  # a measure file's fields carry no surrounding space
        measure = tmp_path / "mu.txt"
        measure.write_text(f"{text} 1\n")
        code, out, err = run_cli(
            capsys, "meanset", "--free-rank", str(rank), "--measure", str(measure),
        )
        if vid is None:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["vertices"] == [vid]

    def test_graph_measure_three_fields(self, capsys, tmp_path, path_instance):
        graph, _ = path_instance
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n")
        code, out, err = run_cli(capsys, "meanset", "--graph", graph, "--measure", str(bad))
        assert (code, out) == (2, "")
        assert "expected 'vertex mass'" in err

    def test_exact_requires_explicit(self, capsys, tmp_path):
        measure = tmp_path / "mu.txt"
        measure.write_text("e 1\n")
        code, _, err = run_cli(
            capsys, "meanset", "--free-rank", "2", "--measure", str(measure),
            "--method", "exact",
        )
        assert code == 2
        assert "explicit" in err

    @pytest.mark.parametrize("command", [
        ["meanset"],
        ["meanset", "--method", "exact"],
        ["meanset", "--method", "descent"],
        ["meanset", "--method", "bounded"],
        ["walk"],
        ["decay", "--samples", "4"],
    ], ids=["meanset-auto", "meanset-exact", "meanset-descent", "meanset-bounded",
            "walk", "decay"])
    def test_atom_outside_graph(self, capsys, tmp_path, path_instance, command):
        # the solver each command starts with rejects the atom
        graph, _ = path_instance
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n99 1\n")
        code, out, err = run_cli(
            capsys, command[0], "--graph", graph, "--measure", str(bad), *command[1:]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "99" in err

    def test_descent_refuses_graph_with_cycles(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("0 1\n4 1\n")
        code, _, err = run_cli(
            capsys, "meanset", "--graph", str(graph), "--measure", str(measure),
            "--method", "descent",
        )
        assert code == 2
        assert err.startswith("error:") and "tree" in err

    @pytest.mark.parametrize("weight_class, payload", [
        ("2", {"class": 2, "method": "descent", "min_weight": "22/3", "steps": 3,
               "vertices": [2]}),
        ("1", {"class": 1, "method": "descent", "min_weight": "8/3", "steps": 0,
               "vertices": [1, 2, 3, 4, 7]}),
    ])
    def test_descent_on_explicit_tree(self, capsys, tmp_path, weight_class, payload):
        # steps counts the moves from the heaviest atom 7 to the mean-set
        graph = tmp_path / "tree.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n1 5\n5 6\n4 7\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("7 3\n6 1\n0 2\n")
        code, out, _ = run_cli(
            capsys, "meanset", "--graph", str(graph), "--measure", str(measure),
            "--method", "descent", "--class", weight_class,
        )
        assert code == 0
        assert json.loads(out) == payload

    @pytest.mark.parametrize("instance, measure, options, payload", [
        ("0 1\n1 2\n2 3\n3 4\n", "0 1\n4 1\n", [],
         {"class": 2, "method": "exact", "min_weight": "4/1", "steps": 5, "vertices": [2]}),
        ("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n", "0 3\n1 1\n", ["--method", "bounded"],
         {"class": 2, "method": "bounded", "min_weight": "1/4", "steps": 1, "vertices": [0]}),
        ("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", "0 3\n2 1\n3 2\n",
         ["--method", "bounded", "--class", "1"],
         {"class": 1, "method": "bounded", "min_weight": "4/3", "steps": 5,
          "vertices": [0, 1, 2]}),
        ("0 1\n1 2\n2 3\n3 4\n1 5\n5 6\n4 7\n", "7 3\n6 1\n0 2\n", ["--method", "descent"],
         {"class": 2, "method": "descent", "min_weight": "22/3", "steps": 3, "vertices": [2]}),
        (4, "ab 2\naB 1\nA 1\nabab 2\n", [],
         {"class": 2, "method": "descent", "min_weight": "7/2", "steps": 7, "vertices": ["ab"]}),
        (4, "ab 2\naB 1\nA 1\nabab 2\n", ["--method", "descent", "--class", "1"],
         {"class": 1, "method": "descent", "min_weight": "3/2", "steps": 7, "vertices": ["ab"]}),
        (27, "g1 g2 1\ng1 G3 3\nG27 g5 2\n", [],
         {"class": 2, "method": "descent", "min_weight": "11/3", "steps": 6, "vertices": ["g1"]}),
        (4, "abab 1\n", [],
         {"class": 2, "method": "descent", "min_weight": "0/1", "steps": 0, "vertices": ["abab"]}),
        (27, "g3 G2 g3 5\n", [],
         {"class": 2, "method": "descent", "min_weight": "0/1", "steps": 0,
          "vertices": ["g3 G2 g3"]}),
    ], ids=["exact-path5", "bounded-path10", "bounded-cycle6-class-1", "descent-tree",
            "free-rank-4", "free-rank-4-class-1", "free-rank-27", "free-rank-4-point-mass",
            "free-rank-27-point-mass"])
    def test_payload_contract(self, capsys, tmp_path, instance, measure, options, payload):
        # steps is V for the exact scan, the ball size for the bounded scan,
        # the descent's moves on an explicit tree, and on a free group the
        # size of the atoms' prefix hull (0 for a point mass)
        mu = tmp_path / "mu.txt"
        mu.write_text(measure)
        if isinstance(instance, int):
            source = ["--free-rank", str(instance)]
        else:
            graph = tmp_path / "graph.txt"
            graph.write_text(instance)
            source = ["--graph", str(graph)]
        code, out, _ = run_cli(capsys, "meanset", *source, "--measure", str(mu), *options)
        assert code == 0
        assert json.loads(out) == payload

    def test_usage_error_exits_2(self, capsys, path_instance):
        with pytest.raises(SystemExit) as exc:
            main(["meanset", "--measure", "nowhere"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: one of the arguments --graph --free-rank is required\n"


class TestWalkCommand:
    def test_two_center_path_report(self, capsys, tmp_path):
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("0 1\n3 1\n")
        code, out, _ = run_cli(
            capsys, "walk", "--graph", str(graph), "--measure", str(measure),
            "--steps", "2000", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_set"] == [1, 2]
        assert payload["base"] == 1
        assert payload["dimension"] == 1
        assert payload["first_moment"] == ["0/1"]
        assert payload["second_moment"] == "9/1"
        assert payload["hypotheses"]["mu_base_positive"] is False
        assert payload["hypotheses"]["has_positive_vector"] is True
        assert payload["steps"] == 2000
        assert 0 <= payload["orthant_visits"] <= 2000
        # the counts are those of a direct simulate_walk call on the same law
        incs = AtomicMeasure.uniform([(-3,), (3,)])
        rng = random.Random(derive_seed(5, "walk"))
        walk = simulate_walk(incs, 2000, rng)
        assert (payload["orthant_visits"], payload["last_visit"]) == (
            walk.orthant_visits, walk.last_visit
        )

    def test_singleton_mean_set_walk(self, capsys, tmp_path):
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("0 1\n2 1\n")
        code, out, _ = run_cli(
            capsys, "walk", "--graph", str(graph), "--measure", str(measure),
            "--steps", "100",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_set"] == [1]
        assert payload["dimension"] == 0
        assert payload["orthant_visits"] == 100

    @pytest.mark.parametrize(
        "edges, masses, payload",
        [
            # the centers 1 and 3 of the 4-cycle are equidistant from both
            # atoms: every increment is 0, and a zero lattice has no
            # strictly positive vector
            (
                "0 1\n1 2\n2 3\n3 0\n",
                "0 1\n2 1\n",
                '{"base": 1, "dimension": 0, "first_moment": ["0/1"], '
                '"hypotheses": {"has_positive_vector": false, "mu_base_positive": false}, '
                '"last_visit": 2000, "mean_set": [1, 3], "orthant_visits": 2000, '
                '"second_moment": "0/1", "steps": 2000}',
            ),
            # the path's ends: the base carries no mass, and the increment
            # 3 of atom 0 is itself strictly positive
            (
                "0 1\n1 2\n2 3\n",
                "0 1\n3 1\n",
                '{"base": 1, "dimension": 1, "first_moment": ["0/1"], '
                '"hypotheses": {"has_positive_vector": true, "mu_base_positive": false}, '
                '"last_visit": 2000, "mean_set": [1, 2], "orthant_visits": 1641, '
                '"second_moment": "9/1", "steps": 2000}',
            ),
        ],
        ids=["cycle4", "path4"],
    )
    def test_payload_pinned(self, capsys, tmp_path, edges, masses, payload):
        graph = tmp_path / "graph.txt"
        graph.write_text(edges)
        measure = tmp_path / "mu.txt"
        measure.write_text(masses)
        code, out, _ = run_cli(
            capsys, "walk", "--graph", str(graph), "--measure", str(measure),
            "--steps", "2000", "--seed", "5",
        )
        assert code == 0
        assert out == payload + "\n"

    def test_report_builds_the_increment_law_once(self, capsys, monkeypatch, tmp_path):
        # mass on the path ends only, so the lattice decision runs too
        from meansets import cli, multivertex

        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("0 1\n3 1\n")
        calls = []
        build = multivertex.increments

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for module in (cli, multivertex):
            monkeypatch.setattr(module, "increments", counted)
        code, out, _ = run_cli(
            capsys, "walk", "--graph", str(graph), "--measure", str(measure), "--steps", "10"
        )
        assert code == 0 and json.loads(out)["hypotheses"]["has_positive_vector"] is True
        assert len(calls) == 1


class TestTableCommand:
    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table-f4", "--rank", "2", "--lengths", "3", "--samples", "2,4",
            "--trials", "20", "--seed", "1", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 4  # comment + header + 2 cells
        assert lines[1].split(",")[:4] == ["rank", "L", "n", "trials"]

    def test_json_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "table-f4", "--rank", "2", "--lengths", "3", "--samples", "2",
            "--trials", "10", "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cells"][0]["trials"] == 10

    def test_default_shape_is_the_config_default(self, capsys):
        # rank, lengths and samples come from ExperimentConfig's defaults:
        # the bytes test_seed_42_table_bytes_pinned pins for
        # ExperimentConfig(trials=10, seed=42)
        import hashlib

        code, out, _ = run_cli(capsys, "table-f4", "--trials", "10", "--seed", "42")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6e732a2f3709f41582e13dce61955d8815d6054b23b7bb95ef88f113948966a2"
        )


class TestDecayCommand:
    def test_point_mass_curve(self, capsys, tmp_path):
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("1 1\n")
        code, out, _ = run_cli(
            capsys, "decay", "--graph", str(graph), "--measure", str(measure),
            "--samples", "2,4", "--trials", "20", "--seed", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "0"

    def test_multi_vertex_truth_needs_no_flag(self, capsys, tmp_path):
        graph = tmp_path / "p.txt"
        graph.write_text("0 1\n")
        measure = tmp_path / "mu.txt"
        measure.write_text("0 1\n1 1\n")
        argv = ["decay", "--graph", str(graph), "--measure", str(measure),
                "--samples", "2", "--trials", "10"]
        code, out, err = run_cli(capsys, *argv)
        # E = {0, 1} holds every sample mean-set, so no trial misses
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[2] == "0"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--containment"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCheckCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "42", "--cases", "6")
        assert code == 0
        assert "ALL PASS" in out

    def test_inject_fault_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--seed", "42", "--cases", "6", "--inject-fault"
        )
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("fault, code, line", [
        ([], 0, "pass  shift-property           cases=500 failures=0"),
        (["--inject-fault"], 1, "FAIL  shift-property           cases=500 failures=138 "
                                "first_failure_seed=18117466780563963268"),
    ])
    def test_shift_suite_output_pinned(self, capsys, fault, code, line):
        # the seed-42 sweep of the shift property and of its faulty control
        got = run_cli(
            capsys, "check", "--suite", "shift-property", "--seed", "42", "--cases", "500", *fault
        )
        verdict = "ALL PASS" if code == 0 else "FAILURES PRESENT"
        assert got == (code, f"invariant sweep, seed 42\n{line}\n{verdict}\n", "")

    def test_single_suite_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "classical-mean-gap", "--seed", "3", "--cases", "5"
        )
        assert code == 0
        assert "classical-mean-gap" in out
        assert "shift-property" not in out

    def test_single_suite_runs_only_that_suite(self, capsys, monkeypatch):
        # each suite seeds its cases from its own name, so the one suite
        # run alone prints its line of the full sweep, and no other runs
        _, full, _ = run_cli(capsys, "check", "--seed", "42", "--cases", "8")
        line = next(s for s in full.splitlines() if "classical-mean-gap" in s)

        def boom(rng, inject_fault=False):
            raise AssertionError("shift-property suite ran")

        monkeypatch.setattr(experiments, "_check_shift_property", boom)
        code, out, _ = run_cli(
            capsys, "check", "--suite", "classical-mean-gap", "--seed", "42", "--cases", "8"
        )
        assert code == 0
        assert out == f"invariant sweep, seed 42\n{line}\nALL PASS\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["meanset", "--free-rank", "0", "--measure", "{measure}"], "--free-rank"),
        (["table-f4", "--trials", "0"], "--trials"),
        (["walk", "--graph", "{graph}", "--measure", "{measure}", "--steps", "0"], "--steps"),
        (["table-f4", "--samples", "4,2"], "--samples"),
        (["decay", "--graph", "{graph}", "--measure", "{measure}", "--samples", "0"],
         "--samples"),
        (["table-f4", "--lengths", "-1"], "--lengths"),
        (["table-f4", "--lengths", "5,5"], "--lengths"),
        (["table-f4", "--lengths", "20,5"], "--lengths"),
        (["check", "--cases", "0"], "--cases"),
    ],
    ids=["free-rank-0", "trials-0", "steps-0", "samples-decreasing", "decay-samples-0",
         "lengths-negative", "lengths-repeated", "lengths-decreasing", "cases-0"],
)
def test_bad_numeric_argument_exits_2(capsys, path_instance, argv, flag):
    graph, measure = path_instance
    argv = [a.format(graph=graph, measure=measure) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: argument {flag}:")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv, message", [
    (["table-f4", "--samples", "0"], "--samples: sample sizes must be at least 1, got '0'"),
    (["table-f4", "--samples", "2,2"],
     "--samples: sample sizes must be strictly increasing, got '2,2'"),
    (["table-f4", "--lengths", "-1"], "--lengths: sphere lengths must be at least 0, got '-1'"),
    (["table-f4", "--lengths", "20,5"],
     "--lengths: sphere lengths must be strictly increasing, got '20,5'"),
])
def test_list_rule_error_names_the_list(capsys, argv, message):
    # the library's rule, with the text the user typed appended
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: argument {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["--bogus"], "the following arguments are required: command"),
        (["mean"], "argument command: invalid choice"),
        (["check", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "--seed"], "argument --seed: expected one argument"),
        (["check", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["walk", "--graph", "{graph}"], "the following arguments are required: --measure"),
        (["decay", "--graph", "{graph}", "--measure", "{measure}"],
         "the following arguments are required: --samples"),
        (["meanset", "--graph", "{graph}", "--free-rank", "2", "--measure", "{measure}"],
         "argument --free-rank: not allowed with argument --graph"),
    ],
    ids=["no-command", "unknown-option-only", "unknown-command", "unknown-option",
         "missing-value", "bad-choice", "missing-measure", "missing-samples", "both-sources"],
)
def test_usage_error_is_one_line(capsys, path_instance, argv, message):
    graph, measure = path_instance
    argv = [a.format(graph=graph, measure=measure) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["-h"], ["walk", "-h"]])
def test_help_is_unchanged(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: meanset-lab") and err == ""


@pytest.mark.parametrize("command", ["meanset", "decay"])
@pytest.mark.parametrize("which", ["graph", "measure"])
def test_non_utf8_file_exits_2(capsys, tmp_path, path_instance, command, which):
    files = dict(zip(("graph", "measure"), path_instance))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0 1\n")
    files[which] = str(bad)
    argv = [command, "--graph", files["graph"], "--measure", files["measure"]]
    if command == "decay":
        argv += ["--samples", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err


class TestSharedParser:
    """One process runs many `main` calls on one parser, and no call leaves
    anything behind for the next."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_defaults_after_a_call_that_set_them(self, capsys, tmp_path, path_instance):
        line = tmp_path / "line.txt"
        line.write_text("0 1\n")
        mu = tmp_path / "line-mu.txt"
        mu.write_text("0 1\n1 1\n")
        walk = ["walk", "--graph", str(line), "--measure", str(mu), "--steps", "500"]
        seeded = run_cli(capsys, *walk, "--seed", "42")
        other = run_cli(capsys, *walk, "--seed", "7")
        assert run_cli(capsys, *walk) == seeded != other
        graph, measure = path_instance
        meanset = ["meanset", "--graph", graph, "--measure", measure]
        class_2 = run_cli(capsys, *meanset, "--class", "2")
        class_1 = run_cli(capsys, *meanset, "--class", "1")
        assert run_cli(capsys, *meanset) == class_2 != class_1

    @pytest.mark.parametrize("bad, message", [
        (["--class", "3"], "argument --class: invalid choice: 3"),
        (["--free-rank", "2"], "argument --free-rank: not allowed with argument --graph"),
    ], ids=["bad-choice", "both-sources"])
    def test_usage_error_between_good_calls(self, capsys, tmp_path, path_instance, bad, message):
        graph, measure = path_instance
        words = tmp_path / "words.txt"
        words.write_text("ab 1\nA 1\n")
        by_graph = ["meanset", "--graph", graph, "--measure", measure]
        by_rank = ["meanset", "--free-rank", "2", "--measure", str(words)]
        first = run_cli(capsys, *by_graph)
        free = run_cli(capsys, *by_rank)
        with pytest.raises(SystemExit) as exc:
            main([*by_graph, *bad])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert run_cli(capsys, *by_graph) == first
        assert run_cli(capsys, *by_rank) == free

    @pytest.mark.parametrize("command", [[], ["meanset"], ["walk"], ["table-f4"], ["decay"], ["check"]],
                             ids=["top", "meanset", "walk", "table-f4", "decay", "check"])
    def test_help_after_other_calls(self, capsys, path_instance, command):
        graph, measure = path_instance
        run_cli(capsys, "meanset", "--graph", graph, "--measure", measure, "--class", "1")
        with pytest.raises(SystemExit):
            main(["walk", "--graph", graph])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*command, "-h"])
        assert exc.value.code == 0
        shared = capsys.readouterr()
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "-h"])
        assert shared == capsys.readouterr()
        assert shared.out.startswith("usage: meanset-lab") and shared.err == ""


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_table_experiment", exhausted)
    assert run_cli(capsys, "table-f4", "--trials", "1") == (2, "", "error: out of memory\n")
