import json
from dataclasses import replace
from pathlib import Path

import pytest

from dcut import (brute_force_min_dcut, build_exhaustive, construct,
                  format_graph, parse, parse_graph, solve)
from dcut.cli import RunConfig, main, run
from dcut.generators import (generate_instance, gnm_random, grid_graph,
                             two_cliques_bridged)
from dcut.graph import SizeLimitExceeded
from dcut.textio import ParseError

C4_TEXT = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"

# One malformed input per raise site of each parser: (text, line, message).
DIMACS_DIAGNOSTICS = [
    ("p edge 2 1\np edge 2 1\ne 1 2\n", 2, "duplicate problem line"),
    ("p edge 2\n", 1, "problem line must be 'p edge <n> <m>'"),
    ("c header next\np edge two 1\n", 2, "non-integer problem field"),
    ("p edge 2 -1\n", 1, "negative counts in problem line"),
    ("c x\ne 1 2\n", 2, "edge line before problem line"),
    ("p edge 2 1\ne 1\n", 2, "edge line must be 'e <u> <v>'"),
    ("p edge 2 1\ne 1 b\n", 2, "non-integer edge endpoint"),
    ("p edge 2 1\n\ne 1 3\n", 3, "endpoint out of range 1..2"),
    ("p edge 2 1\ne 1 1\n", 2, "self-loop at vertex 1"),
    ("p edge 2 2\ne 1 2\ne 2 1\n", 3, "repeated edge 2 1"),
    ("p edge 2 1\nx 1 2\n", 2, "unrecognized line type 'x'"),
    ("p edge 2 1\ncat\ne 1 2\n", 2, "unrecognized line type 'cat'"),
    ("p edge 2 1\ncx 1 2\ne 1 2\n", 2, "unrecognized line type 'cx'"),
    ("c only\n\n", 0, "missing problem line"),
    ("p edge 2 2\ne 1 2\n", 0, "problem line declares 2 edges, found 1"),
]
TD_DIAGNOSTICS = [
    ("s td 1 2 2\ns td 1 2 2\n", 2, "duplicate header line"),
    ("s td 1 2\n", 1, "header must be 's td <nodes> <maxbag> <n>'"),
    ("s td 1 x 2\n", 1, "non-integer header field"),
    ("c x\nb 1 1 2\n", 2, "bag line before header"),
    ("s td 1 2 2\nb 1 1 y\n", 2, "non-integer bag field"),
    ("s td 1 2 2\nb\n", 2, "bag line missing node id"),
    ("s td 1 2 2\nb 2 1 2\n", 2, "bag id 2 out of range"),
    ("s td 2 2 3\nb 1 1 2\nb 1 2 3\np 2 1\n", 3, "duplicate bag 1"),
    ("s td 1 3 3\n\nb 1 1 2 4\n", 3, "bag references unknown vertex 4"),
    ("s td 1 2 2\nb 1 1 1\n", 2, "repeated vertex in bag"),
    ("p 2 1\n", 1, "parent line before header"),
    ("s td 2 1 2\nb 1 1\nb 2 2\np 2\n", 4,
     "parent line must be 'p <child> <parent>'"),
    ("s td 2 1 2\nb 1 1\nb 2 2\np 2 z\n", 4, "non-integer parent field"),
    ("s td 2 1 2\np 3 1\n", 2, "parent line id out of range"),
    ("s td 2 1 2\np 2 1\np 2 1\n", 3, "duplicate parent line for 2"),
    ("s td 2 1 2\np 2 2\n", 2, "node cannot be its own parent"),
    ("s td 1 1 1\nq 1\n", 2, "unrecognized line type 'q'"),
    ("s td 1 1 1\ncat\nb 1 1\n", 2, "unrecognized line type 'cat'"),
    ("s td 1 1 1\nb 1 1\ncx 1 2\n", 3, "unrecognized line type 'cx'"),
    ("c nothing\n", 0, "missing header line"),
    ("s td 2 1 2\nb 1 1\n", 0, "missing bag line for node 2"),
    ("c comment\ns td 1 99 3\nb 1 1 2 3\n", 2,
     "header max bag 99 but the largest bag has 3"),
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n", 0, "expected exactly one root, found 2"),
    ("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\np 2 3\np 3 2\n", 0,
     "parent links contain a cycle"),
    ("s td 0 0 0\n", 0, "bags and parent links must align and be non-empty"),
]


class TestDimacs:
    def test_parse_single_edge(self):
        g = parse_graph("p edge 2 1\ne 1 2\n")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_comments_ignored(self):
        g = parse_graph("c a comment\np edge 2 1\nc another\ne 1 2\n")
        assert g.m == 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")
        assert err.value.line == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("p edge 2 1\ne 1 1\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(ParseError, match="declares"):
            parse_graph("p edge 2 2\ne 1 2\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="problem line"):
            parse_graph("e 1 2\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="range"):
            parse_graph("p edge 2 1\ne 1 3\n")

    def test_format_round_trip(self):
        g = parse_graph(C4_TEXT)
        assert parse_graph(format_graph(g)) == g

    def test_format_comments_round_trip(self):
        # every comment line, blank, tabbed or led by a c word, is a c record
        g = parse_graph(C4_TEXT)
        text = format_graph(g, "cat\n\n\tindented\nc 1 2")
        assert text.startswith("c cat\nc \nc \tindented\nc c 1 2\np edge")
        assert parse_graph(text) == g


class TestGenerators:
    def test_bridged_cliques_min_matching_cut_is_bridge(self):
        g = two_cliques_bridged(4)
        assert g.n == 8
        assert brute_force_min_dcut(g, 1).min_cut_size == 1

    def test_gnm_deterministic(self):
        assert gnm_random(10, 15, seed=7) == gnm_random(10, 15, seed=7)

    def test_grid_two_by_three(self):
        g = grid_graph(2, 3)
        assert g.n == 6 and g.m == 7

    def test_dispatch(self):
        g = generate_instance("gnm", {"n": "8", "m": "10"}, seed=3)
        assert g.n == 8 and g.m == 10
        with pytest.raises(ValueError, match="unknown model"):
            generate_instance("mystery", {}, 0)

    @pytest.mark.parametrize("model,params,message", [
        ("gnm", {"n": "10"}, "model 'gnm' needs parameter 'm'"),
        ("two-cliques-bridged", {}, "needs parameter 'q'"),
        ("grid", {"rows": "2"}, "needs parameter 'cols'"),
        ("gnm", {"n": "10", "m": "15", "q": "3"}, "model 'gnm' has no parameter 'q'"),
        ("grid", {"rows": "2", "cols": "3", "connected": "1"},
         "has no parameter 'connected'"),
    ])
    def test_missing_or_unknown_parameter_named(self, model, params, message):
        with pytest.raises(ValueError, match=message):
            generate_instance(model, params, 0)

    def test_gnm_unconnectable_sample_named(self):
        with pytest.raises(ValueError, match=(
                "^no connected sample with n=40, m=39 within 10000 tries$")):
            gnm_random(40, 39, seed=0)

    def test_connected_stays_optional_for_gnm(self):
        g = generate_instance("gnm", {"n": "6", "m": "3", "connected": "0"}, 1)
        assert g.n == 6 and g.m == 3


class TestRun:
    def test_fpt_yes_with_fields(self, tmp_path):
        path = tmp_path / "c4.gr"
        path.write_text(C4_TEXT)
        doc, code = run(RunConfig(k=2, d=1, input_path=str(path)))
        assert code == 0
        assert doc["answer"] == "yes"
        assert doc["fpt"]["route"] == "dp"
        assert doc["instance"]["n"] == 4

    def test_both_agreement_exit_zero(self, tmp_path):
        path = tmp_path / "c4.gr"
        path.write_text(C4_TEXT)
        for k, expected in [(1, "no"), (2, "yes")]:
            doc, code = run(RunConfig(k=k, d=1, input_path=str(path),
                                      algorithm="both"))
            assert code == 0
            assert doc["agreement"] is True and "reproducer" not in doc
            assert doc["answer"] == expected == doc["brute"]["answer"]

    def test_disagreement_carries_a_reproducer(self, tmp_path, monkeypatch):
        graph = gnm_random(12, 20, seed=5)
        path = tmp_path / "g.gr"
        path.write_text(format_graph(graph, "a comment the reproducer drops"))
        real = solve

        def wrong(*args, **kwargs):
            result = real(*args, **kwargs)
            return replace(result, answer=not result.answer, witness=None)
        monkeypatch.setattr("dcut.cli.solve", wrong)
        doc, code = run(RunConfig(k=3, d=1, input_path=str(path), algorithm="both",
                                  family_rounds=40, family_seed=9))
        assert code == 2 and doc["agreement"] is False
        rep = doc["reproducer"]
        assert parse_graph(rep["dimacs"]) == graph
        assert rep["dimacs"] == format_graph(graph)
        assert (rep["k"], rep["d"], rep["family_seed"], rep["family_rounds"]) == \
            (3, 1, 9, 40)
        assert json.loads(json.dumps(doc)) == doc

    def test_witness_flag_emits_certified_cut(self, tmp_path):
        path = tmp_path / "c4.gr"
        path.write_text(C4_TEXT)
        doc, _ = run(RunConfig(k=2, d=1, input_path=str(path), witness=True))
        wit = doc["witness"]
        assert wit["cut_size"] == 2
        assert sorted(wit["side_a"] + wit["side_b"]) == [1, 2, 3, 4]
        g = parse_graph(C4_TEXT)
        assert brute_force_min_dcut(g, 1).min_cut_size <= wit["cut_size"]

    def test_generated_instance(self):
        doc, code = run(RunConfig(k=1, d=1, gen_spec="two-cliques-bridged:q=4",
                                  algorithm="both", witness=True))
        assert code == 0 and doc["answer"] == "yes"
        assert doc["witness"]["cut_size"] == 1

    def test_documents_byte_identical(self):
        config = dict(k=2, d=1, gen_spec="gnm:n=9,m=14", seed=11,
                      algorithm="both", witness=True)
        one, _ = run(RunConfig(**config))
        two, _ = run(RunConfig(**config))
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_document_round_trips_through_json(self):
        doc, _ = run(RunConfig(k=2, d=1, gen_spec="gnm:n=9,m=14", seed=11,
                               algorithm="both", witness=True))
        assert json.loads(json.dumps(doc)) == doc

    def test_td_out_then_td_in(self, tmp_path):
        graph_path = tmp_path / "c4.gr"
        graph_path.write_text(C4_TEXT)
        td_path = tmp_path / "c4.td"
        doc, _ = run(RunConfig(k=2, d=1, input_path=str(graph_path),
                               td_out=str(td_path)))
        assert td_path.exists()
        doc2, code = run(RunConfig(k=2, d=1, input_path=str(graph_path),
                                   td_in=str(td_path)))
        assert code == 0 and doc2["answer"] == doc["answer"]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            run(RunConfig(k=2, d=1))  # neither input nor generator
        with pytest.raises(ValueError):
            run(RunConfig(k=-1, d=1, gen_spec="grid:rows=2,cols=2"))

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_family_rounds_below_one_rejected(self, rounds):
        with pytest.raises(ValueError, match="--family-rounds must be at least 1"):
            run(RunConfig(k=2, d=1, gen_spec="grid:rows=2,cols=3",
                          family_rounds=rounds))
        assert main(["--gen", "grid:rows=2,cols=3", "--k", "2", "--d", "1",
                     "--family-rounds", str(rounds)]) == 1

    def test_family_rounds_alone_draws(self, capsys):
        assert main(["--gen", "gnm:n=10,m=15", "--seed", "3", "--k", "3",
                     "--d", "1", "--family-rounds", "5", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["fpt"]["stats"]
        assert stats["minbeta_modes"] == {"colorcode": 4}
        assert stats["family_rounds"] == 5

    def test_family_rounds_need_fpt(self, capsys):
        # the oracle draws no family, so the rounds would be ignored
        with pytest.raises(ValueError,
                           match="--family-rounds needs --algorithm fpt or both"):
            run(RunConfig(k=2, d=1, gen_spec="grid:rows=2,cols=3",
                          algorithm="brute", family_rounds=5))
        assert main(["--gen", "grid:rows=2,cols=3", "--k", "2", "--d", "1",
                     "--algorithm", "brute", "--family-rounds", "5"]) == 1
        assert "--family-rounds needs" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["fpt", "brute"])
    def test_family_seed_needs_family_rounds(self, algorithm):
        # without a drawn family the seed would be reported but never read
        with pytest.raises(ValueError, match="--family-seed needs --family-rounds"):
            run(RunConfig(k=3, d=1, gen_spec="gnm:n=10,m=15", seed=3,
                          algorithm=algorithm, family_seed=9))

    def test_brute_force_respects_oracle_threshold(self):
        with pytest.raises(SizeLimitExceeded, match="oracle limited to 20 vertices"):
            run(RunConfig(k=2, d=1, gen_spec="grid:rows=5,cols=5",
                          algorithm="brute"))

    def test_timings_opt_in(self):
        with_timings, _ = run(RunConfig(k=1, d=1, gen_spec="grid:rows=2,cols=2",
                                        timings=True))
        without, _ = run(RunConfig(k=1, d=1, gen_spec="grid:rows=2,cols=2"))
        assert "timings" in with_timings and "timings" not in without


class TestMain:
    def test_oracle_limit_checked_before_solve(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("solve called past the oracle's limit")
        monkeypatch.setattr("dcut.cli.solve", fail)
        code = main(["--gen", "gnm:n=24,m=36", "--seed", "2", "--k", "3",
                     "--d", "1", "--algorithm", "both"])
        assert code == 1
        assert "oracle limited to 20 vertices, got n=24" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "c4.gr"
        path.write_text(C4_TEXT)
        code = main([str(path), "--k", "2", "--d", "1", "--json",
                     "--algorithm", "both"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["answer"] == "yes" and doc["agreement"] is True

    def test_colour_coded_document_pinned(self, capsys):
        # the colour-coded document that CI builds under two hash seeds,
        # with its exit code, pinned: a change to the drawn stream changes it
        code = main(["--gen", "gnm:n=14,m=24", "--seed", "4", "--k", "3",
                     "--d", "1", "--algorithm", "both", "--witness", "--json",
                     "--family-rounds", "5", "--family-seed", "3"])
        pinned = Path(__file__).parent.parent / "scripts" / "cli_colorcode_doc.txt"
        assert capsys.readouterr().out + f"exit {code}\n" == pinned.read_text()

    def test_summary_line(self, tmp_path, capsys):
        path = tmp_path / "c4.gr"
        path.write_text(C4_TEXT)
        assert main([str(path), "--k", "2", "--d", "1", "--witness"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("answer: yes") and "cut size 2" in out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.gr"
        path.write_text("p edge 2 1\ne 1 1\n")
        assert main([str(path), "--k", "1", "--d", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_td_over_missing_vertices_exit_one(self, tmp_path, capsys):
        # the .td names ten vertices for a six-vertex path, in one bag
        graph_path = tmp_path / "p6.gr"
        graph_path.write_text("p edge 6 5\n" + "".join(
            f"e {i} {i + 1}\n" for i in range(1, 6)))
        td_path = tmp_path / "t10.td"
        td_path.write_text("s td 1 10 10\nb 1 1 2 3 4 5 6 7 8 9 10\n")
        assert main([str(graph_path), "--k", "2", "--d", "1",
                     "--td-in", str(td_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vertex-count-mismatch" in err

    @pytest.mark.parametrize("spec,message", [
        ("gnm:n=10", "needs parameter 'm'"),
        ("two-cliques-bridged", "needs parameter 'q'"),
        ("gnm:n=10,m=15,q=3", "has no parameter 'q'"),
    ])
    def test_bad_generator_parameter_exit_one(self, capsys, spec, message):
        assert main(["--gen", spec, "--k", "2", "--d", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_td_out_off_dp_route_notes_file_not_written(self, tmp_path, capsys):
        td_path = tmp_path / "x.td"
        args = ["--gen", "grid:rows=2,cols=3", "--k", "1", "--d", "1", "--json"]
        assert main(args + ["--td-out", str(td_path)]) == 0
        captured = capsys.readouterr()
        assert not td_path.exists()
        assert captured.err == (f"note: route mincut uses no decomposition; "
                                f"{td_path} not written\n")
        # the document is the one printed without --td-out
        assert main(args) == 0
        assert capsys.readouterr().out == captured.out

    @pytest.mark.parametrize("k,route", [(1, "mincut"), (3, "dp")])
    def test_bad_td_in_rejected_on_every_route(self, tmp_path, capsys, k, route):
        # no bag holds both ends of the grid edge 1-4 (0-based (0, 3))
        args = ["--gen", "grid:rows=2,cols=3", "--k", str(k), "--d", "1"]
        assert main(args + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["fpt"]["route"] == route
        td_path = tmp_path / "bad.td"
        td_path.write_text("s td 2 5 6\nb 1 1 2 3 5 6\nb 2 2 3 4 5 6\np 2 1\n")
        assert main(args + ["--td-in", str(td_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: supplied decomposition failed verification")
        assert "uncovered-edge" in err

    @pytest.mark.parametrize("flag", ["--td-in", "--td-out"])
    def test_td_files_rejected_with_brute(self, tmp_path, capsys, flag):
        td_path = tmp_path / "missing.td"
        assert main(["--gen", "grid:rows=2,cols=3", "--k", "1", "--d", "1",
                     "--algorithm", "brute", flag, str(td_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {flag} needs --algorithm fpt or both\n"
        assert not td_path.exists()

    def test_td_out_on_dp_route_writes_quietly(self, tmp_path, capsys):
        td_path = tmp_path / "x.td"
        assert main(["--gen", "grid:rows=2,cols=3", "--k", "2", "--d", "1",
                     "--td-out", str(td_path)]) == 0
        assert td_path.exists() and capsys.readouterr().err == ""

    def test_generator_flags(self, capsys):
        code = main(["--gen", "gnm:n=8,m=12", "--seed", "5", "--k", "2",
                     "--d", "1", "--algorithm", "both", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instance"]["seed"] == 5

    def test_minbeta_flag(self, capsys):
        # gone: --family-rounds alone selects the randomized side search
        with pytest.raises(SystemExit) as exit_info:
            main(["--gen", "grid:rows=2,cols=3", "--k", "2", "--d", "1",
                  "--minbeta", "colorcode", "--json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --minbeta" in capsys.readouterr().err


class TestDiagnostics:
    @pytest.mark.parametrize("text,line,message", DIMACS_DIAGNOSTICS)
    def test_dimacs(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("text,line,message", TD_DIAGNOSTICS)
    def test_td(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("call,message", [
        (lambda: construct(grid_graph(5, 5), 2),
         "construction is limited to 24 vertices; n=25"),
        (lambda: brute_force_min_dcut(grid_graph(3, 7), 1),
         "oracle limited to 20 vertices, got n=21"),
        (lambda: build_exhaustive(range(21)), "universe of size 21 exceeds 20"),
    ])
    def test_size_limits(self, call, message):
        with pytest.raises(SizeLimitExceeded) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("graph_text,td_text,args,message", [
        ("p edge 2 2\ne 1 2\ne 2 1\n", None, [], "line 3: repeated edge 2 1"),
        ("c only\n", None, [], "line 0: missing problem line"),
        (None, "s td 2 2 3\nb 1 1 2\nb 1 2 3\np 2 1\n", [],
         "line 3: duplicate bag 1"),
        (None, "s td 2 2 3\nb 1 1 2\nb 2 2 3\n", [],
         "line 0: expected exactly one root, found 2"),
        (None, None, ["--gen", "grid:rows=5,cols=5"],
         "construction is limited to 24 vertices; n=25"),
        (None, None, ["--gen", "grid:rows=3,cols=7", "--algorithm", "brute"],
         "oracle limited to 20 vertices, got n=21"),
        (None, None, ["--gen", "gnm:n=40,m=39"],
         "no connected sample with n=40, m=39 within 10000 tries"),
        (None, None, ["--gen", "grid:rows=2,cols=3", "--family-seed", "9"],
         "--family-seed needs --family-rounds"),
        (None, None, ["--gen", "grid:rows=2,cols=3", "--family-seed", "-3",
                      "--family-rounds", "5"],
         "family_seed must be non-negative, got -3"),
    ])
    def test_cli_reports_one_error_line(self, tmp_path, capsys, graph_text,
                                        td_text, args, message):
        graph_path = tmp_path / "g.gr"
        graph_path.write_text(graph_text or C4_TEXT)
        if "--gen" not in args:
            args = [str(graph_path)] + args
        if td_text is not None:
            td_path = tmp_path / "t.td"
            td_path.write_text(td_text)
            args += ["--td-in", str(td_path)]
        assert main(args + ["--k", "2", "--d", "1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
