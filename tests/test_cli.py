"""Command line behavior, exercised in process through run()."""

import contextlib
import io

import pytest
from hypothesis import given, settings

from brutes import stalled_decide
from maxec import solver
from maxec.cli import _build_parser, _read, main, run
from maxec.formats import (
    FormatError,
    load_coloring,
    load_graph,
    load_instance,
    render_annotated,
    render_graph,
)
from maxec.generators import MCISInstance, gen_random, render_mcis
from maxec.graphs import Graph, ValidityProfile, verify_coloring
from maxec.kernels import (
    has_c4,
    kernelize_c4free,
    kernelize_dual,
    kernelize_standard,
    lift_coloring,
)
from maxec.oracle import sigma_exact
from maxec.solver import solve_exact
from test_formats import documents
from test_oracle import random_graphs

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
SQUARE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
FIVE_CYCLE = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])

# A 12-leaf star plus a far triangle: optimum 2 + 3, greedy matching 2,
# so the target 5 survives preprocessing and the star class gets trimmed.
STAR_TRIANGLE = Graph(
    16, [(0, i) for i in range(1, 13)] + [(13, 14), (13, 15), (14, 15)]
)

# One bridge with a dozen leaves on each end: cover {0, 1}, two classes
# of twelve, each cut to ten by the standard rule.
PENDANT_PAIR = Graph(
    26,
    [(0, 1)]
    + [(0, i) for i in range(2, 14)]
    + [(1, i) for i in range(14, 26)],
)

TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def cli(capsys, monkeypatch):
    def invoke(*args, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = run(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _witness(out: str, g: Graph):
    """Split a verdict line from the coloring document that follows it."""
    first, _, rest = out.partition("\n")
    return first, load_coloring(rest, g)


class TestSolve:
    def test_yes_with_witness_on_stdout(self, cli):
        code, out, _ = cli("solve", "--k", "3", stdin=render_graph(TRIANGLE))
        assert code == 0
        first, coloring = _witness(out, TRIANGLE)
        assert first == "YES k=3"
        res = verify_coloring(TRIANGLE, coloring)
        assert res.valid and res.colors_used == 3

    def test_no_is_bare(self, cli):
        code, out, _ = cli("solve", "--k", "4", stdin=render_graph(TRIANGLE))
        assert code == 1
        assert out == "NO\n"

    def test_witness_file(self, cli, tmp_path):
        graph = tmp_path / "g.gr"
        graph.write_text(render_graph(TRIANGLE))
        witness = tmp_path / "w.col"
        code, out, _ = cli("solve", "--k", "3", "-o", str(witness), str(graph))
        assert code == 0
        assert out == "YES k=3\n"
        coloring = load_coloring(witness.read_text(), TRIANGLE)
        assert verify_coloring(TRIANGLE, coloring).valid

    def test_rejects_annotated_documents(self, cli):
        doc = render_annotated(TRIANGLE, (1, 2, 2))
        code, out, err = cli("solve", "--k", "2", stdin=doc)
        assert code == 2
        assert out == ""
        assert "plain graph" in err

    def test_rejects_negative_target(self, cli):
        code, _, _ = cli("solve", "--k", "-1", stdin=render_graph(TRIANGLE))
        assert code == 2

    def test_missing_file(self, cli):
        code, _, err = cli("solve", "--k", "2", "/no/such/file")
        assert code == 2
        assert err.startswith("error:")


class TestSolveKernelize:
    def test_witness_lifts_back_to_the_original(self, cli):
        doc = render_graph(STAR_TRIANGLE)
        code, out, _ = cli("solve", "--k", "5", "--kernelize", stdin=doc)
        assert code == 0
        first, coloring = _witness(out, STAR_TRIANGLE)
        assert first == "YES k=5"
        res = verify_coloring(STAR_TRIANGLE, coloring)
        assert res.valid and res.colors_used == 5

    def test_no_side_matches_plain_solve(self, cli):
        doc = render_graph(STAR_TRIANGLE)
        plain = cli("solve", "--k", "6", stdin=doc)
        kern = cli("solve", "--k", "6", "--kernelize", stdin=doc)
        assert plain[:2] == (1, "NO\n")
        assert kern[:2] == (1, "NO\n")

    def test_settled_by_preprocessing(self, cli):
        # greedy matching already reaches k - 1 here
        code, out, _ = cli(
            "solve", "--k", "2", "--kernelize", stdin=render_graph(STAR_TRIANGLE)
        )
        assert code == 0
        first, coloring = _witness(out, STAR_TRIANGLE)
        assert first == "YES k=2"
        assert verify_coloring(STAR_TRIANGLE, coloring).colors_used == 2

    def test_small_targets_fall_back_to_plain_solve(self, cli):
        code, out, _ = cli(
            "solve", "--k", "1", "--kernelize", stdin=render_graph(TRIANGLE)
        )
        assert code == 0
        assert out.startswith("YES k=1\n")

    def test_agrees_with_plain_solve_on_random_graphs(self, cli):
        checked = 0
        for seed in range(20):
            g = gen_random(7, 0.3, seed)
            if not 1 <= g.m <= 12:
                continue
            sigma = sigma_exact(g).sigma
            doc = render_graph(g)
            for k in (sigma, sigma + 1):
                plain = cli("solve", "--k", str(k), stdin=doc)
                kern = cli("solve", "--k", str(k), "--kernelize", stdin=doc)
                assert plain[0] == (0 if k == sigma else 1)
                assert plain[:2] == kern[:2]
                if k == sigma:
                    first, coloring = _witness(plain[1], g)
                    assert first == f"YES k={k}"
                    res = verify_coloring(g, coloring)
                    assert res.valid and res.colors_used == k
            checked += 1
            if checked == 5:
                break
        assert checked == 5

    def test_agrees_with_plain_solve_when_twins_are_trimmed(self, cli):
        # vertex 2 and twelve more share the neighborhood {0, 1} outside
        # the matched cover {0, 1}, so three of the thirteen are trimmed
        g = Graph(
            15,
            [(0, 1), (1, 2), (0, 2)]
            + [(0, 3 + i) for i in range(12)]
            + [(1, 3 + i) for i in range(12)],
        )
        doc = render_graph(g)
        for k, code in ((3, 0), (4, 1)):
            plain = cli("solve", "--k", str(k), stdin=doc)
            kern = cli("solve", "--k", str(k), "--kernelize", stdin=doc)
            assert plain[0] == code
            assert plain[:2] == kern[:2]


class TestSigma:
    def test_reports_maximum_with_witness(self, cli):
        code, out, _ = cli("sigma", stdin=render_graph(TRIANGLE))
        assert code == 0
        first, coloring = _witness(out, TRIANGLE)
        assert first == "sigma=3"
        res = verify_coloring(TRIANGLE, coloring)
        assert res.valid and res.colors_used == 3

    def test_respects_capacity_lines(self, cli):
        doc = render_annotated(TRIANGLE, (1, 2, 2))
        code, out, _ = cli("sigma", stdin=doc)
        assert code == 0
        first, coloring = _witness(out, TRIANGLE)
        assert first == "sigma=2"
        profile = ValidityProfile(f=(1, 2, 2))
        assert verify_coloring(TRIANGLE, coloring, profile).valid

    def test_edge_limit_flag_refuses(self, cli):
        doc = render_graph(PENDANT_PAIR)
        code, out, err = cli("sigma", "--edge-limit", "5", stdin=doc)
        assert code == 3
        assert out == ""
        assert err.startswith("refused:")
        # 25 edges: the default cap of 12 refuses too, and 0 lifts it
        assert cli("sigma", stdin=doc)[0] == 3
        code, out, _ = cli("sigma", "--edge-limit", "0", stdin=doc)
        assert code == 0
        assert out.startswith("sigma=3\n")

    def test_internal_error_is_not_a_verdict(self, cli, monkeypatch):
        # a bug or a resource limit inside the oracle exits 4, never 1
        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("maxec.cli.sigma_exact", deep)
        code, out, err = cli("sigma", stdin=render_graph(TRIANGLE))
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: RecursionError: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_long_cycle_answers(self, cli, tmp_path):
        # the fold peels the cycle: one free edge goes, then pendant folds
        # take the 2999-edge path one edge at a time, without recursion
        cycle = Graph(3000, [(i, (i + 1) % 3000) for i in range(3000)])
        graph, witness = tmp_path / "c.gr", tmp_path / "c.col"
        graph.write_text(render_graph(cycle))
        code, out, _ = cli("sigma", "--edge-limit", "0", "-o", str(witness), str(graph))
        assert code == 0
        assert out == "sigma=3000\n"
        code, out, _ = cli("verify", str(graph), str(witness))
        assert code == 0
        assert out == "VALID colors=3000\n"

    def test_long_path_folds_without_recursion(self, cli):
        path = Graph(3000, [(i, i + 1) for i in range(2999)])
        code, out, _ = cli("sigma", "--edge-limit", "0", stdin=render_graph(path))
        assert code == 0
        first, witness = _witness(out, path)
        assert first == "sigma=2999"
        check = verify_coloring(path, witness)
        assert check.valid and check.colors_used == 2999


class TestKernel:
    def test_standard_reduces_and_writes_sidecar(self, cli, tmp_path):
        graph = tmp_path / "g.gr"
        graph.write_text(render_graph(PENDANT_PAIR))
        out = tmp_path / "red.gr"
        code, stdout, _ = cli(
            "kernel", "--rule", "standard", "--k", "4", "-o", str(out), str(graph)
        )
        assert code == 0
        # each hub keeps two of its twelve leaves
        assert stdout == "REDUCED n=6 m=5 k=4\n"
        reduced = load_graph(out.read_text())
        assert reduced.n == 6 and reduced.m == 5
        sidecar = (tmp_path / "red.gr.lift").read_text().splitlines()
        assert sidecar[0] == "p lift 26 6"
        assert sum(1 for line in sidecar if line.startswith("m ")) == 6
        assert sum(1 for line in sidecar if line.startswith("del ")) == 20

    def test_dual_contracts_a_cycle(self, cli):
        code, out, _ = cli(
            "kernel", "--rule", "dual", "--k", "1", stdin=render_graph(FIVE_CYCLE)
        )
        assert code == 0
        assert out.startswith("REDUCED n=3 m=3 k=1\n")
        load_graph(out.partition("\n")[2])

    def test_c4free_refuses_squares(self, cli):
        code, out, err = cli(
            "kernel", "--rule", "c4free", "--k", "2", stdin=render_graph(SQUARE)
        )
        assert code == 3
        assert out == ""
        assert err.startswith("refused:")

    def test_c4free_checks_the_target_before_the_square(self, cli):
        code, out, err = cli(
            "kernel", "--rule", "c4free", "--k", "1", stdin=render_graph(SQUARE)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_rule_is_required(self, cli):
        code, _, _ = cli("kernel", "--k", "2", stdin=render_graph(TRIANGLE))
        assert code == 2

    def test_forced_verdicts_print_bare(self, cli):
        doc = render_graph(TRIANGLE)
        code, out, _ = cli("kernel", "--rule", "standard", "--k", "2", stdin=doc)
        assert (code, out) == (0, "YES k=2\n")
        code, out, _ = cli("kernel", "--rule", "standard", "--k", "9", stdin=doc)
        assert (code, out) == (1, "NO\n")

    def test_rejects_tiny_targets(self, cli):
        code, _, _ = cli(
            "kernel", "--rule", "standard", "--k", "1", stdin=render_graph(TRIANGLE)
        )
        assert code == 2


class TestVerify:
    def _files(self, tmp_path, g, coloring_text, graph_text=None):
        graph = tmp_path / "g.gr"
        graph.write_text(graph_text if graph_text is not None else render_graph(g))
        coloring = tmp_path / "w.col"
        coloring.write_text(coloring_text)
        return str(graph), str(coloring)

    def test_valid_coloring(self, cli, tmp_path):
        doc = "s coloring 3\nl 1 2 1\nl 2 3 2\nl 1 3 3\n"
        graph, coloring = self._files(tmp_path, TRIANGLE, doc)
        code, out, _ = cli("verify", graph, coloring)
        assert code == 0
        assert out == "VALID colors=3\n"

    def test_invalid_lists_offending_vertices(self, cli, tmp_path):
        doc = "s coloring 3\nl 1 2 1\nl 1 3 2\nl 1 4 3\n"
        graph, coloring = self._files(tmp_path, STAR3, doc)
        code, out, _ = cli("verify", graph, coloring)
        assert code == 1
        assert out == "INVALID\nviolations: 1\n"

    def test_uniform_capacity_flag(self, cli, tmp_path):
        doc = "s coloring 3\nl 1 2 1\nl 1 3 2\nl 1 4 3\n"
        graph, coloring = self._files(tmp_path, STAR3, doc)
        code, out, _ = cli("verify", "--q", "3", graph, coloring)
        assert code == 0
        assert out == "VALID colors=3\n"

    def test_capacity_lines_win_over_q(self, cli, tmp_path):
        doc = "s coloring 3\nl 1 2 1\nl 2 3 2\nl 1 3 3\n"
        graph, coloring = self._files(
            tmp_path, TRIANGLE, doc, graph_text=render_annotated(TRIANGLE, (2, 2, 2))
        )
        code, _, err = cli("verify", "--q", "3", graph, coloring)
        assert code == 2
        assert "capacities" in err

    def test_annotated_graph_checks_its_own_caps(self, cli, tmp_path):
        doc = "s coloring 2\nl 1 2 1\nl 2 3 2\nl 1 3 1\n"
        graph, coloring = self._files(
            tmp_path, TRIANGLE, doc, graph_text=render_annotated(TRIANGLE, (1, 2, 2))
        )
        code, out, _ = cli("verify", graph, coloring)
        assert code == 0
        assert out == "VALID colors=2\n"

    def test_mismatched_coloring_is_a_format_error(self, cli, tmp_path):
        doc = "s coloring 1\nl 1 2 1\n"
        graph, coloring = self._files(tmp_path, TRIANGLE, doc)
        code, _, err = cli("verify", graph, coloring)
        assert code == 2
        assert err.startswith("error:")


class TestApprox:
    def test_lower_bound_coloring(self, cli):
        code, out, _ = cli("approx", stdin=render_graph(TWO_TRIANGLES))
        assert code == 0
        first, coloring = _witness(out, TWO_TRIANGLES)
        assert first == "APPROX k=3"
        res = verify_coloring(TWO_TRIANGLES, coloring)
        assert res.valid and res.colors_used == 3
        assert 3 <= sigma_exact(TWO_TRIANGLES).sigma

    def test_edgeless_graph_gets_the_empty_coloring(self, cli):
        code, out, _ = cli("approx", stdin="p edge 3 0\n")
        assert code == 0
        assert out == "APPROX k=0\ns coloring 0\n"


class TestGen:
    def test_random_is_deterministic(self, cli):
        first = cli("gen", "random", "--n", "9", "--p", "0.4", "--seed", "7")
        second = cli("gen", "random", "--n", "9", "--p", "0.4", "--seed", "7")
        assert first == second
        assert first[0] == 0
        g, f = load_instance(first[1])
        assert g.n == 9 and f is None
        assert first[1].startswith("c random n=9 p=0.4 seed=7\n")

    def test_bad_probability(self, cli):
        code, _, _ = cli("gen", "random", "--n", "5", "--p", "1.5", "--seed", "0")
        assert code == 2

    def test_two_factor_pipes_into_solve(self, cli):
        for n in (5, 6, 9):
            code, doc, _ = cli("gen", "two-factor", "--n", str(n), "--seed", "3")
            assert code == 0
            g, _ = load_instance(doc)
            code, out, _ = cli("solve", "--k", str(n), stdin=doc)
            assert code == 0
            first, coloring = _witness(out, g)
            assert first == f"YES k={n}"
            res = verify_coloring(g, coloring)
            assert res.valid and res.colors_used == n

    def test_mcis_emits_annotated_instance(self, cli):
        adjacent = render_mcis(MCISInstance(Graph(2, [(0, 1)]), [[0], [1]]))
        code, doc, _ = cli("gen", "mcis", stdin=adjacent)
        assert code == 0
        assert doc.startswith("c threshold 3\n")
        g, f = load_instance(doc)
        assert f is not None and g.n == 10
        code, out, _ = cli("sigma", stdin=doc)
        assert code == 0
        assert out.startswith("sigma=2\n")

    def test_mcis_positive_instance_meets_its_threshold(self, cli):
        free = render_mcis(MCISInstance(Graph(2, []), [[0], [1]]))
        code, doc, _ = cli("gen", "mcis", stdin=free)
        assert code == 0
        assert doc.startswith("c threshold 3\n")
        code, out, _ = cli("sigma", stdin=doc)
        assert code == 0
        assert out.startswith("sigma=3\n")

    def test_mcis_plain_pipes_into_solve(self, cli):
        free = render_mcis(MCISInstance(Graph(2, []), [[0], [1]]))
        code, doc, _ = cli("gen", "mcis", "--plain", stdin=free)
        assert code == 0
        assert doc.startswith("c threshold 6\n")
        g, f = load_instance(doc)
        assert f is None
        code, out, _ = cli("solve", "--k", "6", stdin=doc)
        assert code == 0
        first, coloring = _witness(out, g)
        assert first == "YES k=6"
        assert verify_coloring(g, coloring).colors_used == 6
        code, out, _ = cli("solve", "--k", "7", stdin=doc)
        assert (code, out) == (1, "NO\n")

    def test_mcis_malformed_file(self, cli):
        code, _, err = cli("gen", "mcis", stdin="p mcis 1 0 1\n")
        assert code == 2
        assert err.startswith("error:")


class TestUsage:
    def test_no_arguments(self, cli):
        assert cli()[0] == 2

    def test_unknown_command(self, cli):
        assert cli("paint")[0] == 2

    def test_help_exits_cleanly(self, cli):
        code, out, _ = cli("--help")
        assert code == 0
        assert "solve" in out

    def test_one_parser_per_process(self, cli):
        cli("solve", "--k", "2", stdin=render_graph(TRIANGLE))
        cli("sigma", stdin=render_graph(TRIANGLE))
        assert _build_parser() is _build_parser()

    def test_help_matches_a_fresh_parser(self, cli):
        cli("solve", "--k", "2", stdin=render_graph(TRIANGLE))
        code, out, _ = cli("--help")
        assert code == 0
        assert out == _build_parser.__wrapped__()[0].format_help()

    def test_usage_error_is_stable_across_calls(self, cli, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser.__wrapped__()[0].parse_args(["solve", "-o", "w.col"])
        assert exc.value.code == 2
        fresh = capsys.readouterr().err
        assert "required: --k" in fresh
        for _ in range(2):
            assert cli("solve", "-o", "w.col") == (2, "", fresh)

    def test_defaults_do_not_leak_between_calls(self, cli, tmp_path):
        graph = tmp_path / "g.gr"
        graph.write_text(render_graph(PENDANT_PAIR))
        side = tmp_path / "side"
        first = ("kernel", "--rule", "standard", "--k", "4")
        code, _, _ = cli(*first, "--lifting", str(side),
                         "-o", str(tmp_path / "a"), str(graph))
        assert code == 0
        assert side.exists() and not (tmp_path / "a.lift").exists()
        code, _, _ = cli(*first, "-o", str(tmp_path / "b"), str(graph))
        assert code == 0
        assert (tmp_path / "b.lift").read_text() == side.read_text()

    def test_malformed_graph_document(self, cli):
        code, _, err = cli("solve", "--k", "1", stdin="p edge two 1\ne 1 2\n")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,g,code", [
        (["solve", "--k", "6"], FIVE_CYCLE, 1),
        (["sigma", "--edge-limit", "1"], Graph(3, [(0, 1), (1, 2)]), 3),
    ])
    def test_console_script_exits_with_the_code(self, monkeypatch, capsys,
                                                argv, g, code):
        # the installed script is main(): a NO exits 1 and a refusal 3
        monkeypatch.setattr("sys.argv", ["maxec", *argv])
        monkeypatch.setattr("sys.stdin", io.StringIO(render_graph(g)))
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
        capsys.readouterr()


# (argv, unrecognized): every subcommand with its options spelled in the
# ways argparse accepts, help, and each kind of usage error. "{graph}" and
# "{coloring}" stand for files holding TRIANGLE and a 3-coloring of it.
# An unrecognized argument is the one case the two paths report
# differently: the subcommand's parser names itself.
DISPATCH = [
    (["solve", "--k", "3"], False),
    (["solve", "--k=5"], False),
    (["solve", "--kernelize", "--k", "2", "-o", "-"], False),
    (["solve", "--k", "3", "{graph}"], False),
    (["sigma", "--edge", "0"], False),
    (["sigma", "-o", "-", "{graph}"], False),
    (["kernel", "--rule", "dual", "--k", "1"], False),
    (["kernel", "--rule=standard", "--k", "2"], False),
    (["verify", "{graph}", "{coloring}"], False),
    (["verify", "--q", "3", "{graph}", "{coloring}"], False),
    (["approx", "-"], False),
    (["gen", "random", "--n", "6", "--p", "0.5", "--seed", "1"], False),
    (["gen", "two-factor", "--n", "5", "--seed", "2", "-o", "-"], False),
    (["gen", "mcis", "--plain"], False),
    (["gen", "mcis"], False),
    (["-h"], False),
    (["solve", "-h"], False),
    (["gen", "-h"], False),
    (["gen", "random", "-h"], False),
    (["solve"], False),
    (["kernel", "--k", "2"], False),
    (["verify", "{graph}"], False),
    (["gen"], False),
    (["gen", "random", "--n", "5"], False),
    (["solve", "--k", "x"], False),
    (["kernel", "--rule", "square", "--k", "2"], False),
    (["gen", "paint"], False),
    (["paint"], False),
    ([], False),
    (["--k", "3", "solve"], False),
    (["solve", "--k", "3", "--bogus"], True),
    (["solve", "--k", "3", "{graph}", "extra"], True),
    (["gen", "random", "--n", "5", "--p", "0.5", "--seed", "1", "--bogus"], True),
]


class TestDispatch:
    @pytest.mark.parametrize(
        "argv,unrecognized", DISPATCH, ids=[" ".join(argv) or "(none)" for argv, _ in DISPATCH]
    )
    def test_subcommands_parse_their_own_arguments(self, cli, monkeypatch, tmp_path,
                                                   argv, unrecognized):
        graph, coloring = tmp_path / "g.gr", tmp_path / "w.col"
        graph.write_text(render_graph(TRIANGLE))
        coloring.write_text("s coloring 3\nl 1 2 1\nl 2 3 2\nl 1 3 3\n")
        argv = [arg.format(graph=graph, coloring=coloring) for arg in argv]
        if argv[:2] == ["gen", "mcis"]:
            stdin = render_mcis(MCISInstance(Graph(2, []), [[0], [1]]))
        else:
            stdin = render_graph(TRIANGLE)
        own = cli(*argv, stdin=stdin)
        parser, commands = _build_parser()
        # without the table of subcommands, run hands every argv to the
        # top-level parser, which parses it and then passes it on
        monkeypatch.setattr("maxec.cli._build_parser", lambda: (parser, {}))
        top = cli(*argv, stdin=stdin)
        assert own[:2] == top[:2]
        if not unrecognized:
            assert own[2] == top[2]
            return
        assert own[0] == 2
        usage, _, message = top[2].partition("maxec: error: ")
        assert usage == parser.format_usage()
        assert message.startswith("unrecognized arguments: ")
        command = commands[argv[0]]
        assert own[2] == command.format_usage() + f"maxec {argv[0]}: error: {message}"


class TestByteRead:
    """File arguments are read as bytes and decoded as UTF-8."""

    def test_crlf_documents_load_as_their_lf_forms(self, cli, tmp_path):
        graph_text = "c hand made\n" + render_annotated(TRIANGLE, (1, 2, 2))
        coloring_text = "c hand made\ns coloring 2\nl 1 2 1\nl 2 3 2\n\nl 1 3 1\n"
        seen = []
        for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            graph, coloring = tmp_path / f"{name}.gr", tmp_path / f"{name}.col"
            graph.write_bytes(graph_text.replace("\n", newline).encode())
            coloring.write_bytes(coloring_text.replace("\n", newline).encode())
            g, f = load_instance(_read(str(graph)))
            seen.append((
                (g, f),
                load_coloring(_read(str(coloring)), g),
                cli("verify", str(graph), str(coloring)),
                cli("sigma", "-o", "-", str(graph)),
            ))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][0] == (TRIANGLE, (1, 2, 2))
        assert seen[0][2] == (0, "VALID colors=2\n", "")

    def test_a_byte_that_is_not_utf8_exits_2(self, cli, tmp_path):
        graph, coloring = tmp_path / "g.gr", tmp_path / "w.col"
        graph.write_text(render_graph(TRIANGLE))
        coloring.write_text("s coloring 3\nl 1 2 1\nl 2 3 2\nl 1 3 3\n")
        bad = tmp_path / "latin1"
        bad.write_bytes(b"c caf\xe9\np edge 3 0\n")
        for argv in (
            ["solve", "--k", "1", bad],
            ["sigma", bad],
            ["verify", bad, coloring],
            ["verify", graph, bad],
        ):
            code, out, err = cli(*map(str, argv))
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9"), argv


def _fault(load, *args):
    try:
        load(*args)
    except FormatError as exc:
        return exc
    return None


class TestMalformedDocuments:
    """The reference test's documents, faulty or not, through the commands
    that load them: a rejected document exits 2 with the loader's message."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=100, deadline=None)
    @given(doc=documents())
    def test_rejected_documents_exit_2_with_their_line(self, workdir, doc):
        _, g, _, _, graph_text, coloring_text, _ = doc
        graph, colored = workdir / "g.gr", workdir / "g.col"
        graph.write_text(graph_text)
        colored.write_text(coloring_text)
        graph_fault = _fault(load_instance, graph_text)
        coloring_fault = _fault(load_coloring, coloring_text, g)
        k = str(max(2, g.m))
        for argv, fault in (
            (["solve", "--k", k, str(graph)], graph_fault),
            (["sigma", "--edge-limit", "0", str(graph)], graph_fault),
            (["kernel", "--rule", "standard", "--k", k, str(graph)], graph_fault),
            (["verify", str(graph), str(colored)], graph_fault or coloring_fault),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code != 4, (argv, err.getvalue())
            if fault is not None:
                assert (code, err.getvalue()) == (2, f"error: {fault}\n")


KERNELS = {
    "standard": kernelize_standard,
    "c4free": kernelize_c4free,
    "dual": kernelize_dual,
}


def _run_quiet(*argv):
    """(exit code, stdout, stderr) of one in-process run; never exit 4 or
    a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    assert code != 4, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _kernel_agrees(g, graph, rule, arg, colors, yes):
    """``kernel --rule rule --k arg``, then ``solve_exact`` on the reduced
    graph and ``lift_coloring`` back: the verdict is ``yes`` and a lifted
    witness shows ``colors`` colors."""
    code, out, _ = _run_quiet("kernel", "--rule", rule, "--k", str(arg), str(graph))
    first, _, doc = out.partition("\n")
    if first == "NO":
        assert (code, yes) == (1, False)
        return
    if first == f"YES k={arg}":
        assert (code, yes) == (0, True)
        return
    reduced = load_graph(doc)
    assert (code, first) == (0, f"REDUCED n={reduced.n} m={reduced.m} k={arg}")
    result = KERNELS[rule](g, arg)
    assert (result.verdict.graph.n, result.verdict.graph.edges) == (
        reduced.n, reduced.edges,
    )
    # the dual rule keeps the deficit, so the reduced target is n' - arg
    target = reduced.n - arg if rule == "dual" else arg
    if target <= 0:
        assert yes
        return
    res = solve_exact(reduced, target)
    assert res.yes == yes
    if yes:
        lifted = lift_coloring(g, reduced, result.lifting, res.witness)
        check = verify_coloring(g, lifted)
        assert check.valid and check.colors_used == colors


def _solve_agrees(workdir, g, sigma):
    """``solve`` and ``solve --kernelize`` on g at sigma and sigma + 1: YES
    with a witness that ``verify`` accepts, then NO."""
    graph, witness = workdir / "g.gr", workdir / "w.col"
    graph.write_text(render_graph(g))
    for k in (sigma, sigma + 1):
        plain = _run_quiet("solve", "--k", str(k), str(graph))
        assert _run_quiet("solve", "--kernelize", "--k", str(k), str(graph)) == plain
        code, out, _ = plain
        if k > sigma:
            assert (code, out) == (1, "NO\n")
            continue
        first, _, doc = out.partition("\n")
        assert (code, first) == (0, f"YES k={k}")
        witness.write_text(doc)
        assert _run_quiet("verify", str(graph), str(witness))[:2] == (
            0, f"VALID colors={k}\n",
        )
    return graph


def _agrees_with_oracle(workdir, g):
    """Every route of ``solve`` and ``kernel`` on g against sigma_exact."""
    sigma = sigma_exact(g, edge_limit=None).sigma
    graph = _solve_agrees(workdir, g, sigma)
    rules = ("standard", "c4free") if has_c4(g) is None else ("standard",)
    for rule in rules:
        for k in (sigma, sigma + 1):
            if k >= 2:
                _kernel_agrees(g, graph, rule, k, k, k <= sigma)
    # deficit d asks for n - d colors; d >= n asks for none, always yes
    for d in sorted({max(0, g.n - sigma - 1), g.n - sigma, g.n}):
        _kernel_agrees(g, graph, "dual", d, g.n - d, sigma >= g.n - d)


class TestOracleAgreement:
    """solve, solve --kernelize and each kernel rule followed by the lift
    agree with the oracle on small graphs."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle")

    @settings(max_examples=80, deadline=None)
    @given(g=random_graphs(max_n=7, max_m=10))
    def test_every_route_matches_sigma(self, workdir, g):
        _agrees_with_oracle(workdir, g)

    @settings(max_examples=300, deadline=None)
    @given(g=random_graphs(max_n=9, max_m=14))
    def test_palette_search_answers_solve(self, workdir, g):
        # with the oracle's decider stalled, every question that reaches
        # the race is answered by the palette search
        sigma = sigma_exact(g, edge_limit=None).sigma
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "decide", stalled_decide)
            _solve_agrees(workdir, g, sigma)
