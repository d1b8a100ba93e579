import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import topobetti
from topobetti import cli
from topobetti.cli import EXIT_DISAGREE, EXIT_OK, EXIT_USAGE, main
from topobetti.relunet import load_network


@pytest.fixture
def small_net(tmp_path):
    path = tmp_path / "net.json"
    code = main(["build", "--d", "2", "--m", "2", "--w", "1", "--offset", "-o", str(path)])
    assert code == EXIT_OK
    return path


def _last_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestBuild:
    def test_build_reference_architectures(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        assert (
            main(["build", "--d", "2", "--m", "4", "--w", "3", "--offset", "-o", str(path)])
            == EXIT_OK
        )
        out = _last_json(capsys)
        assert out["architecture"] == [2, 8, 5, 1] and out["M"] == 4
        assert load_network(str(path)).architecture == (2, 8, 5, 1)

        path = tmp_path / "g.json"
        assert (
            main(["build", "--d", "3", "--m", "2,2", "--w", "1,1", "--offset", "-o", str(path)])
            == EXIT_OK
        )
        assert _last_json(capsys)["architecture"] == [3, 6, 6, 6, 1]

    def test_odd_m_rejected(self, tmp_path):
        code = main(["build", "--d", "2", "--m", "3", "--w", "1", "-o", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_bad_list_rejected(self, tmp_path):
        code = main(["build", "--d", "2", "--m", "2;2", "--w", "1", "-o", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE


class TestAnalyze:
    def test_agreeing_analysis_exits_zero(self, small_net, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                str(small_net),
                "--predict",
                "2,1",
                "--oracle",
                "32",
                "--out",
                str(out_path),
            ]
        )
        assert code == EXIT_OK
        out = _last_json(capsys)
        assert out["betti"] == [2, 0]
        assert out["reconciliation"]["all_agree"] is True
        saved = json.loads(out_path.read_text())
        assert saved["schema"] == 1 and saved["betti"] == [2, 0]

    def test_wrong_prediction_exits_two(self, small_net, capsys):
        code = main(["analyze", str(small_net), "--predict", "4,1"])
        assert code == EXIT_DISAGREE
        out = _last_json(capsys)
        assert out["reconciliation"]["all_agree"] is False

    def test_sublevel_set_that_is_the_whole_box_agrees(self, tmp_path, capsys):
        # x₁ + x₂ − 3 < 0 on the unit square: no cell is positive, and β₀ = 1
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({"layers": [{"weights": [["1", "1"]], "bias": ["-3"]}]}))
        assert main(["analyze", str(path)]) == EXIT_OK
        out = _last_json(capsys)
        assert out["betti"] == [1, 0] and out["complement_cell_bounds"] == [0, 0]
        assert out["reconciliation"]["complement_ok"] == [True, True]

    def test_missing_file_exits_one(self):
        assert main(["analyze", "/nonexistent/net.json"]) == EXIT_USAGE

    def test_oracle_on_a_half_box(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        main(["build", "--d", "2", "--m", "4", "--w", "3", "--offset", "-o", str(path)])
        capsys.readouterr()
        code = main(["analyze", str(path), "--box", "0,1/2", "--oracle", "96"])
        out = _last_json(capsys)
        assert out["betti"][0] == out["oracle_beta0"] == 4
        assert code == EXIT_OK

    def test_reports_are_byte_stable(self, small_net, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["analyze", str(small_net), "--out", str(a)])
        main(["analyze", str(small_net), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSmallCommands:
    def test_predict(self, capsys):
        assert main(["predict", "--d", "2", "--M", "8", "--w", "4"]) == EXIT_OK
        assert _last_json(capsys)["betti"] == [40, 24]

    def test_predict_invalid(self):
        assert main(["predict", "--d", "2", "--M", "3", "--w", "1"]) == EXIT_USAGE

    def test_bounds(self, capsys):
        assert main(["bounds", "--arch", "2,8,5,1"]) == EXIT_OK
        out = _last_json(capsys)
        assert out["serra"] == 592
        assert out["binomial_bounds"] == [592, 592]

    def test_stability_static(self, small_net, capsys):
        assert main(["stability", str(small_net)]) == EXIT_OK
        assert _last_json(capsys)["topologically_stable"] is True

    def test_stability_perturbation(self, small_net, capsys):
        code = main(
            ["stability", str(small_net), "--delta", "1/1000000", "--trials", "2", "--seed", "7"]
        )
        assert code == EXIT_OK
        out = _last_json(capsys)
        assert out["certified_delta"] == "1/1000000"

    def test_stability_perturbation_defaults(self, small_net, capsys):
        assert main(["stability", str(small_net), "--delta", "1/1000000"]) == EXIT_OK
        out = _last_json(capsys)
        assert out["trials"] == 16 and out["seed"] == 0

    def test_stability_with_no_certified_delta_exits_two(self, tmp_path, capsys):
        # the notch ε − relu(x − ½) − relu(½ − x) at ε = 10⁻⁶ has no stability
        # event, but some trial changes its Betti vector at every delta tried
        path = tmp_path / "notch.json"
        layers = [
            {"weights": [["1", "0"], ["-1", "0"]], "bias": ["-1/2", "1/2"]},
            {"weights": [["-1", "-1"]], "bias": ["1/1000000"]},
        ]
        path.write_text(json.dumps({"layers": layers}))
        argv = ["stability", str(path), "--delta", "1/4", "--trials", "4", "--seed", "0"]
        assert main(argv) == EXIT_DISAGREE
        out = _last_json(capsys)
        assert out["certified_delta"] is None and out["topologically_stable"] is True

    def test_oracle_with_dumps(self, small_net, tmp_path, capsys):
        pgm, csv = tmp_path / "grid.pgm", tmp_path / "grid.csv"
        code = main(
            ["oracle", str(small_net), "--resolution", "32", "--pgm", str(pgm), "--csv", str(csv)]
        )
        assert code == EXIT_OK
        assert _last_json(capsys)["beta0"] == 2
        assert pgm.read_text().startswith("P2")
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert len(rows) == 33 and all(len(r) == 33 for r in rows)

    def test_report_round_trip(self, small_net, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(["analyze", str(small_net), "--out", str(out_path)])
        capsys.readouterr()
        assert main(["report", str(out_path)]) == EXIT_OK
        assert _last_json(capsys)["betti"] == [2, 0]

    def test_report_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        assert main(["report", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("schema", ["true", "1.0"])
    def test_report_schema_equal_to_one_but_not_an_int(self, tmp_path, capsys, schema):
        # True == 1.0 == 1 in Python, so only the type tells them from schema 1
        path = tmp_path / "bad.json"
        path.write_text(f'{{"schema": {schema}}}')
        assert main(["report", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unsupported report schema ")

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()


class TestNetworkArguments:
    # analyze, stability and oracle share the network path and --box
    COMMANDS = {"analyze": [], "stability": [], "oracle": ["--resolution", "64"]}

    def test_help_is_the_same_for_every_command(self, capsys):
        helps = []
        for command in self.COMMANDS:
            assert main([command, "--help"]) == EXIT_OK
            # each parser sets its own help column, so whitespace is not compared
            text = " ".join(capsys.readouterr().out.split())
            network = re.search(r"positional arguments: (.*?) options:", text).group(1)
            box = re.search(r"(--box BOX .*?) --(?!box)", text).group(1)
            helps.append((network, box))
        assert helps[0][0] == "network network JSON path"
        assert helps == [helps[0]] * len(self.COMMANDS), helps

    def test_a_negative_bound_needs_the_equals_form(self, small_net, capsys):
        outputs = {}
        for command, rest in self.COMMANDS.items():
            argv = [command, str(small_net), *rest]
            # argparse reads a value that starts with - as an option
            assert main([*argv, "--box", "-1/2,1"]) == EXIT_USAGE
            assert "argument --box: expected one argument" in capsys.readouterr().err
            assert main([*argv, "--box=-1/2,1"]) == EXIT_OK
            outputs[command] = _last_json(capsys)
        assert outputs["analyze"]["box"] == {"lower": ["-1/2", "-1/2"], "upper": ["1", "1"]}
        assert outputs["analyze"]["betti"] == [2, 0]
        assert outputs["stability"]["topologically_stable"] is True
        assert outputs["oracle"]["beta0"] == 2


class TestMalformedInput:
    def _fails_cleanly(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_layers_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text('{"layers": 5}')
        self._fails_cleanly(["analyze", str(path)], capsys)

    @pytest.mark.parametrize("architecture", [None, 5])
    def test_architecture_not_a_list(self, small_net, architecture, capsys):
        data = json.loads(small_net.read_text())
        data["architecture"] = architecture
        small_net.write_text(json.dumps(data))
        self._fails_cleanly(["analyze", str(small_net)], capsys)

    def test_report_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("[1, 2]")
        self._fails_cleanly(["report", str(path)], capsys)

    @pytest.mark.parametrize(
        "command", [["analyze"], ["oracle", "--resolution", "3"], ["stability"]],
        ids=["analyze", "oracle", "stability"],
    )
    def test_layer_with_no_inputs(self, command, tmp_path, capsys):
        # a weight row of width 0 would make a network on a 0-dimensional box
        path = tmp_path / "net.json"
        path.write_text('{"layers": [{"weights": [[]], "bias": ["0"]}]}')
        assert main([command[0], str(path), *command[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: malformed layer 0: layer has no inputs\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["analyze", "--oracle", "3"], ["oracle", "--resolution", "3"], ["stability"]],
        ids=["analyze", "analyze-oracle", "oracle", "stability"],
    )
    def test_two_outputs(self, command, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text('{"layers": [{"weights": [["1", "0"], ["0", "1"]], "bias": ["0", "0"]}]}')
        assert main([command[0], str(path), *command[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "requires a scalar-output network\n" in captured.err
        assert captured.out == ""


class TestErrorMessages:
    """Exit code 1 and the exact stderr line for input errors in each command."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "{net}", "--box", "0,1/0"], "non-canonical rational string: '1/0'"),
            (
                ["analyze", "{tmp}/string-row.json"],
                "malformed layer 0: weights must be a list of lists",
            ),
            (["analyze", "{tmp}/no-layers.json"], "network needs at least one layer"),
            (["analyze", "{tmp}/no-chain.json"], "layer dimensions do not chain: 1 -> 2"),
            (["analyze", "{tmp}/one-input.json", "--predict", "2"],
             "cutting requires dimension ≥ 2"),
            (["analyze", "{net}", "--predict", "2"], "--predict needs M and 1 widths, got '2'"),
            (
                ["analyze", "{tmp}/bad.json"],
                "malformed network file {tmp}/bad.json: "
                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            ),
            (["analyze", "{tmp}/one-input.json", "--box", "0,1,2"],
             "--box needs 2 rationals for dimension 1"),
            (["analyze", "{tmp}/three-input.json", "--box", "0,1,0,1"],
             "--box needs 2 or 6 rationals for dimension 3"),
            (
                ["build", "--d", "2", "--m", "3", "--w", "1", "-o", "{tmp}/x.json"],
                "every folding factor must be even and ≥ 2, got 3",
            ),
            (["predict", "--d", "2", "--M", "3", "--w", "1"], "M must be even and ≥ 2"),
            (["predict", "--d", "2", "--M", "2", "--w", "0"], "cut counts must be ≥ 1"),
            (["bounds", "--arch", "2,3,2"], "scalar output required"),
            (["bounds", "--arch", "2,0,1"], "invalid architecture '2,0,1'"),
            (["stability", "{net}", "--delta", "0.5"], "non-canonical rational string: '0.5'"),
            # without --delta no perturbation test runs for them to set up
            (["stability", "{net}", "--trials", "4", "--seed", "3"],
             "--trials and --seed need --delta"),
            (["stability", "{net}", "--seed", "0"], "--trials and --seed need --delta"),
            (["oracle", "{net}", "--resolution", "0"], "resolution must be ≥ 1"),
            (
                ["report", "{tmp}/missing.json"],
                "[Errno 2] No such file or directory: '{tmp}/missing.json'",
            ),
            (
                ["report", "{tmp}/bad.json"],
                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            ),
        ],
        ids=["box", "string-row", "no-layers", "no-chain", "predict-d1", "predict-count",
             "network-not-json", "box-count-d1", "box-count-d3", "build", "predict",
             "predict-zero-width", "bounds", "bounds-zero-width", "stability",
             "stability-trials-without-delta", "stability-seed-without-delta", "oracle",
             "report-missing", "report-not-json"],
    )
    def test_stderr(self, argv, message, small_net, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{not json")
        # a string row would load as its characters, "1" and "2"
        string_row = '{"layers": [{"weights": ["12"], "bias": ["3"]}]}'
        (tmp_path / "string-row.json").write_text(string_row)
        (tmp_path / "no-layers.json").write_text('{"layers": []}')
        # a layer with 1 output feeding a layer with 2 inputs
        no_chain = (
            '{"layers": [{"weights": [["1"]], "bias": ["0"]},'
            ' {"weights": [["1", "1"]], "bias": ["0"]}]}'
        )
        (tmp_path / "no-chain.json").write_text(no_chain)
        one_input = '{"layers": [{"weights": [["1"]], "bias": ["0"]}]}'
        (tmp_path / "one-input.json").write_text(one_input)
        three_input = '{"layers": [{"weights": [["1", "1", "1"]], "bias": ["0"]}]}'
        (tmp_path / "three-input.json").write_text(three_input)
        capsys.readouterr()
        fill = {"net": str(small_net), "tmp": str(tmp_path)}
        assert main([a.format(**fill) for a in argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(**fill)}\n"
        assert captured.out == ""

    def test_cell_cap_overflow(self, small_net, monkeypatch, capsys):
        monkeypatch.setenv("TOPOBETTI_MAX_CELLS", "4")
        capsys.readouterr()
        assert main(["analyze", str(small_net)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: arrangement exceeded TOPOBETTI_MAX_CELLS=4\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag, kind", [("--pgm", "PGM"), ("--csv", "CSV")])
    def test_dump_of_a_3d_grid_fails_before_sampling(
        self, flag, kind, tmp_path, monkeypatch, capsys
    ):
        net = tmp_path / "d3.json"
        assert main(["build", "--d", "3", "--m", "2", "--w", "1,1", "-o", str(net)]) == EXIT_OK

        def never(*args):
            raise AssertionError("grid sampled before the dimension check")

        monkeypatch.setattr(cli, "grid_sign_sample", never)
        dump = tmp_path / "grid.out"
        capsys.readouterr()
        assert main(["oracle", str(net), "--resolution", "4", flag, str(dump)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {kind} dump requires a 2-d grid\n"
        assert captured.out == ""
        assert not dump.exists()


# Runs each command in one fresh interpreter and prints, per command, its
# exit code and whether numpy has been imported so far.
_IMPORT_PROBE = """
import contextlib, io, sys
from topobetti.cli import main

net, report = sys.argv[1:]
for argv in (
    ["build", "--d", "2", "--m", "4", "--w", "3", "--offset", "-o", net],
    ["analyze", net, "--out", report],
    ["predict", "--d", "2", "--M", "4", "--w", "3"],
    ["bounds", "--arch", "2,8,5,1"],
    ["stability", net],
    ["report", report],
    ["oracle", net, "--resolution", "48"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code, "numpy" in sys.modules)
"""


def test_only_the_grid_oracle_imports_numpy(tmp_path):
    # numpy costs the start-up of every command that loads it, and only the
    # grid oracle uses it
    src = Path(topobetti.__file__).parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "f.json"), str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert run.stdout.splitlines() == [
        "build 0 False",
        "analyze 0 False",
        "predict 0 False",
        "bounds 0 False",
        "stability 0 False",
        "report 0 False",
        "oracle 0 True",
    ]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bounds", "--arch", "2,0,1"], EXIT_USAGE),
        (["predict", "--d", "2", "--M", "8", "--w", "4"], EXIT_OK),
    ],
    ids=["bounds-invalid", "predict"],
)
def test_python_m_entry_point(argv, code):
    src = Path(topobetti.__file__).parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-m", "topobetti.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == code, run.stderr
