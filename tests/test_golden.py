"""The CLI's outputs, byte for byte, against committed golden files.

Each network is generated here: the four reference instances with and
without the closure offset, and d2-M4-w3 perturbed at δ = 10⁻⁶.  For each,
the golden files hold the bytes of `analyze`'s report file and stdout, of
`stability`'s stdout with and without a two-trial perturbation test, and of
`oracle`'s stdout.  For each reference network they also hold the network
file that `build -o` writes, and the report file and stdout of `analyze`
against the closed form and a 64-step grid oracle (the closed form disagrees
without the offset, and 64 lies below the d = 2 networks'
default_resolution, so both verdicts of each comparison are pinned); for the
d = 2 ones, the stdout and the PGM and CSV files of
`oracle --resolution 64 --pgm … --csv …`; and for each of the four
instances, the stdout of `predict` and `bounds`.  The network that
helpers.corner_split_network builds, which is not combinatorially stable,
has `stability`'s stdout with and without the perturbation test.
exit_codes.json holds the exit code of every one of these runs, by network
and command, and test_output_is_unchanged checks each run's files and code.
`report` must print each saved `analyze` report unchanged.  Every file under
the golden directory, and every code in exit_codes.json, belongs to one of
these runs.  A change that must keep every output as it is passes these
unedited.

After a change that alters an output on purpose, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import REFERENCE_INSTANCES
from helpers import corner_split_network
from topobetti.cli import EXIT_OK, main
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.relunet import network_to_json
from topobetti.stability import _perturbed

GOLDEN = Path(__file__).parent / "data" / "golden"

# command name -> its arguments after the network path; each runs on every network
COMMANDS = {
    "analyze": ["analyze"],
    "stability": ["stability"],
    "stability-delta": ["stability", "--delta", "1/1000000", "--trials", "2", "--seed", "7"],
    "oracle": ["oracle", "--resolution", "64"],
}

# the network that is not combinatorially stable, on which `stability` runs
# with and without the perturbation test
UNSTABLE = "corner-split"

# command -> the extensions of the files it writes besides its stdout
WRITES = {
    "analyze": ["out"],
    "analyze-predict": ["out"],
    "build": ["out"],
    "oracle-dumps": ["pgm", "csv"],
}


def _specs():
    """name -> (FoldingSpec, CuttingSpec, offset) of each reference network."""
    specs = {}
    for name, d, m_vec, w_vec, _ in REFERENCE_INSTANCES:
        for offset in (False, True):
            specs[name + ("-offset" if offset else "")] = (
                FoldingSpec(d, m_vec), CuttingSpec(d, w_vec), offset
            )
    return specs


SPECS = _specs()


def _networks():
    """name -> network, for every network that COMMANDS run on."""
    nets = {name: build_topo_network(*spec) for name, spec in SPECS.items()}
    nets["d2-M4-w3-offset-perturbed"] = _perturbed(
        nets["d2-M4-w3-offset"], Fraction(1, 10**6), random.Random("7:0")
    )
    return nets


NETWORKS = _networks()
# the d = 2 networks whose oracle grids are dumped
DUMPED = [name for name, (fold, _, _) in SPECS.items() if fold.d == 2]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _argv(name, command, net: str, tmp: Path) -> list:
    """command's command line on the network name, read from net; each file
    it writes goes to tmp, named by its golden suffix."""
    if command == "build":
        fold, cut, offset = SPECS[name]
        return [
            "build", "--d", str(fold.d), "--m", _csv(fold.m_vec), "--w", _csv(cut.w_vec),
            *(["--offset"] if offset else []), "-o", str(tmp / "build.out"),
        ]
    if command == "analyze-predict":
        fold, cut, _ = SPECS[name]
        predict = _csv((fold.M, *cut.w_vec))
        return [
            "analyze", net, "--predict", predict, "--oracle", "64",
            "--out", str(tmp / "analyze-predict.out"),
        ]
    if command == "predict":
        fold, cut, _ = SPECS[name]
        return ["predict", "--d", str(fold.d), "--M", str(fold.M), "--w", _csv(cut.w_vec)]
    if command == "bounds":
        return ["bounds", "--arch", _csv(NETWORKS[name].architecture)]
    if command == "oracle-dumps":
        return [
            "oracle", net, "--resolution", "64",
            "--pgm", str(tmp / "oracle-dumps.pgm"), "--csv", str(tmp / "oracle-dumps.csv"),
        ]
    argv = [COMMANDS[command][0], net, *COMMANDS[command][1:]]
    return argv + ["--out", str(tmp / "analyze.out")] if command == "analyze" else argv


def _suffixes(command) -> list:
    """The golden files a command's run is compared with, by suffix: its
    stdout, but for build's, which names a temporary path, and the files it
    writes."""
    stdout = [] if command == "build" else [f"{command}.stdout"]
    return stdout + [f"{command}.{ext}" for ext in WRITES.get(command, [])]


def _run(name, command, tmp: Path) -> tuple:
    """command's exit code and output files, suffix -> bytes, on the network name."""
    net = tmp / "net.json"
    network = corner_split_network() if name == UNSTABLE else NETWORKS[name]
    net.write_text(json.dumps(network_to_json(network)), encoding="utf-8")
    suffixes = _suffixes(command)
    for suffix in suffixes:
        (tmp / suffix).unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(_argv(name, command, str(net), tmp))
    return code, {
        suffix: (
            stdout.getvalue().encode("utf-8") if suffix.endswith(".stdout")
            else (tmp / suffix).read_bytes()
        )
        for suffix in suffixes
    }


def _cases() -> list:
    """(network name, command) of every run the golden files hold."""
    return [
        *((name, command) for name in NETWORKS for command in COMMANDS),
        *((name, command) for name in SPECS for command in ("build", "analyze-predict")),
        *((name, "oracle-dumps") for name in DUMPED),
        *((name, command) for name, *_ in REFERENCE_INSTANCES for command in ("predict", "bounds")),
        *((UNSTABLE, command) for command in ("stability", "stability-delta")),
    ]


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, command", _cases(), ids=[f"{n}-{c}" for n, c in _cases()])
def test_output_is_unchanged(name, command, tmp_path):
    code, files = _run(name, command, tmp_path)
    for suffix, data in files.items():
        assert data == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix
    assert code == _exit_codes()[name][command]
    if name == UNSTABLE:
        # it is not topologically stable either, so neither run certifies,
        # and the perturbation test is not applicable
        stdout = files[f"{command}.stdout"].decode("utf-8")
        assert '"combinatorially_stable": false' in stdout
        assert ('"applicable": false' in stdout) == (command == "stability-delta")


@pytest.mark.parametrize(
    "report", sorted(p.name for p in GOLDEN.glob("*.out") if not p.name.endswith(".build.out"))
)
def test_report_prints_a_saved_report_unchanged(report, capsys):
    assert main(["report", str(GOLDEN / report)]) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / report).read_bytes()


def test_every_golden_file_is_read():
    # a case renamed or dropped must leave neither its files nor its exit code behind
    read = {"exit_codes.json"}
    for name, command in _cases():
        read.update(f"{name}.{suffix}" for suffix in _suffixes(command))
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(read)
    codes = [(name, command) for name, by_command in _exit_codes().items() for command in by_command]
    assert sorted(codes) == sorted(_cases())


def _regenerate():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in _cases():
            code, files = _run(name, command, Path(tmp))
            codes.setdefault(name, {})[command] = code
            for suffix, data in files.items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
