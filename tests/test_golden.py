"""The CLI's outputs, byte for byte, against committed golden files.

Each network is generated here: the four reference instances with and
without the closure offset, and d2-M4-w3 perturbed at δ = 10⁻⁶.  For each,
the golden files hold the bytes of `analyze`'s report file and stdout, of
`stability`'s stdout with and without a two-trial perturbation test, and of
`oracle`'s stdout, and exit_codes.json holds every command's exit code.  For
each reference network they also hold the network file that `build -o`
writes, and the report file and stdout of `analyze` against the closed form
and a 64-step grid oracle, whose exit codes are kept in this module.  Every
file under the golden directory belongs to one of these runs.  A change that
must keep every output as it is passes these unedited.

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
from topobetti.cli import main
from topobetti.constructions import CuttingSpec, FoldingSpec, build_topo_network
from topobetti.relunet import network_to_json
from topobetti.stability import _perturbed

GOLDEN = Path(__file__).parent / "data" / "golden"

# command name -> its arguments after the network path; each runs on every
# network, and exit_codes.json holds its exit codes
COMMANDS = {
    "analyze": ["analyze"],
    "stability": ["stability"],
    "stability-delta": ["stability", "--delta", "1/1000000", "--trials", "2", "--seed", "7"],
    "oracle": ["oracle", "--resolution", "64"],
}

# exit codes of `analyze --predict M,w... --oracle 64` on the reference
# networks.  Without the offset the closed form disagrees, and 64 lies below
# the d = 2 networks' default_resolution, where the oracle disagrees too, so
# the files hold both verdicts of each comparison
PREDICTED_EXIT_CODES = {
    "d2-M4-w3": 2,
    "d2-M4-w3-offset": 2,
    "d2-M8-w4": 2,
    "d2-M8-w4-offset": 2,
    "d3-M2-w11": 2,
    "d3-M2-w11-offset": 0,
    "d3-M4-w11": 2,
    "d3-M4-w11-offset": 0,
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
    """name -> network, for every network the golden files cover."""
    nets = {name: build_topo_network(*spec) for name, spec in SPECS.items()}
    nets["d2-M4-w3-offset-perturbed"] = _perturbed(
        nets["d2-M4-w3-offset"], Fraction(1, 10**6), random.Random("7:0")
    )
    return nets


NETWORKS = _networks()


def _csv(values) -> str:
    return ",".join(map(str, values))


def _argv(name, command, net: str, out: str) -> list:
    """command's command line on the network name, read from net; out is the
    file that `analyze --out` or `build -o` writes."""
    if command == "build":
        fold, cut, offset = SPECS[name]
        return [
            "build", "--d", str(fold.d), "--m", _csv(fold.m_vec), "--w", _csv(cut.w_vec),
            *(["--offset"] if offset else []), "-o", out,
        ]
    if command == "analyze-predict":
        fold, cut, _ = SPECS[name]
        predict = _csv((fold.M, *cut.w_vec))
        return ["analyze", net, "--predict", predict, "--oracle", "64", "--out", out]
    argv = [COMMANDS[command][0], net, *COMMANDS[command][1:]]
    return argv + ["--out", out] if command == "analyze" else argv


def _suffixes(command) -> list:
    """The golden files a command's run is compared with, by suffix: its
    stdout, but for build's, which names a temporary path, and the file that
    `analyze --out` or `build -o` writes."""
    stdout = [] if command == "build" else [f"{command}.stdout"]
    writes = command in ("analyze", "analyze-predict", "build")
    return stdout + ([f"{command}.out"] if writes else [])


def _run(name, command, tmp: Path) -> tuple:
    """command's exit code and output files, suffix -> bytes, on the network name."""
    net, out = tmp / "net.json", tmp / "out.json"
    net.write_text(json.dumps(network_to_json(NETWORKS[name])), encoding="utf-8")
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(_argv(name, command, str(net), str(out)))
    data = {f"{command}.stdout": stdout.getvalue().encode("utf-8")}
    if out.exists():
        data[f"{command}.out"] = out.read_bytes()
    return code, {suffix: data[suffix] for suffix in _suffixes(command)}


def _cases() -> list:
    """(network name, command) of every run the golden files hold."""
    return [
        *((name, command) for name in NETWORKS for command in COMMANDS),
        *((name, command) for name in SPECS for command in ("build", "analyze-predict")),
    ]


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def _unchanged(name, command, tmp: Path) -> int:
    """command's exit code on the network name, once its files match the golden ones."""
    code, files = _run(name, command, tmp)
    for suffix, data in files.items():
        assert data == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix
    return code


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("name", list(NETWORKS))
def test_output_is_unchanged(name, command, tmp_path):
    assert _unchanged(name, command, tmp_path) == _exit_codes()[name][command]


@pytest.mark.parametrize("name", list(SPECS))
def test_built_network_file_is_unchanged(name, tmp_path):
    assert _unchanged(name, "build", tmp_path) == 0


@pytest.mark.parametrize("name", list(SPECS))
def test_analysis_against_prediction_and_oracle_is_unchanged(name, tmp_path):
    assert _unchanged(name, "analyze-predict", tmp_path) == PREDICTED_EXIT_CODES[name]


def test_every_golden_file_is_read():
    # a case renamed or dropped must not leave its files behind
    read = {"exit_codes.json"}
    for name, command in _cases():
        read.update(f"{name}.{suffix}" for suffix in _suffixes(command))
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(read)


def _regenerate():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {name: {} for name in NETWORKS}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in _cases():
            code, files = _run(name, command, Path(tmp))
            if command in COMMANDS:
                codes[name][command] = code
            for suffix, data in files.items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
