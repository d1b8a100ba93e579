"""The CLI's outputs, byte for byte, against committed golden files.

Each network is generated here: the four reference instances with and
without the closure offset, and d2-M4-w3 perturbed at δ = 10⁻⁶.  For each,
the golden files hold the bytes of `analyze`'s report file and stdout, of
`stability`'s stdout with and without a two-trial perturbation test, and of
`oracle`'s stdout, and exit_codes.json holds every command's exit code.  A
change that must keep every output as it is passes these unedited.

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
from topobetti.relunet import save_network
from topobetti.stability import _perturbed

GOLDEN = Path(__file__).parent / "data" / "golden"

# command name -> its arguments after the network path
COMMANDS = {
    "analyze": ["analyze"],
    "stability": ["stability"],
    "stability-delta": ["stability", "--delta", "1/1000000", "--trials", "2", "--seed", "7"],
    "oracle": ["oracle", "--resolution", "64"],
}


def _networks():
    """name -> network, for every network the golden files cover."""
    nets = {}
    for name, d, m_vec, w_vec, _ in REFERENCE_INSTANCES:
        for offset in (False, True):
            fold, cut = FoldingSpec(d, m_vec), CuttingSpec(d, w_vec)
            nets[name + ("-offset" if offset else "")] = build_topo_network(fold, cut, offset)
    nets["d2-M4-w3-offset-perturbed"] = _perturbed(
        nets["d2-M4-w3-offset"], Fraction(1, 10**6), random.Random("7:0")
    )
    return nets


NETWORKS = _networks()


def _run(net, command, tmp: Path) -> tuple:
    """command's exit code and output files, name -> bytes, on net."""
    path = tmp / "net.json"
    save_network(net, str(path))
    argv = [COMMANDS[command][0], str(path), *COMMANDS[command][1:]]
    report = tmp / "report.json"
    if command == "analyze":
        argv += ["--out", str(report)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    files = {f"{command}.stdout": out.getvalue().encode("utf-8")}
    if command == "analyze":
        files["analyze.out"] = report.read_bytes()
    return code, files


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("name", list(NETWORKS))
def test_output_is_unchanged(name, command, tmp_path):
    code, files = _run(NETWORKS[name], command, tmp_path)
    assert code == _exit_codes()[name][command]
    for suffix, data in files.items():
        assert data == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix


def _regenerate():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, net in NETWORKS.items():
            codes[name] = {}
            for command in COMMANDS:
                codes[name][command], files = _run(net, command, Path(tmp))
                for suffix, data in files.items():
                    (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
