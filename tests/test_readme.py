"""README's examples must keep running and saying what they print."""

import re
import shlex
from pathlib import Path

from ellchain.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, fence: str) -> str:
    start = README.index(fence, README.index(after)) + len(fence)
    return README[start : README.index("```", start)]


def test_library_block_runs():
    exec(_block("## Library", "```python\n"), {})


def test_cli_block_exit_codes_and_quoted_output(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = [ln for ln in _block("## CLI", "```\n").splitlines() if ln.startswith("ellchain ")]
    assert len(lines) == 8
    quotes = 0
    for line in lines:
        command, _, comment = line.partition("#")
        # a line documents its exit code as "(exit N)"; all others succeed
        documented = re.search(r"\(exit (\d)\)", comment)
        expected = int(documented.group(1)) if documented else 0
        code = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == expected, line
        quoted = re.search(r'"(total \d+ = rho \d+)"', comment)
        if quoted:
            quotes += 1
            assert quoted.group(1) in out.splitlines(), line
    assert quotes == 1
