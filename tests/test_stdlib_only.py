"""The package stays dependency-free: it imports the standard library only,
its modules import each other in one direction, and each of them stays
under CPython 3.11's token-array doubling."""

import ast
import graphlib
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellchain"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _top_level_imports(path: Path) -> list[tuple[int, str | None]]:
    """(line, top-level module) per import statement; ``None`` if relative."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            name = None if node.level else node.module.partition(".")[0]
            found.append((node.lineno, name))
    return found


def test_package_sources_found():
    assert PACKAGE / "search.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    outside = [
        f"{path.name}:{line}: {name}"
        for line, name in _top_level_imports(path)
        if name is not None and name not in sys.stdlib_module_names
    ]
    assert not outside


def _package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports by a relative import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_package_imports_form_no_cycle():
    # each module is built on the ones it imports: series on chain, the
    # file format on series, and none of them on a module built on it
    graph = {path.stem: _package_imports(path) for path in SOURCES}
    assert {"chain", "series"} <= graph["fileformat"]
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")


def test_cli_starts_without_process_pools():
    # the package runs in one process: starting the CLI loads no module of
    # multiprocessing or concurrent
    code = (
        "import sys, ellchain, ellchain.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    )
    assert proc.stdout == "[]\n"


# CPython 3.11's parser grows its token array by doubling, allocating a
# Token for every new slot, so compiling a module of more than 8,192 tokens
# costs about 0.5 MB more peak memory, which the benchmark's peak_rss_mb
# sees in every worker that compiles the package from source.  The count
# is tokenize's, less comments, blank lines and the encoding token; it is
# taken on 3.11, the benchmark's Python, as 3.12 tokenizes f-strings into
# more tokens.
PARSER_TOKEN_SLOTS = 8192
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the token counts are CPython 3.11's",
)
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_doubling(path):
    with path.open("rb") as f:
        tokens = sum(t.type not in UNCOUNTED for t in tokenize.tokenize(f.readline))
    assert tokens < PARSER_TOKEN_SLOTS
