"""Every ``python -m repro ...`` command the docs show must parse.

Scans README.md, DESIGN.md and EXPERIMENTS.md — fenced code blocks,
with ``\\`` continuations joined and shell comments dropped, plus
inline code spans — and feeds each command's arguments through
:func:`repro.cli.build_parser`.  A documented flag or choice the CLI
rejects fails here instead of in a reader's terminal.
"""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PREFIX = "python -m repro"


def documented_commands():
    """``(doc:line, argv)`` for every documented repro invocation."""
    found = []
    for name in DOCS:
        text = (ROOT / name).read_text()
        fence = False
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i].strip()
            start = i + 1
            i += 1
            if line.startswith("```"):
                fence = not fence
                continue
            if not (fence and line.startswith(PREFIX)):
                continue
            while line.endswith("\\") and i < len(lines):
                line = line[:-1] + " " + lines[i].strip()
                i += 1
            found.append((f"{name}:{start}",
                          shlex.split(line, comments=True)[3:]))
        for match in re.finditer(r"`python -m repro\s+([^`]+)`", text):
            lineno = text.count("\n", 0, match.start()) + 1
            found.append((f"{name}:{lineno}",
                          shlex.split(match.group(1))))
    return found


COMMANDS = documented_commands()


def test_docs_show_commands():
    assert len(COMMANDS) >= 20


@pytest.mark.parametrize("where,argv", COMMANDS,
                         ids=[where for where, _ in COMMANDS])
def test_documented_command_parses(where, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as err:
        pytest.fail(f"{where}: `{PREFIX} {shlex.join(argv)}` is "
                    f"rejected by the CLI (exit {err.code})")
