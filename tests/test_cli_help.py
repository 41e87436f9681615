"""Snapshot of ``--help`` for every ``repro`` command path.

The CLI surface (usage lines, flag names, defaults, choices, metavars
and help prose) is pinned byte for byte in ``tests/data/cli_help.txt``:
a parser refactor that drops a flag, renames a metavar or changes a
default fails here.  The tree is walked the way
``tools/check_docs.py::_cli_commands`` walks it, plus the root and
every intermediate group.  If you change the CLI surface *on purpose*,
regenerate with::

    PYTHONPATH=src python tests/test_cli_help.py --regen

argparse's help layout changed in Python 3.13, so the snapshot is
compared on the versions CI runs (3.10-3.12) only.
"""

import argparse
import os
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

SNAPSHOT = Path(__file__).parent / "data" / "cli_help.txt"
WIDTH = "80"


def _walk(parser, prefix):
    yield " ".join(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _walk(child, prefix + [name])


def render_help() -> str:
    """Every command path's ``--help`` text, one ``### path`` block each."""
    return "".join(
        f"### {path}\n{parser.format_help()}"
        for path, parser in _walk(build_parser(), ["repro"])
    )


@pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse help layout changed in 3.13"
)
def test_help_matches_snapshot(monkeypatch):
    monkeypatch.setenv("COLUMNS", WIDTH)
    assert render_help() == SNAPSHOT.read_text(encoding="utf-8")


def _regen() -> None:
    os.environ["COLUMNS"] = WIDTH
    SNAPSHOT.write_text(render_help(), encoding="utf-8")
    print(f"wrote {SNAPSHOT}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
