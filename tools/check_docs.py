#!/usr/bin/env python
"""Docs-consistency check (CI, gating).

Six invariants keep the documentation surface honest:

1. every workload name registered at import time, and every trace
   family in ``FAMILIES`` (as a backquoted name), appears in
   docs/WORKLOADS.md, and every scenario name in docs/SCENARIOS.md
   (every experiment name in README.md or DESIGN.md is a soft
   courtesy we do not enforce);
2. every CLI command — including nested groups like ``batch run`` and
   ``store query`` — appears in the README CLI tour (walked straight
   out of the live argparse tree, so a new subcommand without docs
   fails here);
3. every example script under examples/ runs to completion in smoke
   mode (REPRO_SMOKE=1);
4. every reprolint rule id registered in tools/reprolint (plus the R0
   pragma-hygiene meta rule) is documented in DESIGN.md section 15 —
   a new rule without catalogue prose fails here;
5. the DESIGN.md §10.1 invariant catalogue matches the auditor: every
   invariant id that ``src/repro/sim/`` records has a row, and every
   row names an id that ``src/repro`` records (read from the source
   with ``ast``, so a new invariant without a row fails here);
6. every ``--flag`` on a ``$ repro ...`` line of the README CLI tour is
   an option of that command path in the live argparse tree (each
   stage of a ``|`` pipeline checked on its own), so a removed or
   renamed flag cannot linger in the tour.

Run locally::

    PYTHONPATH=src python tools/check_docs.py

Exits non-zero on the first class of failure encountered; prints every
individual failure first.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for tools.reprolint (the rule registry)


def check_workload_docs() -> list[str]:
    from repro.workloads.registry import FAMILIES, REGISTRY

    doc = (REPO / "docs" / "WORKLOADS.md").read_text(encoding="utf-8")
    return [
        f"workload {name!r} is registered but not documented in docs/WORKLOADS.md"
        for name in REGISTRY
        if name not in doc
    ] + [
        f"family {name!r} is in FAMILIES but `{name}` is not in docs/WORKLOADS.md"
        for name in FAMILIES
        if f"`{name}`" not in doc
    ]


def check_scenario_docs() -> list[str]:
    from repro.scenarios import SCENARIOS

    doc = (REPO / "docs" / "SCENARIOS.md").read_text(encoding="utf-8")
    return [
        f"scenario {name!r} is registered but not documented in docs/SCENARIOS.md"
        for name in SCENARIOS
        if name not in doc
    ]


def _subcommands(parser) -> dict:
    """``{name: subparser}`` for one level of the argparse tree."""
    import argparse

    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out.update(action.choices)
    return out


def _cli_commands() -> list[str]:
    """Every ``repro ...`` command path in the live argparse tree."""
    from repro.cli import build_parser

    def walk(parser, prefix):
        children = _subcommands(parser)
        if not children:
            return [" ".join(prefix)] if prefix else []
        out = []
        for name, child in children.items():
            out.extend(walk(child, prefix + [name]))
        return out

    return walk(build_parser(), [])


def check_cli_docs() -> list[str]:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return [
        f"CLI command `repro {cmd}` is not shown in the README CLI tour"
        for cmd in _cli_commands()
        if f"repro {cmd}" not in readme
    ]


def _tour_invocations(readme: str) -> list[list[str]]:
    """The argv of every ``repro`` stage on a ``$ repro`` README line.

    Backslash continuations are joined, ``#`` comments dropped, and a
    ``|`` pipeline yields one argv per ``repro`` stage.
    """
    import shlex

    out = []
    for line in readme.replace("\\\n", " ").splitlines():
        if not line.startswith("$ repro"):
            continue
        lexer = shlex.shlex(line[2:], posix=True, punctuation_chars="|")
        lexer.whitespace_split = True
        stage: list[str] = []
        for token in [*lexer, "|"]:
            if token != "|":
                stage.append(token)
                continue
            if stage[:1] == ["repro"]:
                out.append(stage)
            stage = []
    return out


def check_cli_flag_docs(readme: str | None = None) -> list[str]:
    """Every ``--flag`` the README tour passes to a ``repro`` command
    path is an option of that path; ``readme`` replaces the README text."""
    from repro.cli import build_parser

    if readme is None:
        readme = (REPO / "README.md").read_text(encoding="utf-8")
    root = build_parser()
    failures = []
    for argv in _tour_invocations(readme):
        parser, depth = root, 1
        while depth < len(argv) and argv[depth] in _subcommands(parser):
            parser = _subcommands(parser)[argv[depth]]
            depth += 1
        command = " ".join(argv[:depth])
        failures += [
            f"README CLI tour passes {flag} to `{command}`, "
            "which has no such option"
            for flag in (arg.split("=", 1)[0] for arg in argv[depth:])
            if flag.startswith("--") and flag not in parser._option_string_actions
        ]
    return failures


def check_lint_rule_docs() -> list[str]:
    """Every registered reprolint rule id must appear in DESIGN.md §15."""
    from tools.reprolint import PRAGMA_RULE_ID, RULES

    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    marker = "## 15."
    idx = design.find(marker)
    if idx < 0:
        return ["DESIGN.md has no section 15 (the reprolint rule catalogue)"]
    section = design[idx:]
    nxt = section.find("\n## ", len(marker))
    if nxt > 0:
        section = section[:nxt]
    failures = []
    for rid in sorted(RULES) + [PRAGMA_RULE_ID]:
        name = RULES[rid].name if rid in RULES else "pragma-hygiene"
        if f"**{rid} — {name}**" not in section:
            failures.append(
                f"reprolint rule {rid} ({name}) is registered but has no "
                f"'**{rid} — {name}**' entry in the DESIGN.md §15 catalogue"
            )
    return failures


#: The ``Auditor`` methods whose first argument is an invariant id.
_RECORDING_CALLS = frozenset({"record", "check", "check_equal", "check_close"})
_INVARIANT_PREFIX = re.compile(r"[a-z]+\.")


def _literal_loops(func: ast.AST) -> dict[str, list[str]]:
    """Loop variables in ``func`` that iterate a literal tuple of strings."""
    loops: dict[str, list[str]] = {}
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.comprehension)):
            target, values = node.target, node.iter
            if (
                isinstance(target, ast.Name)
                and isinstance(values, (ast.Tuple, ast.List))
                and all(
                    isinstance(v, ast.Constant) and isinstance(v.value, str)
                    for v in values.elts
                )
            ):
                loops[target.id] = [v.value for v in values.elts]
    return loops


def _expand(arg: ast.AST, loops: dict[str, list[str]]) -> list[str] | None:
    """The string values an id argument takes; None if not resolvable."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [arg.value]
    if not isinstance(arg, ast.JoinedStr):
        return None
    out = [""]
    for part in arg.values:
        if isinstance(part, ast.Constant):
            out = [prefix + part.value for prefix in out]
        elif isinstance(part.value, ast.Name) and part.value.id in loops:
            out = [prefix + v for prefix in out for v in loops[part.value.id]]
        else:
            return None
    return out


def recorded_invariants(root: pathlib.Path) -> tuple[set[str], list[str]]:
    """Invariant ids the audit calls under ``root`` record, and the calls
    whose id could not be resolved statically."""
    ids: set[str] = set()
    unresolved: list[str] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loops = _literal_loops(func)
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and call.args):
                    continue
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                if name not in _RECORDING_CALLS:
                    continue
                arg = call.args[0]
                head = arg.values[0] if isinstance(arg, ast.JoinedStr) else arg
                if not (
                    isinstance(head, ast.Constant)
                    and isinstance(head.value, str)
                    and _INVARIANT_PREFIX.match(head.value)
                ):
                    continue  # not an invariant id (a sample, a warp index)
                values = _expand(arg, loops)
                if values is None:
                    unresolved.append(f"{path.relative_to(REPO)}:{call.lineno}")
                else:
                    ids.update(values)
    return ids, unresolved


def check_invariant_catalogue(design: str | None = None) -> list[str]:
    """DESIGN.md §10.1 (or ``design``, its text) has a row for each
    invariant ``src/repro/sim`` records and no row for any other id."""
    if design is None:
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    marker = "### 10.1"
    idx = design.find(marker)
    if idx < 0:
        return ["DESIGN.md has no section 10.1 (the invariant catalogue)"]
    section = design[idx:]
    nxt = section.find("\n### ", len(marker))
    if nxt > 0:
        section = section[:nxt]
    rows: set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            rows.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    required, unresolved = recorded_invariants(REPO / "src" / "repro" / "sim")
    recorded, more = recorded_invariants(REPO / "src" / "repro")
    failures = [
        f"cannot resolve the invariant id recorded at {where}; use a literal"
        for where in sorted(set(unresolved + more))
    ]
    failures += [
        f"invariant {rid!r} is recorded in src/repro/sim but has no row "
        "in the DESIGN.md §10.1 catalogue"
        for rid in sorted(required - rows)
    ]
    failures += [
        f"DESIGN.md §10.1 lists {rid!r}, which no code in src/repro records"
        for rid in sorted(rows - recorded)
    ]
    return failures


def check_required_docs_exist() -> list[str]:
    required = ("README.md", "docs/WORKLOADS.md", "docs/SCENARIOS.md", "DESIGN.md")
    return [
        f"required document {rel} is missing"
        for rel in required
        if not (REPO / rel).is_file()
    ]


def check_examples_smoke() -> list[str]:
    failures = []
    env = dict(os.environ, REPRO_SMOKE="1")
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for script in sorted((REPO / "examples").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-5:])
            failures.append(
                f"example {script.name} failed in smoke mode "
                f"(exit {proc.returncode}):\n{tail}"
            )
    return failures


def main() -> int:
    failures = []
    failures += check_required_docs_exist()
    failures += check_workload_docs()
    failures += check_scenario_docs()
    failures += check_cli_docs()
    failures += check_cli_flag_docs()
    failures += check_lint_rule_docs()
    failures += check_invariant_catalogue()
    failures += check_examples_smoke()
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print(f"\n{len(failures)} docs-consistency failure(s)", file=sys.stderr)
        return 1
    print(
        "docs-consistency: all registered workloads and families documented, "
        "all CLI commands in the README tour with only live flags, all lint "
        "rules and audit invariants in the DESIGN.md catalogues, all "
        "examples run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
