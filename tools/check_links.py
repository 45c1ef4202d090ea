"""Docs health check: relative links resolve, documented CLI verbs exist.

Five passes, run by the CI ``docs`` job (and locally via
``python tools/check_links.py``):

1. **Link check.** Every relative markdown link in ``README.md``,
   ``ROADMAP.md`` and ``docs/*.md`` must point at a file that exists in
   the repository (anchors are stripped; ``http(s)``/``mailto`` links are
   out of scope — CI must not depend on external availability).
2. **Verb smoke.** Every ``repro <verb>`` mentioned in
   ``docs/OPERATIONS.md`` must answer ``python -m repro <verb> --help``
   with exit status 0 — so the operations document cannot drift from the
   actual CLI surface without failing CI.
3. **Coverage.** The reverse direction: every subcommand the CLI parser
   actually registers must appear in ``docs/OPERATIONS.md`` — adding a
   verb without documenting it fails CI too.
4. **Service surface.** The same both-directions rule for the wire: every
   op in ``repro.service.ops.OPS`` and every ``METHOD /route`` in
   ``repro.service.http.ROUTES`` must appear in ``docs/OPERATIONS.md``,
   and every ``/v1/...`` route or ``job_*`` op the document mentions must
   exist in those tables.
5. **Documented flags.** Every ``--flag`` in the first column of a flag
   table (a table whose header cell is ``flag``) under a
   ``### `repro <verb>` `` heading must be accepted by one of that
   heading's verbs, according to the parser ``build_parser()`` returns.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO / "README.md",
    REPO / "ROADMAP.md",
    *sorted((REPO / "docs").glob("*.md")),
]

# [text](target) — excluding images; inline code spans are stripped first.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`[^`]*`")
# ``repro <verb>`` or ``python -m repro <verb>`` with a verb-shaped token.
_VERB = re.compile(r"\brepro\s+([a-z][a-z0-9-]+)\b")
_NOT_VERBS = {"bench", "cli", "core", "backend", "service", "tuning"}
_ROUTE = re.compile(r"/v1/[A-Za-z0-9_/{}]+")
# A whole code span shaped like a job op; these two are wire fields.
_JOB_OP = re.compile(r"`(job_[a-z_]+)`")
_JOB_FIELDS = {"job_id", "job_key"}
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")
# A table cell boundary: a pipe not escaped as ``\|`` inside a code span.
_CELL = re.compile(r"(?<!\\)\|")


def check_links() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"{doc.relative_to(REPO)}: file missing")
            continue
        text = _CODE_SPAN.sub("", doc.read_text(encoding="utf-8"))
        for match in _LINK.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: broken link -> {match.group(1)}"
                )
    return problems


def documented_verbs() -> set[str]:
    operations = REPO / "docs" / "OPERATIONS.md"
    verbs = set(_VERB.findall(operations.read_text(encoding="utf-8")))
    return verbs - _NOT_VERBS


def check_verbs() -> list[str]:
    problems = []
    for verb in sorted(documented_verbs()):
        result = subprocess.run(
            [sys.executable, "-m", "repro", verb, "--help"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            detail = (result.stderr or result.stdout).strip().splitlines()
            problems.append(
                f"docs/OPERATIONS.md documents `repro {verb}` but "
                f"`--help` failed: {detail[-1] if detail else 'no output'}"
            )
    return problems


def verb_parsers() -> dict:
    """``{verb: subparser}`` as the argparse parser actually registers them."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def registered_verbs() -> set[str]:
    """The subcommands the argparse parser actually registers."""
    return set(verb_parsers())


def check_verb_coverage() -> list[str]:
    documented = documented_verbs()
    return [
        f"CLI registers `repro {verb}` but docs/OPERATIONS.md "
        f"never mentions it"
        for verb in sorted(registered_verbs() - documented)
    ]


def check_service_surface() -> list[str]:
    from repro.service.http import ROUTES
    from repro.service.ops import OPS

    text = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    patterns = {pattern for _method, pattern, _op, _required in ROUTES}
    problems = [
        f"service op `{op}` is missing from docs/OPERATIONS.md"
        for op in sorted(OPS) if f"`{op}`" not in text
    ] + [
        f"HTTP route `{method} {pattern}` is missing from docs/OPERATIONS.md"
        for method, pattern, _op, _required in ROUTES
        if f"{method} {pattern}" not in text
    ] + [
        f"docs/OPERATIONS.md mentions route {route}, which "
        f"repro.service.http.ROUTES does not serve"
        for route in sorted({match.rstrip("/")
                             for match in _ROUTE.findall(text)} - patterns)
    ] + [
        f"docs/OPERATIONS.md mentions op `{op}`, which "
        f"repro.service.ops.OPS does not define"
        for op in sorted(set(_JOB_OP.findall(text)) - _JOB_FIELDS - set(OPS))
    ]
    return problems


def documented_flags() -> list[tuple[tuple[str, ...], str]]:
    """``(heading verbs, flag)`` for every flag-table first-column flag."""
    found = []
    verbs: tuple[str, ...] = ()
    in_table = False
    operations = REPO / "docs" / "OPERATIONS.md"
    for line in operations.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            verbs = tuple(_VERB.findall(line)) if line.startswith("### ") else ()
            in_table = False
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        first = _CELL.split(line)[1].strip()
        if first == "flag":
            in_table = bool(verbs)
        elif in_table:
            found.extend((verbs, flag) for flag in _FLAG.findall(first))
    return found


def check_flags() -> list[str]:
    parsers = verb_parsers()
    problems = []
    for verbs, flag in documented_flags():
        accepted = {option for verb in verbs if verb in parsers
                    for action in parsers[verb]._actions
                    for option in action.option_strings}
        if flag not in accepted:
            heading = " / ".join(f"repro {verb}" for verb in verbs)
            problems.append(
                f"docs/OPERATIONS.md documents `{flag}` under `{heading}`, "
                f"which no verb of that heading accepts")
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    problems = (check_links() + check_verbs() + check_verb_coverage()
                + check_service_surface() + check_flags())
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print(
            f"OK: {len(DOC_FILES)} docs link-checked, "
            f"{len(documented_verbs())} CLI verbs answered --help, "
            f"{len(registered_verbs())} registered subcommands documented, "
            f"service ops and routes match docs/OPERATIONS.md, "
            f"{len(documented_flags())} documented flags exist"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
