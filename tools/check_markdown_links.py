#!/usr/bin/env python3
"""Markdown doc-rot checker for the docs CI job.

Two classes of reference are verified across the repo's markdown files:

1. Relative markdown links ``[text](path)`` — the target file must exist
   (``#anchors`` are stripped; ``http(s)://`` and ``mailto:`` links are
   skipped; anchors-only links are skipped).
2. Backtick code references like ``src/exec/engine.h:Engine`` or
   ``tests/adaptive_swap_test.cc`` — the file must exist, and when a
   ``:Symbol`` suffix is given the symbol must literally occur in that
   file. A numeric suffix ``:NN`` or ``:NN-MM`` is a line citation: the
   file must have at least NN (MM) lines. This is what keeps
   docs/PAPER_MAP.md honest as code moves.

Exit code 0 when everything resolves, 1 otherwise (one line per problem).

Usage: tools/check_markdown_links.py [file.md ...]
       (no arguments: checks the repo's tracked *.md files)
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `path/to/file.ext`, `path/to/file.ext:Symbol` or `path/to/file.ext:NN`
# / `:NN-MM` (line citations) inside backticks; only repo-rooted paths are
# checked (src/, tests/, bench/, examples/, docs/, tools/, .github/).
CODE_REF_RE = re.compile(
    r"`((?:src|tests|bench|examples|docs|tools|\.github)/[A-Za-z0-9_./-]+"
    r"\.(?:h|cc|cpp|md|py|yml))(?::(\d+(?:-\d+)?|[A-Za-z0-9_:~]+))?`"
)
LINES_RE = re.compile(r"\d+(?:-(\d+))?")


def tracked_markdown():
    out = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=REPO, capture_output=True, text=True
    )
    return [REPO / line for line in out.stdout.splitlines() if line]


def check_file(md: Path) -> list:
    problems = []
    text = md.read_text(encoding="utf-8")

    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        resolved = (md.parent / path).resolve()
        if not resolved.exists():
            problems.append(f"{md.relative_to(REPO)}: broken link -> {target}")

    for match in CODE_REF_RE.finditer(text):
        path, symbol = match.group(1), match.group(2)
        resolved = REPO / path
        if not resolved.exists():
            problems.append(
                f"{md.relative_to(REPO)}: missing file reference -> {path}"
            )
            continue
        if not symbol:
            continue
        content = resolved.read_text(encoding="utf-8")
        lines = LINES_RE.fullmatch(symbol)
        if lines:
            # `file.h:NN` / `file.h:NN-MM` — a line citation.
            last = int(lines.group(1) or symbol)
            if len(content.splitlines()) < last:
                problems.append(
                    f"{md.relative_to(REPO)}: {path} has fewer than "
                    f"{last} lines (cited as :{symbol})"
                )
        else:
            # `file.h:Symbol` — the symbol (last :: component) must occur
            # literally in the file.
            needle = symbol.split("::")[-1]
            if needle not in content:
                problems.append(
                    f"{md.relative_to(REPO)}: {path} no longer defines "
                    f"'{needle}'"
                )
    return problems


def main(argv) -> int:
    files = [Path(a).resolve() for a in argv[1:]] or tracked_markdown()
    problems = []
    for md in files:
        problems.extend(check_file(md))
    for p in problems:
        print(p)
    print(
        f"checked {len(files)} markdown file(s): "
        f"{'OK' if not problems else f'{len(problems)} problem(s)'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
