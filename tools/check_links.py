#!/usr/bin/env python3
"""Intra-repo link checker for README.md, docs/*.md and src/**/*.py.

Scans Markdown files for inline links/images (``[text](target)``) and
reference definitions (``[label]: target``), and fails when a relative
target does not resolve to a file or directory in the repository.
External links (``http://``, ``https://``, ``mailto:``) are skipped —
this is a docs-rot gate for *intra-repo* references, not a crawler.
A ``#fragment`` on a Markdown target (``docs/cli.md#plimc-pareto``, or an
in-page ``#section``) must match one of that file's heading anchors,
slugged the way GitHub does (see :func:`heading_slugs`); fragments on
other targets are not checked.  Python sources under ``src/`` are
scanned for ``*.md`` names (``docs/rewriting.md``, with an optional
``#fragment``), which must name a Markdown file relative to the
repository root.

Used three ways, all sharing :func:`check_links`:

* ``python tools/check_links.py`` — CI gate (exit 1 on broken links);
* ``tests/test_docs.py`` — the tier-1 suite imports and runs it;
* ad hoc after editing docs.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: inline links/images: [text](target) / ![alt](target); stops at the
#: first ')' or whitespace (titles like [t](x "y") keep only x)
_INLINE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)\s>]+)>?[^)]*\)")
#: reference-style definitions at line start: [label]: target
_REFDEF = re.compile(r"^\s{0,3}\[[^\]]+\]:\s+<?(\S+?)>?(?:\s|$)", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
#: a Markdown file named in source text, with an optional #fragment
_MD_NAME = re.compile(r"(?<![\w./-])([\w./-]+\.md)(?:#([\w-]+))?")


def _strip_code(text: str) -> str:
    """Drop fenced code blocks and inline code spans (links there are
    examples, not navigation)."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


def iter_links(text: str):
    """Yield every link target in ``text`` (code blocks excluded)."""
    stripped = _strip_code(text)
    for pattern in (_INLINE, _REFDEF):
        for match in pattern.finditer(stripped):
            yield match.group(1)


def heading_slugs(text: str) -> set[str]:
    """The anchors GitHub gives the ATX headings of ``text``: lowercased,
    punctuation dropped (link and code markup keep their text), spaces as
    ``-``, and ``-1``, ``-2``, ... on repeats; fenced code is skipped."""
    slugs: set[str] = set()
    seen: dict[str, int] = {}
    fence = None
    for line in text.splitlines():
        stripped = line.lstrip()
        if stripped.startswith(("```", "~~~")):
            marker = stripped[:3]
            fence = None if fence == marker else fence or marker
            continue
        heading = re.match(r" {0,3}#{1,6}\s+(.*?)(?:\s+#+)?\s*$", line)
        if fence or not heading:
            continue
        title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading.group(1))
        slug = re.sub(r"[^\w\- ]", "", title.lower()).replace(" ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(f"{slug}-{count}" if count else slug)
    return slugs


def _target_errors(where: str, resolved: Path, target: str, fragment: str) -> list[str]:
    """The broken-link message for ``target`` (resolved to ``resolved``),
    or a dangling-anchor one when ``fragment`` names no heading of it."""
    if not resolved.exists():
        return [f"{where}: broken link -> {target}"]
    if fragment and resolved.suffix == ".md":
        if fragment not in heading_slugs(resolved.read_text(encoding="utf-8")):
            return [f"{where}: dangling anchor -> {target}"]
    return []


def check_file(path: Path, root: Path) -> list[str]:
    """Broken-link messages for one Markdown file (empty = healthy)."""
    errors = []
    for target in iter_links(path.read_text(encoding="utf-8")):
        if target.startswith(_EXTERNAL):
            continue
        base, _, fragment = target.partition("#")
        if not base:  # in-page anchor
            resolved = path
        else:
            resolved = (root if base.startswith("/") else path.parent) / base.lstrip("/")
        errors.extend(_target_errors(str(path.relative_to(root)), resolved, target, fragment))
    return errors


def check_source(path: Path, root: Path) -> list[str]:
    """Broken-reference messages for the ``*.md`` names one source file
    mentions, each resolved against the repository root."""
    errors = []
    text = path.read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        for match in _MD_NAME.finditer(line):
            name, fragment = match.groups()
            where = f"{path.relative_to(root)}:{number}"
            errors.extend(_target_errors(where, root / name, match.group(0), fragment))
    return errors


def checked_files(root: Path) -> tuple[list[Path], list[Path]]:
    """The Markdown files (README.md, docs/*.md) and the Python sources
    (src/**/*.py) under ``root``."""
    docs = sorted(root.glob("docs/*.md"))
    readme = root / "README.md"
    if readme.exists():
        docs.insert(0, readme)
    return docs, sorted(root.glob("src/**/*.py"))


def check_links(root: Path) -> list[str]:
    """Check README.md, every docs/*.md and every src/**/*.py under
    ``root``; return errors."""
    docs, sources = checked_files(root)
    errors = []
    for path in docs:
        errors.extend(check_file(path, root))
    for path in sources:
        errors.extend(check_source(path, root))
    return errors


def main(argv=None) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    errors = check_links(root)
    for error in errors:
        print(error, file=sys.stderr)
    checked = sum(map(len, checked_files(root)))
    if errors:
        print(f"{len(errors)} broken link(s) in {checked} file(s)", file=sys.stderr)
        return 1
    print(f"links OK ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
