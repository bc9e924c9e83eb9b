#!/usr/bin/env python3
"""Documentation consistency gate (stdlib only; CI runs this).

Five checks over the user-facing markdown:

1. Every relative link target in README.md / DESIGN.md / EXPERIMENTS.md /
   ROADMAP.md / docs/*.md resolves to a file or directory in the repo
   (external http(s)/mailto links and pure #anchors are skipped).
2. Every ``--flag`` mentioned in docs/TUNING.md is actually parsed
   somewhere under bench/, tools/ or src/ — a renamed or removed flag
   must take its documentation with it. Environment knobs (HPRES_*)
   are held to the same rule.
3. No orphan docs: every markdown file under docs/ must be reachable —
   linked from README.md or DESIGN.md (directly or via another doc
   under docs/) — and listed in DOCS above so its own links are
   checked. A doc nobody links is a doc nobody reads.
4. Every backticked ``Type::member`` reference, and every backticked bare
   CamelCase identifier (``LatencyRecorder``), in README.md / DESIGN.md /
   EXPERIMENTS.md / docs/*.md names identifiers that all still occur in
   src/, bench/, tools/ or benchmark/ — a deleted or renamed API must
   take its citations with it. ROADMAP.md and CHANGES.md are history and
   are not held to this.
5. Every backticked identifier in the first column of a docs/TUNING.md
   table still occurs in src/, bench/, tools/ or benchmark/ — a deleted
   knob takes its row with it. Flags (``--x``) are check 2's job.

Exit code 0 = clean; 1 = problems (each printed one per line).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/OPERATIONS.md",
    "docs/TUNING.md",
]
SOURCE_DIRS = ["bench", "tools", "src", "tests", "examples"]
SYMBOL_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
SYMBOL_DIRS = ["src", "bench", "tools", "benchmark"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]+")
ENV_RE = re.compile(r"\bHPRES_[A-Z0-9_]+\b")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*(?:::~?[A-Za-z_][A-Za-z0-9_]*)+")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Two or more capitalized humps: type names, not words or acronyms.
CAMEL_RE = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+")


def check_links(errors: list) -> None:
    for doc in DOCS:
        path = REPO / doc
        if not path.is_file():
            errors.append(f"{doc}: file missing (listed in check_docs.py)")
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                if not (path.parent / rel).exists():
                    errors.append(f"{doc}:{n}: broken link -> {target}")


def source_corpus(dirs=SOURCE_DIRS) -> str:
    chunks = []
    for d in dirs:
        for p in (REPO / d).rglob("*"):
            if p.suffix in {".cpp", ".h", ".py", ".cmake", ".txt"}:
                chunks.append(p.read_text(errors="replace"))
    return "\n".join(chunks)


def check_flags(errors: list) -> None:
    tuning = REPO / "docs" / "TUNING.md"
    if not tuning.is_file():
        errors.append("docs/TUNING.md: missing, flag gate skipped")
        return
    text = tuning.read_text()
    corpus = source_corpus()
    for flag in sorted(set(FLAG_RE.findall(text))):
        # The parsers match on "--flag=" or the bare token; either form in
        # the sources counts.
        if flag not in corpus:
            errors.append(f"docs/TUNING.md: flag {flag} not found in sources")
    for env in sorted(set(ENV_RE.findall(text))):
        if env not in corpus:
            errors.append(f"docs/TUNING.md: env var {env} not found in sources")


def check_orphans(errors: list) -> None:
    """Every docs/*.md must be linked (transitively from README/DESIGN
    through other docs/ files) and listed in DOCS."""
    docs_dir = REPO / "docs"
    if not docs_dir.is_dir():
        return
    # Link targets of a doc, resolved repo-relative.
    def targets_of(doc: Path):
        out = set()
        for target in LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (doc.parent / rel).resolve()
            try:
                out.add(resolved.relative_to(REPO).as_posix())
            except ValueError:
                pass
        return out

    reachable = set()
    frontier = ["README.md", "DESIGN.md"]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        path = REPO / name
        if path.is_file():
            frontier.extend(t for t in targets_of(path)
                            if t.startswith("docs/") and t.endswith(".md"))
    for doc in sorted(docs_dir.glob("*.md")):
        rel = doc.relative_to(REPO).as_posix()
        if rel not in reachable:
            errors.append(
                f"{rel}: orphan doc — not linked from README.md/DESIGN.md"
                " (directly or via another docs/ file)")
        if rel not in DOCS:
            errors.append(f"{rel}: not listed in check_docs.py DOCS —"
                          " its own links go unchecked")


def check_symbols(errors: list) -> None:
    """Every identifier of a backticked `A::b`, and every backticked bare
    CamelCase identifier, must occur in the code."""
    words = set(IDENT_RE.findall(source_corpus(SYMBOL_DIRS)))
    docs = SYMBOL_DOCS + sorted(
        p.relative_to(REPO).as_posix() for p in (REPO / "docs").glob("*.md"))
    for doc in docs:
        path = REPO / doc
        if not path.is_file():
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for span in CODE_SPAN_RE.findall(line):
                if CAMEL_RE.fullmatch(span) and span not in words:
                    errors.append(
                        f"{doc}:{n}: stale identifier `{span}` — not found"
                        f" in {', '.join(SYMBOL_DIRS)}")
                for ref in QUALIFIED_RE.findall(span):
                    gone = [part for part in ref.replace("~", "").split("::")
                            if part not in words]
                    if gone:
                        errors.append(
                            f"{doc}:{n}: stale reference `{ref}` —"
                            f" {', '.join(gone)} not found in"
                            f" {', '.join(SYMBOL_DIRS)}")


def check_tuning_rows(errors: list) -> None:
    """Every identifier backticked in a TUNING.md table's first column must
    occur in the code."""
    tuning = REPO / "docs" / "TUNING.md"
    if not tuning.is_file():
        return
    words = set(IDENT_RE.findall(source_corpus(SYMBOL_DIRS)))
    for n, line in enumerate(tuning.read_text().splitlines(), 1):
        if not line.startswith("|"):
            continue
        first = line.split("|")[1]
        for span in CODE_SPAN_RE.findall(first):
            if span.startswith("-"):
                continue
            gone = [w for w in IDENT_RE.findall(span) if w not in words]
            if gone:
                errors.append(
                    f"docs/TUNING.md:{n}: table row `{span}` —"
                    f" {', '.join(gone)} not found in"
                    f" {', '.join(SYMBOL_DIRS)}")


def main() -> int:
    errors = []
    check_links(errors)
    check_flags(errors)
    check_orphans(errors)
    check_symbols(errors)
    check_tuning_rows(errors)
    for e in errors:
        print(e)
    print(f"check_docs: {len(DOCS)} files checked, {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
