#!/usr/bin/env python3
"""Anchor validation for docs/*.md (CI docs job).

The paper-to-code tables in docs/ tie theorems to implementations with
anchors of the form

    `src/core/kp.cpp:85` (`build_kp_shortcuts`)

This gate keeps them from rotting silently:

  * every backticked `path:line` must name an existing file and a line
    within it;
  * when the anchor is followed by a backticked (`symbol`), the symbol's
    last identifier must occur on the anchored line itself — or, when that
    line is a `template <...>` line, on the line after it — so an anchor
    that drifted onto a neighbouring use, comment or loop fails loudly.  In
    C/C++ files only the text before a `//` comment counts, so a comment
    that merely mentions the symbol does not hold the anchor;
  * every backticked repo path (a token with a '/' under a known root)
    must exist.

Run from anywhere: paths resolve against the repository root.
`--self-test` instead checks the checker on a drifted fixture.
"""

import re
import sys
import tempfile
from pathlib import Path

ROOTS = ("src/", "tests/", "bench/", "examples/", "scripts/", "docs/", "tools/", ".github/")

# `path:line` optionally followed by (`symbol`)
ANCHOR_RE = re.compile(
    r"`(?P<path>[A-Za-z0-9_./-]+\.(?:hpp|cpp|h|cc|py|md|yml|txt)):(?P<line>\d+)`"
    r"(?:\s*\(`(?P<symbol>[A-Za-z0-9_:~<>]+)`\))?"
)
PATH_RE = re.compile(r"`(?P<path>[A-Za-z0-9_.-]+/[A-Za-z0-9_./-]+)`")
TEMPLATE_RE = re.compile(r"^\s*template\s*<")
C_FAMILY = (".hpp", ".cpp", ".h", ".cc")


def symbol_lines(lines: list[str], line: int, strip_comments: bool) -> str:
    """The text an anchor on 1-based `line` may name its symbol on."""
    picked = [lines[line - 1]]
    if TEMPLATE_RE.match(picked[0]) and line < len(lines):
        picked.append(lines[line])
    if strip_comments:
        picked = [text.split("//", 1)[0] for text in picked]
    return "\n".join(picked)


def check_doc(doc: Path, repo: Path) -> list[str]:
    problems = []
    text = doc.read_text(encoding="utf-8")
    rel = doc.relative_to(repo)

    for m in ANCHOR_RE.finditer(text):
        path, line = m.group("path"), int(m.group("line"))
        target = repo / path
        if not target.is_file():
            problems.append(f"{rel}: anchor `{path}:{line}` — file does not exist")
            continue
        lines = target.read_text(encoding="utf-8").splitlines()
        if line < 1 or line > len(lines):
            problems.append(
                f"{rel}: anchor `{path}:{line}` — file has only {len(lines)} lines"
            )
            continue
        symbol = m.group("symbol")
        if symbol:
            # Strip namespaces / destructor markers; match the identifier.
            ident = symbol.split("::")[-1].lstrip("~")
            code = symbol_lines(lines, line, path.endswith(C_FAMILY))
            if not re.search(rf"\b{re.escape(ident)}\b", code):
                problems.append(
                    f"{rel}: anchor `{path}:{line}` — symbol `{symbol}` not on "
                    "the anchored line (anchor drifted?)"
                )

    # `path:line` tokens never match PATH_RE (':' is outside its character
    # class), so every match here is a plain path reference.
    for m in PATH_RE.finditer(text):
        path = m.group("path")
        if not path.startswith(ROOTS):
            continue
        target = repo / path
        if not target.exists():
            problems.append(f"{rel}: referenced path `{path}` does not exist")

    return problems


SELF_TEST_SOURCE = """\
// widget.hpp
struct Widget;  // forward declaration

template <typename T>
T widen(T x);

struct Widget {
  int size() const;
};
// size() is the element count.
int count();  // like size()
template <typename T>  // widen's twin
T narrow(T x);
"""

# (doc line, expected to pass): the anchor lands on the symbol, on the
# template line above it, one line off (drifted onto a neighbour), or on a
# line that names the symbol only inside a `//` comment.
SELF_TEST_CASES = [
    ("`src/widget.hpp:7` (`Widget`)", True),
    ("`src/widget.hpp:8` (`Widget::size`)", True),
    ("`src/widget.hpp:4` (`widen`)", True),
    ("`src/widget.hpp:6` (`Widget`)", False),
    ("`src/widget.hpp:3` (`Widget`)", False),
    ("`src/widget.hpp:9` (`size`)", False),
    ("`src/widget.hpp:5` (`Widget`)", False),
    ("`src/widget.hpp:40` (`Widget`)", False),
    ("`src/widget.hpp:2` (`Widget`)", True),
    ("`src/widget.hpp:11` (`count`)", True),
    ("`src/widget.hpp:12` (`narrow`)", True),
    ("`src/widget.hpp:10` (`size`)", False),
    ("`src/widget.hpp:11` (`size`)", False),
    ("`src/widget.hpp:12` (`widen`)", False),
]


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp)
        (repo / "src").mkdir()
        (repo / "docs").mkdir()
        (repo / "src" / "widget.hpp").write_text(SELF_TEST_SOURCE, encoding="utf-8")
        doc = repo / "docs" / "fixture.md"
        for anchor, should_pass in SELF_TEST_CASES:
            doc.write_text(f"See {anchor}.\n", encoding="utf-8")
            passed = not check_doc(doc, repo)
            if passed != should_pass:
                failures += 1
                want = "pass" if should_pass else "fail"
                print(f"self-test: {anchor} should {want}")
    print(f"self-test: {len(SELF_TEST_CASES)} case(s): " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    repo = Path(__file__).resolve().parent.parent
    docs = sorted((repo / "docs").glob("*.md"))
    if not docs:
        print("no docs/*.md files found")
        return 1
    problems = []
    anchors = 0
    for doc in docs:
        anchors += len(ANCHOR_RE.findall(doc.read_text(encoding="utf-8")))
        problems.extend(check_doc(doc, repo))
    for p in problems:
        print(p)
    print(
        f"checked {len(docs)} doc(s), {anchors} line anchor(s): "
        + ("FAIL" if problems else "OK")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
