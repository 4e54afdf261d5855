#!/usr/bin/env python3
"""List public member functions that nothing outside their own files uses.

For every class or struct declared in src/**/*.h, each public member
function is looked up by name in src/, tests/, bench/, examples/, tools/
and perfbench/, skipping the header itself and the .cc of the same stem
beside it. A function whose name appears nowhere else is printed as
`path:line Class::name`, and the last line is the count.

Usage:
    tools/dead_symbols.py [--root DIR]

The scan is textual, so it errs towards silence: a name shared with any
other symbol anywhere (`size`, `run`) counts as used. Constructors,
destructors and operators are not listed. The count is a trend number for
CI; the script always exits 0.
"""

import argparse
import os
import re
import sys

SEARCH_DIRS = ("src", "tests", "bench", "examples", "tools", "perfbench")
SOURCE_EXT = (".h", ".cc", ".cpp", ".hpp", ".py")
SKIP_DIRS = {"build", "build-asan", ".bench_build", ".git"}

CLASS_RE = re.compile(r"^\s*(?:template\s*<[^>]*>\s*)?(class|struct)\s+"
                      r"(?:\[\[[^\]]*\]\]\s*)?(\w+)(?:\s+final)?\s*"
                      r"(?::[^{;]*)?\{")
ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:")
# `name(` after a return type, at the start of a declaration.
FUNC_RE = re.compile(r"^\s*(?:\[\[[^\]]*\]\]\s*)?(?:template\s*<[^>]*>\s*)?"
                     r"(?:(?:static|virtual|inline|constexpr|explicit|"
                     r"friend)\s+)*[\w:<>,&*\s]*?[\w>&*]\s+[&*]?(\w+)\s*\(")
NOT_FUNCS = {"if", "for", "while", "switch", "return", "sizeof", "decltype",
             "static_assert", "alignas", "operator"}


def strip_comments(text):
    """Blanks comments and string literals, keeping line numbers."""
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group()),
                  text, flags=re.S)
    text = re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)
    return re.sub(r"//[^\n]*", "", text)


def public_functions(path):
    """Yields (line, class, name) for public member functions in a header."""
    with open(path, encoding="utf-8") as f:
        lines = strip_comments(f.read()).split("\n")
    stack = []  # [class name, access, body depth]; innermost last
    depth = 0
    for lineno, line in enumerate(lines, 1):
        m = CLASS_RE.match(line)
        if m and not line.rstrip().endswith(";"):
            kind, name = m.groups()
            stack.append([name, "public" if kind == "struct" else "private",
                          depth + 1])
        elif stack and depth == stack[-1][2]:
            a = ACCESS_RE.match(line)
            if a:
                stack[-1][1] = a.group(1)
            elif stack[-1][1] == "public" and not re.match(
                    r"^\s*(using|typedef|friend|enum|~)", line):
                f = FUNC_RE.match(line)
                if f and f.group(1) not in NOT_FUNCS and \
                        f.group(1) != stack[-1][0]:
                    yield lineno, stack[-1][0], f.group(1)
        depth += line.count("{") - line.count("}")
        while stack and depth < stack[-1][2]:
            stack.pop()


def source_files(root):
    for d in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = [n for n in dirnames if n not in SKIP_DIRS]
            for n in filenames:
                if n.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, n)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    texts = {}
    for p in source_files(args.root):
        with open(p, encoding="utf-8", errors="replace") as f:
            texts[p] = strip_comments(f.read())

    dead = []
    for header in sorted(p for p in texts if p.endswith(".h") and
                         os.path.relpath(p, args.root).startswith("src")):
        own = {header, header[:-2] + ".cc"}
        for lineno, cls, name in public_functions(header):
            word = re.compile(r"\b%s\b" % re.escape(name))
            if not any(word.search(t) for p, t in texts.items()
                       if p not in own):
                dead.append("%s:%d %s::%s" % (
                    os.path.relpath(header, args.root), lineno, cls, name))

    for d in dead:
        print(d)
    print("dead public member functions: %d" % len(dead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
