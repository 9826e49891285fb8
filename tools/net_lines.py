#!/usr/bin/env python3
"""Net lines of Rust per crate, split into non-test and test lines.

Usage: python3 tools/net_lines.py [REPO_ROOT] > LINES.json

Prints one JSON object per line: one per crate (Cargo package), then one
total per group. A crate is the nearest directory above a `.rs` file whose
`Cargo.toml` has a `[package]` section. Groups:

* "workspace" - every crate outside the two groups below;
* "compat"    - the vendored dependency subsets under `crates/compat/`;
* "benchmark" - the standalone benchmark workspace under `benchmark/`.

Test lines are files under a `tests/` or `benches/` directory, files
declared as `#[cfg(test)] mod name;`, and every item carrying a
`#[cfg(test)]` attribute (the usual trailing `mod tests { ... }`). Every
other line of a `.rs` file, blank lines and comments included, is a
non-test line. The item's end is found from rustfmt's layout: the first
later line that is a closing brace at the attribute's own indentation (or
the item's line itself, when it ends with `;`).

Standard library only; skips `target/` and hidden directories.
"""

import json
import os
import re
import sys

GROUPS = (("crates/compat/", "compat"), ("benchmark/", "benchmark"))
TEST_DIRS = {"tests", "benches"}
CFG_TEST = "#[cfg(test)]"


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def package_name(root, directory):
    """The package name in `directory`'s `Cargo.toml`, or None."""
    manifest = os.path.join(root, directory, "Cargo.toml")
    if not os.path.isfile(manifest):
        return None
    with open(manifest, encoding="utf-8") as f:
        text = f.read()
    section = re.search(r"^\[package\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    if not section:
        return None
    return re.search(r'^name\s*=\s*"([^"]+)"', section.group(1), re.M).group(1)


def package_of(root, rel):
    """(package directory, package name) of the crate holding `rel`."""
    directory = os.path.dirname(rel)
    while True:
        name = package_name(root, directory)
        if name:
            return directory or ".", name
        if not directory:
            raise SystemExit(f"no package owns {rel}")
        directory = os.path.dirname(directory)


def split_lines(lines):
    """(non-test, test) line counts of one source file, plus the modules
    it declares as `#[cfg(test)] mod name;`."""
    test = [False] * len(lines)
    test_modules = []
    i = 0
    while i < len(lines):
        if lines[i].strip() != CFG_TEST:
            i += 1
            continue
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        item = i + 1
        while item < len(lines) and lines[item].strip().startswith("#["):
            item += 1
        if item == len(lines):
            break
        declared = re.match(r"\s*(?:pub(?:\([^)]*\))? )?mod (\w+);", lines[item])
        if declared:
            test_modules.append(declared.group(1))
        end = item
        if "{" in lines[item] or not lines[item].rstrip().endswith(";"):
            while end < len(lines) and lines[end].rstrip() != indent + "}":
                end += 1
        for j in range(i, min(end, len(lines) - 1) + 1):
            test[j] = True
        i = end + 1
    tests = sum(test)
    return len(lines) - tests, tests, test_modules


def count(root):
    files = list(rust_files(root))
    parsed = {}
    test_files = set()
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        non_test, tests, modules = split_lines(lines)
        parsed[rel] = (non_test, tests)
        base = os.path.dirname(rel)
        for module in modules:
            test_files.add(os.path.join(base, module + ".rs"))
            test_files.add(os.path.join(base, module, "mod.rs"))
    crates = {}
    for rel in files:
        directory, name = package_of(root, rel)
        non_test, tests = parsed[rel]
        inside = os.path.relpath(rel, directory).split(os.sep)
        if rel in test_files or TEST_DIRS & set(inside[:-1]):
            non_test, tests = 0, non_test + tests
        entry = crates.setdefault(
            name, {"crate": name, "path": directory, "non_test": 0, "test": 0}
        )
        entry["non_test"] += non_test
        entry["test"] += tests
    return crates


def group_of(path):
    for prefix, group in GROUPS:
        if (path + "/").startswith(prefix):
            return group
    return "workspace"


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    crates = count(root)
    totals = {}
    for entry in sorted(crates.values(), key=lambda e: e["path"]):
        entry = {"group": group_of(entry["path"]), **entry}
        print(json.dumps(entry))
        total = totals.setdefault(entry["group"], {"non_test": 0, "test": 0})
        total["non_test"] += entry["non_test"]
        total["test"] += entry["test"]
    for group in ("workspace", "compat", "benchmark"):
        if group in totals:
            print(json.dumps({"group": group, "crate": "total", **totals[group]}))


if __name__ == "__main__":
    main()
