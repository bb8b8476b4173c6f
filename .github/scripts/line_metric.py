#!/usr/bin/env python3
"""Print the workspace's line metric: code lines of the library sources.

Counts the non-blank lines of `crates/*/src/**/*.rs` that are not `//`
comments (doc comments included), stopping in each file at the first
`#[cfg(test)]` that opens a module (the next non-blank line starts with
`mod` or `pub mod`). A `#[cfg(test)]` on a field or statement does not
stop the count. Prints the total, then each crate's count.

Usage: python3 .github/scripts/line_metric.py [REPO_ROOT]
"""

import pathlib
import re
import sys

OPENS_MODULE = re.compile(r"(pub(\([^)]*\))?\s+)?mod\s")


def code_lines(path):
    lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
    count = 0
    for i, line in enumerate(lines):
        if line == "#[cfg(test)]":
            following = next((rest for rest in lines[i + 1:] if rest), "")
            if OPENS_MODULE.match(following):
                break
        if line and not line.startswith("//"):
            count += 1
    return count


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_crate = {}
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        crate = path.relative_to(root).parts[1]
        per_crate[crate] = per_crate.get(crate, 0) + code_lines(path)
    print(f"total {sum(per_crate.values())}")
    for crate, count in sorted(per_crate.items()):
        print(f"  {crate} {count}")


if __name__ == "__main__":
    main()
