#!/bin/sh
# The repo's non-test line count: every line of crates/*/src/**/*.rs that is
# outside a column-0 `#[cfg(test)]` item, per crate and in total. A column-0
# `#[cfg(test)]` opens a skipped region that runs through the item it
# guards: to the first following line ending in `;` when the item has no
# body (a `use`), otherwise to the first column-0 `}`. Indented
# `#[cfg(test)]` items (test-only methods inside an `impl`) are counted.
# Blank and comment lines count: the figure is file size, not statements.
#
# Usage: tools/nontest_loc.sh [repo-root]   (default: the script's repo)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
for crate in crates/*/; do
    name=$(basename "$crate")
    find "$crate/src" -name '*.rs' | sort | xargs awk -v name="$name" '
        FNR == 1 { skip = 0; opened = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1; opened = 0; next }
        skip {
            if (!opened && /;[ \t]*$/) { skip = 0; next }
            if (/\{/) opened = 1
            if (/^\}/) skip = 0
            next
        }
        { n++ }
        END { printf "%-10s %6d\n", name, n }
    '
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
