#!/bin/sh
# Counts the workspace's non-test lines: for every Rust file under
# crates/, src/ and examples/, the lines before its first `#[cfg(test)]`
# (the whole file if it has none). Prints the total. Run from the
# repository root.
set -eu
find crates src examples -name '*.rs' | while read -r f; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ s += $1 } END { print s }'
