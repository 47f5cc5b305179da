#!/usr/bin/env sh
# Prints the workspace's non-test Rust line count: every .rs file under
# crates/ and src/, skipping tests/ directories, each file cut at its
# first `#[cfg(test)]` line (the unit-test module and all after it).
set -eu

cd "$(dirname "$0")/.."

find crates src -name '*.rs' -not -path '*/tests/*' -exec awk '
    FNR == 1 { cut = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
    !cut { n++ }
    END { print n + 0 }' {} + \
  | awk '{ total += $1 } END { print total + 0 }'
