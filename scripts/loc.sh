#!/usr/bin/env bash
# Count code lines: non-blank lines that are not `//` comments (doc
# comments included), outside `#[cfg(test)]` items. Prints one line per
# .rs file under the given paths, then the total.
#
# Usage: scripts/loc.sh <file-or-dir>...
# Example: scripts/loc.sh crates/session/src crates/digest/src
#
# Brace depth is counted per character, so a brace inside a string or
# char literal of a test item can end the skip early; the repo's test
# modules have none that matter. A measuring tool, not a CI gate.
set -euo pipefail
[ "$#" -gt 0 ] || { echo "usage: $0 <file-or-dir>..." >&2; exit 2; }
find "$@" -name '*.rs' -type f | LC_ALL=C sort | while read -r f; do
  awk '
    { line = $0; sub(/^[ \t]+/, "", line) }
    skip == 0 && line ~ /^#\[cfg\(test\)\]/ { skip = 1; depth = 0; next }
    skip == 1 {
      # Inside the cfg(test) item: attributes, then the item itself,
      # which ends at a top-level `;` or when its braces balance.
      if (line ~ /^#\[/ || line == "") next
      opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
      depth += opens - closes
      if (opens > 0) skip = 2
      else if (line ~ /;[ \t]*$/ && depth == 0) skip = 0
      if (skip == 2 && depth <= 0) skip = 0
      next
    }
    skip == 2 {
      depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
      if (depth <= 0) skip = 0
      next
    }
    line == "" || line ~ /^\/\// { next }
    { n++ }
    END { printf "%6d %s\n", n, FILENAME }
  ' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
