#!/usr/bin/env bash
# Counts code lines in src/: every line of src/**/*.{h,cc} that is not
# blank, does not start with `//` (after indentation) and is not inside
# a `/* ... */` block. Prints one "<count> <file>" row per file, sorted
# by path, then the total for src/.
# Usage: tests/loc.sh [file-or-dir...]   (default: src/)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"
[ "$#" -gt 0 ] || set -- src
find "$@" -type f \( -name '*.h' -o -name '*.cc' \) | LC_ALL=C sort |
  xargs awk '
    FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; in_block = 0 }
    {
      line = $0
      sub(/^[ \t]+/, "", line)
      if (in_block) {
        if (index(line, "*/") > 0) in_block = 0
        next
      }
      if (line == "" || substr(line, 1, 2) == "//") next
      if (substr(line, 1, 2) == "/*") {
        if (index(substr(line, 3), "*/") == 0) in_block = 1
        next
      }
      ++n
      ++total
    }
    END {
      if (file != "") printf "%6d %s\n", n, file
      printf "%6d total\n", total
    }'
