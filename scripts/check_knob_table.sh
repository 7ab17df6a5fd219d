#!/usr/bin/env bash
# Knob-table lint: every "TRT_*" string literal in src/, tools/ and
# bench/ must have a row in README.md's knob table, and every variable
# the table names must be read by one of those literals. CMake options
# (rows whose Where column says CMake) are not environment variables
# and are skipped.
#
#   scripts/check_knob_table.sh        # exit 1 and list the mismatches
set -euo pipefail
cd "$(dirname "$0")/.."

read_names=$(grep -rhoE '"TRT_[A-Z0-9_]*"' src tools bench | tr -d '"' |
    sort -u)
# First cell of each table row whose Where column is not CMake.
table_names=$(grep -E '^\| `' README.md |
    awk -F' \\| ' '$2 !~ /CMake/ { print $1 }' |
    grep -oE 'TRT_[A-Z0-9_]+' | sort -u)

missing=$(comm -23 <(echo "$read_names") <(echo "$table_names"))
unread=$(comm -13 <(echo "$read_names") <(echo "$table_names"))
status=0
if [ -n "$missing" ]; then
    echo "read in src/, tools/ or bench/ but missing from README.md's knob table:"
    echo "$missing" | sed 's/^/  /'
    status=1
fi
if [ -n "$unread" ]; then
    echo "listed in README.md's knob table but read nowhere:"
    echo "$unread" | sed 's/^/  /'
    status=1
fi
[ "$status" -eq 0 ] && echo "knob table OK ($(echo "$read_names" | wc -l) names)"
exit "$status"
