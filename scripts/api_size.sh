#!/usr/bin/env bash
# api-size: print the size of every package's production surface — its
# non-test Go lines and its exported identifiers — plus a total, so a
# simplification change can show what it removed. Run it on two commits
# and compare the tables.
#
# Lines come from the package's non-test source files (`go list`
# GoFiles). Exported identifiers are the top-level declarations `go doc
# -short` lists (funcs, types, vars, consts; one grouped const block
# counts once) plus the exported methods of exported types (`func (`
# lines of `go doc -all`). Commands (package main) export nothing.
#
# Usage: scripts/api_size.sh [package pattern...]   (default ./...)
set -euo pipefail

cd "$(dirname "$0")/.."

patterns=("$@")
if [ ${#patterns[@]} -eq 0 ]; then
    patterns=(./...)
fi

printf '%-40s %8s %9s\n' package lines exported
total_lines=0
total_exported=0
while read -r path name dir files; do
    lines=0
    if [ -n "$files" ]; then
        lines=$(cd "$dir" && cat $files | wc -l)
    fi
    exported=0
    if [ "$name" != main ]; then
        top=$(go doc -short "$path" 2>/dev/null | grep -c . || true)
        methods=$(go doc -all "$path" 2>/dev/null | grep -c '^func (' || true)
        exported=$((top + methods))
    fi
    printf '%-40s %8d %9d\n' "$path" "$lines" "$exported"
    total_lines=$((total_lines + lines))
    total_exported=$((total_exported + exported))
done < <(go list -f '{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles " "}}' "${patterns[@]}")
printf '%-40s %8d %9d\n' total "$total_lines" "$total_exported"
