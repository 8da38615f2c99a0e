#!/bin/sh
# Layering check for src/: every project include must stay inside the
# including module's transitive CMake DEPS.
#
# Each src/<module>/CMakeLists.txt declares its link dependencies as
# sevf_module(<module> SOURCES ... DEPS sevf_a sevf_b ...). A file in
# <module> may include its own module's headers and those of any module
# reachable through DEPS. Anything else compiles (every header sits
# under the one include root) but is a dependency the build graph does
# not declare, which is how a lower layer starts reaching up the stack
# (docs/ARCHITECTURE.md).
#
# usage: check_layers.sh [repo-root]
set -eu

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
src="$root/src"

{
    # "deps <module> <dep>...": direct DEPS with the sevf_ prefix dropped.
    for cml in "$src"/*/CMakeLists.txt; do
        module="$(basename "$(dirname "$cml")")"
        direct="$(tr '\n' ' ' <"$cml" |
            sed -n 's/.*DEPS\([^)]*\)).*/\1/p' | sed 's/sevf_//g')"
        echo "deps $module $direct"
    done
    # "./<module>/<file>:<line>:#include "<module>/<header>"".
    (cd "$src" && find . \( -name '*.h' -o -name '*.cc' \) \
        -exec grep -n '^#include "' /dev/null {} +)
} | awk '
$1 == "deps" {
    known[$2] = 1
    for (i = 3; i <= NF; i++) {
        direct[$2] = direct[$2] " " $i
    }
    next
}
{
    colon = index($0, ":")
    path = substr($0, 3, colon - 3)
    rest = substr($0, colon + 1)
    line = substr(rest, 1, index(rest, ":") - 1)
    split($0, quoted, "\"")
    split(path, from, "/")
    split(quoted[2], to, "/")
    n++
    inc_from[n] = from[1]
    inc_to[n] = to[1]
    inc_site[n] = "src/" path ":" line
    inc_header[n] = quoted[2]
}
# allowed[m, d] for d == m and every module reachable from m via DEPS.
function reach(m,    stack, top, cur, cnt, list, i) {
    allowed[m, m] = 1
    top = 1
    stack[1] = m
    while (top > 0) {
        cur = stack[top]
        top--
        cnt = split(direct[cur], list, " ")
        for (i = 1; i <= cnt; i++) {
            if (!((m, list[i]) in allowed)) {
                allowed[m, list[i]] = 1
                stack[++top] = list[i]
            }
        }
    }
}
END {
    modules = 0
    for (m in known) {
        reach(m)
        modules++
    }
    bad = 0
    for (k = 1; k <= n; k++) {
        if (!(inc_from[k] in known) || !(inc_to[k] in known)) {
            continue
        }
        if ((inc_from[k], inc_to[k]) in allowed) {
            continue
        }
        printf "%s: %s includes \"%s\", but %s is not in the transitive DEPS of %s\n", \
            inc_site[k], inc_from[k], inc_header[k], inc_to[k], inc_from[k]
        bad++
    }
    if (bad > 0) {
        printf "check_layers: %d include(s) outside the module DEPS graph\n", bad
        exit 1
    }
    printf "check_layers: %d includes across %d modules stay within their DEPS\n", n, modules
}'
