#!/bin/sh
# loc.sh — the code-size figure: non-test Go lines outside bench/.
#
# Counts the committed (git ls-files) *.go files, minus *_test.go and
# everything under bench/ (its own module, and its build directory is
# never tracked), and prints the total followed by a per-package
# breakdown, largest first. It only reports; nothing fails on the number.
#
#	tools/loc.sh
set -eu
cd "$(dirname "$0")/.."

git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' |
	xargs wc -l | grep -v ' total$' |
	awk '{
		n = split($2, parts, "/")
		dir = "."
		for (i = 1; i < n; i++) dir = (i == 1 ? parts[i] : dir "/" parts[i])
		lines[dir] += $1
		total += $1
	}
	END {
		printf "%d non-test Go lines outside bench/\n", total
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -rn"
	}'
