#!/usr/bin/env bash
# cirun.sh — the CI test-selection gate: no vacuous -run or -fuzz.
#
# `go test -run PATTERN` passes when PATTERN matches no test at all, so a
# test renamed or deleted drops out of the CI step that names it without
# a sound. For every `go test` command in .github/workflows/ci.yml this
# checks that each name in its -run and -fuzz patterns — split at `|`,
# anchors dropped, a subtest path cut at its first `/`; `^$`, which selects
# no test on purpose, is skipped — prefixes a `func` declared in a
# _test.go file of the packages the command runs (`./dir/...` counts every
# package under dir). It prints each name it could not resolve, and fails
# if there is one.
#
#	tools/cirun.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

# resolve PATTERN CMD DIR... reports every name of PATTERN that no test
# function in DIR... starts with.
resolve() {
	local pat=$1 cmd=$2 name files
	shift 2
	[ "$pat" = '^$' ] && return 0
	files=$(for d in "$@"; do
		case $d in
		*/...) find "${d%/...}" -name '*_test.go' ;;
		*) find "$d" -maxdepth 1 -name '*_test.go' ;;
		esac
	done)
	IFS='|' read -ra names <<<"$pat"
	for name in "${names[@]}"; do
		name=${name#^}
		name=${name%\$}
		name=${name%%/*}
		if [ -z "$files" ] || ! grep -qE "^func ${name}[A-Za-z0-9_]*\(" $files; then
			echo "cirun: no test in $* starts with $name: $cmd"
			status=1
		fi
	done
}

while IFS= read -r cmd; do
	cmd=${cmd#"${cmd%%[![:space:]]*}"}
	cmd=${cmd#run: }
	mapfile -t words < <(printf '%s\n' "${cmd#*go test}" | xargs -n1 printf '%s\n')
	pats=() dirs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		'|' | '&&' | ';') break ;;
		-run | -fuzz) pats+=("${words[i + 1]}"); i=$((i + 1)) ;;
		-run=* | -fuzz=*) pats+=("${w#*=}") ;;
		./* | .) dirs+=("$w") ;;
		esac
	done
	[ ${#dirs[@]} -eq 0 ] && dirs=(.)
	for p in ${pats[@]+"${pats[@]}"}; do
		resolve "$p" "$cmd" "${dirs[@]}"
	done
done < <(grep -E '^[^#]*go test ' .github/workflows/ci.yml)

exit $status
