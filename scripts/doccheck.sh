#!/bin/sh
# doccheck: what the docs name in code spans must exist in the tree. Each
# file's inline `code` spans and fenced blocks are cut into tokens; a repo
# path (cmd/…, internal/…, examples/…, bench/…, ./…, *.go, *.md, *.json,
# *.sh), the word after `make`, and a Test*/Benchmark* name must resolve — a
# path as a suffix of some file or directory in the tree, a test name as the
# start of a test function's name (docs cite them as -run/-bench patterns).
# Skipped: tokens with a placeholder or glob character (< > { } *), absolute
# paths, and what follows a … . A "warn:" prefix on a file argument prints
# its misses without failing.
cd "$(dirname "$0")/.." || exit 2
tree=$(mktemp) && trap 'rm -f "$tree"' EXIT
find . \( -name .git -o -name .bench_build \) -prune -o -print | sed 's/$/|/' >"$tree"

resolves() { # $1 = token, $2 = "make" when the token follows that word
	t=${1%%:[0-9]*} # band.go:154 -> band.go
	t=${t%\*}       # BenchmarkScan* -> BenchmarkScan
	case $t in
	*[\<\>{}*]* | /* | ./...) return 0 ;;
	esac
	if [ "$2" = make ]; then
		grep -q "^$t:" Makefile
		return
	fi
	case $t in
	Test[A-Z]* | Benchmark[A-Z]*)
		grep -rqF --include='*_test.go' -- "func $t" .
		;;
	BENCH_serve.json) ;; # written by `make serve-bench`, gitignored
	cmd/* | internal/* | examples/* | bench/* | ./* | *.go | *.md | *.json | *.sh)
		t=${t#./} t=${t%/...}
		grep -qF -- "/${t%/}|" "$tree"
		;;
	esac
}

fail=0
for arg; do
	doc=${arg#warn:}
	# Code text only: fenced lines whole (shell comments dropped), otherwise
	# the backticked spans; then one token a line, "make" kept as a marker.
	misses=$(awk '/^```/{f=!f;next} f{sub(/(^|[ \t])#.*/,"");print;next} {n=split($0,p,"`");for(i=2;i<=n;i+=2)print p[i]}' "$doc" |
		tr -c 'A-Za-z0-9_./*<>{}:\n-' ' ' | awk '{for(i=1;i<=NF;i++)print (i>1&&$(i-1)=="make"?"make ":"") $i}' | sort -u |
		while read -r a b; do
			if [ -n "$b" ]; then resolves "$b" make || echo "make $b"; else resolves "$a" || echo "$a"; fi
		done)
	[ -z "$misses" ] && continue
	if [ "$arg" = "$doc" ]; then fail=1 label=unresolved; else label="warning, unresolved"; fi
	echo "$misses" | sed "s|^|doccheck: $doc: $label: |"
done
exit $fail
