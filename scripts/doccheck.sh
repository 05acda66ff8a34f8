#!/bin/sh
# doccheck: what the docs name in code spans must exist in the tree. Each
# file's inline `code` spans and fenced blocks are cut into tokens; a repo
# path (cmd/…, internal/…, examples/…, bench/…, ./…, *.go, *.md, *.json,
# *.sh), the word after `make`, and a Test*/Benchmark* name must resolve — a
# path as a suffix of some file or directory in the tree, a test name as the
# start of a test function's name (docs cite them as -run/-bench patterns),
# and a Test/sub name also needs its subtest name as a string literal in a
# test file.
# Skipped: tokens with a placeholder or glob character (< > { } *), absolute
# paths, and what follows a … . A "warn:" prefix on a file argument prints
# its misses without failing.
#
# Flags, checked against the two serving binaries' -h: every `-name` in the
# first column of the table under README's "`afserve` flags:" or "`afload`
# flags:" line must be a flag of that binary, and every flag either prints
# must be named as `-name` somewhere in README.
#
# CHANGES budget (ROADMAP item 12): from PR 30 on, a CHANGES.md entry (a
# "- PR <n>:" line and the lines up to the next one) is at most 15 lines of
# at most 100 columns; the long form of a PR lives in its commit message.
cd "$(dirname "$0")/.." || exit 2
tree=$(mktemp) && help=$(mktemp -d) && trap 'rm -rf "$tree" "$help"' EXIT
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
	Test[A-Z]*/* | Benchmark[A-Z]*/*) # TestGates/fairness: the function and a "fairness" literal
		grep -rqF --include='*_test.go' -- "func ${t%%/*}" . &&
			grep -rqF --include='*_test.go' -- "\"${t#*/}\"" .
		;;
	Test[A-Z]* | Benchmark[A-Z]*)
		grep -rqF --include='*_test.go' -- "func $t" .
		;;
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
misses=$(LC_ALL=C awk '/^- PR [0-9]+:/ { pr = $3 + 0; lines = 0 }
	pr >= 30 {
		s = $0; gsub(/[\200-\277]/, "", s) # UTF-8 continuation bytes: count characters
		if (length(s) > 100) printf "PR %d, line %d: %d columns, budget 100\n", pr, NR, length(s)
		if (++lines == 16) printf "PR %d: more than 15 lines\n", pr
	}' CHANGES.md)
if [ -n "$misses" ]; then
	fail=1
	echo "$misses" | sed 's|^|doccheck: CHANGES.md: |'
fi
for b in afserve afload; do
	${GO:-go} run ./cmd/$b -h 2>&1 | sed -n 's/^  \(-[a-z0-9-]*\).*/\1/p' >"$help/$b"
done
misses=$(awk -F'|' '/^`af[a-z]*` flags:$/{b=substr($1,2,index($1,"` ")-2);next} b&&/^\|/{n=split($2,c,"`");for(i=2;i<=n;i+=2)print b,c[i];next} b&&NF{b=""}' README.md |
	while read -r b f; do grep -qx -- "$f" "$help/$b" || echo "the $b table names $f, which $b -h does not list"; done
	for b in afserve afload; do
		while read -r f; do grep -qF -- "\`$f\`" README.md || echo "$b -h lists $f, which README never names"; done <"$help/$b"
	done)
if [ -n "$misses" ]; then
	fail=1
	echo "$misses" | sed 's|^|doccheck: README.md: flags: |'
fi
exit $fail
