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
#
# Flags, checked against the three serving binaries' -h: every `-name` in
# the first column of the table under README's "`afserve` flags:" or
# "`afload` flags:" line must be a flag of that binary, and every flag any of
# the three prints must be named as `-name` somewhere in README.
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
for b in afserve afload afcluster; do
	${GO:-go} run ./cmd/$b -h 2>&1 | sed -n 's/^  \(-[a-z0-9-]*\).*/\1/p' >"$help/$b"
done
misses=$(awk -F'|' '/^`af[a-z]*` flags:$/{b=substr($1,2,index($1,"` ")-2);next} b&&/^\|/{n=split($2,c,"`");for(i=2;i<=n;i+=2)print b,c[i];next} b&&NF{b=""}' README.md |
	while read -r b f; do grep -qx -- "$f" "$help/$b" || echo "the $b table names $f, which $b -h does not list"; done
	for b in afserve afload afcluster; do
		while read -r f; do grep -qF -- "\`$f\`" README.md || echo "$b -h lists $f, which README never names"; done <"$help/$b"
	done)
if [ -n "$misses" ]; then
	fail=1
	echo "$misses" | sed 's|^|doccheck: README.md: flags: |'
fi
exit $fail
