#!/bin/sh
# flakes: how often the tests that read the runtime's own counters or race
# worker goroutines fail on fresh runs. TestAllocsGolden (internal/core),
# TestCachedRequestAllocsGolden (internal/serve), TestViewsGolden
# (internal/serve: its batched traces run several GPU workers) and
# TestSmokeRunEmitsEveryMetric (bench) each run FLAKES_N times (default
# 20), first alone and then beside two busy shell loops, and the failures
# are printed per test and load.
#
# FLAKES_BASE=<commit> makes the same runs at that commit too, from a
# temporary checkout (git archive, so nothing is registered in .git). The
# two sides alternate run by run, so a change in load falls on both alike.
#
# Each test is built once into a test binary; running the binary is a fresh
# run, as go test -count=1 is.
cd "$(dirname "$0")/.." || exit 2
GO=${GO:-go}
N=${FLAKES_N:-20}
tests="internal/core:TestAllocsGolden internal/serve:TestCachedRequestAllocsGolden internal/serve:TestViewsGolden bench:TestSmokeRunEmitsEveryMetric"

tmp=$(mktemp -d) || exit 2
busy=
trap 'kill $busy 2>/dev/null; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# build <tree> <side>: one test binary per test's package.
build() {
	for t in $tests; do
		pkg=${t%%:*}
		(cd "$1" && $GO test -c -o "$tmp/$2-${pkg##*/}.test" "./$pkg") || exit 2
	done
}

# run <load> <side> <tree>: one fresh run of every test, from its package
# directory (the tests read testdata/ by relative path).
run() {
	for t in $tests; do
		pkg=${t%%:*} name=${t#*:}
		if ! (cd "$3/$pkg" && "$tmp/$2-${pkg##*/}.test" -test.run "^$name\$" -test.count=1 >/dev/null 2>&1); then
			echo x >>"$tmp/fail-$1-$2-$name"
		fi
	done
}

sides=change
build . change
if [ -n "${FLAKES_BASE:-}" ]; then
	mkdir "$tmp/base" && git archive "$FLAKES_BASE" | tar -x -C "$tmp/base" || exit 2
	build "$tmp/base" base
	sides="change base"
fi

for load in alone busy; do
	if [ $load = busy ]; then
		sh -c 'while :; do :; done' &
		busy="$busy $!"
		sh -c 'while :; do :; done' &
		busy="$busy $!"
	fi
	i=0
	while [ $i -lt "$N" ]; do
		order=$sides
		[ $((i % 2)) = 1 ] && [ -n "${FLAKES_BASE:-}" ] && order="base change"
		for side in $order; do
			tree=.
			[ $side = base ] && tree=$tmp/base
			run $load $side "$tree"
		done
		i=$((i + 1))
	done
	kill $busy 2>/dev/null
	busy=
done

printf 'failures in %d fresh runs each\n%-32s %-6s' "$N" test load
for side in $sides; do printf ' %-8s' $side; done
echo
for t in $tests; do
	name=${t#*:}
	for load in alone busy; do
		printf '%-32s %-6s' "$name" $load
		for side in $sides; do
			f=$tmp/fail-$load-$side-$name
			n=0
			[ -f "$f" ] && n=$(wc -l <"$f")
			printf ' %-8s' "$n/$N"
		done
		echo
	done
done
