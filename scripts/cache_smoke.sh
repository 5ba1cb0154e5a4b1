#!/bin/sh
# cache-smoke: end-to-end check of the simulation cache's disk layer across
# processes. Runs dmpsim twice against a fresh DMP_CACHE_DIR, once at full
# fidelity and once with -sample: the first run of each must simulate and
# persist its entry, the second must answer from disk without simulating
# (disk_hits 1, misses 0 in its -metrics-json report).
set -eu

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT INT TERM

go build -o "$DIR/dmpsim" ./cmd/dmpsim
for mode in full sample; do
	flag=
	[ "$mode" = sample ] && flag=-sample
	for want in '"disk_hits":0,"misses":1,' '"disk_hits":1,"misses":0,'; do
		got=$(DMP_CACHE_DIR="$DIR/cache" "$DIR/dmpsim" -bench gzip -max 200000 $flag -metrics-json - | tr -d ' \n')
		case "$got" in
		*"$want"*) ;;
		*)
			echo "cache-smoke: $mode run: want $want in metrics, got: $got" >&2
			exit 1
			;;
		esac
	done
done
echo "cache-smoke: ok"
