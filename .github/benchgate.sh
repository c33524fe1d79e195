#!/usr/bin/env bash
# Paired benchmark gate: time the layer benchmarks of a base commit and
# of the working tree on the same machine, in alternating order, and
# fail when a row got slower.
#
# Usage, from the repository root:
#
#   bash .github/benchgate.sh BASE_REF
#
# The script checks BASE_REF out into a temporary git worktree, builds
# the test binaries of the packages below in both trees, and times
# every row ROUNDS times per side. Each round runs the base and the
# head binary back to back and flips which side goes first, so drift
# in the machine's speed lands on both sides alike. A round's timing
# of a row is the fastest of COUNT passes, since other load on a shared
# machine only ever adds time, and the passes of all rounds are
# interleaved over the whole run, so a slow spell of the machine lands
# on every round alike instead of widening the spread between rounds.
# Every run is pinned to the same CPU, since the CPUs of a shared
# machine can differ in speed by 2x. A row fails when its head median
# over the rounds exceeds its base median by more than
# max(BOUND x base median, SPREAD x the base rounds' inter-quartile
# range). A row that reports bytes allocated per op (the entries
# marked -benchmem, and benchmarks that call ReportAllocs) also fails
# when its head median B/op, of each round's least, exceeds its base
# median by more than MEMBOUND of it. Rows that exist on one side only are listed
# and pass. The raw `go test` output of both sides stays in the
# printed work directory.
set -euo pipefail

readonly ROUNDS=7
readonly COUNT=7
readonly BOUND=0.25
readonly SPREAD=3
readonly MEMBOUND=0.25

# package, benchmark pattern, benchtime, and -benchmem where the
# rows' allocations are gated too. The sched rows are one scalar
# draw of every stochastic scheduler, and one K = 16 NextBatch of the
# uniform, sticky and lottery drawers the default grid batches. The
# sweep rows are the n = 1024 step loops, scalar and replica-batched,
# for SCU and every pointer workload under the uniform and lottery
# schedulers, and for SCU under the uniform scheduler counted into an
# obs.Metrics; they are gated on B/op as well, which the batched
# pointer workloads' node pools dominate. The machine rows
# time one simulator step with no recorder, counted into an
# obs.Metrics, and feeding the same Metrics events. The chain rows
# build and solve the exact chains of SCU(0, 1) and parallel(3) at
# n = 64, 2,144 and 2,145 states, one build and solve per pass. The
# api rows encode a 16-job grid and a result line, and decode a 16-job
# and a 228-job grid, each with this package's code and with
# encoding/json; their B/op are gated too.
readonly BENCHES=(
	"internal/sched ^BenchmarkSchedDraw$/./(dense|alias|fenwick|batch16)/ 200000x"
	"internal/sweep ^BenchmarkSweepSteps$/./(n=1024|stack|queue|rcu|unbounded|lfuniversal|metrics)$ 1x -benchmem"
	"internal/machine ^BenchmarkSimStep(NoRecorder|Metrics|MetricsEvents)$ 1000000x"
	"internal/obs ^BenchmarkTrace$/./encode$ 100000x"
	"internal/obs ^BenchmarkTrace$/./decode$ 3x"
	"internal/chains ^BenchmarkExactChain$ 1x"
	"internal/api ^Benchmark(Marshal|DecodeGrid)$ 300x -benchmem"
)

if [ $# -ne 1 ]; then
	echo "usage: bash .github/benchgate.sh BASE_REF" >&2
	exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/benchgate.XXXXXX")
cleanup() { git -C "$root" worktree remove --force "$work/base-tree" >/dev/null 2>&1 || true; }
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/base-tree" "$base_ref"

# The first CPU this script may run on; every benchmark run is pinned
# to it when taskset is available.
pin=()
if command -v taskset >/dev/null; then
	pin=(taskset -c "$(taskset -pc $$ | sed 's/.*: //; s/[-,].*//')")
fi

start=$SECONDS
for side in base head; do
	tree=$root
	[ "$side" = base ] && tree=$work/base-tree
	mkdir -p "$work/$side"
	for pkg in $(printf '%s\n' "${BENCHES[@]}" | cut -d' ' -f1 | sort -u); do
		(cd "$tree" && go test -c -o "$work/$side/${pkg//\//_}.test" "./$pkg")
	done
done

# run SIDE ROUND ENTRY appends one run of one benchmark entry to SIDE's
# log, each result line prefixed with the round. A failing run stops
# the gate with its output.
run() {
	local side=$1 round=$2 pkg pattern benchtime mem tree=$root out=$work/$1.out
	read -r pkg pattern benchtime mem <<<"$3"
	[ "$side" = base ] && tree=$work/base-tree
	if ! (cd "$tree/$pkg" && ${pin[@]+"${pin[@]}"} "$work/$side/${pkg//\//_}.test" \
		-test.run='^$' -test.timeout=5m -test.cpu=1 \
		-test.bench="$pattern" -test.benchtime="$benchtime" ${mem:+"-test.${mem#-}"}) >"$out" 2>&1; then
		cat "$out" >&2
		exit 1
	fi
	sed -n "s/^Benchmark/$round Benchmark/p" "$out" >>"$work/$side.txt"
}

for ((pass = 1; pass <= COUNT; pass++)); do
	for ((round = 1; round <= ROUNDS; round++)); do
		order="base head"
		((round % 2 == 0)) && order="head base"
		for entry in "${BENCHES[@]}"; do
			for side in $order; do
				run "$side" "$round" "$entry"
			done
		done
	done
done

# rows SIDE prints one line per row and round: the row name, the
# least ns/op of the round's COUNT timings, and their least B/op, or -
# when the row does not report it.
rows() {
	awk '{
			k = $2 SUBSEP $1
			if (!(k in least) || $4 < least[k]) least[k] = $4
			for (i = 5; i < NF; i++)
				if ($(i + 1) == "B/op" && (!(k in bytes) || $i + 0 < bytes[k])) bytes[k] = $i + 0
		}
		END { for (k in least) { split(k, key, SUBSEP); print key[1], least[k], (k in bytes) ? bytes[k] : "-" } }' "$work/$1.txt"
}

set +e
{ rows base | sed 's/^/base /'; rows head | sed 's/^/head /'; } | sort -k2,2 | awk \
	-v bound="$BOUND" -v spread="$SPREAD" -v membound="$MEMBOUND" '
	# quantile returns the p-quantile of the n sorted values in v,
	# interpolating between neighbours.
	function quantile(v, n, p,    h, lo) {
		h = (n - 1) * p
		lo = int(h)
		return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
	}
	# stats sets med[side] and iqr[side] of metric m ("ns" or "B")
	# over the rounds of row name.
	function stats(side, name, m,    n, v, i, j, t) {
		n = count[side, name]
		for (i = 0; i < n; i++) v[i] = val[side, name, m, i]
		for (i = 1; i < n; i++)
			for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		med[side] = quantile(v, n, 0.5)
		iqr[side] = quantile(v, n, 0.75) - quantile(v, n, 0.25)
	}
	{
		if (!(($1, $2) in count)) { count[$1, $2] = 0; if (!($2 in seen)) { seen[$2]; names[++nn] = $2 } }
		if ($4 == "-") nomem[$1, $2]
		val[$1, $2, "B", count[$1, $2]] = $4
		val[$1, $2, "ns", count[$1, $2]++] = $3
	}
	END {
		printf "%-58s %12s %12s %10s %10s %7s %11s %11s %7s  %s\n", "row", "base ns/op", "head ns/op", "base IQR", "allowed", "change",
			"base B/op", "head B/op", "change", "verdict"
		for (i = 1; i <= nn; i++) {
			name = names[i]
			if (!(("base", name) in count) || !(("head", name) in count)) {
				printf "%-58s %s\n", name, (("base", name) in count) ? "only at base" : "only at head"
				continue
			}
			stats("base", name, "ns"); b = med["base"]; q = iqr["base"]
			stats("head", name, "ns"); h = med["head"]
			allowed = bound * b > spread * q ? bound * b : spread * q
			verdict = h - b > allowed ? "FAIL" : "ok"
			mem = sprintf("%11s %11s %7s", "-", "-", "-")
			if (!(("base", name) in nomem) && !(("head", name) in nomem)) {
				stats("base", name, "B"); bb = med["base"]
				stats("head", name, "B"); hb = med["head"]
				mem = sprintf("%11d %11d %+6.1f%%", bb, hb, bb ? (hb - bb) / bb * 100 : 0)
				if (hb - bb > membound * bb) verdict = verdict == "FAIL" ? "FAIL (time, B/op)" : "FAIL (B/op)"
			}
			if (verdict != "ok") failed++
			printf "%-58s %12.2f %12.2f %10.2f %10.2f %+6.1f%% %s  %s\n", name, b, h, q, allowed, (h - b) / b * 100, mem, verdict
		}
		if (failed) printf "\n%d row(s) slower or allocating more than allowed\n", failed
		exit failed > 0
	}'
status=$?
set -e
echo "work directory: $work; built and ran $ROUNDS rounds of $COUNT passes in $((SECONDS - start)) s"
exit $status
