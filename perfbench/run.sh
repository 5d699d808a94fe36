#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload regen_busy --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload serve_mixed --seconds 20 --steady 5
#
# --trace 0 runs the end-to-end binary (public API and the commit's own
# p5d/p5worker only); --trace 1 runs the traced per-layer binary. All
# build output, Go build cache, scratch stores, logs and span files stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/p5d || ! -d cmd/p5worker || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a power5prio checkout (go.mod, cmd/p5d, cmd/p5worker, perfbench/go.mod)" >&2
	exit 2
fi

root=$(pwd)
dir=${CARGO_TARGET_DIR:-.bench_build}
case "$dir" in /*) out=$dir ;; *) out="$root/$dir" ;; esac
case "$out" in "$root"/*) ;; *) out="$root/.bench_build" ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/trace"
# Everything the go command writes (build and module caches, temporary
# files, its configuration and telemetry) stays under $out.
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace) trace="${args[i + 1]:-0}" ;;
	--trace=*) trace="${args[i]#--trace=}" ;;
	esac
done

commit=
if [[ -e .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || true)
fi
if [[ -z "$commit" ]]; then
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

go build -o "$out/bin/p5d" ./cmd/p5d
go build -o "$out/bin/p5worker" ./cmd/p5worker
bin=e2e
extra=()
if [[ "$trace" == 1 ]]; then
	bin=layers
	extra=(--trace-dir "$out/trace")
fi
(cd perfbench && go build -o "$out/bin/$bin" "./cmd/$bin")

exec "$out/bin/$bin" --bin "$out/bin" --work "$out/work" --commit "$commit" ${extra[@]+"${extra[@]}"} "$@"
