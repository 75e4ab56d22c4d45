#!/usr/bin/env bash
# Checks that two builds produce the same simulated plane: runs every
# bench_* binary with --json from both build trees and compares the JSON
# files byte for byte, then runs a fixed set of yhc commands from both trees
# and compares everything they write (stdout, stderr and any --out file).
#
#   tools/sim_identity.sh BUILD_A BUILD_B
#
# BUILD_A and BUILD_B are CMake build directories (e.g. the base of a change
# and the change itself), each with its benches under bench/ and yhc under
# tools/. Exits 0 when every bench's JSON, every yhc output and every exit
# status match, 1 on any difference, 2 on bad usage.
# bench_n1_native_interleave is skipped: it times native runs on the host, so
# its JSON varies between runs of one build. Every listed yhc command is
# deterministic run to run on one build.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi

build_a="$(cd "$1" 2>/dev/null && pwd)" || { echo "no build directory: $1" >&2; exit 2; }
build_b="$(cd "$2" 2>/dev/null && pwd)" || { echo "no build directory: $2" >&2; exit 2; }

skip=(bench_n1_native_interleave)

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
mkdir -p "${work}/a" "${work}/b"

# Runs one bench from a build tree inside its own output directory, so any
# file a bench writes next to itself stays out of the caller's tree. Prints
# the exit status.
run_bench() {
  local build="$1" name="$2" out="$3"
  if [[ ! -x "${build}/bench/${name}" ]]; then
    echo "missing"
    return
  fi
  (cd "${out}" && "${build}/bench/${name}" --json "${name}.json" >"${name}.log" 2>&1)
  echo "$?"
}

benches=()
for path in "${build_a}"/bench/bench_* "${build_b}"/bench/bench_*; do
  [[ -x "${path}" && -f "${path}" ]] || continue
  benches+=("$(basename "${path}")")
done
mapfile -t benches < <(printf '%s\n' "${benches[@]}" | sort -u)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no bench_* binaries under ${build_a}/bench or ${build_b}/bench" >&2
  exit 2
fi

same=0
different=0
skipped=0
for name in "${benches[@]}"; do
  if [[ " ${skip[*]} " == *" ${name} "* ]]; then
    echo "skip      ${name}"
    skipped=$((skipped + 1))
    continue
  fi
  status_a="$(run_bench "${build_a}" "${name}" "${work}/a")"
  status_b="$(run_bench "${build_b}" "${name}" "${work}/b")"
  if [[ "${status_a}" != "${status_b}" ]]; then
    echo "DIFFERENT ${name}: exit status ${status_a} vs ${status_b}"
    different=$((different + 1))
  elif ! cmp "${work}/a/${name}.json" "${work}/b/${name}.json"; then
    echo "DIFFERENT ${name}"
    different=$((different + 1))
  else
    echo "same      ${name}"
    same=$((same + 1))
  fi
done

# The yhc commands, one argument list per line. Each runs in a directory of
# its own, so an --out file lands next to its stdout and stderr.
yhc_commands=(
  "metrics --format both --out metrics.out"
  "spans --json"
  "slo --json"
  "profile --json"
  "why --json"
  "serve --arrival poisson --rate 0.07 --duration 4000000 --seed 3 --tenant fg:fg:0.5:600000 --tenant bg:bg:0.5"
  "adapt --tasks 16 --epoch 4 --nodes 16384 --steps 200"
  "serve --shards 2 --guard 1 --tasks 24 --epoch 4 --nodes 16384 --steps 200 --fault regress:1.0"
  "serve --shards 2 --tasks 16 --epoch 4 --nodes 16384 --steps 200 --store st.profile"
  "trace --out trace.json --tasks 8 --epoch 4 --nodes 16384 --steps 200"
  "serve --arrival burst --rate 0.08 --duration 1000000 --shards 2 --guard 1 --fault regress:1.0"
)

# Runs one yhc command from a build tree inside `out`. Prints the exit status.
run_yhc() {
  local build="$1" out="$2"
  shift 2
  if [[ ! -x "${build}/tools/yhc" ]]; then
    echo "missing"
    return
  fi
  mkdir -p "${out}"
  (cd "${out}" && "${build}/tools/yhc" "$@" >stdout 2>stderr)
  echo "$?"
}

for i in "${!yhc_commands[@]}"; do
  read -r -a args <<<"${yhc_commands[$i]}"
  label="yhc ${yhc_commands[$i]}"
  status_a="$(run_yhc "${build_a}" "${work}/a/yhc_${i}" "${args[@]}")"
  status_b="$(run_yhc "${build_b}" "${work}/b/yhc_${i}" "${args[@]}")"
  if [[ "${status_a}" != "${status_b}" ]]; then
    echo "DIFFERENT ${label}: exit status ${status_a} vs ${status_b}"
    different=$((different + 1))
  elif ! diff -r "${work}/a/yhc_${i}" "${work}/b/yhc_${i}" >/dev/null; then
    diff -r "${work}/a/yhc_${i}" "${work}/b/yhc_${i}" | head -5
    echo "DIFFERENT ${label}"
    different=$((different + 1))
  else
    echo "same      ${label}"
    same=$((same + 1))
  fi
done

echo "${same} byte-identical, ${different} different, ${skipped} skipped"
[[ ${different} -eq 0 ]]
