#!/usr/bin/env bash
# Checks that two builds produce the same simulated plane: runs every
# bench_* binary with --json from both build trees and compares the JSON
# files byte for byte.
#
#   tools/sim_identity.sh BUILD_A BUILD_B
#
# BUILD_A and BUILD_B are CMake build directories (e.g. the base of a change
# and the change itself), each with its benches under bench/. Exits 0 when
# every bench's JSON and exit status match, 1 on any difference, 2 on bad
# usage. bench_n1_native_interleave is skipped: it times native runs on the
# host, so its JSON varies between runs of one build.
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

echo "${same} byte-identical, ${different} different, ${skipped} skipped"
[[ ${different} -eq 0 ]]
