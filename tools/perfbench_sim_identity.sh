#!/usr/bin/env bash
# Checks that two source trees give perfbench the same simulated plane: runs
# perfbench/run.py on the chase, kernels and serve workloads (seed 1, 1 s)
# from each tree and compares the simulated-plane rows of the result object
# (the driver's last stdout line): sim_cycles_per_op, sim_speedup,
# sim_p50_cycles, sim_p99_cycles, sim_bg_per_mcycle and ok_frac. Host rows
# (wall time, Minstr/s, RSS, ...) are ignored.
#
#   tools/perfbench_sim_identity.sh BASE_SRC HEAD_SRC
#
# BASE_SRC and HEAD_SRC are repository roots (e.g. the base of a change and
# the change itself). Each tree builds its own driver under a separate
# CARGO_TARGET_DIR in a temporary directory. Prints the workload, key and
# both values for every difference. Exits 0 when every row matches, 1 on any
# difference or failed run, 2 on bad usage.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BASE_SRC HEAD_SRC" >&2
  exit 2
fi

base="$(cd "$1" 2>/dev/null && pwd)" || { echo "no source tree: $1" >&2; exit 2; }
head="$(cd "$2" 2>/dev/null && pwd)" || { echo "no source tree: $2" >&2; exit 2; }
for tree in "${base}" "${head}"; do
  [[ -f "${tree}/perfbench/run.py" ]] || { echo "no perfbench/run.py in ${tree}" >&2; exit 2; }
done

workloads=(chase kernels serve)
keys=(sim_cycles_per_op sim_speedup sim_p50_cycles sim_p99_cycles sim_bg_per_mcycle ok_frac)

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Runs one workload from one tree; leaves the driver's last stdout line in
# ${work}/SIDE-WORKLOAD.json and its full output next to it.
run_workload() {
  local side="$1" tree="$2" workload="$3"
  local log="${work}/${side}-${workload}.log"
  (cd "${tree}" && CARGO_TARGET_DIR="${work}/${side}-build" \
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 >"${log}" 2>&1)
  local status=$?
  tail -n 1 "${log}" >"${work}/${side}-${workload}.json"
  return "${status}"
}

different=0
for workload in "${workloads[@]}"; do
  for side in base head; do
    tree="${base}"
    [[ "${side}" == head ]] && tree="${head}"
    if ! run_workload "${side}" "${tree}" "${workload}"; then
      echo "${workload}: the ${side} run failed; last lines of its output:" >&2
      tail -n 20 "${work}/${side}-${workload}.log" >&2
      different=1
    fi
  done
  python3 - "${workload}" "${work}/base-${workload}.json" "${work}/head-${workload}.json" \
    "${keys[@]}" <<'EOF' || different=1
import json
import sys

workload, base_path, head_path, *keys = sys.argv[1:]


def metrics(path):
    try:
        with open(path) as f:
            return json.load(f)["metrics"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


base, head = metrics(base_path), metrics(head_path)
if base is None or head is None:
    print(f"{workload}: no result object from the {'base' if base is None else 'head'} run")
    sys.exit(1)
status = 0
for key in keys:
    a = base.get(key, {}).get("value")
    b = head.get(key, {}).get("value")
    if a is None or b is None or a != b:
        print(f"{workload} {key}: base {a} head {b}")
        status = 1
    else:
        print(f"{workload} {key}: {a}")
sys.exit(status)
EOF
done

if [[ ${different} -ne 0 ]]; then
  echo "perfbench simulated plane: DIFFERENT"
  exit 1
fi
echo "perfbench simulated plane: identical"
exit 0
