#!/usr/bin/env bash
# Codegen guard: fails unless the machine code still holds the host prefetches
# the simulator and the native N1 bench rely on. A prefetch is a hint with no
# visible result, so a compiler may delete one (GCC deletes a call to a const
# function whose only effect is __builtin_prefetch) and every test still
# passes; only the disassembly shows it.
#
#   tools/check_host_prefetch.sh LIBYH_SIM_ARCHIVE N1_BINARY
#
# Checks the executor.cc.o member of the yh_sim archive (Executor::Step
# prefetches the image bytes of each simulated load and prefetch) and the
# bench_n1_native_interleave binary (coro::PrefetchAndYield). Exits 0 when
# both contain a prefetch instruction, 1 when one does not, and 77 (skipped)
# when objdump is missing or the host is neither x86-64 nor AArch64.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 LIBYH_SIM_ARCHIVE N1_BINARY" >&2
  exit 2
fi
readonly archive="$1" n1="$2"
readonly skip=77

if ! command -v objdump >/dev/null; then
  echo "SKIPPED: objdump not found"
  exit "${skip}"
fi
case "$(uname -m)" in
  x86_64) pattern='^prefetch(t0|t1|t2|nta|w|wt1)$' ;;
  aarch64 | arm64) pattern='^prfm$' ;;
  *)
    echo "SKIPPED: no prefetch mnemonic known for $(uname -m)"
    exit "${skip}"
    ;;
esac

# Prefetch instructions in the disassembly of $1, restricted to the archive
# member $2 when given.
count_prefetches() {
  objdump -d --no-show-raw-insn "$1" | awk -v member="${2:-}" -v pattern="${pattern}" '
    /file format/ { current = $1; sub(/:$/, "", current); next }
    member != "" && current != member { next }
    /^ *[0-9a-f]+:\t/ { split($0, field, "\t"); split(field[2], insn, " ");
                        if (insn[1] ~ pattern) ++count }
    END { print count + 0 }'
}

status=0
check() {
  local label="$1" count
  count="$(count_prefetches "${@:2}")"
  if [[ "${count}" -gt 0 ]]; then
    echo "ok: ${label}: ${count} prefetch instruction(s)"
  else
    echo "FAIL: ${label}: no prefetch instruction; the compiler deleted the host prefetch"
    status=1
  fi
}

check "executor.cc.o in ${archive}" "${archive}" executor.cc.o
check "${n1}" "${n1}"
exit "${status}"
