// Common shape of simulated-plane workloads. Each generator produces:
//   * a Program (the "application binary" fed to profiling/instrumentation),
//   * a data-memory image,
//   * per-task register setups (a task = one coroutine's work item), and
//   * host-computed expected results so tests can verify that instrumented
//     binaries remain semantically equivalent to the originals.
//
// Every task writes its final checksum to a dedicated result slot in memory;
// ReadResult() fetches it after a run.
//
// The image is computed once per workload object. The first InitMemory into
// an empty memory writes it into a memory the workload keeps; that and every
// later InitMemory into an empty memory copy-assign the kept one, which
// shares its pages copy-on-write (src/sim/memory.h), so each further machine
// costs a directory copy instead of a rewrite, and writes through one machine
// stay invisible to the others and to the kept image. A workload is therefore
// immutable once Make returns. The kept image is filled lazily from a const
// method and is not thread-safe: one thread at a time may call InitMemory on
// a given workload object.
#ifndef YIELDHIDE_SRC_WORKLOADS_WORKLOAD_H_
#define YIELDHIDE_SRC_WORKLOADS_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "src/isa/program.h"
#include "src/sim/executor.h"
#include "src/sim/memory.h"

namespace yieldhide::workloads {

// Fixed virtual-memory regions shared by all generators, spaced far apart so
// images never overlap even at the largest configurations.
inline constexpr uint64_t kDataRegionBase = 0x0100'0000;     // main data (16 MiB+)
inline constexpr uint64_t kAuxRegionBase = 0x4000'0000;      // key arrays etc.
inline constexpr uint64_t kResultRegionBase = 0x7000'0000;   // result slots

using ContextSetup = std::function<void(sim::CpuContext&)>;

class SimWorkload {
 public:
  virtual ~SimWorkload() = default;

  virtual const isa::Program& program() const = 0;
  // Loads the data image. An empty memory (no resident page) receives a
  // copy of the kept image; a non-empty one gets WriteImage over its
  // contents, so pages outside the image survive. Idempotent.
  void InitMemory(sim::SparseMemory& memory) const {
    if (memory.resident_pages() != 0) {
      WriteImage(memory);
      return;
    }
    if (!image_) {
      WriteImage(image_.emplace());
    }
    memory = *image_;
  }
  // Writes the data image into `memory`, over whatever it holds. Idempotent.
  virtual void WriteImage(sim::SparseMemory& memory) const = 0;
  // Register setup for task `index` (tasks are deterministic in index).
  virtual ContextSetup SetupFor(int index) const = 0;
  // Host-computed ground truth for task `index`.
  virtual uint64_t ExpectedResult(int index) const = 0;

  uint64_t ResultAddr(int index) const {
    return kResultRegionBase + static_cast<uint64_t>(index) * 64;
  }
  uint64_t ReadResult(const sim::SparseMemory& memory, int index) const {
    return memory.Read64(ResultAddr(index));
  }

 private:
  mutable std::optional<sim::SparseMemory> image_;  // set by the first InitMemory
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_WORKLOAD_H_
