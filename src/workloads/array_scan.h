// Sequential array scan: the cache-friendly counter-example. Only one load
// in eight touches a new line, stalls are modest, and a correct policy
// instruments sparsely or not at all. Used to check the pipeline does not
// pessimize code that was already fast (bench C7's low-miss end).
#ifndef YIELDHIDE_SRC_WORKLOADS_ARRAY_SCAN_H_
#define YIELDHIDE_SRC_WORKLOADS_ARRAY_SCAN_H_

#include <vector>

#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace yieldhide::workloads {

class ArrayScan : public SimWorkload {
 public:
  struct Config {
    uint64_t num_elements = 1 << 18;  // 2 MiB of 8-byte elements
    uint64_t elements_per_task = 4096;
    uint64_t seed = 3;
  };

  static Result<ArrayScan> Make(const Config& config);

  const isa::Program& program() const override { return program_; }
  void WriteImage(sim::SparseMemory& memory) const override;
  ContextSetup SetupFor(int index) const override;
  uint64_t ExpectedResult(int index) const override;

  const Config& config() const { return config_; }

 private:
  ArrayScan() = default;

  Config config_;
  isa::Program program_;
  std::vector<uint64_t> values_;
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_ARRAY_SCAN_H_
