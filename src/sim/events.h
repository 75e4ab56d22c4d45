// Hardware-event listener interface. The executor publishes micro-
// architectural events through this interface; the simulated PMU (src/pmu)
// subscribes to build PEBS-style samples and LBR records, and the exact-stats
// collector subscribes to build the ground truth that profiles are evaluated
// against.
#ifndef YIELDHIDE_SRC_SIM_EVENTS_H_
#define YIELDHIDE_SRC_SIM_EVENTS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/isa/isa.h"
#include "src/sim/hierarchy.h"

namespace yieldhide::sim {

// One bit per EventListener hook, for EventListener::Events().
enum EventKind : uint32_t {
  kEventRetired = 1u << 0,
  kEventLoad = 1u << 1,
  kEventStall = 1u << 2,
  kEventBranch = 1u << 3,
  kEventPrefetch = 1u << 4,
  kEventYield = 1u << 5,
  kAllEvents = (1u << 6) - 1,
};

class EventListener {
 public:
  virtual ~EventListener() = default;

  // The hooks this listener handles, as a mask of EventKind bits; a
  // MulticastListener calls the listener for those events only. It is read
  // ONCE, when the listener is added, so it must not change while the
  // listener is attached, and it must include every hook the listener
  // overrides: an overridden hook whose bit is missing is never called. The
  // default subscribes to everything.
  virtual uint32_t Events() const { return kAllEvents; }

  // Every retired instruction.
  virtual void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) {}

  // Every retired load: where it hit and how many cycles the context was
  // exposed to beyond an L1 hit (0 for L1 hits).
  virtual void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
                      bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) {}

  // Execution-stall cycles attributed to instruction `ip` (memory waits).
  virtual void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) {}

  // Every taken or not-taken conditional branch and unconditional transfer.
  // `cycle` is the retirement time; LBR derives block latencies from deltas.
  virtual void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                        uint64_t cycle) {}

  virtual void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) {}

  // A YIELD/CYIELD that actually suspended the context.
  virtual void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) {}
};

// Fans events out to multiple listeners. Listeners are not owned.
//
// Each event kind keeps its own list, filled from the listener's Events() at
// Add(), so a listener gets a call only for the events it handles, and an
// event with nobody subscribed costs one empty-loop check. Within each event,
// listeners are called in registration order; a listener added twice is
// called twice.
class MulticastListener final : public EventListener {
 public:
  void Add(EventListener* listener) {
    registered_.push_back(listener);
    const uint32_t events = listener->Events();
    for (size_t kind = 0; kind < kNumKinds; ++kind) {
      if ((events & (1u << kind)) != 0) {
        by_kind_[kind].push_back(listener);
      }
    }
  }
  // Removes every registration of `listener`; unknown listeners are a no-op.
  // Lets a sampling session detach itself mid-run (online re-profiling
  // attaches and detaches around serving epochs).
  void Remove(const EventListener* listener) {
    std::erase(registered_, listener);
    for (std::vector<EventListener*>& list : by_kind_) {
      std::erase(list, listener);
    }
  }
  void Clear() {
    registered_.clear();
    for (std::vector<EventListener*>& list : by_kind_) {
      list.clear();
    }
  }
  // Registrations, counting a listener added twice twice.
  size_t size() const { return registered_.size(); }

  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override {
    for (EventListener* l : ListFor(kEventRetired)) {
      l->OnRetired(ctx_id, ip, op, cycle);
    }
  }
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override {
    for (EventListener* l : ListFor(kEventLoad)) {
      l->OnLoad(ctx_id, ip, vaddr, level, hit_inflight, stall_cycles, cycle);
    }
  }
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override {
    for (EventListener* l : ListFor(kEventStall)) {
      l->OnStall(ctx_id, ip, cycles, cycle);
    }
  }
  void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                uint64_t cycle) override {
    for (EventListener* l : ListFor(kEventBranch)) {
      l->OnBranch(ctx_id, from, to, taken, cycle);
    }
  }
  void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) override {
    for (EventListener* l : ListFor(kEventPrefetch)) {
      l->OnPrefetch(ctx_id, ip, vaddr, cycle);
    }
  }
  void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) override {
    for (EventListener* l : ListFor(kEventYield)) {
      l->OnYield(ctx_id, ip, conditional, cycle);
    }
  }

 private:
  static constexpr size_t kNumKinds = 6;
  static_assert(kAllEvents == (1u << kNumKinds) - 1);

  // The list of one event kind (a single EventKind bit).
  const std::vector<EventListener*>& ListFor(EventKind kind) const {
    return by_kind_[std::countr_zero(static_cast<uint32_t>(kind))];
  }

  std::vector<EventListener*> registered_;
  std::array<std::vector<EventListener*>, kNumKinds> by_kind_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_EVENTS_H_
