#include "src/pmu/pebs.h"

namespace yieldhide::pmu {

const char* HwEventName(HwEvent event) {
  switch (event) {
    case HwEvent::kLoadsL1Miss:
      return "MEM_LOAD_RETIRED.L1_MISS";
    case HwEvent::kLoadsL2Miss:
      return "MEM_LOAD_RETIRED.L2_MISS";
    case HwEvent::kLoadsL3Miss:
      return "MEM_LOAD_RETIRED.L3_MISS";
    case HwEvent::kStallCycles:
      return "CYCLE_ACTIVITY.STALLS_MEM_ANY";
    case HwEvent::kRetiredInstructions:
      return "INST_RETIRED.ANY";
  }
  return "?";
}

PebsSampler::PebsSampler(const PebsConfig& config)
    : config_(config), rng_(config.seed), next_sample_at_(config.period) {}

void PebsSampler::CountEvent(uint64_t weight, const PebsSample& proto) {
  event_count_ += weight;
  while (event_count_ >= next_sample_at_) {
    uint64_t gap = config_.period;
    if (config_.period_jitter > 0.0) {
      const auto swing = static_cast<uint64_t>(config_.period_jitter *
                                               static_cast<double>(config_.period));
      if (swing > 0) {
        gap = config_.period - swing + rng_.NextBelow(2 * swing + 1);
      }
    }
    next_sample_at_ += gap == 0 ? 1 : gap;
    Emit(proto);
  }
}

void PebsSampler::Emit(PebsSample sample) {
  ++samples_taken_;
  if (config_.max_skid > 0 && rng_.NextBool(config_.skid_probability)) {
    sample.ip += static_cast<isa::Addr>(rng_.NextInRange(1, config_.max_skid));
  }
  if (buffer_.size() >= config_.buffer_capacity) {
    ++samples_dropped_;
    return;
  }
  buffer_.push_back(sample);
}

uint32_t PebsSampler::Events() const {
  switch (config_.event) {
    case HwEvent::kLoadsL1Miss:
    case HwEvent::kLoadsL2Miss:
    case HwEvent::kLoadsL3Miss:
      return sim::kEventLoad;
    case HwEvent::kStallCycles:
      return sim::kEventStall;
    case HwEvent::kRetiredInstructions:
      return sim::kEventRetired;
  }
  return sim::kAllEvents;
}

void PebsSampler::OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) {
  if (config_.event != HwEvent::kRetiredInstructions) {
    return;
  }
  PebsSample proto;
  proto.event = config_.event;
  proto.ctx_id = ctx_id;
  proto.ip = ip;
  proto.cycle = cycle;
  CountEvent(1, proto);
}

void PebsSampler::OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, sim::HitLevel level,
                         bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) {
  bool matches = false;
  switch (config_.event) {
    case HwEvent::kLoadsL1Miss:
      matches = level != sim::HitLevel::kL1 || hit_inflight;
      break;
    case HwEvent::kLoadsL2Miss:
      matches = level == sim::HitLevel::kL3 || level == sim::HitLevel::kDram;
      break;
    case HwEvent::kLoadsL3Miss:
      matches = level == sim::HitLevel::kDram;
      break;
    default:
      return;
  }
  if (!matches) {
    return;
  }
  PebsSample proto;
  proto.event = config_.event;
  proto.ctx_id = ctx_id;
  proto.ip = ip;
  proto.vaddr = vaddr;
  proto.level = level;
  proto.cycle = cycle;
  CountEvent(1, proto);
}

void PebsSampler::OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) {
  if (config_.event != HwEvent::kStallCycles) {
    return;
  }
  PebsSample proto;
  proto.event = config_.event;
  proto.ctx_id = ctx_id;
  proto.ip = ip;
  proto.cycle = cycle;
  // A single long stall can cross several sampling periods; CountEvent emits
  // one sample per crossed period, all attributed to this IP — exactly how a
  // cycles-based PEBS event piles samples onto long-stalling instructions.
  CountEvent(cycles, proto);
}

std::vector<PebsSample> PebsSampler::Drain() {
  std::vector<PebsSample> out;
  out.swap(buffer_);
  return out;
}

void PebsSampler::Reset() {
  event_count_ = 0;
  next_sample_at_ = config_.period;
  samples_taken_ = 0;
  samples_dropped_ = 0;
  buffer_.clear();
}

}  // namespace yieldhide::pmu
