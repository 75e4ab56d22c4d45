#include "src/pmu/session.h"

namespace yieldhide::pmu {

SamplingSession::SamplingSession(const SessionConfig& config) : config_(config) {
  for (const PebsConfig& pc : config.pebs) {
    pebs_.push_back(std::make_unique<PebsSampler>(pc));
  }
  if (config.enable_lbr) {
    lbr_ = std::make_unique<LbrRecorder>(config.lbr);
  }
}

void SamplingSession::AttachTo(sim::Machine& machine) {
  for (auto& sampler : pebs_) {
    machine.listeners().Add(sampler.get());
  }
  if (lbr_ != nullptr) {
    machine.listeners().Add(lbr_.get());
  }
}

void SamplingSession::DetachFrom(sim::Machine& machine) {
  for (auto& sampler : pebs_) {
    machine.listeners().Remove(sampler.get());
  }
  if (lbr_ != nullptr) {
    machine.listeners().Remove(lbr_.get());
  }
}

void SamplingSession::SetObservability(obs::TraceRecorder* trace,
                                       obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
  sampler_instruments_.clear();
  overhead_cycles_ = nullptr;
}

std::vector<PebsSample> SamplingSession::DrainAllSamples() {
  std::vector<PebsSample> all;
  for (auto& sampler : pebs_) {
    std::vector<PebsSample> drained = sampler->Drain();
    all.insert(all.end(), drained.begin(), drained.end());
  }
  if (YH_TRACE_ENABLED(trace_, obs::kTracePmu)) {
    for (const PebsSample& sample : all) {
      trace_->Record(obs::TraceEventType::kPmuSample, sample.cycle,
                     sample.ctx_id, sample.ip,
                     static_cast<uint64_t>(sample.event));
    }
  }
  PublishMetrics();
  return all;
}

void SamplingSession::PublishMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  if (overhead_cycles_ == nullptr) {
    for (const auto& sampler : pebs_) {
      const obs::Labels labels{{"event", HwEventName(sampler->config().event)}};
      sampler_instruments_.push_back(SamplerInstruments{
          metrics_->GetCounter("yh_pmu_samples_taken_total", labels),
          metrics_->GetCounter("yh_pmu_samples_dropped_total", labels),
          metrics_->GetCounter("yh_pmu_events_total", labels),
          metrics_->GetGauge("yh_pmu_sampling_period", labels)});
    }
    overhead_cycles_ = metrics_->GetCounter("yh_pmu_overhead_cycles_total");
  }
  for (size_t i = 0; i < pebs_.size(); ++i) {
    const PebsSampler& sampler = *pebs_[i];
    const SamplerInstruments& m = sampler_instruments_[i];
    m.samples_taken->Set(sampler.samples_taken());
    m.samples_dropped->Set(sampler.samples_dropped());
    m.events->Set(sampler.event_count());
    m.period->Set(static_cast<double>(sampler.config().period));
  }
  overhead_cycles_->Set(OverheadCycles());
}

std::vector<LbrSnapshot> SamplingSession::DrainLbrSnapshots() {
  if (lbr_ == nullptr) {
    return {};
  }
  return lbr_->DrainSnapshots();
}

uint64_t SamplingSession::OverheadCycles() const {
  uint64_t samples = 0;
  for (const auto& sampler : pebs_) {
    samples += sampler->samples_taken();
  }
  return samples * config_.sample_capture_cycles;
}

double SamplingSession::OverheadFraction(uint64_t run_cycles) const {
  if (run_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(OverheadCycles()) / static_cast<double>(run_cycles);
}

void SamplingSession::Reset() {
  for (auto& sampler : pebs_) {
    sampler->Reset();
  }
  if (lbr_ != nullptr) {
    lbr_->Reset();
  }
}

}  // namespace yieldhide::pmu
