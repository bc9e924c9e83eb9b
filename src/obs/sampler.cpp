#include "obs/sampler.h"

#include <algorithm>

namespace hpres::obs {

Sampler::~Sampler() {
  if (hook_armed_) runtime_->remove_quiesce_hook(hook_id_);
}

void Sampler::start() {
  const bool traced =
      std::any_of(series_.begin(), series_.end(), [](const Series& s) {
        return s.domain != nullptr && s.domain->enabled();
      });
  if (hook_armed_ || !traced || interval_ <= 0) return;
  // First boundary = the current quiesced instant (start() runs from the
  // main thread between runs): the first sample is taken immediately.
  next_ = 0;
  for (std::size_t s = 0; s < runtime_->num_shards(); ++s) {
    next_ = std::max(next_, runtime_->shard(s).now());
  }
  hook_id_ = runtime_->add_quiesce_hook(
      [this](SimTime min_next) { return on_quiesce(min_next); });
  hook_armed_ = true;
}

void Sampler::sample_at(SimTime now) {
  for (Series& s : series_) {
    const std::int64_t v = s.read();
    s.stats.record(static_cast<double>(v));
    if (s.domain != nullptr && s.domain->enabled()) {
      s.domain->counter(s.pid, s.name, now, v);
    }
  }
  ++samples_;
}

SimTime Sampler::on_quiesce(SimTime min_next) {
  constexpr SimTime kNever = sim::Simulator::kNever;
  if (stopped_) return kNever;
  while (min_next != kNever && next_ <= min_next) {
    sample_at(next_);
    next_ += interval_;
  }
  // At full quiescence nothing is pending; flush() covers the final
  // partial interval.
  return min_next == kNever ? kNever : next_;
}

void Sampler::flush(SimTime now) {
  if (!hook_armed_ || stopped_) return;
  sample_at(now);
  stopped_ = true;
}

}  // namespace hpres::obs
