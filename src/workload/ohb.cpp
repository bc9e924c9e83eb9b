#include "workload/ohb.h"

namespace hpres::workload {

namespace {

/// OHB's keys are 16 B, like the paper's YCSB keys.
constexpr std::size_t kOhbKeyBytes = 16;

kv::Key ohb_key(std::uint64_t i) {
  std::string out = "ohb-" + std::to_string(i);
  if (out.size() < kOhbKeyBytes) out.append(kOhbKeyBytes - out.size(), 'x');
  return out;
}

}  // namespace

sim::Task<void> ohb_set_workload(sim::Simulator* sim,
                                 resilience::Engine* engine, OhbConfig config,
                                 OhbResult* result) {
  const SharedBytes value =
      make_shared_bytes(make_pattern(config.value_size, config.seed));
  const SimTime t0 = sim->now();
  for (std::uint64_t i = 0; i < config.operations; ++i) {
    const Status s = co_await engine->set(ohb_key(i), value);
    if (!s.ok()) ++result->failures;
  }
  result->total_ns = sim->now() - t0;
  result->operations = config.operations;
}

sim::Task<void> ohb_get_workload(sim::Simulator* sim,
                                 resilience::Engine* engine, OhbConfig config,
                                 OhbResult* result) {
  const SimTime t0 = sim->now();
  for (std::uint64_t i = 0; i < config.operations; ++i) {
    const Result<Bytes> r = co_await engine->get(ohb_key(i));
    if (!r.ok()) ++result->failures;
  }
  result->total_ns = sim->now() - t0;
  result->operations = config.operations;
}

}  // namespace hpres::workload
