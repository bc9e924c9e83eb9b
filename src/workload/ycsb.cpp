#include "workload/ycsb.h"

#include <algorithm>

namespace hpres::workload {

void YcsbResult::merge(const YcsbResult& other) {
  reads += other.reads;
  writes += other.writes;
  failures += other.failures;
  timeouts += other.timeouts;
  unavailable += other.unavailable;
  done_at = std::max(done_at, other.done_at);
}

double YcsbResult::throughput_ops_per_s(SimDur makespan_ns) const {
  if (makespan_ns <= 0) return 0.0;
  return static_cast<double>(reads + writes) /
         (static_cast<double>(makespan_ns) / 1e9);
}

std::string ycsb_key(std::uint64_t id) {
  std::string digits = std::to_string(id);
  std::string out = "user";
  if (out.size() + digits.size() < kYcsbKeyBytes) {
    out.append(kYcsbKeyBytes - out.size() - digits.size(), '0');
  }
  out += digits;
  if (out.size() > kYcsbKeyBytes) out.resize(kYcsbKeyBytes);
  return out;
}

sim::Task<void> ycsb_load(sim::Simulator* sim, resilience::Engine* engine,
                          YcsbConfig config, std::uint64_t first,
                          std::uint64_t last) {
  (void)sim;
  // One shared buffer: preload content is irrelevant, and sharing keeps the
  // load phase's host memory flat even for millions of records.
  const SharedBytes value = zero_bytes(config.value_size);
  for (std::uint64_t id = first; id < last; ++id) {
    (void)engine->iset(ycsb_key(id), value);
    // Bound the pipeline depth during load.
    if ((id - first + 1) % 64 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();
}

sim::Task<void> ycsb_client(sim::Simulator* sim, resilience::Engine* engine,
                            YcsbConfig config, std::uint64_t client_seed,
                            YcsbResult* result) {
  Xoshiro256 rng(client_seed);
  const ScrambledZipfianGenerator keygen(config.record_count);
  const SharedBytes write_value =
      make_shared_bytes(make_pattern(config.value_size, client_seed));

  for (std::uint64_t op = 0; op < config.ops_per_client; ++op) {
    const std::uint64_t id = keygen.next(rng);
    const std::string key = ycsb_key(id);
    const bool is_read = rng.next_double() < config.read_fraction;
    StatusCode code = StatusCode::kOk;
    if (is_read) {
      const Result<Bytes> r = co_await engine->get(key);
      ++result->reads;
      code = r.status().code();
    } else {
      const Status s = co_await engine->set(key, write_value);
      ++result->writes;
      code = s.code();
    }
    if (code != StatusCode::kOk) {
      ++result->failures;
      if (code == StatusCode::kTimeout) ++result->timeouts;
      if (code == StatusCode::kUnavailable) ++result->unavailable;
    }
  }
  result->done_at = sim->now();
}

}  // namespace hpres::workload
