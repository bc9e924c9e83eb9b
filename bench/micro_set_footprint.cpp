// Microbenchmark for what a materialized Set holds in host memory: the
// peak live heap bytes per user byte over one burst of 64 non-blocking
// Sets (iset, the ARPE window's default depth), for every design at
// 1, 16 and 64 KiB and for Era-CE-CD packing 1 KiB values into stripes.
// Each row builds a 5-server cluster (RS(3,2) for the erasure designs,
// 3-way replication otherwise) and runs two bursts of 64 Sets of
// distinct keys, each value built just before its iset and moved into it,
// running the cluster dry after each. The first burst only warms the
// cluster up; the second is measured. It reports, per user byte written:
//   - peak: the most live heap bytes at any point of the burst;
//   - held: the live heap bytes once every Set has been acked, i.e. what
//     the stores keep (n/k for the erasure designs, one shared block for
//     replication).
// Peak minus held is what the Sets hold in flight beyond the stored bytes.
// Live bytes are counted by a replaced global operator new that adds up
// malloc_usable_size, as tests/sim/alloc_test.cpp does; the simulation is
// deterministic, so every figure is exact and repeatable.
//
// Prints a table and writes BENCH_set_footprint.json (no arguments).
//
// Standalone on purpose: a counting operator new must not reach the other
// harnesses, so this is its own executable.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "ec/cost_model.h"
#include "ec/rs_vandermonde.h"
#include "obs/json.h"
#include "resilience/factory.h"

namespace {
std::size_t g_live_bytes = 0;  ///< usable bytes of every live block
std::size_t g_peak_bytes = 0;  ///< most g_live_bytes since the last reset

void* counted_malloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes += malloc_usable_size(p);
    g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
}  // namespace

// The replacements pair malloc with free by construction. GCC cannot see
// that once it inlines a delete into a caller that allocated through
// operator new, and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using hpres::resilience::Design;

constexpr std::size_t kServers = 5;
constexpr std::size_t kK = 3;
constexpr std::size_t kM = 2;
constexpr std::uint32_t kRepFactor = 3;
/// Sets per burst: the ARPE window's default depth.
constexpr std::size_t kDepth = 64;
/// Packed row: 1 KiB values below this threshold go into stripes.
constexpr std::size_t kPackThreshold = 4 * 1024;

struct Row {
  Design design = Design::kNoRep;
  std::size_t value_bytes = 0;
  bool packed = false;
  double peak = 0.0;  ///< peak live bytes per user byte
  double held = 0.0;  ///< live bytes per user byte after the last ack
};

Row measure(Design design, std::size_t value_bytes, bool packed) {
  const hpres::ec::RsVandermondeCodec codec(kK, kM);
  const hpres::ec::CostModel cost =
      hpres::ec::CostModel::defaults(hpres::ec::Scheme::kRsVandermonde, kK, kM);
  hpres::cluster::ClusterConfig config;
  config.num_servers = kServers;
  hpres::cluster::Cluster cl(config);
  cl.enable_server_ec(codec, cost, /*materialize=*/true);
  hpres::resilience::PackParams pack;
  if (packed) pack.pack_threshold = kPackThreshold;
  const std::unique_ptr<hpres::resilience::Engine> engine =
      hpres::resilience::make_engine(design, cl.engine_context(0), kRepFactor,
                                     &codec, cost, {}, {}, pack);
  cl.start();
  std::vector<hpres::kv::Key> keys;
  keys.reserve(2 * kDepth);
  for (std::size_t i = 0; i < 2 * kDepth; ++i) {
    keys.push_back("user" + std::to_string(100000000000 + i));
  }
  std::vector<hpres::sim::Future<hpres::Status>> done;
  done.reserve(kDepth);
  // One burst of kDepth Sets over keys [first, first + kDepth).
  const auto burst = [&](std::size_t first) {
    done.clear();
    for (std::size_t i = first; i < first + kDepth; ++i) {
      done.push_back(engine->iset(
          keys[i],
          hpres::make_shared_bytes(hpres::make_pattern(value_bytes, i))));
    }
    cl.run();
    for (const auto& f : done) {
      if (!f.ready() || !f.try_get()->ok()) {
        std::fprintf(stderr, "error: a Set failed (%s, %zu B)\n",
                     std::string(hpres::resilience::to_string(design)).c_str(),
                     value_bytes);
        std::exit(1);
      }
    }
  };
  // A first burst grows the cluster's queues, call tables and fabric
  // pools to the burst's depth, so the measured one counts what each Set
  // holds rather than those one-time capacities.
  burst(kDepth);
  const std::size_t base = g_live_bytes;
  g_peak_bytes = base;
  burst(0);
  const double user = static_cast<double>(kDepth * value_bytes);
  Row row;
  row.design = design;
  row.value_bytes = value_bytes;
  row.packed = packed;
  row.peak = static_cast<double>(g_peak_bytes - base) / user;
  row.held = static_cast<double>(g_live_bytes - base) / user;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no arguments)\n", argv[0]);
    return 2;
  }
  const std::string out_path = "BENCH_set_footprint.json";

  std::printf("set footprint microbench: %zu servers, RS(%zu,%zu), "
              "%u-way replication, %zu Sets per burst\n",
              kServers, kK, kM, kRepFactor, kDepth);
  std::printf("%-18s %8s %8s %8s %10s\n", "design", "value", "peak", "held",
              "in flight");
  std::vector<Row> rows;
  for (const Design design :
       {Design::kNoRep, Design::kSyncRep, Design::kAsyncRep, Design::kEraCeCd,
        Design::kEraSeSd, Design::kEraSeCd, Design::kEraCeSd}) {
    for (const std::size_t kib :
         {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
      rows.push_back(measure(design, kib * 1024, false));
    }
  }
  rows.push_back(measure(Design::kEraCeCd, 1024, true));
  for (const Row& r : rows) {
    const std::string name =
        std::string(hpres::resilience::to_string(r.design)) +
        (r.packed ? " packed" : "");
    std::printf("%-18s %7zuK %8.3f %8.3f %10.3f\n", name.c_str(),
                r.value_bytes / 1024, r.peak, r.held, r.peak - r.held);
  }

  std::string json;
  json += "{\n  \"bench\": \"micro_set_footprint\",\n  \"servers\": ";
  hpres::obs::json::append_u64(json, kServers);
  json += ",\n  \"k\": ";
  hpres::obs::json::append_u64(json, kK);
  json += ",\n  \"m\": ";
  hpres::obs::json::append_u64(json, kM);
  json += ",\n  \"rep_factor\": ";
  hpres::obs::json::append_u64(json, kRepFactor);
  json += ",\n  \"depth\": ";
  hpres::obs::json::append_u64(json, kDepth);
  json += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += "    {\"design\": \"";
    json += hpres::resilience::to_string(r.design);
    json += "\", \"value_bytes\": ";
    hpres::obs::json::append_u64(json, r.value_bytes);
    json += ", \"packed\": ";
    json += r.packed ? "true" : "false";
    json += ", \"peak_bytes_per_user_byte\": ";
    hpres::obs::json::append_fixed(json, r.peak, 4);
    json += ", \"held_bytes_per_user_byte\": ";
    hpres::obs::json::append_fixed(json, r.held, 4);
    json += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
