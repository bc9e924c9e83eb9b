// Microbenchmark for the store index (kv/store.h): the host footprint and
// the per-op host time of a server's StorageEngine holding fragment keys,
// at the per-server sizes of the end-to-end benchmark (50,000 items on
// ycsb-a-16k, 100,000 on ycsb-b-1k-wide). For each size N it fills 5
// stores with N fragments each (16-byte YCSB base keys, slots 0-4) that
// share one value, as in a size-only run, and reports:
//   - live host bytes per item, from the mallinfo2() delta of the fill;
//   - the median ns of a Get and of an overwrite Set of a resident key,
//     over batches of ops in a seeded random order across the 5 stores,
//     so that lookups miss cache as they do in a run.
// Prints a table and writes BENCH_store_index.json. HPRES_BENCH_SCALE
// scales the number of timed ops (default 1.0: 2,000,000 per cell).
//
// Standalone on purpose: links hpres_kv only, no cluster/simulator deps.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "kv/protocol.h"
#include "kv/store.h"
#include "obs/json.h"

namespace {

using hpres::Bytes;
using hpres::SharedBytes;
using hpres::Xoshiro256;
using hpres::kv::ChunkInfo;
using hpres::kv::ItemId;
using hpres::kv::Key;
using hpres::kv::StorageEngine;

constexpr std::size_t kStores = 5;
constexpr std::size_t kSlots = 5;
constexpr std::size_t kBatch = 1000;  ///< ops per timed batch
constexpr std::uint64_t kSeed = 42;

// Fold every Get's result into a volatile sink so the lookups stay live.
volatile std::size_t g_sink = 0;

double bench_scale() {
  if (const char* env = std::getenv("HPRES_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

/// Bytes the heap holds for the program: small blocks plus mmapped ones.
std::size_t live_heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

struct Row {
  std::size_t items = 0;  ///< per store
  double bytes_per_item = 0.0;
  double get_ns = 0.0;
  double set_ns = 0.0;
  std::size_t timed_ops = 0;  ///< per op kind
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Row bench_size(std::size_t items, std::size_t timed_ops) {
  // Keys are built before the fill, so the footprint counts only the
  // stores. Each store gets its own YCSB keys.
  std::vector<std::vector<ItemId>> keys(kStores);
  for (std::size_t s = 0; s < kStores; ++s) {
    keys[s].reserve(items);
    for (std::size_t i = 0; i < items / kSlots; ++i) {
      const Key base =
          "user" + std::to_string(100000000000 + s * items + i);
      for (std::uint8_t slot = 0; slot < kSlots; ++slot) {
        keys[s].push_back(ItemId{base, slot});
      }
    }
  }
  const SharedBytes value = hpres::make_shared_bytes(Bytes(1024));
  const ChunkInfo chunk{3 * 1024};

  std::vector<StorageEngine*> stores;
  const std::size_t before = live_heap_bytes();
  for (std::size_t s = 0; s < kStores; ++s) {
    stores.push_back(new StorageEngine(std::uint64_t{1} << 40));
    for (const ItemId& id : keys[s]) {
      (void)stores[s]->set(id.key, id.slot, value, chunk);
    }
  }
  Row row;
  row.items = items;
  row.bytes_per_item = static_cast<double>(live_heap_bytes() - before) /
                       static_cast<double>(kStores * items);
  row.timed_ops = timed_ops;

  using Clock = std::chrono::steady_clock;
  Xoshiro256 rng(kSeed);
  std::array<const ItemId*, kBatch> batch_keys{};
  std::array<StorageEngine*, kBatch> batch_stores{};
  const auto run = [&](bool get) {
    std::vector<double> ns_per_op;
    for (std::size_t done = 0; done < timed_ops; done += kBatch) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t s = rng.next_below(kStores);
        batch_stores[j] = stores[s];
        batch_keys[j] = &keys[s][rng.next_below(items)];
      }
      const auto t0 = Clock::now();
      for (std::size_t j = 0; j < kBatch; ++j) {
        const ItemId& id = *batch_keys[j];
        if (get) {
          g_sink = g_sink +
                   batch_stores[j]->get(id.key, id.slot)->value->size();
        } else {
          (void)batch_stores[j]->set(id.key, id.slot, value, chunk);
        }
      }
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      ns_per_op.push_back(ns / kBatch);
    }
    return median(std::move(ns_per_op));
  };
  row.get_ns = run(true);
  row.set_ns = run(false);
  for (StorageEngine* store : stores) delete store;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no arguments)\n", argv[0]);
    return 2;
  }
  const std::string out_path = "BENCH_store_index.json";
  const std::size_t timed_ops = std::max<std::size_t>(
      20 * kBatch, static_cast<std::size_t>(2'000'000 * bench_scale()) /
                       kBatch * kBatch);
  std::printf("store index microbench: %zu stores, %zu timed ops per cell\n",
              kStores, timed_ops);
  std::printf("%10s %14s %12s %12s\n", "items", "bytes/item", "get ns",
              "set ns");
  std::vector<Row> rows;
  for (const std::size_t items : {std::size_t{50'000}, std::size_t{100'000}}) {
    const Row row = bench_size(items, timed_ops);
    std::printf("%10zu %14.2f %12.1f %12.1f\n", row.items, row.bytes_per_item,
                row.get_ns, row.set_ns);
    rows.push_back(row);
  }

  std::string json;
  json += "{\n  \"bench\": \"micro_store_index\",\n  \"stores\": ";
  hpres::obs::json::append_u64(json, kStores);
  json += ",\n  \"batch_ops\": ";
  hpres::obs::json::append_u64(json, kBatch);
  json += ",\n  \"seed\": ";
  hpres::obs::json::append_u64(json, kSeed);
  json += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += "    {\"items_per_store\": ";
    hpres::obs::json::append_u64(json, r.items);
    json += ", \"bytes_per_item\": ";
    hpres::obs::json::append_fixed(json, r.bytes_per_item, 2);
    json += ", \"get_ns_median\": ";
    hpres::obs::json::append_fixed(json, r.get_ns, 1);
    json += ", \"set_ns_median\": ";
    hpres::obs::json::append_fixed(json, r.set_ns, 1);
    json += ", \"timed_ops\": ";
    hpres::obs::json::append_u64(json, r.timed_ops);
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
