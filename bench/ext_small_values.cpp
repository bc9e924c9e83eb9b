// EXT — Batched small-object write path: value-size sweep of stored
// bytes/key with and without stripe packing (extension; not a paper
// figure — the paper's 1 MB workloads never hit the small-value regime).
//
// 5 servers, 1 client, RS(4,2). For each value size the harness loads the
// same keyset twice — per-key striping (packing off) vs the packed-stripe
// path (pack-threshold, default 4 KiB) — and reports measured stored
// bytes/key (store charge + locator directory), the ec::predict_footprint
// prediction, and the striped/packed savings ratio. The crossover is the
// smallest swept size where packing stops paying (ratio < 1.05).
//
// Writes BENCH_small_values.json. Flags:
//   --pack-threshold=N   packing threshold in bytes (default 4096; 0 = off,
//                        both configurations must then match exactly)
//   --out=FILE           JSON path (default BENCH_small_values.json)
#include <string>
#include <vector>

#include "bench_util.h"
#include "ec/stripe.h"
#include "obs/json.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kK = 4;
constexpr std::size_t kM = 2;

std::string key_of(std::uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%06llu",
                static_cast<unsigned long long>(i));
  return buf;
}

sim::Task<void> loader(resilience::Engine* engine, std::uint64_t keys,
                       std::size_t value_size, sim::Latch* done) {
  const SharedBytes value = zero_bytes(value_size);
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)engine->iset(key_of(i), value);
    if ((i + 1) % 128 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();
  // Exercise the read path (locator lookup + sub-slot fetch when packed).
  for (std::uint64_t i = 0; i < keys; i += 97) {
    (void)co_await engine->get(key_of(i));
  }
  done->count_down();
}

struct Point {
  double bytes_per_key = 0.0;
  std::uint64_t locator_entries = 0;
  std::uint64_t stripes_sealed = 0;
  std::uint64_t fill_x1000 = 0;
};

Point run_point(std::size_t value_size, std::uint64_t keys,
                std::size_t pack_threshold) {
  // Buffers must exceed the window so sealed-stripe group commits always
  // find a spare bounce buffer (see docs/TUNING.md).
  const resilience::ArpeParams arpe{.window = 256, .buffers = 512};
  resilience::PackParams pack;
  pack.pack_threshold = pack_threshold;
  Testbench bench(cluster::ri_qdr(), /*servers=*/5, /*clients=*/1,
                  resilience::Design::kEraCeCd, kK, kM, /*rep_factor=*/3,
                  arpe, {}, {}, pack);
  sim::Latch done(bench.sim(), 1);
  bench.spawn(loader(&bench.engine(0), keys, value_size, &done));
  bench.run();
  Point p;
  std::uint64_t stored = bench.cluster().total_bytes_used();
  for (std::size_t s = 0; s < 5; ++s) {
    stored += bench.cluster().server(s).stripe_index_bytes();
    p.locator_entries += bench.cluster().server(s).stripe_index_entries();
  }
  p.bytes_per_key = static_cast<double>(stored) / static_cast<double>(keys);
  p.stripes_sealed = bench.engine(0).stats().stripes_sealed;
  p.fill_x1000 = bench.engine(0).stats().stripe_fill_x1000;
  return p;
}

struct Row {
  std::size_t value_size = 0;
  Point striped;
  Point packed;
  double ratio = 0.0;
  double predicted_ratio = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("ext_small_values", "its loader/client drivers all run on shard 0's loop");
  const std::size_t pack_threshold = static_cast<std::size_t>(
      arg_int(argc, argv, "--pack-threshold=", 4096));
  std::string out_path = "BENCH_small_values.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--out=")) out_path = std::string(arg.substr(6));
  }
  const std::uint64_t keys = scaled(2'000);
  std::printf("EXT — small-object packing, 5 servers, RS(%zu,%zu), %llu keys"
              " per point, pack-threshold %zu B\n",
              kK, kM, static_cast<unsigned long long>(keys), pack_threshold);
  print_header("Stored bytes per key, striped vs packed",
               {"value_B", "striped", "packed", "ratio", "pred_ratio",
                "stripes", "fill%"});

  std::vector<Row> rows;
  for (const std::size_t size : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    Row r;
    r.value_size = size;
    r.striped = run_point(size, keys, /*pack_threshold=*/0);
    r.packed = run_point(size, keys, pack_threshold);
    r.ratio = r.packed.bytes_per_key > 0.0
                  ? r.striped.bytes_per_key / r.packed.bytes_per_key
                  : 0.0;
    ec::FootprintParams p;
    p.key_size = key_of(0).size();
    p.value_size = size;
    p.k = kK;
    p.m = kM;
    p.alignment = 1;
    p.stripe_capacity = resilience::PackParams{}.stripe_capacity;
    p.stripe_key_size = kv::stripe_key(0, 0).size();
    p.item_overhead = kv::StorageEngine::kItemOverhead;
    p.chunk_info_bytes = sizeof(kv::ChunkInfo);
    p.locator_entry_overhead = 12;
    p.locator_copies = kM + 1;
    const ec::StorageFootprint f = ec::predict_footprint(p);
    r.predicted_ratio =
        size < pack_threshold ? f.savings_ratio : 1.0;
    rows.push_back(r);
    print_cell(std::to_string(size));
    print_cell(r.striped.bytes_per_key);
    print_cell(r.packed.bytes_per_key);
    print_cell(r.ratio);
    print_cell(r.predicted_ratio);
    print_cell(std::to_string(r.packed.stripes_sealed));
    print_cell(static_cast<double>(r.packed.fill_x1000) / 10.0);
    end_row();
  }

  // Crossover: the smallest swept size where packing stops paying.
  std::size_t crossover = pack_threshold;
  for (const Row& r : rows) {
    if (r.ratio < 1.05) {
      crossover = r.value_size;
      break;
    }
  }
  double ratio_at_128 = 0.0;
  for (const Row& r : rows) {
    if (r.value_size == 128) ratio_at_128 = r.ratio;
  }
  std::printf("\npacking crossover: %zu B (ratio_at_128 = %.2fx)\n",
              crossover, ratio_at_128);

  std::string json;
  json += "{\n  \"bench\": \"ext_small_values\",\n  \"k\": ";
  obs::json::append_u64(json, kK);
  json += ", \"m\": ";
  obs::json::append_u64(json, kM);
  json += ", \"keys\": ";
  obs::json::append_u64(json, keys);
  json += ", \"pack_threshold\": ";
  obs::json::append_u64(json, pack_threshold);
  json += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += "    {\"value_size\": ";
    obs::json::append_u64(json, r.value_size);
    json += ", \"striped_bytes_per_key\": ";
    obs::json::append_fixed(json, r.striped.bytes_per_key, 1);
    json += ", \"packed_bytes_per_key\": ";
    obs::json::append_fixed(json, r.packed.bytes_per_key, 1);
    json += ", \"ratio\": ";
    obs::json::append_fixed(json, r.ratio, 3);
    json += ", \"predicted_ratio\": ";
    obs::json::append_fixed(json, r.predicted_ratio, 3);
    json += ", \"stripes_sealed\": ";
    obs::json::append_u64(json, r.packed.stripes_sealed);
    json += ", \"locator_entries\": ";
    obs::json::append_u64(json, r.packed.locator_entries);
    json += ", \"stripe_fill_x1000\": ";
    obs::json::append_u64(json, r.packed.fill_x1000);
    json += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  json += "  ],\n  \"acceptance\": {\"ratio_at_128\": ";
  obs::json::append_fixed(json, ratio_at_128, 3);
  json += ", \"crossover_size\": ";
  obs::json::append_u64(json, crossover);
  json += "}\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return obs_finalize();
}
