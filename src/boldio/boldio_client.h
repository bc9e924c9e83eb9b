// Boldio burst-buffer client (Section V): maps Hadoop I/O streams onto
// key-value pairs cached in the resilient KV cluster, pipelining chunk
// operations through the engine's non-blocking API, and asynchronously
// persisting written files to Lustre (the flush never blocks the writer —
// the client guarantees redundancy through the resilience engine before the
// application's write completes).
#pragma once

#include <string>

#include "boldio/lustre.h"
#include "resilience/engine.h"

namespace hpres::boldio {

struct BoldioStats {
  std::uint64_t files_written = 0;
  std::uint64_t files_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t chunk_failures = 0;
};

class BoldioClient {
 public:
  static constexpr std::size_t kChunkBytes = 1024 * 1024;  ///< Hadoop chunk
  static constexpr std::size_t kPipelineDepth = 16;  ///< chunks in flight
  /// Hadoop map-task stream processing cost, charged per byte on the map's
  /// own stream (serialization, record framing, JVM copies). Writes are far
  /// heavier than reads; these rates (~90 MB/s per writing map, ~420 MB/s
  /// per reading map) reproduce the per-map throughputs implied by the
  /// paper's TestDFSIO numbers — with 32 maps they, not the RDMA fabric,
  /// are the Boldio-side bottleneck, which is why Era and Async-Rep tie.
  static constexpr double kStreamWriteNsPerByte = 11.0;
  static constexpr double kStreamReadNsPerByte = 2.4;

  /// `engine` provides resilient chunk storage; `lustre` receives the
  /// asynchronous persistence stream (may be null to disable flushing).
  BoldioClient(sim::Simulator& sim, resilience::Engine& engine,
               LustreModel* lustre)
      : sim_(&sim), engine_(&engine), lustre_(lustre) {}
  BoldioClient(const BoldioClient&) = delete;
  BoldioClient& operator=(const BoldioClient&) = delete;

  [[nodiscard]] const BoldioStats& stats() const noexcept {
    return stats_;
  }

  /// Writes a `bytes`-long file as pipelined chunk Sets. Returns once all
  /// chunks are durable in the KV burst buffer (Lustre persistence
  /// continues in the background). Fails if any chunk failed.
  sim::Task<Status> write_file(std::string name, std::uint64_t bytes);

  /// Reads the file back through pipelined chunk Gets.
  sim::Task<Status> read_file(std::string name, std::uint64_t bytes);

  /// Key of chunk `index` of file `name`.
  [[nodiscard]] static kv::Key file_chunk_key(const std::string& name,
                                              std::uint64_t index) {
    return name + "/" + std::to_string(index);
  }

 private:
  static sim::Task<void> flush_to_lustre(LustreModel* lustre,
                                         std::uint64_t bytes);

  sim::Simulator* sim_;
  resilience::Engine* engine_;
  LustreModel* lustre_;
  BoldioStats stats_;
};

}  // namespace hpres::boldio
