// TestDFSIO-style workload (Section VI-D): M concurrent map tasks each
// write (then read) one file of a given size, and the benchmark reports
// aggregate throughput = total bytes / makespan. Two backends: the Boldio
// burst buffer (chunk KV ops through a resilience engine) and Lustre-Direct
// (map tasks stream straight to the parallel filesystem).
#pragma once

#include <vector>

#include "boldio/boldio_client.h"

namespace hpres::boldio {

struct DfsioResult {
  std::uint64_t total_bytes = 0;
  SimDur makespan_ns = 0;
  std::uint64_t failures = 0;

  [[nodiscard]] double throughput_mib_s() const {
    if (makespan_ns <= 0) return 0.0;
    return static_cast<double>(total_bytes) / (1024.0 * 1024.0) /
           units::to_s(makespan_ns);
  }
};

/// One Boldio map task: writes (mode=write) or reads its file. Decrements
/// the latch on completion; accumulates failures into *failures.
sim::Task<void> dfsio_boldio_map(BoldioClient* client, std::string file,
                                 std::uint64_t bytes, bool write,
                                 sim::Latch* done, std::uint64_t* failures);

/// One Lustre-Direct map task: streams the file to/from Lustre in
/// BoldioClient::kChunkBytes requests (Hadoop's sequential record writer).
sim::Task<void> dfsio_direct_map(LustreModel* lustre, std::uint64_t bytes,
                                 bool write, sim::Latch* done);

}  // namespace hpres::boldio
