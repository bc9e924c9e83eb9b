#include "boldio/boldio_client.h"

#include <vector>

namespace hpres::boldio {

sim::Task<Status> BoldioClient::write_file(std::string name,
                                           std::uint64_t bytes) {
  // Hadoop write stream -> chunk Sets, bounded by the pipeline depth. The
  // same chunk payload buffer is shared: content is a size-preserving
  // stand-in for file data (DESIGN.md: benchmarks run size-only).
  const SharedBytes chunk_payload = zero_bytes(kChunkBytes);
  std::uint64_t failures_before = engine_->stats().set_failures;
  std::uint64_t remaining = bytes;
  std::uint64_t index = 0;
  std::size_t in_flight = 0;
  while (remaining > 0) {
    const std::size_t this_chunk = remaining >= kChunkBytes
                                       ? kChunkBytes
                                       : static_cast<std::size_t>(remaining);
    SharedBytes payload =
        this_chunk == kChunkBytes ? chunk_payload : zero_bytes(this_chunk);
    // Map-task stream processing for this chunk (see kStreamWriteNsPerByte).
    co_await sim_->delay(static_cast<SimDur>(
        kStreamWriteNsPerByte * static_cast<double>(this_chunk)));
    (void)engine_->iset(file_chunk_key(name, index), std::move(payload));
    remaining -= this_chunk;
    ++index;
    if (++in_flight >= kPipelineDepth) {
      co_await engine_->wait_all();
      in_flight = 0;
    }
  }
  co_await engine_->wait_all();

  ++stats_.files_written;
  stats_.bytes_written += bytes;
  const std::uint64_t failures =
      engine_->stats().set_failures - failures_before;
  stats_.chunk_failures += failures;

  // Asynchronous persistence: the file drains to Lustre in the background.
  if (lustre_ != nullptr) {
    sim_->spawn(flush_to_lustre(lustre_, bytes));
  }
  co_return failures == 0
      ? Status::Ok()
      : Status{StatusCode::kInternal, "chunk writes failed"};
}

sim::Task<Status> BoldioClient::read_file(std::string name,
                                          std::uint64_t bytes) {
  std::uint64_t failures_before = engine_->stats().get_failures;
  std::uint64_t remaining = bytes;
  std::uint64_t index = 0;
  std::size_t in_flight = 0;
  while (remaining > 0) {
    const std::uint64_t this_chunk =
        remaining >= kChunkBytes ? kChunkBytes : remaining;
    co_await sim_->delay(static_cast<SimDur>(
        kStreamReadNsPerByte * static_cast<double>(this_chunk)));
    (void)engine_->iget(file_chunk_key(name, index));
    remaining -= this_chunk;
    ++index;
    if (++in_flight >= kPipelineDepth) {
      co_await engine_->wait_all();
      in_flight = 0;
    }
  }
  co_await engine_->wait_all();

  ++stats_.files_read;
  stats_.bytes_read += bytes;
  const std::uint64_t failures =
      engine_->stats().get_failures - failures_before;
  stats_.chunk_failures += failures;
  co_return failures == 0
      ? Status::Ok()
      : Status{StatusCode::kNotFound, "chunk reads failed"};
}

sim::Task<void> BoldioClient::flush_to_lustre(LustreModel* lustre,
                                              std::uint64_t bytes) {
  co_await lustre->write(bytes);
}

}  // namespace hpres::boldio
