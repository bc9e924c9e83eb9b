#include "boldio/dfsio.h"

namespace hpres::boldio {

sim::Task<void> dfsio_boldio_map(BoldioClient* client, std::string file,
                                 std::uint64_t bytes, bool write,
                                 sim::Latch* done, std::uint64_t* failures) {
  // Branch rather than a conditional expression: co_await inside ?: hits a
  // GCC 12 coroutine lifetime bug (double-destroyed temporary).
  Status s = Status::Ok();
  if (write) {
    s = co_await client->write_file(std::move(file), bytes);
  } else {
    s = co_await client->read_file(std::move(file), bytes);
  }
  if (!s.ok()) ++*failures;
  done->count_down();
}

sim::Task<void> dfsio_direct_map(LustreModel* lustre, std::uint64_t bytes,
                                 bool write, sim::Latch* done) {
  constexpr std::uint64_t kChunk = BoldioClient::kChunkBytes;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t this_chunk = remaining >= kChunk ? kChunk : remaining;
    if (write) {
      co_await lustre->write(this_chunk);
    } else {
      co_await lustre->read(this_chunk);
    }
    remaining -= this_chunk;
  }
  done->count_down();
}

}  // namespace hpres::boldio
