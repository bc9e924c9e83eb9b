#include "boldio/lustre.h"

#include <algorithm>

namespace hpres::boldio {

sim::Task<void> LustreModel::transfer(std::uint64_t bytes,
                                      double aggregate_gbps,
                                      SimTime* pipe_busy_until) {
  const SimTime now = sim_->now();
  // Queue on the shared pipe, then occupy it for the aggregate-rate time.
  const SimDur agg_time = units::transfer_time_ns(bytes, aggregate_gbps);
  const SimTime start = std::max(now, *pipe_busy_until);
  const SimTime agg_done = start + agg_time;
  *pipe_busy_until = agg_done;
  // The caller additionally cannot beat its own stream cap, and pays the
  // metadata round trip.
  const SimTime stream_done =
      now + units::transfer_time_ns(bytes, kPerStreamGbps);
  const SimTime done = std::max(agg_done, stream_done) + kMetadataNs;
  co_await sim_->delay(done - now);
}

sim::Task<void> LustreModel::write(std::uint64_t bytes) {
  ++stats_.write_ops;
  stats_.bytes_written += bytes;
  co_await transfer(bytes, kAggregateWriteGbps, &write_busy_until_);
}

sim::Task<void> LustreModel::read(std::uint64_t bytes) {
  ++stats_.read_ops;
  stats_.bytes_read += bytes;
  co_await transfer(bytes, kAggregateReadGbps, &read_busy_until_);
}

}  // namespace hpres::boldio
