// The observability instruments one shard records into. A cluster owns one
// record per shard and binds it once at construction: the fabric's shard
// state and every node on the shard read their tracer, health signals and
// flight recorder through it, so attaching or detaching an instrument
// rewrites one field per shard and nothing else.
#pragma once

#include <cstdint>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"

namespace hpres::obs {

struct Sinks {
  Tracer* tracer = nullptr;
  std::uint32_t trace_pid = 0;  ///< process every span is emitted under
  HealthSignals* health = nullptr;
  FlightRecorder* flight = nullptr;

  /// The tracer when attached and enabled, nullptr otherwise.
  [[nodiscard]] Tracer* live_tracer() const noexcept {
    return (tracer != nullptr && tracer->enabled()) ? tracer : nullptr;
  }
};

/// The record standalone fabrics and nodes point at: nothing attached.
inline constexpr Sinks kNoSinks{};

}  // namespace hpres::obs
