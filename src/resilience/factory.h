// Engine factory keyed by the design names used throughout the paper's
// evaluation section, for benches and examples that sweep designs.
#pragma once

#include <memory>

#include "resilience/erasure_engine.h"
#include "resilience/replication.h"

namespace hpres::resilience {

/// Creates an engine. `codec`/`cost` are required for erasure designs (the
/// codec must outlive the engine); `rep_factor` applies to replication
/// designs (ignored for kNoRep, which always stores one copy). `hedge`
/// configures hedged/load-aware reads and only applies to erasure designs;
/// `pack` configures the batched small-object write path and only applies
/// to kEraCeCd (other designs ignore it).
[[nodiscard]] std::unique_ptr<Engine> make_engine(
    Design design, EngineContext ctx, std::uint32_t rep_factor,
    const ec::Codec* codec, ec::CostModel cost, ArpeParams arpe = {},
    HedgeParams hedge = {}, PackParams pack = {});

}  // namespace hpres::resilience
