#include "resilience/factory.h"

#include <cassert>

namespace hpres::resilience {

std::unique_ptr<Engine> make_engine(Design design, EngineContext ctx,
                                    std::uint32_t rep_factor,
                                    const ec::Codec* codec,
                                    ec::CostModel cost, ArpeParams arpe,
                                    HedgeParams hedge, PackParams pack) {
  switch (design) {
    case Design::kNoRep:
      return std::make_unique<ReplicationEngine>(ctx, Design::kAsyncRep, 1,
                                                 arpe);
    case Design::kSyncRep:
    case Design::kAsyncRep:
      return std::make_unique<ReplicationEngine>(ctx, design, rep_factor,
                                                 arpe);
    case Design::kEraCeCd:
    case Design::kEraSeSd:
    case Design::kEraSeCd:
    case Design::kEraCeSd: {
      assert(codec != nullptr && "erasure designs require a codec");
      return std::make_unique<ErasureEngine>(ctx, *codec, cost, design, arpe,
                                             hedge, pack);
    }
  }
  return nullptr;
}

}  // namespace hpres::resilience
