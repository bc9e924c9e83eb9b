// Cluster membership view shared by clients and servers.
//
// Failure model (DESIGN.md): this oracle is the *detected* state of the
// cluster, and it may lag reality. A crash flips the fabric immediately
// (in-flight messages are dropped, new sends to the dead HCA fail fast)
// but flips this view only after the FaultSchedule's configurable
// detection lag — during the lag, callers still target the dead server
// and resolve via RPC deadlines (kTimeout) or the fabric's fast-fail
// (kUnavailable). Once the failure is visible here, placement decisions
// route around it; consulting the oracle when the primary is down costs
// the paper's T_check server-selection overhead (Equation 4), charged by
// the caller. Controlled-failure experiments (fail_server between
// operations) flip both views atomically, reproducing the paper's setup
// where nodes are failed before the measurement.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "kv/protocol.h"

namespace hpres::kv {

class Membership {
 public:
  /// T_check: time a client spends identifying a live server when its
  /// first choice is down.
  static constexpr SimDur kCheckCostNs = 1'500;

  explicit Membership(std::size_t num_servers) : up_(num_servers, true) {}

  [[nodiscard]] std::size_t size() const noexcept { return up_.size(); }

  void set_up(std::size_t server_index, bool up) {
    assert(server_index < up_.size());
    if (up_[server_index] != up) {
      up_[server_index] = up;
      ++epoch_;
    }
  }

  [[nodiscard]] bool up(std::size_t server_index) const {
    assert(server_index < up_.size());
    return up_[server_index];
  }

  [[nodiscard]] std::size_t alive() const noexcept {
    std::size_t n = 0;
    for (const bool u : up_) n += u ? 1 : 0;
    return n;
  }

  [[nodiscard]] bool all_up() const noexcept { return alive() == up_.size(); }

  /// Bumped on every membership change (lets caches invalidate).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  std::vector<bool> up_;
  std::uint64_t epoch_ = 0;
};

}  // namespace hpres::kv
