#include "eim/gpusim/context.hpp"

#include <cassert>

namespace eim::gpusim {

void BlockContext::warp_inclusive_scan(std::span<float> lane_values) noexcept {
  assert(lane_values.size() <= spec_->warp_size);
  // Host-side sequential prefix sum...
  float running = 0.0f;
  for (float& v : lane_values) {
    running += v;
    v = running;
  }
  // ...charged as the Hillis-Steele shuffle ladder a warp would execute:
  // log2(warp_size) shuffle+add steps (§3.3's O(log d) claim).
  charge_warp_scan();
}

std::uint32_t BlockContext::warp_ballot(std::span<const bool> lane_predicates) noexcept {
  assert(lane_predicates.size() <= spec_->warp_size);
  std::uint32_t mask = 0;
  for (std::size_t lane = 0; lane < lane_predicates.size(); ++lane) {
    if (lane_predicates[lane]) mask |= (1u << lane);
  }
  charge_warp_ballot();
  return mask;
}

}  // namespace eim::gpusim
