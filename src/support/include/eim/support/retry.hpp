// Bounded retry with deterministic modeled backoff.
//
// `retry` wraps an operation that may throw the *transient* fault class
// (DeviceFaultError — injected kernel-launch or transfer failures) and
// re-attempts it up to a bounded number of tries. The backoff between tries
// is deterministic modeled time, not a host sleep: the caller's `on_retry`
// hook receives the backoff seconds and charges them to the device timeline
// (Device::charge_backoff), so recovery costs show up in the same modeled
// ledger as the work they protect and runs stay bit-reproducible — no
// wall-clock, no jitter.
//
// Non-transient errors (DeviceOutOfMemoryError, DeviceLostError, anything
// else) propagate immediately: OOM is a capacity condition retrying cannot
// fix (the driver's DegradePolicy handles it), and a lost device never comes
// back (the multi-GPU layer fails over instead).
#pragma once

#include <cstdint>
#include <utility>

#include "eim/support/error.hpp"

namespace eim::support {

struct RetryPolicy {
  /// Total tries, including the first (>= 1). 1 disables retrying.
  std::uint32_t max_attempts = 3;
  /// Modeled delay before the first retry.
  double backoff_seconds = 100e-6;
  /// Deterministic exponential growth per subsequent retry.
  double backoff_multiplier = 2.0;

  /// Backoff before retry number `retry_index` (0-based).
  [[nodiscard]] double backoff_for(std::uint32_t retry_index) const noexcept {
    double delay = backoff_seconds;
    for (std::uint32_t i = 0; i < retry_index; ++i) delay *= backoff_multiplier;
    return delay;
  }
};

/// Run `fn`, retrying the transient fault class `TransientError` up to
/// `policy.max_attempts` total tries. Before each retry,
/// `on_retry(retry_index, backoff_seconds, error)` runs — charge the modeled
/// backoff and bump metrics there. The final failure is rethrown; exceptions
/// outside `TransientError` pass straight through.
template <typename TransientError, typename Fn, typename OnRetry>
decltype(auto) retry_on(const RetryPolicy& policy, Fn&& fn, OnRetry&& on_retry) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const TransientError& fault) {
      if (attempt + 1 >= policy.max_attempts) throw;
      on_retry(attempt, policy.backoff_for(attempt), fault);
    }
  }
}

/// The device-side default: retry transient DeviceFaultError (injected
/// kernel-launch or transfer failures). The spill store instantiates
/// retry_on<IoError> for its disk tier instead.
template <typename Fn, typename OnRetry>
decltype(auto) retry(const RetryPolicy& policy, Fn&& fn, OnRetry&& on_retry) {
  return retry_on<DeviceFaultError>(policy, std::forward<Fn>(fn),
                                    std::forward<OnRetry>(on_retry));
}

}  // namespace eim::support
