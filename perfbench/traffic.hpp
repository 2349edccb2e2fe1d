#pragma once
// Query traffic against a serve::QueryService, driven from one generator
// thread (the caller's).
//
// Open loop: independent users. Sends follow a Poisson schedule drawn from
// the workload seed, whether or not earlier queries have completed; submit
// never blocks, so the service cannot hold the schedule back. Each query
// is timed from its submission to its completion. The generator's own
// lateness (send time minus due time) is kept apart: when the host takes
// the generator's vCPU for a few milliseconds, every query due meanwhile
// is late by that much, which measures the host, not the service.
//
// Closed loop: callers that wait for their reply. A fixed number of
// requests is kept outstanding; the next one is sent only when the oldest
// completes.

#include <atomic>
#include <string>
#include <vector>

#include "serve/query_service.hpp"
#include "util/common.hpp"

namespace perfbench {

struct Served {
  gpclust::u32 query = 0;  ///< index into the pool
  gpclust::serve::QueryOutcome outcome;
};

struct TrafficResult {
  gpclust::u64 sent = 0;
  gpclust::u64 succeeded = 0;
  gpclust::u64 failed = 0;  ///< QueueFull or Expired
  double seconds = 0.0;     ///< first send to last completion
  std::vector<Served> served;
  /// Open loop only: submission to completion per succeeded query, in due
  /// order, and send time minus due time per sent query, in milliseconds.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  /// Closed loop only: seconds from the first send to each completion.
  std::vector<double> done_s;
};

/// Sends pool queries (drawn uniformly by the seed) at `rate` per second
/// until `seconds` have passed or `stop` is set, then waits for every
/// outcome.
TrafficResult run_open_loop(gpclust::serve::QueryService& service,
                            const std::vector<std::string>& pool, double rate,
                            double seconds, gpclust::u64 seed,
                            const std::atomic<bool>* stop = nullptr);

/// Keeps `outstanding` queries in flight for `seconds`, then drains.
TrafficResult run_closed_loop(gpclust::serve::QueryService& service,
                              const std::vector<std::string>& pool,
                              std::size_t outstanding, double seconds,
                              gpclust::u64 seed);

}  // namespace perfbench
