#include "traffic.hpp"

#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

using namespace gpclust;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Pending {
  u32 query;
  std::future<serve::QueryOutcome> future;
};

void settle(TrafficResult& result, Pending& p, bool timed) {
  serve::QueryOutcome outcome = p.future.get();
  if (outcome.rejected == serve::RejectReason::None) {
    ++result.succeeded;
    if (timed) result.latency_ms.push_back(1e3 * outcome.latency_seconds);
  } else {
    ++result.failed;
  }
  result.served.push_back({p.query, std::move(outcome)});
}

}  // namespace

TrafficResult run_open_loop(serve::QueryService& service,
                            const std::vector<std::string>& pool, double rate,
                            double seconds, u64 seed,
                            const std::atomic<bool>* stop) {
  GPCLUST_CHECK(rate > 0.0 && !pool.empty(), "open loop needs a rate and a pool");
  util::Xoshiro256 rng(util::mix64(seed));
  TrafficResult result;
  std::vector<Pending> pending;
  std::vector<double> lags;
  const Clock::time_point open = Clock::now();
  double due = 0.0;
  for (;;) {
    due += -std::log(1.0 - rng.next_double()) / rate;
    if (due >= seconds || (stop != nullptr && stop->load())) break;
    const auto query = static_cast<u32>(rng.next_below(pool.size()));
    const Clock::time_point target =
        open + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due));
    // Spin rather than sleep: on a virtual machine a sleeping thread's
    // vCPU halts and wakes milliseconds late, which would charge the
    // generator's own lateness to every query due behind it. Yielding
    // still hands the core to runnable work, as beside the appends.
    while (Clock::now() < target) std::this_thread::yield();
    const double lag = seconds_between(open, Clock::now()) - due;
    pending.push_back({query, service.submit(pool[query])});
    lags.push_back(lag);
    ++result.sent;
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    settle(result, pending[i], /*timed=*/true);
  }
  result.seconds = seconds_between(open, Clock::now());
  result.lag_ms.reserve(lags.size());
  for (const double lag : lags) result.lag_ms.push_back(1e3 * lag);
  return result;
}

TrafficResult run_closed_loop(serve::QueryService& service,
                              const std::vector<std::string>& pool,
                              std::size_t outstanding, double seconds,
                              u64 seed) {
  GPCLUST_CHECK(outstanding >= 1 && !pool.empty(),
                "closed loop needs a window and a pool");
  util::Xoshiro256 rng(util::mix64(seed));
  TrafficResult result;
  std::deque<Pending> window;
  auto send = [&] {
    const auto query = static_cast<u32>(rng.next_below(pool.size()));
    window.push_back({query, service.submit(pool[query])});
    ++result.sent;
  };
  const Clock::time_point open = Clock::now();
  for (std::size_t i = 0; i < outstanding; ++i) send();
  while (!window.empty()) {
    settle(result, window.front(), /*timed=*/false);
    window.pop_front();
    const double now = seconds_between(open, Clock::now());
    result.done_s.push_back(now);
    if (now < seconds) send();
  }
  result.seconds = seconds_between(open, Clock::now());
  return result;
}

}  // namespace perfbench
