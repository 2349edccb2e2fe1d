#pragma once
// Deterministic, replayable fault injection for the simulated CPU-GPU
// pipeline. A FaultPlan is a schedule of typed faults keyed by injection
// site and 0-based per-site call index: the 17th arena allocation, the 3rd
// host->device copy, rank 2 of a distributed run. Instrumented sites (the
// arena, the transfer helpers, the kernel primitives, dist::comm send/recv)
// ask the plan `should_fault(site)` on every call, so a given plan fires at
// exactly the same points on every run — every failure is replayable from
// the spec string alone.
//
// Spec grammar (comma-separated entries):
//   oom@alloc:IDX          arena allocation IDX throws DeviceError (OOM)
//   xfer_fail@h2d:IDX      host->device copy IDX throws TransferError
//   xfer_fail@d2h:IDX      device->host copy IDX throws TransferError
//   kernel_fail@kernel:IDX kernel launch IDX throws KernelError
//   comm_fail@send:IDX     comm send IDX throws CommError
//   comm_fail@recv:IDX     comm recv IDX throws CommError
//   rank_down@R            rank R never comes up (reassigned or fatal)
// IDX is a single 0-based index N or an inclusive range N-M (persistent
// faults that defeat bounded retries are ranges of consecutive indices).

#include <array>
#include <cstddef>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "util/common.hpp"

namespace gpclust::fault {

/// Instrumented call sites a plan can fire at.
enum class FaultSite : int {
  Alloc = 0,   ///< MemoryArena::allocate
  H2D = 1,     ///< copy_to_device
  D2H = 2,     ///< copy_to_host
  Kernel = 3,  ///< device primitive entry (transform, sort, ...)
  Send = 4,    ///< Communicator::send
  Recv = 5,    ///< Communicator::recv
};
inline constexpr std::size_t kNumFaultSites = 6;

std::string_view site_name(FaultSite site);

class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan(const FaultPlan& other);
  FaultPlan& operator=(const FaultPlan& other);

  /// Parses the spec grammar above; throws InvalidArgument on malformed
  /// entries or kind/site mismatches (e.g. "oom@h2d:0").
  static FaultPlan parse(const std::string& spec);

  /// Canonical spec string (entries sorted, consecutive indices collapsed
  /// into ranges); parse(to_string()) reproduces the plan.
  std::string to_string() const;

  /// Schedules a fault at the given 0-based call index of `site`.
  void add(FaultSite site, u64 index);
  /// Schedules faults at every index in [lo, hi].
  void add_range(FaultSite site, u64 lo, u64 hi);
  /// Marks rank `rank` as down for the whole run.
  void add_rank_down(std::size_t rank);

  bool empty() const;

  /// Called by an instrumented site: advances the site's call counter and
  /// returns true when a fault is scheduled at this call index.
  /// Thread-safe (device pool threads and dist ranks share one plan).
  bool should_fault(FaultSite site);

  bool is_rank_down(std::size_t rank) const;
  std::size_t num_ranks_down() const;

  /// Calls observed at `site` so far (attempts, not faults).
  u64 calls(FaultSite site) const;
  /// Total faults fired so far (excluding rank_down, which is static).
  u64 injected() const;

  /// Rewinds all call counters so the same plan replays identically;
  /// the schedule itself is untouched.
  void reset_counters();

 private:
  mutable std::mutex mu_;
  /// Per site: disjoint, non-adjacent [lo, hi] intervals keyed by lo, so a
  /// range costs one entry whatever its length.
  std::array<std::map<u64, u64>, kNumFaultSites> schedule_;
  std::set<std::size_t> down_ranks_;
  std::array<u64, kNumFaultSites> calls_{};
  u64 injected_ = 0;
};

}  // namespace gpclust::fault
