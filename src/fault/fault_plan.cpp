#include "fault/fault_plan.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace gpclust::fault {

namespace {

struct SiteInfo {
  FaultSite site;
  std::string_view name;
  std::string_view kind;  ///< the fault kind legal at this site
};

constexpr SiteInfo kSites[kNumFaultSites] = {
    {FaultSite::Alloc, "alloc", "oom"},
    {FaultSite::H2D, "h2d", "xfer_fail"},
    {FaultSite::D2H, "d2h", "xfer_fail"},
    {FaultSite::Kernel, "kernel", "kernel_fail"},
    {FaultSite::Send, "send", "comm_fail"},
    {FaultSite::Recv, "recv", "comm_fail"},
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

u64 parse_u64(std::string_view s, const std::string& entry) {
  if (s.empty()) throw InvalidArgument("fault spec: empty index in " + entry);
  u64 value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw InvalidArgument("fault spec: bad number '" + std::string(s) +
                            "' in " + entry);
    }
    const u64 digit = static_cast<u64>(c - '0');
    if (value > (~u64{0} - digit) / 10) {
      throw InvalidArgument("fault spec: number '" + std::string(s) +
                            "' out of range in " + entry);
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

std::string_view site_name(FaultSite site) {
  return kSites[static_cast<std::size_t>(site)].name;
}

FaultPlan::FaultPlan(const FaultPlan& other) {
  std::lock_guard lock(other.mu_);
  schedule_ = other.schedule_;
  down_ranks_ = other.down_ranks_;
  calls_ = other.calls_;
  injected_ = other.injected_;
}

FaultPlan& FaultPlan::operator=(const FaultPlan& other) {
  if (this != &other) {
    FaultPlan copy(other);
    std::lock_guard lock(mu_);
    schedule_ = std::move(copy.schedule_);
    down_ranks_ = std::move(copy.down_ranks_);
    calls_ = copy.calls_;
    injected_ = copy.injected_;
  }
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::stringstream stream(spec);
  std::string raw;
  while (std::getline(stream, raw, ',')) {
    const std::string entry(trim(raw));
    if (entry.empty()) continue;
    const auto at = entry.find('@');
    if (at == std::string::npos) {
      throw InvalidArgument("fault spec: missing '@' in '" + entry + "'");
    }
    const std::string_view kind = trim(std::string_view(entry).substr(0, at));
    const std::string_view rest = trim(std::string_view(entry).substr(at + 1));

    if (kind == "rank_down") {
      plan.add_rank_down(parse_u64(rest, entry));
      continue;
    }

    const auto colon = rest.find(':');
    if (colon == std::string_view::npos) {
      throw InvalidArgument("fault spec: missing ':<index>' in '" + entry +
                            "'");
    }
    const std::string_view site_str = trim(rest.substr(0, colon));
    const std::string_view index_str = trim(rest.substr(colon + 1));

    const SiteInfo* info = nullptr;
    for (const SiteInfo& s : kSites) {
      if (s.name == site_str) {
        info = &s;
        break;
      }
    }
    if (info == nullptr) {
      throw InvalidArgument("fault spec: unknown site '" +
                            std::string(site_str) + "' in '" + entry + "'");
    }
    if (kind != info->kind) {
      throw InvalidArgument("fault spec: fault '" + std::string(kind) +
                            "' is not valid at site '" + std::string(site_str) +
                            "' (expected " + std::string(info->kind) + ")");
    }

    const auto dash = index_str.find('-');
    if (dash == std::string_view::npos) {
      plan.add(info->site, parse_u64(index_str, entry));
    } else {
      const u64 lo = parse_u64(trim(index_str.substr(0, dash)), entry);
      const u64 hi = parse_u64(trim(index_str.substr(dash + 1)), entry);
      if (hi < lo) {
        throw InvalidArgument("fault spec: empty range in '" + entry + "'");
      }
      plan.add_range(info->site, lo, hi);
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::lock_guard lock(mu_);
  std::string out;
  auto emit = [&out](const std::string& entry) {
    if (!out.empty()) out += ',';
    out += entry;
  };
  for (const SiteInfo& info : kSites) {
    const auto& intervals = schedule_[static_cast<std::size_t>(info.site)];
    for (const auto& [lo, hi] : intervals) {
      std::string entry = std::string(info.kind) + "@" +
                          std::string(info.name) + ":" + std::to_string(lo);
      if (hi != lo) entry += "-" + std::to_string(hi);
      emit(entry);
    }
  }
  for (std::size_t rank : down_ranks_) {
    emit("rank_down@" + std::to_string(rank));
  }
  return out;
}

void FaultPlan::add(FaultSite site, u64 index) {
  add_range(site, index, index);
}

void FaultPlan::add_range(FaultSite site, u64 lo, u64 hi) {
  GPCLUST_CHECK(lo <= hi, "fault range must be non-empty");
  std::lock_guard lock(mu_);
  auto& intervals = schedule_[static_cast<std::size_t>(site)];
  // Absorb every interval that overlaps or touches [lo, hi], so the
  // intervals stay disjoint and non-adjacent (to_string's collapsed form).
  auto it = intervals.upper_bound(lo);
  if (it != intervals.begin() &&
      (lo == 0 || std::prev(it)->second >= lo - 1)) {
    --it;
  }
  while (it != intervals.end() && (hi == ~u64{0} || it->first <= hi + 1)) {
    lo = std::min(lo, it->first);
    hi = std::max(hi, it->second);
    it = intervals.erase(it);
  }
  intervals.emplace(lo, hi);
}

void FaultPlan::add_rank_down(std::size_t rank) {
  std::lock_guard lock(mu_);
  down_ranks_.insert(rank);
}

bool FaultPlan::empty() const {
  std::lock_guard lock(mu_);
  for (const auto& indices : schedule_) {
    if (!indices.empty()) return false;
  }
  return down_ranks_.empty();
}

bool FaultPlan::should_fault(FaultSite site) {
  std::lock_guard lock(mu_);
  const std::size_t s = static_cast<std::size_t>(site);
  const u64 index = calls_[s]++;
  const auto& intervals = schedule_[s];
  const auto it = intervals.upper_bound(index);
  const bool fire =
      it != intervals.begin() && std::prev(it)->second >= index;
  if (fire) ++injected_;
  return fire;
}

bool FaultPlan::is_rank_down(std::size_t rank) const {
  std::lock_guard lock(mu_);
  return down_ranks_.count(rank) > 0;
}

std::size_t FaultPlan::num_ranks_down() const {
  std::lock_guard lock(mu_);
  return down_ranks_.size();
}

u64 FaultPlan::calls(FaultSite site) const {
  std::lock_guard lock(mu_);
  return calls_[static_cast<std::size_t>(site)];
}

u64 FaultPlan::injected() const {
  std::lock_guard lock(mu_);
  return injected_;
}

void FaultPlan::reset_counters() {
  std::lock_guard lock(mu_);
  calls_.fill(0);
  injected_ = 0;
}

}  // namespace gpclust::fault
