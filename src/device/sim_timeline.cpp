#include "device/sim_timeline.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace gpclust::device {

namespace {
constexpr std::string_view kOpCategory[kNumOpKinds] = {"kernel", "copy_h2d",
                                                       "copy_d2h"};
}  // namespace

SimTimeline::SimTimeline(std::size_t num_streams, bool engine_exclusive)
    : cursors_(num_streams, 0.0), engine_exclusive_(engine_exclusive) {
  GPCLUST_CHECK(num_streams >= 1, "need at least one stream");
}

void SimTimeline::ensure_streams(std::size_t n) {
  if (n > cursors_.size()) cursors_.resize(n, 0.0);
}

double SimTimeline::enqueue(StreamId stream, OpKind kind, double duration,
                            double ready_after) {
  GPCLUST_CHECK(stream < cursors_.size(), "stream id out of range");
  GPCLUST_CHECK(duration >= 0.0, "negative duration");
  const std::size_t k = static_cast<std::size_t>(kind);
  double start = std::max(cursors_[stream], ready_after);
  if (engine_exclusive_) start = std::max(start, engines_[k]);
  const double end = start + duration;
  cursors_[stream] = end;
  engines_[k] = std::max(engines_[k], end);
  busy_[k] += duration;
  auto& cover = cover_[k];
  if (!cover.empty() && start >= cover.back().first &&
      start <= cover.back().second) {
    cover.back().second = std::max(cover.back().second, end);
  } else {
    cover.emplace_back(start, end);
  }
  ++num_ops_;
  if (tracer_ != nullptr) {
    tracer_->record_modeled_op(kOpCategory[k], start, duration, stream);
  }
  return end;
}

double SimTimeline::exposed(OpKind kind) const {
  // Sweep the interval edges in time order. Each stretch between two edges
  // goes to the highest-priority kind running then (the lowest OpKind); an
  // idle stretch goes to the first kind to start after it. At equal times
  // ends sort before starts and starts by priority.
  struct Edge {
    double t;
    int delta;  // -1 end, +1 start
    std::size_t kind;
  };
  std::vector<Edge> edges;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    for (const auto& [start, end] : cover_[k]) {
      edges.push_back({start, +1, k});
      edges.push_back({end, -1, k});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.delta != b.delta) return a.delta < b.delta;
    return a.kind < b.kind;
  });
  const std::size_t want = static_cast<std::size_t>(kind);
  std::array<int, kNumOpKinds> running{};
  double t = 0.0;
  double idle = 0.0;
  double out = 0.0;
  for (const Edge& e : edges) {
    if (e.t > t) {
      const auto top = std::find_if(running.begin(), running.end(),
                                    [](int n) { return n > 0; });
      if (top == running.end()) {
        idle += e.t - t;
      } else if (static_cast<std::size_t>(top - running.begin()) == want) {
        out += e.t - t;
      }
      t = e.t;
    }
    if (e.delta > 0 && idle > 0.0) {
      if (e.kind == want) out += idle;
      idle = 0.0;
    }
    running[e.kind] += e.delta;
  }
  return out;
}

double SimTimeline::stream_cursor(StreamId stream) const {
  GPCLUST_CHECK(stream < cursors_.size(), "stream id out of range");
  return cursors_[stream];
}

double SimTimeline::makespan() const {
  return *std::max_element(cursors_.begin(), cursors_.end());
}

void SimTimeline::reset() {
  std::fill(cursors_.begin(), cursors_.end(), 0.0);
  busy_.fill(0.0);
  engines_.fill(0.0);
  for (auto& cover : cover_) cover.clear();
  num_ops_ = 0;
}

}  // namespace gpclust::device
