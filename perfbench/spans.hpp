#pragma once
// Bench-side spans. The harness wraps each call into a layer's public
// function in a Scope; the Scope always measures its wall time (the
// untraced run reads its timings from the same scopes) and, when the log is
// enabled, records a span with its layer and parent. Spans stay in memory
// until the run writes them out. Only the main thread records.

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Host seconds since the log was created.
  double now() const;

  class Scope {
   public:
    Scope(SpanLog& log, std::string_view layer, std::string_view name);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Wall seconds since the scope opened.
    double seconds() const { return log_.now() - start_; }

   private:
    SpanLog& log_;
    double start_;
    int index_ = -1;
  };

  /// Records a child of the innermost open span whose duration the layer
  /// measured itself but whose position inside the parent is unknown; it
  /// is placed after the parent's previous attributed children.
  void attribute(std::string_view layer, std::string_view name,
                 double seconds);

  /// [{"layer", "name", "start", "end", "parent"}], parent -1 at top level.
  gpclust::obs::json::Value to_json() const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    double attributed_end = 0.0;  ///< where the next attributed child starts
  };

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
