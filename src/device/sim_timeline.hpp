#pragma once
// Discrete-event timeline for the simulated device.
//
// Every device operation (kernel, H2D copy, D2H copy) is enqueued on a
// stream with a modeled duration. Operations on the same stream execute
// in order; operations on different streams may overlap unless linked by
// an explicit dependency (completion time of a prior op). The makespan of
// the timeline is the modeled device-side wall time — with one stream it
// degenerates to the paper's synchronous Thrust behavior (sum of all
// durations); with more streams it models the asynchronous copy/compute
// overlap the paper lists as future work, generalized to the k-stream
// batch pipeline of DESIGN.md §8.
//
// Engine exclusivity: a real board has one compute front-end and one DMA
// engine per copy direction, so two streams can *issue* concurrently but
// same-kind ops still serialize on their engine. When the timeline is
// constructed engine-exclusive (DeviceContext does this), an op starts no
// earlier than the completion of the previous op of the same kind,
// whatever stream issued it. Cross-kind overlap (kernel vs copies) is
// unrestricted — exactly the overlap CUDA streams expose.
//
// Exposed-time accounting: every instant of the makespan is charged to one
// op kind — a kernel if one runs then, else an upload if one runs, else a
// download — so a copy that runs beside a kernel is hidden whichever op was
// enqueued first. Summed over kinds this equals the makespan, so
// exposed(CopyH2D) + exposed(CopyD2H) is the modeled transfer time an
// observer of the device wall clock waits for beyond compute — the number
// the stream-pipeline ablation drives toward zero.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace gpclust::obs {
class Tracer;
}

namespace gpclust::device {

enum class OpKind : int { Kernel = 0, CopyH2D = 1, CopyD2H = 2 };
inline constexpr std::size_t kNumOpKinds = 3;

using StreamId = std::size_t;
inline constexpr StreamId kDefaultStream = 0;

class SimTimeline {
 public:
  explicit SimTimeline(std::size_t num_streams = 4,
                       bool engine_exclusive = false);

  std::size_t num_streams() const { return cursors_.size(); }
  bool engine_exclusive() const { return engine_exclusive_; }

  /// Grows the stream set to at least `n` streams (never shrinks; new
  /// streams start idle at t=0). Used by the k-stream pipeline scheduler.
  void ensure_streams(std::size_t n);

  /// Schedules an op of `duration` seconds on `stream`, starting no earlier
  /// than the stream's cursor, `ready_after` (a completion time returned
  /// by a previous enqueue, for cross-stream dependencies) and — when the
  /// timeline is engine-exclusive — the completion of the previous op of
  /// the same kind. Returns the op's completion time.
  double enqueue(StreamId stream, OpKind kind, double duration,
                 double ready_after = 0.0);

  /// Completion time of the last op on `stream`.
  double stream_cursor(StreamId stream) const;

  /// Modeled device wall time: max completion over all streams.
  double makespan() const;

  /// Total busy seconds per op kind (sum of durations, ignoring overlap) —
  /// these are the Table I per-component columns.
  double busy(OpKind kind) const {
    return busy_[static_cast<std::size_t>(kind)];
  }

  /// Seconds of the makespan charged to `kind`: the time its ops run while
  /// no op of a higher-priority kind runs (Kernel, then CopyH2D, then
  /// CopyD2H), plus any idle time an op of the kind ends. The three kinds
  /// sum to makespan(); busy(kind) - exposed(kind) is the overlap the
  /// schedule achieved for that kind (zero for kernels on an
  /// engine-exclusive timeline). Independent of enqueue order: a lane's
  /// result copy hidden behind its next trial's kernels counts as hidden.
  double exposed(OpKind kind) const;

  std::size_t num_ops() const { return num_ops_; }

  void reset();

  /// Every subsequently enqueued op is also recorded as a device-modeled
  /// span on `tracer` (category "kernel"/"copy_h2d"/"copy_d2h", one track
  /// per stream). Null detaches; reset() keeps the attachment.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  std::vector<double> cursors_;
  std::array<double, kNumOpKinds> busy_{};
  std::array<double, kNumOpKinds> engines_{};
  /// Per kind, the [start, end] intervals its ops occupy; an op that
  /// starts inside or at the end of the last interval extends it, so an
  /// engine-exclusive timeline keeps one interval per busy stretch.
  std::array<std::vector<std::pair<double, double>>, kNumOpKinds> cover_;
  std::size_t num_ops_ = 0;
  bool engine_exclusive_ = false;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace gpclust::device
