// perfbench — one run of the gpClust benchmark (see README.md).
//
// Every run takes one seeded metagenome through the system's three jobs:
//
//   build   ORFs -> homology graph -> gpClust -> family store -> snapshot
//   serve   snapshot load -> QueryService under an open-loop stream, then
//           under a closed loop
//   append  day-N batches through an IngestSession, each published as a
//           delta link and hot-reloaded while a query stream runs
//
// After the first build the run is kRounds rounds of build, serve and
// append slices, each round closed by a timed set-up (Run::resetup).
// The workload decides which job gets the timed window
// (`--seconds`) and which two run at a small fixed size, so every
// end-to-end metric is measured on every workload. With --trace=1 each
// call into a layer's
// public function is wrapped in a bench-side span; the build and the
// reload are then driven through their stage functions, so the spans can
// split them.
//
// Usage: perfbench --workload=build|serve|append --seed=N --seconds=S
//                  --trace=0|1 --out=RESULT.json --workdir=DIR
//                  [--families=N]
//
// Writes raw samples, per-layer values, spans and output checks to
// RESULT.json; run.py reduces them to the metrics it prints.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "align/homology_graph.hpp"
#include "core/cluster_report.hpp"
#include "core/gpclust.hpp"
#include "core/minhash.hpp"
#include "eval/partition_metrics.hpp"
#include "ingest/ingest_session.hpp"
#include "inputs.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/query_service.hpp"
#include "spans.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "traffic.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace gpclust;
namespace json = obs::json;
using Scope = SpanLog::Scope;

// Thread budget of a 4-core host: 4 align/device-pool threads, or 3
// service workers plus the generator thread.
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kServiceWorkers = 3;
constexpr std::size_t kQueueCapacity = 1024;
// The closed loop keeps two requests per worker in flight, so a worker
// never waits for the client: with one each, the loop measured how fast the
// virtual machine wakes a sleeping thread, not how fast the service works.
constexpr std::size_t kClosedLoopOutstanding = 2 * kServiceWorkers;

// Open-loop rates in queries per second: the serve stream runs at about
// 30% of what 3 workers complete in the closed loop on a 4-core x86 VM,
// which leaves room for a host that is twice as slow; the stream beside
// the appends runs at a quarter of that.
constexpr double kServeRate = 6000.0;
constexpr double kAppendRate = 1500.0;

// A run is kRounds rounds; each round builds, serves a slice of traffic
// and appends a few batches. Interleaving the jobs spreads each one's
// samples over the whole run, so a few seconds of co-tenant CPU steal on a
// shared host cannot disturb all of them.
constexpr std::size_t kRounds = 4;

/// Where one workload spends a round. The workload's own job gets the
/// timed window (`--seconds` over the rounds); the other two run at a fixed
/// size so their metrics exist on every workload.
struct Plan {
  double build_s = 0.0;       ///< builds repeat until this has passed (>= 1)
  double open_s = 1.0;        ///< open loop, then closed loop
  double closed_s = 0.5;
  double append_s = 0.0;      ///< batches repeat until this has passed
  std::size_t batches = 5;    ///< at least
};

Plan plan_for(const std::string& workload, double seconds) {
  const double share = seconds / static_cast<double>(kRounds);
  Plan p;
  if (workload == "build") {
    p.build_s = share;
  } else if (workload == "serve") {
    p.open_s = 0.6 * share;
    p.closed_s = 0.4 * share;
  } else if (workload == "append") {
    p.append_s = share;
  } else {
    throw InvalidArgument("unknown workload: " + workload +
                          " (expected build | serve | append)");
  }
  return p;
}

json::Value numbers(const std::vector<double>& values) {
  json::Array out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(json::number(v));
  return json::array(std::move(out));
}

double mean(double sum, std::size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double median(std::vector<double> v) {
  GPCLUST_CHECK(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

align::HomologyGraphConfig homology_config() {
  align::HomologyGraphConfig config;  // k-mer seeds, HostSimd verify
  config.num_threads = kPoolThreads;
  return config;
}

serve::ServiceConfig service_config(obs::Tracer* tracer) {
  serve::ServiceConfig config;  // postings seed index, default profile cache
  config.num_workers = kServiceWorkers;
  config.queue_capacity = kQueueCapacity;
  config.tracer = tracer;
  return config;
}

ingest::IngestConfig ingest_config(device::DeviceContext& ctx) {
  ingest::IngestConfig config;  // the paper's ShinglingParams{}
  config.graph = homology_config();
  config.engine = ingest::ClusterEngine::Device;
  config.device = &ctx;
  return config;
}

u64 partition_digest(const core::Clustering& c) {
  core::Clustering normalized = c;
  normalized.normalize();
  return normalized.digest();
}

struct Built {
  store::FamilyStore store;
  u64 graph_digest = 0;
  u64 partition_digest = 0;
  double ppv = 0.0;
  double sensitivity = 0.0;
  double device_makespan = 0.0;  ///< modeled
  double seconds = 0.0;          ///< host wall, ORFs in memory -> file
};

class Run {
 public:
  explicit Run(const util::CliArgs& args)
      : workload_(args.get_string("workload", "")),
        seed_(static_cast<u64>(args.get_int("seed", 1))),
        seconds_(args.get_double("seconds", 10.0)),
        trace_(args.get_int("trace", 0) != 0),
        workdir_(args.get_string("workdir", ".")),
        plan_(plan_for(workload_, seconds_)),
        log_(trace_),
        pool_(kPoolThreads) {
    shape_.families =
        static_cast<std::size_t>(args.get_int("families", 400));
  }

  json::Value execute();

 private:
  void check(const std::string& name, bool ok) {
    const auto it = checks_.find(name);
    checks_[name] = ok && (it == checks_.end() || it->second);
  }
  void add_samples(const std::string& name, const std::vector<double>& v) {
    auto& dst = samples_[name];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  std::string path(const std::string& name) const {
    return (std::filesystem::path(workdir_) / name).string();
  }

  void resetup();
  Built build_plain(const std::string& snapshot_path);
  Built build_traced(const std::string& snapshot_path);
  class Serving;
  class Appending;

  Built build_once();
  void rebuild(const Built& first);
  void record_traffic(const std::string& phase, const TrafficResult& t);
  void finish_build(Built& b, const core::Clustering& c,
                    const device::DeviceContext& ctx);

  std::string workload_;
  u64 seed_;
  double seconds_;
  bool trace_;
  std::string workdir_;
  Plan plan_;
  InputShape shape_;
  SpanLog log_;
  util::ThreadPool pool_;
  Inputs in_;

  std::map<std::string, bool> checks_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  json::Object phases_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

// One set-up, timed: the inputs generated again, the snapshot loaded into
// a started QueryService, and the base ingested into a from-scratch
// IngestSession, as the serve and append jobs start. The jobs keep the
// set-up of the run's start; this one is dropped. It runs after every
// round, so that setup_s is a median over the whole run rather than one
// moment of a shared host.
void Run::resetup() {
  Scope span(log_, "bench", "bench.setup");
  util::WallTimer timer;
  in_ = make_inputs(shape_, seed_);
  {
    store::FamilyStore store;
    {
      Scope s(log_, "store", "store.load_snapshot");
      store = store::load_snapshot(path("families.gpfi"));
    }
    const serve::QueryService service(store, service_config(nullptr));
  }
  {
    device::DeviceContext ctx(device::DeviceSpec::tesla_k20(), &pool_);
    ingest::IngestSession session(ingest_config(ctx));
    Scope s(log_, "ingest", "ingest.base");
    session.ingest(in_.base);
  }
  add_samples("setup_s", {timer.seconds()});
}

void Run::finish_build(Built& b, const core::Clustering& c,
                       const device::DeviceContext& ctx) {
  b.partition_digest = partition_digest(c);
  const eval::PairConfusion confusion =
      eval::compare_partitions(c.labels(), in_.base_family);
  b.ppv = confusion.ppv();
  b.sensitivity = confusion.sensitivity();
  check("build.arena_empty", ctx.arena().used() == 0);
}

Built Run::build_plain(const std::string& snapshot_path) {
  Built b;
  device::DeviceContext ctx(device::DeviceSpec::tesla_k20(), &pool_);
  util::WallTimer timer;
  const graph::CsrGraph g =
      align::build_homology_graph(in_.base, homology_config());
  core::GpClustReport report;
  const core::Clustering c =
      core::GpClust(ctx, core::ShinglingParams{}).cluster(g, &report);
  b.store = store::build_family_store(in_.base, c.labels());
  store::write_snapshot(b.store, snapshot_path);
  b.seconds = timer.seconds();
  b.graph_digest = g.digest();
  b.device_makespan = report.device_makespan;
  finish_build(b, c, ctx);
  return b;
}

// The same production build, driven through the stage functions that
// GpClust::cluster and build_homology_graph compose, in their order.
Built Run::build_traced(const std::string& snapshot_path) {
  Built b;
  obs::Tracer device_tracer;  // the device layer's own byte accounting
  device::DeviceContext ctx(device::DeviceSpec::tesla_k20(), &pool_);
  ctx.set_tracer(&device_tracer);
  const align::HomologyGraphConfig hcfg = homology_config();
  util::WallTimer timer;

  graph::CsrGraph g;
  align::HomologyGraphStats hstats;
  std::size_t candidates = 0;
  std::size_t edges = 0;
  {
    Scope span(log_, "align", "align.build_homology_graph");
    std::vector<align::CandidatePair> pairs;
    {
      Scope s(log_, "align", "align.find_candidate_pairs");
      pairs = align::find_candidate_pairs(in_.base, hcfg.seeds);
    }
    std::vector<u8> accepted;
    {
      Scope s(log_, "align", "align.verify_candidate_pairs");
      accepted = align::verify_candidate_pairs(in_.base, pairs, hcfg, &hstats);
    }
    graph::EdgeList list(in_.base.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (accepted[i]) list.add(pairs[i].a, pairs[i].b);
    }
    candidates = pairs.size();
    edges = list.raw_size();
    g = graph::CsrGraph::from_edge_list(std::move(list));
  }

  core::Clustering c;
  std::size_t tuples1 = 0;
  std::size_t tuples2 = 0;
  {
    Scope span(log_, "core", "core.cluster");
    const core::ShinglingParams params;
    params.validate(g.num_vertices());
    ctx.reset_timeline();
    const core::DevicePassOptions pass;  // 1 stream, as GpClust's defaults
    const core::HashFamily family1(params.c1, params.prime, params.seed, 1);
    const core::HashFamily family2(params.c2, params.prime, params.seed, 2);
    core::ShingleTuples tuples;
    core::BipartiteShingleGraph gi;
    core::BipartiteShingleGraph gii;
    {
      Scope s(log_, "core", "core.pass1");
      tuples = core::extract_shingles_device(ctx, g.offsets(), g.adjacency(),
                                             family1, params.s1, pass, nullptr,
                                             "cpu", nullptr, "pass1");
    }
    tuples1 = tuples.size();
    {
      Scope s(log_, "core", "core.aggregate1");
      gi = core::aggregate_tuples_sharded(std::move(tuples), 1);
    }
    {
      Scope s(log_, "core", "core.pass2");
      tuples = core::extract_shingles_device(ctx, gi.offsets, gi.members,
                                             family2, params.s2, pass, nullptr,
                                             "cpu", nullptr, "pass2");
    }
    tuples2 = tuples.size();
    {
      Scope s(log_, "core", "core.aggregate2");
      gii = core::aggregate_tuples_sharded(std::move(tuples), 1);
    }
    {
      Scope s(log_, "core", "core.report");
      c = core::report_dense_subgraphs(gi, gii, g.num_vertices(), params.mode);
    }
  }

  std::size_t snapshot_bytes = 0;
  {
    Scope s(log_, "store", "store.build_family_store");
    b.store = store::build_family_store(in_.base, c.labels());
  }
  {
    Scope s(log_, "store", "store.serialize_snapshot");
    snapshot_bytes = store::serialize_snapshot(b.store).size();
  }
  {
    Scope s(log_, "store", "store.write_snapshot");
    store::write_snapshot(b.store, snapshot_path);
  }
  b.seconds = timer.seconds();
  b.graph_digest = g.digest();
  b.device_makespan = ctx.makespan();
  finish_build(b, c, ctx);

  values_["align.candidate_pairs"] = static_cast<double>(candidates);
  values_["align.edges"] = static_cast<double>(edges);
  values_["align.edge_yield"] =
      mean(static_cast<double>(edges), hstats.num_surviving_pairs);
  values_["core.tuples1"] = static_cast<double>(tuples1);
  values_["core.tuples2"] = static_cast<double>(tuples2);
  values_["core.families"] = static_cast<double>(c.num_clusters());
  values_["device.makespan_modeled_s"] = ctx.makespan();
  values_["device.kernel_modeled_s"] = ctx.gpu_seconds();
  values_["device.h2d_modeled_s"] = ctx.h2d_seconds();
  values_["device.d2h_modeled_s"] = ctx.d2h_seconds();
  values_["device.h2d_bytes"] =
      static_cast<double>(device_tracer.counter("h2d_bytes"));
  values_["device.d2h_bytes"] =
      static_cast<double>(device_tracer.counter("d2h_bytes"));
  values_["device.arena_peak_bytes"] = static_cast<double>(ctx.arena().peak());
  values_["store.snapshot_bytes"] = static_cast<double>(snapshot_bytes);
  return b;
}

Built Run::build_once() {
  Built b = trace_ ? build_traced(path("families.gpfi"))
                   : build_plain(path("families.gpfi"));
  ++attempted_;
  add_samples(trace_ ? "traced_build_s" : "build_s", {b.seconds});
  return b;
}

void Run::rebuild(const Built& first) {
  const Built b = build_once();
  check("build.partition_digest_stable",
        b.partition_digest == first.partition_digest &&
            b.graph_digest == first.graph_digest);
}

void Run::record_traffic(const std::string& phase, const TrafficResult& t) {
  attempted_ += t.sent;
  failed_ += t.failed;
  add_samples("lag_ms", t.lag_ms);
  json::Object totals = phases_.count(phase) != 0
                            ? phases_.at(phase).object()
                            : json::Object{{"sent", json::number(0)},
                                           {"succeeded", json::number(0)},
                                           {"failed", json::number(0)},
                                           {"seconds", json::number(0)}};
  auto add = [&](const char* key, double v) {
    totals[key] = json::number(totals[key].number() + v);
  };
  add("sent", static_cast<double>(t.sent));
  add("succeeded", static_cast<double>(t.succeeded));
  add("failed", static_cast<double>(t.failed));
  add("seconds", t.seconds);
  phases_[phase] = json::object(std::move(totals));
}

/// The serve job. Construction loads the snapshot the first build wrote,
/// computes the reference answers with a single-threaded FamilyIndex and
/// starts the service; each slice sends an open loop, then a closed loop;
/// finish() checks every answer against the reference.
class Run::Serving {
 public:
  Serving(Run& run, const Built& built) : run_(run) {
    {
      Scope s(run_.log_, "store", "store.load_snapshot");
      store_ = store::load_snapshot(run_.path("families.gpfi"));
    }
    run_.check("build.snapshot_round_trip", store_ == built.store);

    const serve::FamilyIndex index(store_);
    const serve::ClassifyParams params;  // the service's default
    serve::ClassifyScratch scratch;
    reference_.reserve(run_.in_.queries.size());
    for (const std::string& q : run_.in_.queries) {
      if (!run_.trace_) {
        reference_.push_back(index.classify(q, params, scratch));
        continue;
      }
      serve::CandidateScores scores;
      {
        Scope s(run_.log_, "serve", "serve.score_candidates");
        scores = index.score_candidates(q, params, scratch);
      }
      Scope s(run_.log_, "serve", "serve.decide");
      reference_.push_back(index.decide(q, params, scores));
    }
    service_.emplace(store_,
                     service_config(run_.trace_ ? &tracer_ : nullptr));
  }

  void slice(std::size_t round) {
    TrafficResult open;
    TrafficResult closed;
    {
      Scope s(run_.log_, "serve", "serve.open_loop");
      open = run_open_loop(*service_, run_.in_.queries, kServeRate,
                           run_.plan_.open_s, run_.seed_ ^ (0x5e7e + round));
    }
    {
      Scope s(run_.log_, "serve", "serve.closed_loop");
      closed = run_closed_loop(*service_, run_.in_.queries,
                               kClosedLoopOutstanding, run_.plan_.closed_s,
                               run_.seed_ ^ (0xc105 + round));
    }
    run_.record_traffic("serve.open_loop", open);
    run_.record_traffic("serve.closed_loop", closed);
    run_.add_samples("query_ms", open.latency_ms);
    // Slices start on whole seconds of one closed-loop timeline, so no
    // throughput window spans two of them.
    for (double& t : closed.done_s) t += closed_clock_;
    run_.add_samples("closed_done_s", closed.done_s);
    closed_clock_ += std::ceil(closed.seconds);
    for (const TrafficResult* t : {&open, &closed}) {
      for (const Served& s : t->served) {
        if (s.outcome.rejected == serve::RejectReason::None) {
          answers_.push_back({s.query, s.outcome.result});
        }
      }
    }
  }

  void finish() {
    const serve::ServiceStats stats = service_->stats();
    service_.reset();
    bool match = true;
    std::size_t related = 0;
    std::size_t assigned = 0;
    double candidates = 0.0;
    double alignments = 0.0;
    for (const auto& [query, r] : answers_) {
      match = match && r == reference_[query];
      candidates += r.num_candidates;
      alignments += r.num_alignments;
      if (run_.in_.query_related[query] != 0) {
        ++related;
        if (r.outcome == serve::ClassifyOutcome::Assigned) ++assigned;
      }
    }
    run_.check("serve.results_match_reference", match && !answers_.empty());
    auto& values = run_.values_;
    values["query_assigned_frac"] =
        mean(static_cast<double>(assigned), related);
    values["serve.candidates_per_query"] = mean(candidates, answers_.size());
    values["serve.alignments_per_query"] = mean(alignments, answers_.size());
    values["serve.profile_hit_frac"] =
        mean(static_cast<double>(stats.profile_hits),
             stats.profile_hits + stats.profile_builds);
    double wait_s = 0.0;
    std::size_t waits = 0;
    for (const obs::TraceEvent& e : tracer_.events()) {
      if (e.name == "serve.wait") {
        wait_s += e.duration_seconds;
        ++waits;
      }
    }
    values["serve.wait_ms"] = 1e3 * mean(wait_s, waits);
  }

 private:
  Run& run_;
  store::FamilyStore store_;
  std::vector<serve::ClassifyResult> reference_;
  std::vector<std::pair<u32, serve::ClassifyResult>> answers_;
  double closed_clock_ = 0.0;
  obs::Tracer tracer_;
  std::optional<serve::QueryService> service_;  // uses store_ and tracer_
};

/// Stops and joins the stream generator on every exit path.
class StreamThread {
 public:
  explicit StreamThread(std::function<void(const std::atomic<bool>&)> body)
      : thread_([this, body = std::move(body)] { body(stop_); }) {}
  ~StreamThread() { stop(); }

  StreamThread(const StreamThread&) = delete;
  StreamThread& operator=(const StreamThread&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The append job. Construction ingests the base from scratch and starts
/// a service on the built store; each slice feeds tail batches of 1% of
/// the base through ingest_with_delta -> write_delta -> reload while a
/// stream of queries runs; finish() checks the delta chain on disk.
class Run::Appending {
 public:
  Appending(Run& run, const Built& built)
      : run_(run),
        ctx_(device::DeviceSpec::tesla_k20(), &run.pool_),
        session_(ingest_config(ctx_)),
        current_(built.store),
        batch_size_(std::max<std::size_t>(1, run.in_.base.size() / 100)),
        max_batches_(run.in_.tail.size() / batch_size_) {
    GPCLUST_CHECK(max_batches_ >= kRounds * run_.plan_.batches,
                  "tail too short");
    {
      Scope s(run_.log_, "ingest", "ingest.base");
      session_.ingest(run_.in_.base);
    }
    run_.check("append.base_matches_build", session_.store() == built.store);
    service_.emplace(built.store, service_config(nullptr));
  }

  void slice(std::size_t round) {
    TrafficResult stream;
    {
      StreamThread generator([&](const std::atomic<bool>& stop) {
        stream = run_open_loop(*service_, run_.in_.queries, kAppendRate, 1e9,
                               run_.seed_ ^ (0xa99e + round), &stop);
      });
      util::WallTimer window;
      for (std::size_t b = 0;
           batches_ < max_batches_ &&
           (b < run_.plan_.batches || window.seconds() < run_.plan_.append_s);
           ++b) {
        append_batch();
      }
    }
    run_.record_traffic("append.stream", stream);
    run_.add_samples("append_query_ms", stream.latency_ms);
  }

  void finish() {
    const u64 generation = service_->generation();
    service_.reset();
    auto& values = run_.values_;
    values["ingest.candidate_pairs"] = mean(pairs_, batches_);
    values["ingest.touched_frac"] = mean(touched_, batches_);
    values["store.delta_bytes"] = mean(delta_bytes_, batches_);
    run_.check("append.generation_is_batch_count", generation == batches_);
    run_.check("append.arena_empty", ctx_.arena().used() == 0);
    const store::DeltaChainTip tip =
        store::follow_delta_chain(run_.path("families.gpfi"));
    run_.check("append.chain_matches_session",
               tip.chain_length == batches_ &&
                   store::serialize_snapshot(tip.store) ==
                       store::serialize_snapshot(session_.store()));
  }

 private:
  void append_batch() {
    SpanLog& log = run_.log_;
    const auto first = run_.in_.tail.begin() +
                       static_cast<std::ptrdiff_t>(batches_ * batch_size_);
    const seq::SequenceSet batch(
        first, first + static_cast<std::ptrdiff_t>(batch_size_));
    const u64 link = ++batches_;
    util::WallTimer timer;
    ingest::IngestBatchStats stats;
    store::SnapshotDelta delta;
    {
      Scope s(log, "ingest", "ingest.ingest_with_delta");
      delta = session_.ingest_with_delta(batch, link, &stats);
      const double stages =
          stats.seed_host_s + stats.verify_host_s + stats.recluster_host_s;
      log.attribute("ingest", "ingest.seed", stats.seed_host_s);
      log.attribute("ingest", "ingest.verify", stats.verify_host_s);
      log.attribute("ingest", "ingest.recluster", stats.recluster_host_s);
      log.attribute("store", "store.delta_build", s.seconds() - stages);
    }
    const std::string delta_path =
        store::delta_chain_path(run_.path("families.gpfi"), link);
    {
      Scope s(log, "store", "store.write_delta");
      store::write_delta(delta, delta_path);
    }
    if (run_.trace_) {
      // reload_with_delta is apply_snapshot_delta + reload; split so the
      // store's share shows.
      {
        Scope s(log, "store", "store.apply_snapshot_delta");
        current_ = store::apply_snapshot_delta(current_, delta);
      }
      Scope s(log, "serve", "serve.reload");
      service_->reload(current_);
    } else {
      service_->reload_with_delta(delta);
    }
    run_.add_samples("append_visible_s", {timer.seconds()});
    ++run_.attempted_;
    pairs_ += static_cast<double>(stats.num_candidate_pairs);
    touched_ += stats.touched_fraction;
    delta_bytes_ += static_cast<double>(std::filesystem::file_size(delta_path));
  }

  Run& run_;
  device::DeviceContext ctx_;
  ingest::IngestSession session_;  // uses ctx_
  store::FamilyStore current_;     // traced: the bench applies the deltas
  std::size_t batch_size_;
  std::size_t max_batches_;
  std::size_t batches_ = 0;
  double pairs_ = 0.0;
  double touched_ = 0.0;
  double delta_bytes_ = 0.0;
  std::optional<serve::QueryService> service_;  // serves the built store
};

json::Value Run::execute() {
  in_ = make_inputs(shape_, seed_);

  // Traced: the single public calls, untraced, first. The stage
  // composition must reproduce their graph and partition, and their wall
  // is the baseline of the tracing overhead.
  std::optional<Built> reference;
  if (trace_) reference = build_plain(path("reference.gpfi"));

  const double wall_start = log_.now();
  const Built built = build_once();
  values_["device_modeled_s"] = built.device_makespan;
  values_["family_ppv"] = built.ppv;
  values_["family_se"] = built.sensitivity;
  {
    Serving serving(*this, built);
    Appending appending(*this, built);
    for (std::size_t round = 0; round < kRounds; ++round) {
      util::WallTimer window;
      if (round > 0) rebuild(built);
      while (window.seconds() < plan_.build_s) rebuild(built);
      serving.slice(round);
      appending.slice(round);
      resetup();
    }
    serving.finish();
    appending.finish();
  }
  const double wall_end = log_.now();

  if (reference) {
    check("build.trace_composition_matches",
          built.graph_digest == reference->graph_digest &&
              built.partition_digest == reference->partition_digest &&
              built.store == reference->store);
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  values_["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (reference) {
    values_["bench.trace_overhead_frac"] =
        median(samples_["traced_build_s"]) / reference->seconds - 1.0;
  }

  json::Object checks;
  for (const auto& [name, ok] : checks_) checks[name] = json::boolean(ok);
  json::Object samples;
  for (const auto& [name, v] : samples_) samples[name] = numbers(v);
  json::Object values;
  for (const auto& [name, v] : values_) values[name] = json::number(v);
  return json::object({
      {"workload", json::string(workload_)},
      {"seed", json::number(static_cast<double>(seed_))},
      {"trace", json::boolean(trace_)},
      {"orfs", json::number(static_cast<double>(in_.base.size() +
                                                in_.tail.size()))},
      {"checks", json::object(std::move(checks))},
      {"attempted", json::number(static_cast<double>(attempted_))},
      {"failed", json::number(static_cast<double>(failed_))},
      {"samples", json::object(std::move(samples))},
      {"values", json::object(std::move(values))},
      {"phases", json::object(phases_)},
      {"wall", json::object({{"start", json::number(wall_start)},
                             {"end", json::number(wall_end)}})},
      {"spans", log_.to_json()},
  });
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const gpclust::util::CliArgs args(argc, argv);
    const std::string out = args.get_string("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "perfbench: --out=PATH is required\n");
      return 2;
    }
    perfbench::Run run(args);
    const std::string doc = gpclust::obs::json::dump(run.execute());
    std::ofstream file(out);
    file << doc << "\n";
    file.close();
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
