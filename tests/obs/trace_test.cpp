// obs layer: span nesting, counter monotonicity, the host-measured /
// device-modeled domain separation (compile-time and runtime), and the
// chrome://tracing export schema — validated against a real pipeline run.

#include <gtest/gtest.h>

#include <set>

#include "core/gpclust.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gpclust::obs {
namespace {

// ---------------------------------------------------------------------------
// Domain typing: mixing measured and modeled seconds must not compile.
// ---------------------------------------------------------------------------

// (The checks go through dependent variable templates so an ill-formed
// mixed-domain expression is a SFINAE "false", not a hard error here.)
template <typename A, typename B>
constexpr bool kAddable = requires(A a, B b) { a + b; };
template <typename A, typename B>
constexpr bool kSubtractable = requires(A a, B b) { a - b; };
template <typename A, typename B>
constexpr bool kCompoundAddable = requires(A a, B b) { a += b; };
template <typename A, typename B>
constexpr bool kAssignable = requires(A a, B b) { a = b; };
template <typename A, typename B>
constexpr bool kComparable = requires(A a, B b) { a < b; };

static_assert(!kAddable<HostSeconds, ModeledSeconds>,
              "adding modeled seconds to measured seconds must be ill-formed");
static_assert(!kSubtractable<HostSeconds, ModeledSeconds>);
static_assert(!kCompoundAddable<HostSeconds, ModeledSeconds>);
static_assert(!kAssignable<HostSeconds&, ModeledSeconds>);
static_assert(!kComparable<HostSeconds, ModeledSeconds>);
static_assert(!kAddable<HostSeconds, double>,
              "strong seconds must not mix with raw doubles");
static_assert(kAddable<HostSeconds, HostSeconds>);
static_assert(kSubtractable<HostSeconds, HostSeconds>);
static_assert(kCompoundAddable<HostSeconds, HostSeconds>);
static_assert(kComparable<HostSeconds, HostSeconds>);
static_assert(kAddable<ModeledSeconds, ModeledSeconds>);

TEST(DomainTyping, SumOfRejectsMixedDomains) {
  std::vector<TraceEvent> events;
  events.push_back(
      {"load", "cpu", Domain::HostMeasured, 0.0, 1.0, 0, 0});
  events.push_back(
      {"pass1.kernel", "kernel", Domain::DeviceModeled, 0.0, 2.0, 0, 0});
  EXPECT_THROW(sum_of<Domain::HostMeasured>(events), InvalidArgument);
  EXPECT_THROW(sum_of<Domain::DeviceModeled>(events), InvalidArgument);

  events.pop_back();
  EXPECT_DOUBLE_EQ(sum_of<Domain::HostMeasured>(events).value, 1.0);
}

TEST(DomainTyping, Labels) {
  EXPECT_EQ(domain_label(Domain::HostMeasured), "host_measured");
  EXPECT_EQ(domain_label(Domain::DeviceModeled), "device_modeled");
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

TEST(Counters, AddAccumulatesAndRaiseIsMonotonic) {
  Tracer t;
  EXPECT_EQ(t.counter("tuples"), 0u);
  t.add_counter("tuples", 5);
  t.add_counter("tuples", 7);
  EXPECT_EQ(t.counter("tuples"), 12u);

  t.raise_counter("arena_peak_bytes", 100);
  t.raise_counter("arena_peak_bytes", 40);  // lower: high-water stays
  EXPECT_EQ(t.counter("arena_peak_bytes"), 100u);
  t.raise_counter("arena_peak_bytes", 150);
  EXPECT_EQ(t.counter("arena_peak_bytes"), 150u);

  const auto all = t.counters();
  EXPECT_EQ(all.at("tuples"), 12u);
  EXPECT_EQ(all.at("arena_peak_bytes"), 150u);
}

TEST(Counters, NullSafeHelpersAreNoOps) {
  add_counter(nullptr, "x", 1);
  raise_counter(nullptr, "x", 1);
  Tracer t;
  add_counter(&t, "x", 3);
  raise_counter(&t, "y", 9);
  EXPECT_EQ(t.counter("x"), 3u);
  EXPECT_EQ(t.counter("y"), 9u);
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

TEST(Spans, RaiiHostSpansRecordNestingDepth) {
  Tracer t;
  {
    HostSpan outer(&t, "phase");
    { HostSpan inner(&t, "phase.step"); }
  }
  { HostSpan other(&t, "other"); }

  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  // Inner spans close (and record) before their parents.
  EXPECT_EQ(evs[0].name, "phase.step");
  EXPECT_EQ(evs[0].depth, 1);
  EXPECT_EQ(evs[1].name, "phase");
  EXPECT_EQ(evs[1].depth, 0);
  EXPECT_EQ(evs[2].name, "other");
  EXPECT_EQ(evs[2].depth, 0);
  for (const TraceEvent& e : evs) {
    EXPECT_EQ(e.domain, Domain::HostMeasured);
    EXPECT_EQ(e.category, "cpu");
    EXPECT_GE(e.duration_seconds, 0.0);
  }
}

TEST(Spans, NullTracerSpansAreNoOps) {
  HostSpan span(nullptr, "ignored");
  DevicePhaseScope scope(nullptr, "ignored");
}

TEST(Spans, HostBusySumsOnlyDepthZeroSpans) {
  Tracer t;
  t.record_host_span("pass1", 0.0, 10.0, 0);
  t.record_host_span("pass1.stage", 1.0, 4.0, 1);  // nested detail
  t.record_host_span("report", 10.0, 2.0, 0);
  EXPECT_DOUBLE_EQ(t.host_busy().value, 12.0);
}

TEST(Spans, HostTotalMatchesPhasePrefixExactly) {
  Tracer t;
  t.record_host_span("pass1.stage", 0.0, 1.0, 0);
  t.record_host_span("pass1.consume", 1.0, 2.0, 0);
  t.record_host_span("pass10", 3.0, 100.0, 0);  // NOT phase "pass1"
  EXPECT_DOUBLE_EQ(t.host_total("pass1").value, 3.0);
  EXPECT_DOUBLE_EQ(t.host_total("pass10").value, 100.0);
}

TEST(Spans, ModeledOpsAreAttributedToTheDevicePhase) {
  Tracer t;
  t.record_modeled_op("kernel", 0.0, 1.5, /*stream=*/0);  // no phase set
  {
    DevicePhaseScope scope(&t, "pass1");
    t.record_modeled_op("kernel", 1.5, 2.0, 0);
    t.record_modeled_op("copy_h2d", 0.0, 0.5, 1);
    {
      DevicePhaseScope nested(&t, "aggregate1");
      t.record_modeled_op("copy_d2h", 3.5, 0.25, 1);
    }
    EXPECT_EQ(t.device_phase(), "pass1");  // restored by the nested scope
  }
  EXPECT_EQ(t.device_phase(), "");

  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].name, "kernel");
  EXPECT_EQ(evs[1].name, "pass1.kernel");
  EXPECT_EQ(evs[2].name, "pass1.copy_h2d");
  EXPECT_EQ(evs[2].track, 1u);
  EXPECT_EQ(evs[3].name, "aggregate1.copy_d2h");

  EXPECT_DOUBLE_EQ(t.modeled_busy().value, 4.25);
  EXPECT_DOUBLE_EQ(t.modeled_total("pass1").value, 2.5);
  EXPECT_DOUBLE_EQ(t.modeled_category_total("kernel").value, 3.5);
  EXPECT_DOUBLE_EQ(t.modeled_category_total("copy_h2d").value, 0.5);
  // Modeled ops never leak into the measured aggregate (and vice versa).
  EXPECT_DOUBLE_EQ(t.host_busy().value, 0.0);
}

// ---------------------------------------------------------------------------
// Chrome trace schema, validated on a real pipeline run.
// ---------------------------------------------------------------------------

graph::CsrGraph schema_test_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 8;
  cfg.min_family_size = 5;
  cfg.max_family_size = 16;
  cfg.num_singletons = 6;
  cfg.seed = 42;
  return graph::generate_planted_families(cfg).graph;
}

TEST(ChromeTrace, PipelineRunEmitsLabeledSchemaValidTrace) {
  const auto g = schema_test_graph();
  core::ShinglingParams params;
  params.c1 = 12;
  params.c2 = 6;

  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  Tracer tracer;
  core::GpClustOptions options;
  options.max_batch_elements = 64;  // force several batches
  options.tracer = &tracer;
  core::GpClust(ctx, params, options).cluster(g);

  // Every pipeline phase shows up in the trace.
  std::set<std::string> phases;
  for (const TraceEvent& e : tracer.events()) {
    phases.insert(std::string(e.name.substr(0, e.name.find('.'))));
  }
  for (const char* phase :
       {"pass1", "aggregate1", "dedup", "pass2", "aggregate2", "report"}) {
    EXPECT_TRUE(phases.contains(phase)) << "missing phase " << phase;
  }

  // Trace closure for the shingling passes: besides staging and consuming,
  // the host's emulation of the device kernels and each batch's commit are
  // depth-0 host spans, so no pass time goes unattributed.
  std::set<std::string> host_spans;
  for (const TraceEvent& e : tracer.events()) {
    if (e.domain == Domain::HostMeasured && e.depth == 0) {
      host_spans.insert(e.name);
    }
  }
  for (const char* phase : {"pass1", "pass2"}) {
    for (const char* step : {".stage", ".emulate", ".consume", ".commit"}) {
      EXPECT_TRUE(host_spans.contains(std::string(phase) + step))
          << "missing host span " << phase << step;
    }
  }

  // The pipeline counters advanced.
  EXPECT_EQ(tracer.counter("sequences"), g.num_vertices());
  for (const char* counter :
       {"tuples", "shingles", "batches", "h2d_bytes", "d2h_bytes",
        "arena_peak_bytes", "pass1.tuples", "pass2.tuples", "pass2.lists",
        "pass1.d2h_bytes", "pass2.d2h_bytes", "g1.shingles", "g2.shingles"}) {
    EXPECT_GT(tracer.counter(counter), 0u) << "counter " << counter;
  }
  // The per-pass counters split the summed ones.
  EXPECT_EQ(tracer.counter("tuples"),
            tracer.counter("pass1.tuples") + tracer.counter("pass2.tuples"));
  EXPECT_EQ(tracer.counter("shingles"),
            tracer.counter("g1.shingles") + tracer.counter("g2.shingles"));
  EXPECT_EQ(tracer.counter("d2h_bytes"), tracer.counter("pass1.d2h_bytes") +
                                             tracer.counter("pass2.d2h_bytes"));
  // Pass 2 emits one tuple per trial for each list it shingles.
  EXPECT_EQ(tracer.counter("pass2.tuples"),
            std::size_t{params.c2} * tracer.counter("pass2.lists"));

  // Parse the export and check the schema: every span is a complete ("X")
  // event labeled host_measured or device_modeled, on the matching pid.
  const auto doc = json::parse(chrome_trace_json(tracer));
  const auto& events = doc.at("traceEvents").array();
  std::size_t complete = 0, counters_seen = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").string();
    if (ph == "M") continue;
    if (ph == "C") {
      ++counters_seen;
      EXPECT_GE(e.at("args").at("value").number(), 0.0);
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_FALSE(e.at("name").string().empty());
    EXPECT_GE(e.at("ts").number(), 0.0);
    EXPECT_GE(e.at("dur").number(), 0.0);
    const std::string& domain = e.at("args").at("domain").string();
    const bool host = domain == "host_measured";
    EXPECT_TRUE(host || domain == "device_modeled") << domain;
    EXPECT_DOUBLE_EQ(e.at("pid").number(), host ? 0.0 : 1.0);
  }
  EXPECT_EQ(complete, tracer.num_events());
  EXPECT_EQ(counters_seen, tracer.counters().size());

  // The plain-text summary carries both labeled columns.
  const std::string summary = tracer.summary();
  EXPECT_NE(summary.find("host measured (s)"), std::string::npos);
  EXPECT_NE(summary.find("device modeled (s)"), std::string::npos);
  EXPECT_NE(summary.find("counters:"), std::string::npos);
}

TEST(ChromeTrace, TracingDoesNotChangeTheClustering) {
  const auto g = schema_test_graph();
  core::ShinglingParams params;
  params.c1 = 12;
  params.c2 = 6;

  device::DeviceContext ctx1(device::DeviceSpec::small_test_device(4 << 20));
  auto untraced = core::GpClust(ctx1, params).cluster(g);

  device::DeviceContext ctx2(device::DeviceSpec::small_test_device(4 << 20));
  Tracer tracer;
  core::GpClustOptions options;
  options.tracer = &tracer;
  auto traced = core::GpClust(ctx2, params, options).cluster(g);

  untraced.normalize();
  traced.normalize();
  EXPECT_EQ(untraced.digest(), traced.digest());
  EXPECT_GT(tracer.num_events(), 0u);
}

// ---------------------------------------------------------------------------
// The bundled JSON parser itself.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const auto v = json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "c": null, "s": "x\ny"})");
  EXPECT_DOUBLE_EQ(v.at("a").array()[0].number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("a").array()[2].number(), -300.0);
  EXPECT_TRUE(v.at("b").at("nested").boolean());
  EXPECT_TRUE(v.at("c").is_null());
  EXPECT_EQ(v.at("s").string(), "x\ny");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("missing"));
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("[1,]"), ParseError);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(json::parse("nul"), ParseError);
  const auto v = json::parse("[0]");
  EXPECT_THROW(v.at("key"), ParseError);       // not an object
  EXPECT_THROW(v.array()[0].string(), ParseError);  // wrong kind
}

}  // namespace
}  // namespace gpclust::obs
