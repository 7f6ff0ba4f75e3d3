// Tests for the observability subsystem (src/obs): JSON round-tripping,
// the Chrome trace-event layer, the sharded metrics registry, and — the
// load-bearing guarantee — that tracing a chase never changes its result.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/failpoint.h"
#include "base/vocabulary.h"
#include "base/worker_pool.h"
#include "catalog/instances.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "obs/bench_compare.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

// Binary-wide allocation counter for the dispatch test below: the
// replacement operator new counts while the flag is up.  Everything else
// behaves exactly like the default allocator, so the override is inert for
// the rest of the suite.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocation_count{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a new/delete
// mismatch; the pairing is correct (the replaced operator new above is
// malloc-based too).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// The nothrow form (std::stable_partition's temporary buffer) must come
// from the same malloc as the deletes below, or sanitizer builds report an
// alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace frontiers {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- JSON parser -----------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  Result<obs::JsonValue> v = obs::ParseJson(
      R"({"a": [1, 2.5, -3e2], "b": "x\nyA", "c": true, "d": null})");
  ASSERT_TRUE(v.ok()) << v.message();
  const obs::JsonValue& root = v.value();
  ASSERT_TRUE(root.IsObject());
  const obs::JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  const obs::JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string, "x\nyA");
  EXPECT_TRUE(root.Find("c")->boolean);
  EXPECT_TRUE(root.Find("d")->IsNull());
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2",
                          "\"unterminated", "{\"a\":1,}"}) {
    EXPECT_FALSE(obs::ParseJson(bad).ok()) << bad;
  }
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
  std::string doc = "{\"k\":\"" + obs::JsonEscape(nasty) + "\"}";
  Result<obs::JsonValue> v = obs::ParseJson(doc);
  ASSERT_TRUE(v.ok()) << v.message();
  EXPECT_EQ(v.value().Find("k")->string, nasty);
}

TEST(Json, DeepNestingParsesUpToTheLimitAndNoFurther) {
  // 90 levels: inside the parser's depth cap (96), must parse.
  std::string deep;
  for (int i = 0; i < 90; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 90; ++i) deep += ']';
  EXPECT_TRUE(obs::ParseJson(deep).ok());

  // 200 levels: over the cap — rejected with an error, never a stack
  // overflow (the validator reads arbitrary files).
  std::string too_deep;
  for (int i = 0; i < 200; ++i) too_deep += "{\"k\":";
  too_deep += "1";
  for (int i = 0; i < 200; ++i) too_deep += '}';
  Result<obs::JsonValue> rejected = obs::ParseJson(too_deep);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("deep"), std::string::npos);
}

TEST(Json, UnicodeEscapesIncludingSurrogatePairs) {
  // BMP code points decode to 1-3 UTF-8 bytes.
  EXPECT_EQ(obs::ParseJson("\"\\u0041\"").value().string, "A");
  EXPECT_EQ(obs::ParseJson("\"\\u00e9\"").value().string, "\xC3\xA9");
  EXPECT_EQ(obs::ParseJson("\"\\u20AC\"").value().string, "\xE2\x82\xAC");
  // A surrogate pair combines into one 4-byte code point (U+1F600).
  EXPECT_EQ(obs::ParseJson("\"\\ud83d\\ude00\"").value().string,
            "\xF0\x9F\x98\x80");
  // Malformed surrogate uses are rejected, not passed through.
  for (const char* bad : {
           "\"\\ud83d\"",         // lone high surrogate
           "\"\\ud83dxy\"",       // high surrogate, then plain characters
           "\"\\ud83d\\n\"",      // high surrogate, then a non-\u escape
           "\"\\ud83d\\u0041\"",  // high surrogate, then a non-surrogate
           "\"\\ude00\"",         // lone low surrogate
           "\"\\u12\"",           // truncated hex
           "\"\\u12g4\"",         // bad hex digit
       }) {
    EXPECT_FALSE(obs::ParseJson(bad).ok()) << bad;
  }
}

TEST(Json, NumbersAtDoublePrecisionLimits) {
  struct Case {
    const char* text;
    double want;
  };
  for (const Case& c : {
           Case{"1e308", 1e308},
           Case{"-1.7976931348623157e308", -1.7976931348623157e308},
           Case{"5e-324", 5e-324},  // smallest subnormal
           Case{"9007199254740993", 9007199254740992.0},  // 2^53+1 rounds
           Case{"0.1", 0.1},
           Case{"-0", 0.0},
       }) {
    Result<obs::JsonValue> v = obs::ParseJson(c.text);
    ASSERT_TRUE(v.ok()) << c.text;
    EXPECT_DOUBLE_EQ(v.value().number, c.want) << c.text;
  }
  // Overflowing literals become inf — strtod semantics, not an error.
  Result<obs::JsonValue> inf = obs::ParseJson("1e309");
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf(inf.value().number));
}

TEST(Json, EveryTruncationOfAValidDocumentIsRejected) {
  const std::string doc =
      R"({"a":[1,2.5,{"b":"x\u0041\ud83d\ude00","c":[true,null]}],"d":-3e2})";
  ASSERT_TRUE(obs::ParseJson(doc).ok());
  for (size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(obs::ParseJson(doc.substr(0, len)).ok())
        << "prefix of length " << len << " parsed: " << doc.substr(0, len);
  }
}

// --- trace layer -----------------------------------------------------------

TEST(Trace, DisabledByDefault) {
  EXPECT_FALSE(obs::TracingEnabled());
  EXPECT_FALSE(obs::TraceSession::Active());
  // Spans and instants outside a session are no-ops, not errors.
  obs::Span span("no-session", "test");
  obs::TraceInstant("no-session", "test");
  EXPECT_FALSE(obs::TraceSession::Stop().ok());
}

TEST(Trace, NestedAndThreadedSpansProduceValidChromeJson) {
  const std::string path = testing::TempDir() + "obs_trace_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::TraceSession::Start(path).ok());
  ASSERT_TRUE(obs::TraceSession::Active());
  EXPECT_FALSE(obs::TraceSession::Start(path).ok()) << "one session at a time";
  {
    obs::Span outer("outer", "test");
    {
      obs::Span inner("inner", "test");
    }
    obs::TraceInstant("marker", "test");
  }
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("worker", "test");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_TRUE(obs::TraceSession::Stop().ok());
  EXPECT_FALSE(obs::TracingEnabled());

  Result<obs::JsonValue> parsed = obs::ParseJson(ReadAll(path));
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());

  size_t outer_count = 0, worker_count = 0, marker_count = 0;
  double outer_start = 0, outer_end = 0, inner_start = 0, inner_end = 0;
  for (const obs::JsonValue& event : events->array) {
    ASSERT_TRUE(event.IsObject());
    for (const char* key : {"name", "ph", "pid", "tid"}) {
      EXPECT_TRUE(event.Has(key)) << "event missing " << key;
    }
    const std::string& ph = event.Find("ph")->string;
    if (ph == "M") continue;  // process_name metadata
    ASSERT_TRUE(event.Has("ts"));
    EXPECT_GE(event.Find("ts")->number, 0.0) << "timestamps are rebased";
    const std::string& name = event.Find("name")->string;
    if (ph == "X") {
      ASSERT_TRUE(event.Has("dur"));
      EXPECT_GE(event.Find("dur")->number, 0.0);
      double start = event.Find("ts")->number;
      double end = start + event.Find("dur")->number;
      if (name == "outer") {
        ++outer_count;
        outer_start = start;
        outer_end = end;
      } else if (name == "inner") {
        inner_start = start;
        inner_end = end;
      } else if (name == "worker") {
        ++worker_count;
      }
    } else {
      ASSERT_EQ(ph, "i");
      if (name == "marker") ++marker_count;
    }
  }
  EXPECT_EQ(outer_count, 1u);
  EXPECT_EQ(worker_count, size_t{kThreads} * kSpansPerThread);
  EXPECT_EQ(marker_count, 1u);
  // RAII nesting shows up as interval containment.
  EXPECT_LE(outer_start, inner_start);
  EXPECT_GE(outer_end, inner_end);
  std::remove(path.c_str());
}

TEST(Trace, MinDurationFilterDropsShortSpans) {
  const std::string path = testing::TempDir() + "obs_trace_filter.json";
  std::remove(path.c_str());
  obs::TraceOptions options;
  options.min_duration_us = 60'000'000;  // one minute: drops everything
  ASSERT_TRUE(obs::TraceSession::Start(path, options).ok());
  for (int i = 0; i < 100; ++i) {
    obs::Span span("short", "test");
  }
  obs::TraceInstant("kept", "test");  // instants bypass the filter
  ASSERT_TRUE(obs::TraceSession::Stop().ok());
  Result<obs::JsonValue> parsed = obs::ParseJson(ReadAll(path));
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  size_t spans = 0, instants = 0;
  for (const obs::JsonValue& event :
       parsed.value().Find("traceEvents")->array) {
    const std::string& ph = event.Find("ph")->string;
    if (ph == "X") ++spans;
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(spans, 0u);
  EXPECT_EQ(instants, 1u);
  std::remove(path.c_str());
}

// --- profiler --------------------------------------------------------------

const obs::ProfileNode* FindChild(const obs::ProfileNode& node,
                                  const std::string& name) {
  for (const obs::ProfileNode& child : node.children) {
    if (child.name == name) return &child;
  }
  return nullptr;
}

TEST(Profiler, DisabledByDefaultAndStopWithoutStartFails) {
  EXPECT_FALSE(obs::ProfilingEnabled());
  EXPECT_FALSE(obs::ProfileSession::Active());
  {
    obs::Span span("unprofiled", "test");  // no-op, not an error
  }
  EXPECT_FALSE(obs::ProfileSession::Stop().ok());
}

TEST(Profiler, AggregatesSpansIntoCallTreeWithCountsAndTimes) {
  ASSERT_TRUE(obs::ProfileSession::Start().ok());
  EXPECT_TRUE(obs::ProfilingEnabled());
  EXPECT_FALSE(obs::ProfileSession::Start().ok()) << "one session at a time";
  constexpr int kInner = 5;
  {
    obs::Span outer("prof.outer", "test");
    for (int i = 0; i < kInner; ++i) {
      obs::Span inner("prof.inner", "test");
    }
  }
  {
    obs::Span outer("prof.outer", "test");  // second invocation, same path
  }
  Result<obs::ProfileReport> report = obs::ProfileSession::Stop();
  ASSERT_TRUE(report.ok()) << report.message();
  EXPECT_FALSE(obs::ProfilingEnabled());

  const obs::ProfileNode& root = report.value().root;
  EXPECT_EQ(report.value().threads, 1u);
  const obs::ProfileNode* outer = FindChild(root, "prof.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);
  const obs::ProfileNode* inner = FindChild(*outer, "prof.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, static_cast<uint64_t>(kInner));
  // Inclusive wall time covers the children; self time is the remainder.
  EXPECT_GE(outer->wall_ns, inner->wall_ns);
  EXPECT_EQ(outer->SelfWallNanos(), outer->wall_ns - inner->wall_ns);
  // The synthetic root sums its children.
  EXPECT_GE(root.wall_ns, outer->wall_ns);

  const std::string text = report.value().ToString();
  for (const char* needle :
       {"# frontiers profile:", "wall_ms", "prof.outer", "prof.inner"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
  // Folded output spells the stack path with ';' separators.
  const std::string folded = report.value().ToFolded();
  if (inner->SelfWallNanos() >= 1000) {
    EXPECT_NE(folded.find("prof.outer;prof.inner "), std::string::npos)
        << folded;
  }
}

TEST(Profiler, MergesThreadsAndCountsThem) {
  ASSERT_TRUE(obs::ProfileSession::Start().ok());
  constexpr int kThreads = 4;
  constexpr int kSpans = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::Span span("prof.worker", "test");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  Result<obs::ProfileReport> report = obs::ProfileSession::Stop();
  ASSERT_TRUE(report.ok()) << report.message();
  EXPECT_EQ(report.value().threads, static_cast<size_t>(kThreads));
  const obs::ProfileNode* worker =
      FindChild(report.value().root, "prof.worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, uint64_t{kThreads} * kSpans)
      << "same-path frames from different threads merge into one node";
}

TEST(Profiler, DepthCapFoldsFramesButStaysBalanced) {
  obs::ProfileOptions options;
  options.max_depth = 2;
  ASSERT_TRUE(obs::ProfileSession::Start(options).ok());
  {
    obs::Span a("prof.a", "test");
    obs::Span b("prof.b", "test");
    obs::Span c("prof.c", "test");  // over the cap: folded into prof.b
    obs::Span d("prof.d", "test");  // also folded
  }
  {
    obs::Span a("prof.a", "test");  // the stack unwound fully: records again
  }
  Result<obs::ProfileReport> report = obs::ProfileSession::Stop();
  ASSERT_TRUE(report.ok()) << report.message();
  EXPECT_EQ(report.value().folded_frames, 2u);
  const obs::ProfileNode* a = FindChild(report.value().root, "prof.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 2u);
  const obs::ProfileNode* b = FindChild(*a, "prof.b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(FindChild(*b, "prof.c"), nullptr) << "folded frames grow no nodes";
  const std::string text = report.value().ToString();
  EXPECT_NE(text.find("depth-folded"), std::string::npos) << text;
}

// Structural skeleton of a top-down report: the indented span names, with
// the (run-varying) timing columns stripped.  RenderNode's fixed-width
// prefix is 45 characters.
std::vector<std::string> TopDownStructure(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line.size() > 45 ? line.substr(45) : line);
  }
  return out;
}

// Stack paths of a folded report, with the sample values stripped.
std::vector<std::string> FoldedPaths(const std::string& folded) {
  std::vector<std::string> out;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    size_t space = line.rfind(' ');
    out.push_back(space == std::string::npos ? line : line.substr(0, space));
  }
  return out;
}

// One profiled workload for the determinism test: a single-chain call tree
// whose leaf name arrives through two *distinct* equal-text buffers, so
// content keying (not pointer identity) decides the tree shape.  Each
// frame spins briefly so every node has non-zero self time and therefore a
// line in the folded output.
obs::ProfileReport DeterminismWorkload() {
  auto spin = [] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  static const char kLeafA[] = "prof.det.leaf";
  static const char kLeafB[] = "prof.det.leaf";  // equal text, distinct array
  EXPECT_TRUE(obs::ProfileSession::Start().ok());
  {
    obs::Span outer("prof.det.outer", "test");
    spin();
    obs::Span mid("prof.det.mid", "test");
    spin();
    {
      obs::Span leaf(kLeafA, "test");
      spin();
    }
    {
      obs::Span leaf(kLeafB, "test");
      spin();
    }
  }
  Result<obs::ProfileReport> report = obs::ProfileSession::Stop();
  EXPECT_TRUE(report.ok()) << report.message();
  return report.value();
}

TEST(Profiler, IdenticalRunsRenderIdenticalStructure) {
  const obs::ProfileReport first = DeterminismWorkload();
  const obs::ProfileReport second = DeterminismWorkload();

  // Equal-text names through different pointers land in one node.
  const obs::ProfileNode* outer = FindChild(first.root, "prof.det.outer");
  ASSERT_NE(outer, nullptr);
  const obs::ProfileNode* mid = FindChild(*outer, "prof.det.mid");
  ASSERT_NE(mid, nullptr);
  ASSERT_EQ(mid->children.size(), 1u)
      << "distinct buffers with equal text must share one child node";
  EXPECT_EQ(mid->children[0].name, "prof.det.leaf");
  EXPECT_EQ(mid->children[0].count, 2u);

  // Two identical runs produce the same top-down and folded skeleton
  // (times differ; names, nesting, and order must not).
  EXPECT_EQ(TopDownStructure(first.ToString()),
            TopDownStructure(second.ToString()));
  EXPECT_EQ(FoldedPaths(first.ToFolded()), FoldedPaths(second.ToFolded()));
  EXPECT_EQ(FoldedPaths(first.ToFolded()),
            (std::vector<std::string>{"prof.det.outer",
                                      "prof.det.outer;prof.det.mid",
                                      "prof.det.outer;prof.det.mid;"
                                      "prof.det.leaf"}));
}

// --- metrics registry ------------------------------------------------------

TEST(Metrics, CounterAggregatesAcrossThreadsLikeSerialOracle) {
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("test.adds");
  obs::Counter& weighted = registry.GetCounter("test.weighted");
  constexpr int kThreads = 8;
  constexpr int kIterations = 20'000;
  // Serial oracle.
  uint64_t oracle_adds = 0, oracle_weighted = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIterations; ++i) {
      oracle_adds += 1;
      oracle_weighted += static_cast<uint64_t>(i % 7);
    }
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &weighted] {
      for (int i = 0; i < kIterations; ++i) {
        counter.Add();
        weighted.Add(static_cast<uint64_t>(i % 7));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.Value(), oracle_adds);
  EXPECT_EQ(weighted.Value(), oracle_weighted);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("test.adds"), oracle_adds);
  EXPECT_EQ(snapshot.counters.at("test.weighted"), oracle_weighted);

  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u) << "handles survive Reset()";
  counter.Add(5);
  EXPECT_EQ(counter.Value(), 5u);
}

TEST(Metrics, GetReturnsSameHandleAndGaugeStoresDoubles) {
  obs::Registry registry;
  EXPECT_EQ(&registry.GetCounter("same"), &registry.GetCounter("same"));
  obs::Gauge& gauge = registry.GetGauge("test.gauge");
  gauge.Set(3.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.25);
  gauge.Set(-0.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges.at("test.gauge"), -0.5);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Registry registry;
  obs::Histogram& hist =
      registry.GetHistogram("test.hist", {1.0, 2.0, 4.0});
  // One observation per interesting position: below, exactly on each
  // bound, between bounds, above the last bound.
  for (double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) hist.Observe(v);
  obs::HistogramData data = hist.Data();
  ASSERT_EQ(data.bounds.size(), 3u);
  ASSERT_EQ(data.counts.size(), 4u);
  EXPECT_EQ(data.counts[0], 2u);  // 0.5, 1.0   (v <= 1)
  EXPECT_EQ(data.counts[1], 2u);  // 1.5, 2.0   (1 < v <= 2)
  EXPECT_EQ(data.counts[2], 1u);  // 4.0        (2 < v <= 4)
  EXPECT_EQ(data.counts[3], 1u);  // 5.0        (v > 4)
  EXPECT_EQ(data.total_count, 6u);
  EXPECT_DOUBLE_EQ(data.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
}

TEST(Metrics, HistogramConcurrentObservationsMatchSerialOracle) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram("test.conc", {0.25, 0.5, 0.75});
  constexpr int kThreads = 8;
  constexpr int kIterations = 10'000;
  uint64_t oracle_counts[4] = {0, 0, 0, 0};
  double oracle_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIterations; ++i) {
      double v = static_cast<double>(i % 100) / 100.0;
      oracle_sum += v;
      if (v <= 0.25) {
        ++oracle_counts[0];
      } else if (v <= 0.5) {
        ++oracle_counts[1];
      } else if (v <= 0.75) {
        ++oracle_counts[2];
      } else {
        ++oracle_counts[3];
      }
    }
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist] {
      for (int i = 0; i < kIterations; ++i) {
        hist.Observe(static_cast<double>(i % 100) / 100.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  obs::HistogramData data = hist.Data();
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(data.counts[b], oracle_counts[b]) << "bucket " << b;
  }
  EXPECT_EQ(data.total_count, uint64_t{kThreads} * kIterations);
  EXPECT_NEAR(data.sum, oracle_sum, 1e-6 * oracle_sum);
}

TEST(Metrics, SnapshotToStringNamesEveryMetric) {
  obs::Registry registry;
  registry.GetCounter("test.c").Add(7);
  registry.GetGauge("test.g").Set(1.5);
  registry.GetHistogram("test.h", {1.0}).Observe(0.5);
  std::string text = registry.Snapshot().ToString();
  for (const char* needle : {"test.c", "test.g", "test.h", "7"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
}

TEST(Metrics, SnapshotToJsonRoundTripsThroughOwnParser) {
  obs::Registry registry;
  registry.GetCounter("test.counter").Add(42);
  registry.GetGauge("test.gauge").Set(-2.5);
  obs::Histogram& hist = registry.GetHistogram("test.hist", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(100.0);

  Result<obs::JsonValue> parsed =
      obs::ParseJson(registry.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("schema")->string, "frontiers-metrics-v1");
  EXPECT_DOUBLE_EQ(
      root.Find("counters")->Find("test.counter")->number, 42.0);
  EXPECT_DOUBLE_EQ(root.Find("gauges")->Find("test.gauge")->number, -2.5);
  const obs::JsonValue* h = root.Find("histograms")->Find("test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(h->Find("sum")->number, 105.5);
  ASSERT_EQ(h->Find("bounds")->array.size(), 2u);
  ASSERT_EQ(h->Find("counts")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(h->Find("counts")->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(h->Find("counts")->array[1].number, 1.0);
  EXPECT_DOUBLE_EQ(h->Find("counts")->array[2].number, 1.0);
}

// --- chase heartbeat -------------------------------------------------------

TEST(Heartbeat, ToJsonLineRoundTripsWithNullsAndValues) {
  ChaseHeartbeat beat;
  beat.round = 7;
  beat.facts = 1234;
  beat.facts_per_second = 100.5;
  beat.bytes = 4096;
  beat.elapsed_seconds = 1.25;
  // Defaults: no budget, no ETA, no stop — all three must render as null.
  Result<obs::JsonValue> parsed = obs::ParseJson(beat.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("schema")->string, "frontiers-heartbeat-v1");
  EXPECT_DOUBLE_EQ(root.Find("round")->number, 7.0);
  EXPECT_DOUBLE_EQ(root.Find("facts")->number, 1234.0);
  EXPECT_DOUBLE_EQ(root.Find("facts_per_sec")->number, 100.5);
  EXPECT_DOUBLE_EQ(root.Find("bytes")->number, 4096.0);
  EXPECT_DOUBLE_EQ(root.Find("elapsed_seconds")->number, 1.25);
  EXPECT_TRUE(root.Find("budget_remaining_seconds")->IsNull());
  EXPECT_TRUE(root.Find("eta_seconds")->IsNull());
  EXPECT_TRUE(root.Find("stop")->IsNull());

  beat.budget_remaining_seconds = 10.0;
  beat.eta_seconds = 3.5;
  beat.stop = "fixpoint";
  Result<obs::JsonValue> full = obs::ParseJson(beat.ToJsonLine());
  ASSERT_TRUE(full.ok()) << full.message();
  EXPECT_DOUBLE_EQ(full.value().Find("budget_remaining_seconds")->number,
                   10.0);
  EXPECT_DOUBLE_EQ(full.value().Find("eta_seconds")->number, 3.5);
  EXPECT_EQ(full.value().Find("stop")->string, "fixpoint");
}

TEST(Heartbeat, ChaseEmitsPeriodicAndFinalHeartbeats) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", 8, "a");
  ChaseOptions options;
  options.max_rounds = 16;
  options.max_atoms = 200'000;
  options.filter = TdWitnessStrategy(vocab, td);
  options.heartbeat_seconds = 1e-9;  // fires at every round boundary
  std::vector<ChaseHeartbeat> beats;
  options.heartbeat_sink = [&beats](const ChaseHeartbeat& beat) {
    beats.push_back(beat);
  };
  ChaseEngine engine(vocab, td);
  ChaseResult result = engine.Run(db, options);
  ASSERT_GE(beats.size(), 2u) << "per-round beats plus the final one";
  // All but the last are periodic (no stop); the last reports the stop.
  for (size_t i = 0; i + 1 < beats.size(); ++i) {
    EXPECT_EQ(beats[i].stop, nullptr) << "beat " << i;
    if (i > 0) {
      EXPECT_GE(beats[i].round, beats[i - 1].round);
    }
    EXPECT_GE(beats[i].elapsed_seconds, 0.0);
  }
  const ChaseHeartbeat& final_beat = beats.back();
  ASSERT_NE(final_beat.stop, nullptr);
  EXPECT_STREQ(final_beat.stop, ChaseStopName(result.stop));
  EXPECT_EQ(final_beat.round, result.complete_rounds);
  EXPECT_EQ(final_beat.facts, result.facts.size());
  EXPECT_EQ(final_beat.bytes, result.approx_bytes);
  // Every beat's JSON form parses and carries the schema tag.
  for (const ChaseHeartbeat& beat : beats) {
    Result<obs::JsonValue> parsed = obs::ParseJson(beat.ToJsonLine());
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    EXPECT_EQ(parsed.value().Find("schema")->string,
              "frontiers-heartbeat-v1");
  }
}

TEST(Heartbeat, EtaIsMinimumOverActiveBudgets) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", 8, "a");
  ChaseOptions options;
  options.max_rounds = 16;
  options.filter = TdWitnessStrategy(vocab, td);
  options.heartbeat_seconds = 1e-9;  // fires at every round boundary
  // A generous deadline plus a huge atom budget: the deadline's remaining
  // time is the binding estimate, so eta_seconds must never exceed it.
  options.deadline_seconds = 3600.0;
  options.max_atoms = 100'000'000;
  std::vector<ChaseHeartbeat> beats;
  options.heartbeat_sink = [&beats](const ChaseHeartbeat& beat) {
    beats.push_back(beat);
  };
  ChaseEngine engine(vocab, td);
  engine.Run(db, options);
  ASSERT_GE(beats.size(), 1u);
  for (size_t i = 0; i < beats.size(); ++i) {
    const ChaseHeartbeat& beat = beats[i];
    ASSERT_GE(beat.budget_remaining_seconds, 0.0) << "beat " << i;
    // The deadline is always an active budget, so an ETA exists and is
    // bounded by the remaining deadline time (up to clock skew between
    // the two reads).
    ASSERT_GE(beat.eta_seconds, 0.0) << "beat " << i;
    EXPECT_LE(beat.eta_seconds, beat.budget_remaining_seconds + 0.5)
        << "beat " << i;
  }
}

// --- bench comparison (tools/bench_diff's engine) --------------------------

std::string BenchLine(const std::string& name, double seconds,
                      const std::string& experiment = "exp_x",
                      const std::string& metric = "real_time") {
  return "{\"schema\":\"frontiers-bench-v1\",\"experiment\":\"" + experiment +
         "\",\"build\":\"test\",\"section\":\"s\",\"params\":{\"name\":\"" +
         name + "\"},\"counters\":{},\"seconds\":{\"" + metric + "\":" +
         std::to_string(seconds) + "},\"budget\":null}\n";
}

TEST(BenchCompare, ParsesRowsAndKeysIgnoreFieldOrder) {
  // Same logical row with params in different JSON order: same key.
  const std::string a =
      R"({"schema":"frontiers-bench-v1","experiment":"e","build":"b1",)"
      R"("section":"s","params":{"n":8,"mode":"fast"},"counters":{},)"
      R"("seconds":{"wall":0.5},"budget":null})";
  const std::string b =
      R"({"schema":"frontiers-bench-v1","experiment":"e","build":"b2",)"
      R"("section":"s","params":{"mode":"fast","n":8.0},"counters":{},)"
      R"("seconds":{"wall":0.6},"budget":null})";
  Result<std::vector<obs::BenchRow>> rows =
      obs::ParseBenchRows(a + "\n\n" + b + "\n", "test");
  ASSERT_TRUE(rows.ok()) << rows.message();
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].Key(), rows.value()[1].Key());
  EXPECT_NE(rows.value()[0].Key().find("mode=fast"), std::string::npos);
  EXPECT_NE(rows.value()[0].Key().find("n=8"), std::string::npos);
}

TEST(BenchCompare, RejectsTruncatedAndForeignRows) {
  Result<std::vector<obs::BenchRow>> truncated = obs::ParseBenchRows(
      "{\"schema\":\"frontiers-bench-v1\",\"exper", "test");
  EXPECT_FALSE(truncated.ok());
  Result<std::vector<obs::BenchRow>> foreign = obs::ParseBenchRows(
      "{\"schema\":\"some-other-v2\"}", "test");
  ASSERT_FALSE(foreign.ok());
  EXPECT_NE(foreign.message().find("schema"), std::string::npos);
}

TEST(BenchCompare, IdenticalRunsHaveNoRegressions) {
  const std::string text = BenchLine("bm_a", 0.5) + BenchLine("bm_b", 0.25);
  std::vector<obs::BenchRow> base =
      obs::ParseBenchRows(text, "base").value();
  std::vector<obs::BenchRow> head =
      obs::ParseBenchRows(text, "head").value();
  obs::BenchCompareReport report = obs::CompareBench(base, head);
  EXPECT_FALSE(report.HasRegressions());
  EXPECT_TRUE(report.improvements.empty());
  EXPECT_EQ(report.stable.size(), 2u);
}

TEST(BenchCompare, TwiceSlowerRowIsNamedAsRegression) {
  std::vector<obs::BenchRow> base =
      obs::ParseBenchRows(BenchLine("bm_a", 0.5) + BenchLine("bm_b", 0.2),
                          "base")
          .value();
  std::vector<obs::BenchRow> head =
      obs::ParseBenchRows(BenchLine("bm_a", 1.0) + BenchLine("bm_b", 0.2),
                          "head")
          .value();
  obs::BenchCompareReport report = obs::CompareBench(base, head);
  ASSERT_EQ(report.regressions.size(), 1u);
  const obs::BenchDelta& delta = report.regressions[0];
  EXPECT_NE(delta.key.find("bm_a"), std::string::npos);
  EXPECT_EQ(delta.metric, "real_time");
  EXPECT_DOUBLE_EQ(delta.ratio, 2.0);
  // The report names the regressed row for the CI log.
  EXPECT_NE(report.ToString().find("bm_a"), std::string::npos);
  EXPECT_NE(report.ToString().find("REGRESSION"), std::string::npos);
}

TEST(BenchCompare, DuplicateMeasurementsAggregateByMin) {
  // Base has a noisy slow sample; min-aggregation keeps the fast one, so
  // an identical head does not read as an improvement.
  std::vector<obs::BenchRow> base =
      obs::ParseBenchRows(BenchLine("bm_a", 0.9) + BenchLine("bm_a", 0.5),
                          "base")
          .value();
  std::vector<obs::BenchRow> head =
      obs::ParseBenchRows(BenchLine("bm_a", 0.5), "head").value();
  obs::BenchCompareReport report = obs::CompareBench(base, head);
  EXPECT_FALSE(report.HasRegressions());
  EXPECT_TRUE(report.improvements.empty());
  ASSERT_EQ(report.stable.size(), 1u);
  EXPECT_DOUBLE_EQ(report.stable[0].base_seconds, 0.5);
}

TEST(BenchCompare, SubNoiseTimingsNeverRegressAndMissingRowsAreListed) {
  obs::BenchCompareOptions options;
  options.min_seconds = 1e-3;
  std::vector<obs::BenchRow> base =
      obs::ParseBenchRows(
          BenchLine("tiny", 1e-7) + BenchLine("gone", 0.5), "base")
          .value();
  std::vector<obs::BenchRow> head =
      obs::ParseBenchRows(
          BenchLine("tiny", 5e-7) + BenchLine("new", 0.5), "head")
          .value();
  obs::BenchCompareReport report = obs::CompareBench(base, head, options);
  EXPECT_FALSE(report.HasRegressions()) << "5x on nanoseconds is noise";
  ASSERT_EQ(report.only_base.size(), 1u);
  EXPECT_NE(report.only_base[0].find("gone"), std::string::npos);
  ASSERT_EQ(report.only_head.size(), 1u);
  EXPECT_NE(report.only_head[0].find("new"), std::string::npos);
}

// --- tracing is pure observation ------------------------------------------

// The acceptance bar for the whole subsystem: a traced chase is
// byte-identical (atom order, TermIds via atom equality, depths, rounds)
// to the untraced chase at every thread count.
TEST(Parity, TracedChaseIsByteIdenticalToUntraced) {
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto run = [threads](bool traced) {
      Vocabulary vocab;
      Theory td = TdTheory(vocab);
      FactSet db = EdgePath(vocab, "G", 12, "a");
      ChaseOptions options;
      options.max_rounds = 24;
      options.max_atoms = 500'000;
      options.threads = threads;
      options.filter = TdWitnessStrategy(vocab, td);
      ChaseEngine engine(vocab, td);
      const std::string path = testing::TempDir() + "obs_parity_" +
                               std::to_string(threads) + ".json";
      if (traced) {
        EXPECT_TRUE(obs::TraceSession::Start(path).ok());
      }
      ChaseResult result = engine.Run(db, options);
      if (traced) {
        EXPECT_TRUE(obs::TraceSession::Stop().ok());
        // The trace must also be valid Chrome JSON with chase phases in it.
        Result<obs::JsonValue> parsed = obs::ParseJson(ReadAll(path));
        EXPECT_TRUE(parsed.ok()) << parsed.message();
        if (parsed.ok()) {
          bool saw_round = false;
          for (const obs::JsonValue& event :
               parsed.value().Find("traceEvents")->array) {
            if (event.Find("name")->string == "chase.round") saw_round = true;
          }
          EXPECT_TRUE(saw_round);
        }
        std::remove(path.c_str());
      }
      return result;
    };
    ChaseResult untraced = run(false);
    ChaseResult traced = run(true);
    ASSERT_FALSE(untraced.facts.atoms().empty());
    EXPECT_EQ(traced.facts.atoms(), untraced.facts.atoms())
        << "threads=" << threads;
    EXPECT_EQ(traced.depth, untraced.depth) << "threads=" << threads;
    EXPECT_EQ(traced.complete_rounds, untraced.complete_rounds);
    EXPECT_EQ(traced.stop, untraced.stop);
  }
}

// Same acceptance bar for the profiler and the heartbeat: with a profile
// session active AND per-round heartbeats firing, the chase result is
// byte-identical to a bare run at every thread count — both features are
// pure observation.
TEST(Parity, ProfiledHeartbeatChaseIsByteIdenticalToBare) {
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto run = [threads](bool observed) {
      Vocabulary vocab;
      Theory td = TdTheory(vocab);
      FactSet db = EdgePath(vocab, "G", 12, "a");
      ChaseOptions options;
      options.max_rounds = 24;
      options.max_atoms = 500'000;
      options.threads = threads;
      options.filter = TdWitnessStrategy(vocab, td);
      size_t beats = 0;
      if (observed) {
        EXPECT_TRUE(obs::ProfileSession::Start().ok());
        options.heartbeat_seconds = 1e-9;  // every round boundary
        options.heartbeat_sink = [&beats](const ChaseHeartbeat&) { ++beats; };
      }
      ChaseEngine engine(vocab, td);
      ChaseResult result = engine.Run(db, options);
      if (observed) {
        Result<obs::ProfileReport> report = obs::ProfileSession::Stop();
        EXPECT_TRUE(report.ok()) << report.message();
        if (report.ok()) {
          EXPECT_NE(report.value().ToString().find("chase.round"),
                    std::string::npos)
              << "chase spans reached the profiler";
        }
        EXPECT_GE(beats, 1u);
      }
      return result;
    };
    ChaseResult bare = run(false);
    ChaseResult observed = run(true);
    ASSERT_FALSE(bare.facts.atoms().empty());
    EXPECT_EQ(observed.facts.atoms(), bare.facts.atoms())
        << "threads=" << threads;
    EXPECT_EQ(observed.depth, bare.depth) << "threads=" << threads;
    EXPECT_EQ(observed.complete_rounds, bare.complete_rounds);
    EXPECT_EQ(observed.stop, bare.stop);
  }
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? uint64_t{0} : it->second;
}

uint64_t HistogramCount(const obs::MetricsSnapshot& snapshot,
                        const char* name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? uint64_t{0}
                                         : it->second.total_count;
}

// The registry view of a run must be exactly its round records: each of
// the seven per-round frontiers.chase.* counters grows by the ChaseStats
// total of the same field between `before` and `after`.
void ExpectRegistryMatchesStats(const obs::MetricsSnapshot& before,
                                const obs::MetricsSnapshot& after,
                                const ChaseStats& stats) {
  const std::pair<const char*, uint64_t> expected[] = {
      {"frontiers.chase.rounds", stats.rounds.size()},
      {"frontiers.chase.matches", stats.TotalMatches()},
      {"frontiers.chase.staged", stats.TotalStaged()},
      {"frontiers.chase.committed", stats.TotalCommitted()},
      {"frontiers.chase.preempted", stats.TotalPreempted()},
      {"frontiers.chase.deduped", stats.TotalDeduped()},
      {"frontiers.chase.atoms_inserted", stats.TotalInserted()},
  };
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(CounterValue(after, name) - CounterValue(before, name), value)
        << name;
  }
}

// The chase publishes its per-run stats into the process-wide registry
// (the view the REPL's `.stats` command prints).  Checked in every build
// type and for every way a run can end: a plain run of each variant, a
// resumed run, a byte-budget stop that abandons a round mid-match, and an
// injected batch fault that abandons a round mid-commit.
TEST(Parity, ChaseWorkIsVisibleInDefaultRegistry) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", 6, "a");
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 100'000;
  options.filter = TdWitnessStrategy(vocab, td);
  ChaseEngine engine(vocab, td);

  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
    ChaseOptions variant_options = options;
    variant_options.variant = variant;
    obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    ChaseResult result = engine.Run(db, variant_options);
    obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    SCOPED_TRACE(variant == ChaseVariant::kRestricted ? "restricted"
                                                      : "semi-oblivious");
    ASSERT_FALSE(result.stats.rounds.empty());
    EXPECT_EQ(CounterValue(after, "frontiers.chase.runs"),
              CounterValue(before, "frontiers.chase.runs") + 1);
    ExpectRegistryMatchesStats(before, after, result.stats);
    // The phase histograms saw one run's worth of rounds.
    EXPECT_EQ(HistogramCount(after, "frontiers.chase.match_seconds") -
                  HistogramCount(before, "frontiers.chase.match_seconds"),
              result.stats.rounds.size());
  }

  {
    // Resume from a round-budget snapshot: the resumed stats carry the
    // snapshot's rounds, which the first run published, so the registry
    // over both calls equals the resumed totals.
    SCOPED_TRACE("resume");
    ChaseOptions first_options = options;
    first_options.max_rounds = 2;
    obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    ChaseResult first = engine.Run(db, first_options);
    ASSERT_EQ(first.stop, ChaseStop::kRoundBudget);
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, td, first, first_options);
    ASSERT_TRUE(snapshot.ok()) << snapshot.message();
    ChaseResult resumed = engine.Resume(snapshot.value(), options);
    obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    EXPECT_GT(resumed.stats.rounds.size(), first.stats.rounds.size());
    ExpectRegistryMatchesStats(before, after, resumed.stats);
  }

  {
    // A byte budget just above the content total after `k` rounds passes
    // the boundary check at round k and trips while round k stages, so
    // the round is abandoned mid-match and never published.
    SCOPED_TRACE("byte budget");
    const uint32_t k = 2;
    ChaseOptions probe_options = options;
    probe_options.max_rounds = k;
    ChaseResult probe = engine.Run(db, probe_options);
    ASSERT_EQ(probe.stop, ChaseStop::kRoundBudget);
    ChaseOptions budget_options = options;
    budget_options.max_bytes = probe.approx_bytes + 1;
    obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    ChaseResult result = engine.Run(db, budget_options);
    obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    ASSERT_EQ(result.stop, ChaseStop::kByteBudget);
    EXPECT_EQ(result.complete_rounds, k);
    EXPECT_EQ(result.stats.rounds.size(), k);
    ExpectRegistryMatchesStats(before, after, result.stats);
  }

  {
    // An injected batch fault abandons the round in mid-commit.
    SCOPED_TRACE("injected fault");
    failpoint::Arm("fact_set.insert_batch", /*fire_count=*/1, /*skip=*/2);
    obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    ChaseResult result = engine.Run(db, options);
    obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    failpoint::DisarmAll();
    ASSERT_EQ(result.stop, ChaseStop::kInjectedFault);
    ExpectRegistryMatchesStats(before, after, result.stats);
  }
}

// A round abandoned by an injected batch fault publishes nothing, its
// shard metrics included: with either batch failpoint firing, the batch
// commit counter and every shard histogram count one observation per
// round that ChaseStats kept.
TEST(Metrics, FaultedRoundPublishesNoShardMetrics) {
  for (const char* point : {"fact_set.insert_batch", "fact_set.shard_commit"}) {
    SCOPED_TRACE(point);
    Vocabulary vocab;
    Theory td = TdTheory(vocab);
    FactSet db = EdgePath(vocab, "G", 8, "a");
    ChaseOptions options;
    options.max_rounds = 16;
    options.max_atoms = 200'000;
    options.filter = TdWitnessStrategy(vocab, td);
    ChaseEngine engine(vocab, td);
    failpoint::Arm(point, /*fire_count=*/1, /*skip=*/2);
    obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    ChaseResult result = engine.Run(db, options);
    obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    failpoint::DisarmAll();
    ASSERT_EQ(result.stop, ChaseStop::kInjectedFault);
    const uint64_t rounds = result.stats.rounds.size();
    ExpectRegistryMatchesStats(before, after, result.stats);
    EXPECT_EQ(CounterValue(after, "frontiers.chase.shard_commits") -
                  CounterValue(before, "frontiers.chase.shard_commits"),
              rounds);
    for (const char* histogram :
         {"frontiers.chase.shard_max_rows", "frontiers.chase.shards_touched",
          "frontiers.chase.shard_wait_seconds",
          "frontiers.chase.shard_hold_seconds"}) {
      EXPECT_EQ(HistogramCount(after, histogram) -
                    HistogramCount(before, histogram),
                rounds)
          << histogram;
    }
  }
}

// ChaseStats::Summary() is the shared human-readable line (REPL + benches).
TEST(Parity, ChaseStatsSummaryMentionsEveryPhase) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", 4, "a");
  ChaseOptions options;
  options.max_rounds = 8;
  options.max_atoms = 100'000;
  options.filter = TdWitnessStrategy(vocab, td);
  ChaseEngine engine(vocab, td);
  ChaseResult result = engine.Run(db, options);
  std::string summary = result.stats.Summary();
  for (const char* needle : {"rounds=", "matches=", "committed=", "match=",
                             "commit=", "total="}) {
    EXPECT_NE(summary.find(needle), std::string::npos)
        << needle << " missing from: " << summary;
  }
  // TotalSeconds() runs the debug phase-accounting check.
  EXPECT_GE(result.stats.TotalSeconds(), 0.0);
}

// The pool's dispatch path performs no allocations once warm.
TEST(WorkerPool, RunDispatchAllocatesNothing) {
  WorkerPool pool(4);
  std::atomic<uint64_t> sum{0};
  const std::function<void(size_t)> fn = [&sum](size_t i) {
    sum.fetch_add(i + 1, std::memory_order_relaxed);
  };
  pool.Run(64, fn);  // warm-up: first-dispatch lazy init outside the count
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  pool.Run(64, fn);
  g_count_allocations.store(false);
  EXPECT_EQ(sum.load(), 2 * (64 * 65) / 2);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "WorkerPool::Run must not allocate on the dispatch path";
}

// The shard contention metrics against a serial oracle: at 8 threads with
// the pool engaged, every semi-oblivious round observes the shard wait and
// hold histograms exactly once, and the histogram sums agree with the
// per-run ChaseStats aggregation.  The satellite rounds_parallel /
// rounds_serial counters must partition the round count.
TEST(Metrics, ShardContentionMetricsMatchSerialOracle) {
  auto histogram = [](const obs::MetricsSnapshot& snapshot, const char* name)
      -> std::pair<uint64_t, double> {
    auto it = snapshot.histograms.find(name);
    if (it == snapshot.histograms.end()) return {0, 0.0};
    return {it->second.total_count, it->second.sum};
  };
  for (uint32_t threads : {1u, 8u}) {
    obs::MetricsSnapshot before = obs::DefaultRegistry().Snapshot();
    Vocabulary vocab;
    Theory td = TdTheory(vocab);
    FactSet db = EdgePath(vocab, "G", 12, "a");
    ChaseOptions options;
    options.max_rounds = 24;
    options.max_atoms = 500'000;
    options.threads = threads;
    options.serial_round_threshold = 0;  // pool engages on every wide round
    options.filter = TdWitnessStrategy(vocab, td);
    ChaseEngine engine(vocab, td);
    ChaseResult result = engine.Run(db, options);
    obs::MetricsSnapshot after = obs::DefaultRegistry().Snapshot();
    const uint64_t rounds = result.stats.rounds.size();
    ASSERT_GT(rounds, 0u);
    // rounds_parallel + rounds_serial partition the rounds; with the
    // serial fallback disabled the split is decided by `threads` alone.
    const uint64_t par =
        CounterValue(after, "frontiers.chase.rounds_parallel") -
        CounterValue(before, "frontiers.chase.rounds_parallel");
    const uint64_t ser = CounterValue(after, "frontiers.chase.rounds_serial") -
                         CounterValue(before, "frontiers.chase.rounds_serial");
    EXPECT_EQ(par + ser, rounds) << "threads=" << threads;
    EXPECT_EQ(par, threads > 1 ? rounds : 0) << "threads=" << threads;
    // The wait/hold histograms observe once per semi-oblivious batch
    // commit (= once per round here), and their sums agree with the
    // ChaseStats per-run view modulo float accumulation order.
    auto [wait_count, wait_sum] =
        histogram(after, "frontiers.chase.shard_wait_seconds");
    auto [wait_count0, wait_sum0] =
        histogram(before, "frontiers.chase.shard_wait_seconds");
    auto [hold_count, hold_sum] =
        histogram(after, "frontiers.chase.shard_hold_seconds");
    auto [hold_count0, hold_sum0] =
        histogram(before, "frontiers.chase.shard_hold_seconds");
    EXPECT_EQ(wait_count - wait_count0, rounds) << "threads=" << threads;
    EXPECT_EQ(hold_count - hold_count0, rounds) << "threads=" << threads;
    EXPECT_NEAR(wait_sum - wait_sum0, result.stats.ShardWaitSeconds(), 1e-9);
    EXPECT_NEAR(hold_sum - hold_sum0, result.stats.ShardHoldSeconds(), 1e-9);
    EXPECT_GE(result.stats.ShardWaitSeconds(), 0.0);
  }
}

}  // namespace
}  // namespace frontiers
