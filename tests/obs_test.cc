// Tests for the observability subsystem (src/obs): JSON round-tripping,
// the Chrome trace-event layer and its offline reader, the sharded metrics
// registry, and — the load-bearing guarantee — that tracing or streaming a
// chase never changes its result.

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
#include "obs/round_stream.h"
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

// --- offline trace reader --------------------------------------------------

void Spin(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// A known `outer;inner` nest traced on two threads reads back as one tree:
// per-path counts merged across the threads, self time never above wall
// time, and one folded line per path.
TEST(TraceReader, RebuildsTheSpanTreeWithThreadsMerged) {
  const std::string path = testing::TempDir() + "obs_trace_reader.json";
  std::remove(path.c_str());
  constexpr int kInner = 3;
  ASSERT_TRUE(obs::TraceSession::Start(path).ok());
  auto nest = [] {
    obs::Span outer("reader.outer", "test");
    Spin(std::chrono::microseconds(50));
    for (int i = 0; i < kInner; ++i) {
      obs::Span inner("reader.inner", "test");
      Spin(std::chrono::microseconds(50));
    }
  };
  std::thread first(nest);
  std::thread second(nest);
  first.join();
  second.join();
  ASSERT_TRUE(obs::TraceSession::Stop().ok());

  Result<obs::TraceProfile> read = obs::ReadTraceProfile(ReadAll(path));
  ASSERT_TRUE(read.ok()) << read.message();
  const obs::TraceProfile& profile = read.value();
  EXPECT_EQ(profile.threads, 2u);
  EXPECT_EQ(profile.dropped_events, 0u);
  ASSERT_EQ(profile.paths.size(), 2u);
  const obs::SpanPathStats& outer = profile.paths.at("reader.outer");
  const obs::SpanPathStats& inner =
      profile.paths.at("reader.outer;reader.inner");
  EXPECT_EQ(outer.count, 2u) << "one per thread, merged";
  EXPECT_EQ(inner.count, 2u * kInner);
  EXPECT_LE(outer.self_ns, outer.wall_ns);
  EXPECT_LE(inner.self_ns, inner.wall_ns);
  EXPECT_EQ(inner.self_ns, inner.wall_ns) << "a leaf's time is all self";
  EXPECT_EQ(outer.self_ns, outer.wall_ns - inner.wall_ns);
  EXPECT_GE(outer.self_ns, 2 * 50'000u) << "each outer spun 50us itself";

  EXPECT_EQ(profile.ToFolded(),
            "reader.outer " + std::to_string(outer.self_ns / 1000) +
                "\nreader.outer;reader.inner " +
                std::to_string(inner.self_ns / 1000) + "\n");
  const std::string text = profile.ToString();
  EXPECT_NE(text.find("# frontiers profile: 2 thread(s)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("  reader.outer\n"), std::string::npos) << text;
  EXPECT_NE(text.find("    reader.inner\n"), std::string::npos)
      << "the child is indented under its parent\n"
      << text;
  EXPECT_EQ(text.find("incomplete"), std::string::npos) << text;

  // A round stream is not a trace.
  EXPECT_FALSE(
      obs::ReadTraceProfile("{\"schema\":\"frontiers-rounds-v1\"}").ok());
  std::remove(path.c_str());
}

// Events past the per-thread cap are counted in the file itself, and the
// reader flags the profile as incomplete.
TEST(TraceReader, CappedTraceRecordsItsDrops) {
  const std::string path = testing::TempDir() + "obs_trace_capped.json";
  std::remove(path.c_str());
  obs::TraceOptions options;
  options.max_events_per_thread = 3;
  ASSERT_TRUE(obs::TraceSession::Start(path, options).ok());
  for (int i = 0; i < 10; ++i) {
    obs::Span span("capped", "test");
  }
  ASSERT_TRUE(obs::TraceSession::Stop().ok());
  const std::string text = ReadAll(path);
  Result<obs::JsonValue> parsed = obs::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::JsonValue* dropped = parsed.value().Find("droppedEvents");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->number, 7.0);

  Result<obs::TraceProfile> read = obs::ReadTraceProfile(text);
  ASSERT_TRUE(read.ok()) << read.message();
  EXPECT_EQ(read.value().dropped_events, 7u);
  EXPECT_EQ(read.value().paths.at("capped").count, 3u);
  EXPECT_NE(read.value().ToString().find(
                "profile incomplete: 7 events dropped"),
            std::string::npos)
      << read.value().ToString();
  std::remove(path.c_str());
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
    ASSERT_FALSE(untraced.facts.empty());
    EXPECT_EQ(traced.facts.ToAtoms(), untraced.facts.ToAtoms())
        << "threads=" << threads;
    EXPECT_EQ(traced.depth, untraced.depth) << "threads=" << threads;
    EXPECT_EQ(traced.complete_rounds, untraced.complete_rounds);
    EXPECT_EQ(traced.stop, untraced.stop);
  }
}

// Same acceptance bar with every per-run consumer on at once: a traced,
// round-streamed chase is byte-identical to a bare run at every thread
// count, and both files carry the run.
TEST(Parity, TracedRoundStreamedChaseIsByteIdenticalToBare) {
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
      const std::string base = testing::TempDir() + "obs_observed_" +
                               std::to_string(threads);
      if (observed) {
        EXPECT_TRUE(obs::TraceSession::Start(base + ".json").ok());
        EXPECT_TRUE(obs::RoundStreamSession::Start(base + ".jsonl").ok());
      }
      ChaseEngine engine(vocab, td);
      ChaseResult result = engine.Run(db, options);
      if (observed) {
        EXPECT_TRUE(obs::RoundStreamSession::Stop().ok());
        EXPECT_TRUE(obs::TraceSession::Stop().ok());
        Result<obs::TraceProfile> profile =
            obs::ReadTraceProfile(ReadAll(base + ".json"));
        EXPECT_TRUE(profile.ok()) << profile.message();
        if (profile.ok()) {
          EXPECT_EQ(profile.value().paths.count("chase.run;chase.round"), 1u)
              << "chase spans reached the trace";
        }
        EXPECT_NE(ReadAll(base + ".jsonl").find("\"kind\":\"stop\""),
                  std::string::npos);
        std::remove((base + ".json").c_str());
        std::remove((base + ".jsonl").c_str());
      }
      return result;
    };
    ChaseResult bare = run(false);
    ChaseResult observed = run(true);
    ASSERT_FALSE(bare.facts.empty());
    EXPECT_EQ(observed.facts.ToAtoms(), bare.facts.ToAtoms())
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

// The rounds_parallel / rounds_serial counters partition the round count;
// with the serial fallback disabled the split is decided by `threads`
// alone.
TEST(Metrics, RoundThreadCountersPartitionTheRounds) {
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
    const uint64_t par =
        CounterValue(after, "frontiers.chase.rounds_parallel") -
        CounterValue(before, "frontiers.chase.rounds_parallel");
    const uint64_t ser = CounterValue(after, "frontiers.chase.rounds_serial") -
                         CounterValue(before, "frontiers.chase.rounds_serial");
    EXPECT_EQ(par + ser, rounds) << "threads=" << threads;
    EXPECT_EQ(par, threads > 1 ? rounds : 0) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace frontiers
