// SpanTracer's compact span log against a reference model: a plain
// std::vector<Span> of everything emitted since the last Reset. Each seeded
// run emits well over a thousand distinct call sites (so the interning table
// grows several times), arg counts from 0 to 8 (the 7th and 8th are
// dropped), extreme and backwards starts, durations and arg values, and
// enough spans to fill many log chunks, with two Resets mid-stream. The
// decoded log must equal the model span for span, literal pointers
// included, and WriteChromeTrace must be byte-equal to the
// vector-and-string formatter the log replaced, which this file keeps as
// the oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// ---- Oracle: the formatter that built the whole body in one string --------

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendEvent(std::string& out, bool& first, const std::string& event) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  out += event;
}

std::string OracleChromeTrace(const std::vector<Span>& spans,
                              const std::map<int32_t, std::string>& process_names,
                              const MetricsRegistry* metrics) {
  std::string body;
  bool first = true;
  char buf[256];

  for (const auto& [pid, name] : process_names) {
    std::string e = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    e += std::to_string(pid);
    e += ",\"tid\":0,\"args\":{\"name\":\"";
    AppendEscaped(e, name);
    e += "\"}}";
    AppendEvent(body, first, e);
  }

  for (const Span& span : spans) {
    std::string e = "{\"ph\":\"X\",\"name\":\"";
    AppendEscaped(e, span.name);
    e += "\",\"cat\":\"";
    AppendEscaped(e, span.category);
    std::snprintf(buf, sizeof(buf), "\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,\"dur\":%lld",
                  span.track.pid, span.track.tid, static_cast<long long>(span.start),
                  static_cast<long long>(span.duration));
    e += buf;
    if (span.num_args > 0) {
      e += ",\"args\":{";
      for (int i = 0; i < span.num_args; ++i) {
        if (i > 0) {
          e += ",";
        }
        e += "\"";
        AppendEscaped(e, span.args[i].key);
        e += "\":";
        e += std::to_string(span.args[i].value);
      }
      e += "}";
    }
    e += "}";
    AppendEvent(body, first, e);
  }

  if (metrics != nullptr) {
    const MetricsTimeSeries& series = metrics->series();
    for (size_t i = 0; i < series.size(); ++i) {
      for (const WindowSample& s : series.window(i).samples) {
        if (s.kind == WindowSample::Kind::kLatency) {
          continue;
        }
        std::string e = "{\"ph\":\"C\",\"name\":\"";
        AppendEscaped(e, s.name);
        std::snprintf(buf, sizeof(buf),
                      "\",\"pid\":%d,\"tid\":0,\"ts\":%lld,\"args\":{\"value\":%lld}}",
                      CounterTrackPid(s.name), static_cast<long long>(series.window(i).end),
                      static_cast<long long>(s.value));
        e += buf;
        AppendEvent(body, first, e);
      }
    }
    if (series.size() > 0) {
      std::string e = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
      e += std::to_string(kMetricsPid);
      e += ",\"tid\":0,\"args\":{\"name\":\"metrics\"}}";
      AppendEvent(body, first, e);
    }
  }

  return "{\"traceEvents\":[\n" + body + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// ---- Emission through the public API ----------------------------------------

// Emit takes its args as an initializer list, so each count is spelled out.
void EmitSpan(SpanTracer& tracer, const Span& s, const Span::Arg* a, int n) {
  switch (n) {
    case 0: tracer.Emit(s.name, s.category, s.track, s.start, s.duration); break;
    case 1: tracer.Emit(s.name, s.category, s.track, s.start, s.duration, {a[0]}); break;
    case 2: tracer.Emit(s.name, s.category, s.track, s.start, s.duration, {a[0], a[1]}); break;
    case 3:
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration, {a[0], a[1], a[2]});
      break;
    case 4:
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration, {a[0], a[1], a[2], a[3]});
      break;
    case 5:
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration,
                  {a[0], a[1], a[2], a[3], a[4]});
      break;
    case 6:
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration,
                  {a[0], a[1], a[2], a[3], a[4], a[5]});
      break;
    case 7:
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration,
                  {a[0], a[1], a[2], a[3], a[4], a[5], a[6]});
      break;
    default:
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration,
                  {a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]});
      break;
  }
}

// Decoded spans must carry the very pointers that were emitted, not merely
// equal text: interning is by pointer.
void ExpectSameLog(const SpanTracer& tracer, const std::vector<Span>& model) {
  ASSERT_EQ(tracer.spans().size(), model.size());
  ASSERT_EQ(tracer.spans().empty(), model.empty());
  size_t i = 0;
  for (const Span& got : tracer.spans()) {
    ASSERT_LT(i, model.size());
    const Span& want = model[i];
    ASSERT_TRUE(got == want) << "span " << i << " start " << got.start << " vs " << want.start;
    ASSERT_EQ(got.name, want.name) << "span " << i;
    ASSERT_EQ(got.category, want.category) << "span " << i;
    for (int k = 0; k < want.num_args; ++k) {
      ASSERT_EQ(got.args[k].key, want.args[k].key) << "span " << i << " arg " << k;
    }
    ++i;
  }
  ASSERT_EQ(i, model.size());
}

class SpanLogProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpanLogProperty, DecodedLogAndExportMatchVectorModel) {
  constexpr int kNames = 1200;  // distinct name pointers, past any small table
  constexpr int kSpans = 160000;
  constexpr int kResetAt[] = {40000, 90000};
  Rng rng(GetParam());

  // Literal stand-ins: storage that outlives the tracer and never moves.
  std::vector<std::string> names;
  names.reserve(kNames + 3);
  for (int i = 0; i < kNames; ++i) {
    names.push_back("site." + std::to_string(i));
  }
  names.push_back("dup");  // equal text at two addresses: two sites
  names.push_back("dup");
  names.push_back("we\"ird\\name\n\t\x01");
  const std::vector<std::string> categories = {"rpc", "rpc.callback", "cache", "op", "c\"at"};
  const std::vector<std::string> keys = {"server", "bytes", "retries", "timeouts", "net_us",
                                         "wait_us", "k\\ey", "client", "file", "extra"};

  auto draw_value = [&rng]() -> int64_t {
    switch (rng.NextBelow(6)) {
      case 0: {
        static constexpr int64_t kEdges[] = {kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1};
        return kEdges[rng.NextBelow(std::size(kEdges))];
      }
      case 1: return static_cast<int64_t>(rng());  // full 64-bit range
      case 2: return rng.NextInRange(-100000, 100000);
      default: return rng.NextInRange(0, 200);
    }
  };

  SpanTracer tracer;
  std::map<int32_t, std::string> process_names = {{ClientTrack(0).pid, "client 0"},
                                                  {7, "we\"ird\\name\n"}};
  for (const auto& [pid, name] : process_names) {
    tracer.SetProcessName(pid, name);
  }
  std::vector<Span> model;
  SimTime clock = 0;
  for (int n = 0; n < kSpans; ++n) {
    if (n == kResetAt[0] || n == kResetAt[1]) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameLog(tracer, model));
      tracer.Reset();
      model.clear();
      ASSERT_TRUE(tracer.spans().empty());
    }
    Span s;
    // Most sites repeat, like call sites do; the rest walk the whole pool.
    const size_t name = rng.NextBool(0.7) ? rng.NextBelow(8) : rng.NextBelow(names.size());
    s.name = names[name].c_str();
    s.category = categories[rng.NextBelow(categories.size())].c_str();
    s.track = rng.NextBool(0.9)
                  ? SpanTrack{static_cast<int32_t>(rng.NextInRange(100, 1100)), 1}
                  : SpanTrack{static_cast<int32_t>(draw_value()),
                              static_cast<int32_t>(draw_value())};
    switch (rng.NextBelow(8)) {
      case 0: s.start = draw_value(); break;                       // extremes, anywhere
      case 1: s.start = clock - rng.NextInRange(0, 5000); break;   // backwards
      default: s.start = clock += rng.NextInRange(0, 3000); break;
    }
    s.duration = rng.NextBool(0.2) ? draw_value() : rng.NextInRange(0, 10000);
    const int num_args = rng.NextBool(0.1) ? 7 + static_cast<int>(rng.NextBelow(2))
                                           : static_cast<int>(rng.NextBelow(7));
    Span::Arg args[8];
    for (int k = 0; k < num_args; ++k) {
      args[k] = {keys[rng.NextBelow(keys.size())].c_str(), draw_value()};
    }
    EmitSpan(tracer, s, args, num_args);
    s.num_args = std::min(num_args, Span::kMaxArgs);
    for (int k = 0; k < s.num_args; ++k) {
      s.args[k] = args[k];
    }
    model.push_back(s);
    if (n % 1000 == 0) {
      ASSERT_EQ(tracer.spans().size(), model.size());
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameLog(tracer, model));
  // A second pass over the same view decodes the same spans again.
  ASSERT_NO_FATAL_FAILURE(ExpectSameLog(tracer, model));

  MetricsRegistry metrics;
  metrics.AddCounter("rpc.calls")->Add(12);
  metrics.AddGauge("server.1.queue_depth", [] { return int64_t{4}; });
  metrics.AddGauge("we\"ird", [] { return kMin; });
  metrics.AddLatency("rpc.open.latency_us")->Record(100);
  metrics.Capture(60000000);
  metrics.Capture(kMax);
  std::ostringstream out;
  tracer.WriteChromeTrace(out, &metrics);
  EXPECT_TRUE(out.str() == OracleChromeTrace(model, process_names, &metrics))
      << "export differs from the oracle (" << out.str().size() << " bytes vs "
      << OracleChromeTrace(model, process_names, &metrics).size() << ")";
  std::ostringstream bare;
  tracer.WriteChromeTrace(bare);
  EXPECT_TRUE(bare.str() == OracleChromeTrace(model, process_names, nullptr));

  // The last segment alone must have exercised what the run claims to:
  // 70,000 spans of at least 6 bytes fill more than 6 chunks of 64 KiB.
  std::set<const char*> name_pointers;
  for (const Span& span : model) {
    name_pointers.insert(span.name);
  }
  EXPECT_GT(name_pointers.size(), 1000u);
  EXPECT_EQ(model.size(), static_cast<size_t>(kSpans - kResetAt[1]));
}

TEST_P(SpanLogProperty, ResetRestartsTheDeltaBase) {
  Rng rng(GetParam());
  SpanTracer tracer;
  std::vector<Span> model;
  for (int round = 0; round < 3; ++round) {
    tracer.Reset();
    model.clear();
    SimTime start = static_cast<SimTime>(rng.NextInRange(-1000000, 1000000));
    for (int n = 0; n < 20000; ++n) {
      Span s;
      s.name = "phase";
      s.category = "op";
      s.track = ClientTrack(static_cast<int64_t>(rng.NextBelow(40)));
      s.start = start += rng.NextInRange(-50, 400);
      s.duration = rng.NextInRange(0, 900);
      tracer.Emit(s.name, s.category, s.track, s.start, s.duration);
      model.push_back(s);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameLog(tracer, model));
    std::ostringstream out;
    tracer.WriteChromeTrace(out);
    EXPECT_TRUE(out.str() == OracleChromeTrace(model, {}, nullptr)) << "round " << round;
  }
}

TEST(SpanLogPropertyEdges, EmptyTracerExportsTheEmptyBody) {
  SpanTracer tracer;
  MetricsRegistry metrics;
  std::ostringstream out;
  tracer.WriteChromeTrace(out, &metrics);
  EXPECT_EQ(out.str(), OracleChromeTrace({}, {}, &metrics));
  EXPECT_EQ(tracer.spans().size(), 0u);
  EXPECT_TRUE(tracer.spans().begin() == tracer.spans().end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanLogProperty, ::testing::Values(1, 2, 3, 1991));

}  // namespace
}  // namespace sprite
