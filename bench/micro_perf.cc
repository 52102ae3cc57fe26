// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// substrate: cache operations, the trace codec, the event queue, the
// distributions, the RPC transport per wire mode, the server's open/close
// path per consistency policy, span emission and trace export, and
// end-to-end workload generation throughput.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <vector>

#include "src/fs/block_cache.h"
#include "src/fs/rpc.h"
#include "src/fs/server.h"
#include "src/obs/tracer.h"
#include "src/sim/event_queue.h"
#include "src/trace/codec.h"
#include "src/util/distributions.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

void BM_CacheHitLookup(benchmark::State& state) {
  CacheConfig config;
  config.min_blocks = 2048;
  config.max_blocks = 2048;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(2048);
  for (int64_t i = 0; i < 2048; ++i) {
    cache.InsertClean({1, i}, i, nullptr);
  }
  int64_t i = 0;
  SimTime now = 10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup({1, i & 2047}, ++now));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLookup);

// A server cache's scale: 32,768 blocks over 1,024 files, looked up in a
// scrambled order. The 2,048 sequential blocks of one file above share one
// hot file state and block table; here each lookup probes the per-file map
// for a different file and reads a table and an entry that are likely not
// in cache, the worst case for the per-file tables.
void BM_CacheHitLookupServerScale(benchmark::State& state) {
  constexpr int64_t kBlocks = 32768;
  constexpr int64_t kFiles = 1024;
  CacheConfig config;
  config.min_blocks = kBlocks;
  config.max_blocks = kBlocks;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(kBlocks);
  std::vector<BlockKey> keys;
  for (int64_t i = 0; i < kBlocks; ++i) {
    keys.push_back({static_cast<uint64_t>(i % kFiles) * 7919 + 1, i / kFiles});
    cache.InsertClean(keys.back(), i, nullptr);
  }
  Rng rng(1991);
  std::shuffle(keys.begin(), keys.end(), rng);
  size_t i = 0;
  SimTime now = kBlocks;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(keys[i], ++now));
    i = (i + 1) & (kBlocks - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLookupServerScale);

// Each insert evicts the LRU block: a 1,024-block window slides up one
// file's block numbers, so the file's table must follow it.
void BM_CacheMissInsertEvict(benchmark::State& state) {
  CacheConfig config;
  config.min_blocks = 1024;
  config.max_blocks = 1024;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(1024);
  int64_t i = 0;
  for (auto _ : state) {
    cache.InsertClean({1, i++}, i, nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissInsertEvict);

void BM_DirtyWriteAndClean(benchmark::State& state) {
  CacheConfig config;
  config.min_blocks = 4096;
  config.max_blocks = 4096;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(4096);
  SimTime now = 0;
  for (auto _ : state) {
    for (int64_t b = 0; b < 64; ++b) {
      cache.Write({2, b}, now, kBlockSize, nullptr);
    }
    now += 31 * kSecond;
    cache.CleanAged(now, nullptr);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DirtyWriteAndClean);

void BM_TraceEncode(benchmark::State& state) {
  TraceLog log;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    Record r;
    r.kind = static_cast<RecordKind>(i % 11);
    r.time = i * 500;
    r.user = static_cast<uint32_t>(rng.NextBelow(50));
    r.file = rng.NextBelow(100000);
    r.handle = static_cast<uint64_t>(i);
    r.run_read_bytes = static_cast<int64_t>(rng.NextBelow(100000));
    log.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeTrace(log));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_TraceEncode);

void BM_TraceDecode(benchmark::State& state) {
  TraceLog log;
  for (int i = 0; i < 1000; ++i) {
    Record r;
    r.time = i * 500;
    r.file = static_cast<uint64_t>(i * 7);
    log.push_back(r);
  }
  const std::string bytes = EncodeTrace(log);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeTrace(bytes));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_TraceDecode);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.Schedule(i * 7 % 997, [] {});
    }
    queue.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// One RpcTransport::Call per iteration under each wire mode. Calls
// alternate a block fetch with a getattr across 4 clients and 2 servers,
// 10 ms apart: a getattr rides the fetch just before it when piggybacking,
// and under batching it flushes its pair's previous batch, which has aged
// out by the time the pair recurs 16 calls later. Async mode admits each
// fetch to its server's service queue, which schedules no event; every 1024
// calls the queue's clock catches up with the calls, so the servers can
// prune the visits their depth count holds.
struct TransportMode {
  bool honest_wire = false;
  bool batching = false;
  bool contention = false;
  bool async = false;
};

void BM_TransportCall(benchmark::State& state, TransportMode mode) {
  NetworkConfig net;
  net.contention = mode.contention;
  RpcConfig rpc;
  rpc.honest_wire = mode.honest_wire;
  rpc.batching = mode.batching;
  rpc.async = mode.async;
  RpcTransport transport(net, rpc);
  EventQueue queue;
  std::vector<std::unique_ptr<Server>> servers;
  if (mode.async) {
    for (ServerId s = 0; s < 2; ++s) {
      servers.push_back(
          std::make_unique<Server>(s, ServerConfig{}, DiskConfig{}));
      servers.back()->EnableServiceQueue(rpc, queue);
      transport.RegisterServer(s, servers.back().get());
    }
  }
  SimTime now = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    const bool fetch = (i & 1) == 0;
    now += 10 * kMillisecond +
           transport.Call(fetch ? RpcKind::kReadBlock : RpcKind::kGetAttr,
                          static_cast<ClientId>((i >> 1) & 3), static_cast<ServerId>((i >> 3) & 1),
                          fetch ? kBlockSize : 0, now);
    ++i;
    if (mode.async && (i & 1023) == 0) {
      queue.RunUntil(now);
    }
  }
  benchmark::DoNotOptimize(transport.ledger().TotalCalls());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TransportCall, free, TransportMode{});
BENCHMARK_CAPTURE(BM_TransportCall, piggyback, TransportMode{.honest_wire = true});
BENCHMARK_CAPTURE(BM_TransportCall, batch, TransportMode{.batching = true});
BENCHMARK_CAPTURE(BM_TransportCall, batch_contention,
                  TransportMode{.batching = true, .contention = true});
BENCHMARK_CAPTURE(BM_TransportCall, async, TransportMode{.async = true});

// One server's open/close path. `sprite_single` is one reader's open and
// close; `sprite_shared` opens a reader, a writer and a second reader of one
// file from three clients, then closes them in that order, so every
// iteration enters and leaves concurrent write-sharing and fires the
// cache-disable callbacks (into no-op clients).
class NoopControl final : public CacheControl {
 public:
  void RecallDirtyData(FileId, SimTime) override {}
  void DisableCaching(FileId, SimTime) override {}
  void DiscardFile(FileId, SimTime) override {}
};

void BM_ServerOpenClose(benchmark::State& state, bool shared) {
  Server server(0, ServerConfig{}, DiskConfig{});
  NoopControl control;
  for (ClientId client = 0; client < 3; ++client) {
    server.RegisterClient(client, &control);
  }
  const FileId file = 7;
  SimTime now = 0;
  for (auto _ : state) {
    ++now;
    benchmark::DoNotOptimize(server.Open(0, file, OpenMode::kRead, /*is_directory=*/false, now));
    if (shared) {
      benchmark::DoNotOptimize(server.Open(1, file, OpenMode::kWrite, false, now));
      benchmark::DoNotOptimize(server.Open(2, file, OpenMode::kRead, false, now));
    }
    benchmark::DoNotOptimize(server.Close(0, file, OpenMode::kRead, /*wrote=*/false, 0, now));
    if (shared) {
      benchmark::DoNotOptimize(server.Close(1, file, OpenMode::kWrite, false, 0, now));
      benchmark::DoNotOptimize(server.Close(2, file, OpenMode::kRead, false, 0, now));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ServerOpenClose, sprite_single, false);
BENCHMARK_CAPTURE(BM_ServerOpenClose, sprite_shared, true);

// Span emission into a growing log: an RPC-shaped span with six args (the
// transport's per-call span) or a zero-arg phase span (its wire/backoff
// children). Each span goes to the next of 40 client tracks, 1-3 ms after
// the previous one. Every 2^18 spans the tracer is replaced, so the cost
// of growing the log from empty is part of what is measured while memory
// stays bounded.
enum class SpanShape { kRpc6, kPhase0 };

void BM_SpanEmit(benchmark::State& state, SpanShape shape) {
  static constexpr const char* kRpcNames[] = {"open", "read-block", "write-block", "close",
                                              "getattr"};
  static constexpr const char* kPhaseNames[] = {"wire", "backoff", "timeout", "blocked-wait"};
  constexpr int64_t kSpansPerTracer = int64_t{1} << 18;
  auto tracer = std::make_unique<SpanTracer>();
  SimTime now = 0;
  int64_t i = 0;
  for (auto _ : state) {
    const SpanTrack track = ClientTrack(i % 40);
    now += kMillisecond + (i * 7919) % (2 * kMillisecond);
    if (shape == SpanShape::kRpc6) {
      tracer->Emit(kRpcNames[i % std::size(kRpcNames)], "rpc", track, now, 1200 + i % 900,
                   {{"server", i & 1},
                    {"bytes", (i & 3) == 0 ? 0 : 4096},
                    {"retries", 0},
                    {"timeouts", 0},
                    {"net_us", 800 + i % 300},
                    {"wait_us", i % 5000}});
    } else {
      tracer->Emit(kPhaseNames[i % std::size(kPhaseNames)], "rpc.phase", track, now,
                   i % 900);
    }
    benchmark::ClobberMemory();
    if (++i % kSpansPerTracer == 0) {
      tracer = std::make_unique<SpanTracer>();
    }
  }
  benchmark::DoNotOptimize(tracer->spans().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SpanEmit, rpc6, SpanShape::kRpc6);
BENCHMARK_CAPTURE(BM_SpanEmit, phase0, SpanShape::kPhase0);

// Counts what the export writes and keeps none of it.
class DiscardBuf : public std::streambuf {
 public:
  int64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  int64_t bytes_ = 0;
};

// Chrome trace-event export of 100,000 spans (one RPC span with six args
// followed by one phase span, alternating) plus ten named processes, into
// a stream that discards its input.
void BM_ChromeTraceExport(benchmark::State& state) {
  constexpr int64_t kPairs = 50000;
  SpanTracer tracer;
  for (int64_t c = 0; c < 10; ++c) {
    tracer.SetProcessName(ClientTrack(c).pid, "client " + std::to_string(c));
  }
  SimTime now = 0;
  for (int64_t i = 0; i < kPairs; ++i) {
    now += kMillisecond + (i * 7919) % (2 * kMillisecond);
    tracer.Emit("read-block", "rpc", ClientTrack(i % 10), now, 1200 + i % 900,
                {{"server", i & 1},
                 {"bytes", 4096},
                 {"retries", 0},
                 {"timeouts", 0},
                 {"net_us", 800 + i % 300},
                 {"wait_us", i % 5000}});
    tracer.Emit("wire", "rpc.phase", ClientTrack(i % 10), now + i % 400, 800 + i % 300);
  }
  int64_t bytes = 0;
  for (auto _ : state) {
    DiscardBuf buf;
    std::ostream out(&buf);
    tracer.WriteChromeTrace(out);
    benchmark::DoNotOptimize(buf.bytes());
    bytes += buf.bytes();
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() * 2 * kPairs);
}
BENCHMARK(BM_ChromeTraceExport)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(10000, 0.8);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadParams params;
    params.num_users = 6;
    params.seed = 7;
    ClusterConfig cluster;
    cluster.num_clients = 6;
    cluster.num_servers = 2;
    Generator generator(params, cluster);
    const TraceLog trace = generator.Run(5 * kMinute);
    benchmark::DoNotOptimize(trace.size());
    state.counters["records"] = static_cast<double>(trace.size());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

// End-to-end cluster scenarios for the committed perf trajectory
// (BENCH_<scenario>.json, see tools/bench_trajectory.py): run the full
// synthetic workload — users, caches, RPC transport, cleaner daemons,
// trace collection — at three cluster scales and report dispatched-event
// throughput, simulated time per iteration, and peak RSS. The scenario
// name is <clients>x<servers>; users = clients − 6, matching the
// standard analyze configuration (clients = users + 6).
void BM_SimulateCluster(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int servers = static_cast<int>(state.range(1));
  const SimDuration measured = 10 * kMinute;
  const SimDuration warmup = 2 * kMinute;
  uint64_t events = 0;
  double sim_hours = 0.0;
  for (auto _ : state) {
    WorkloadParams params;
    params.num_users = clients - 6;
    params.seed = 1991;
    ClusterConfig cluster;
    cluster.num_clients = clients;
    cluster.num_servers = servers;
    Generator generator(params, cluster);
    const TraceLog trace = generator.Run(measured, warmup);
    benchmark::DoNotOptimize(trace.size());
    events += generator.queue().dispatched_count();
    sim_hours += static_cast<double>(measured + warmup) / kHour;
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_hours"] =
      benchmark::Counter(sim_hours, benchmark::Counter::kAvgIterations);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is the process-wide high-water mark in KiB, so it belongs to
  // this scenario only when the process runs no other (bench_trajectory.py
  // runs one scenario per process).
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_SimulateCluster)
    ->Args({26, 4})
    ->Args({100, 16})
    ->Args({400, 32})
    ->Unit(benchmark::kMillisecond);

// The rebalance ablation scenario (BENCH_sim_rebalance_<c>x<s>.json): the
// modulo hot-spot recipe — heavy simulation load on an async transport with
// windowed metrics, the detector, and the rebalancer all armed — so perf
// PRs gate the migration machinery's end-to-end cost, not just the quiet
// default path.
void BM_SimulateRebalance(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int servers = static_cast<int>(state.range(1));
  const SimDuration measured = 10 * kMinute;
  const SimDuration warmup = 2 * kMinute;
  uint64_t events = 0;
  double sim_hours = 0.0;
  for (auto _ : state) {
    WorkloadParams params;
    params.num_users = 2 * clients;
    params.seed = 1991;
    for (auto& group : params.groups) {
      group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
      group.sim_input_bytes *= 2;
    }
    ClusterConfig cluster;
    cluster.num_clients = clients;
    cluster.num_servers = servers;
    cluster.rpc.async = true;
    cluster.observability.metrics = true;
    cluster.observability.hotspot = true;
    cluster.observability.snapshot_interval = kMinute;
    cluster.rebalance.enabled = true;
    Generator generator(params, cluster);
    const TraceLog trace = generator.Run(measured, warmup);
    benchmark::DoNotOptimize(trace.size());
    events += generator.queue().dispatched_count();
    sim_hours += static_cast<double>(measured + warmup) / kHour;
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_hours"] =
      benchmark::Counter(sim_hours, benchmark::Counter::kAvgIterations);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_SimulateRebalance)->Args({4, 2})->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sprite

BENCHMARK_MAIN();
