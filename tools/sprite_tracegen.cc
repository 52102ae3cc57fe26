// sprite-tracegen: generate a synthetic Sprite-cluster trace to a file.
//
// Usage:
//   sprite_tracegen [options] <output.trace>
//     --users N        number of simulated users           (default 20)
//     --clients N      number of workstations              (default users+6)
//     --servers N      number of file servers              (default 4)
//     --minutes N      traced duration in minutes          (default 90)
//     --warmup N       untraced warmup minutes             (default 30)
//     --seed N         RNG seed                            (default 1991)
//     --heavy          use the large-file (simulation) mix
//     --text           write the human-readable text format
//
// The binary format is read back with sprite_analyze or trace::ReadTraceFile.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/trace/codec.h"
#include "src/trace/text_format.h"
#include "src/workload/generator.h"

using namespace sprite;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: sprite_tracegen [--users N] [--clients N] [--servers N] [--minutes N]\n"
               "                       [--warmup N] [--seed N] [--heavy] [--text] OUTPUT\n");
}

}  // namespace

int main(int argc, char** argv) {
  int users = 20;
  int clients = -1;
  int servers = 4;
  int minutes = 90;
  int warmup = 30;
  uint64_t seed = 1991;
  bool heavy = false;
  bool text = false;
  std::string output;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      out = std::atoi(argv[++i]);
    };
    // A client count of zero or less is rejected here, before anything is
    // generated, as sprite_analyze does.
    auto next_positive = [&](int& out) {
      next_int(out);
      if (out <= 0) {
        std::fprintf(stderr, "%s must be positive, got %s\n", arg.c_str(), argv[i]);
        std::exit(2);
      }
    };
    if (arg == "--users") {
      next_int(users);
    } else if (arg == "--clients") {
      next_positive(clients);
    } else if (arg == "--servers") {
      next_int(servers);
    } else if (arg == "--minutes") {
      next_int(minutes);
    } else if (arg == "--warmup") {
      next_int(warmup);
    } else if (arg == "--seed") {
      int s = 0;
      next_int(s);
      seed = static_cast<uint64_t>(s);
    } else if (arg == "--heavy") {
      heavy = true;
    } else if (arg == "--text") {
      text = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      Usage();
      return 2;
    } else {
      output = arg;
    }
  }
  if (output.empty() || users <= 0 || servers <= 0 || minutes <= 0 || warmup < 0) {
    Usage();
    return 2;
  }
  if (clients < 0) {
    clients = users + 6;
  }

  WorkloadParams params;
  params.num_users = users;
  params.seed = seed;
  if (heavy) {
    for (auto& group : params.groups) {
      group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
      group.sim_input_bytes *= 2;
    }
  }
  ClusterConfig cluster;
  cluster.num_clients = clients;
  cluster.num_servers = servers;

  std::fprintf(stderr, "generating %d min (+%d warmup) for %d users on %d clients...\n",
               minutes, warmup, users, clients);
  std::unique_ptr<Generator> generator;
  try {
    generator = std::make_unique<Generator>(params, cluster);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad configuration: %s\n", e.what());
    return 2;
  }
  const TraceLog trace =
      generator->Run(static_cast<SimDuration>(minutes) * kMinute,
                     static_cast<SimDuration>(warmup) * kMinute);

  if (text) {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", output.c_str());
      return 1;
    }
    DumpText(trace, out);
  } else {
    WriteTraceFile(output, trace);
  }
  std::fprintf(stderr, "wrote %zu records to %s\n", trace.size(), output.c_str());
  return 0;
}
