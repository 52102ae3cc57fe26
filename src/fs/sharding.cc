#include "src/fs/sharding.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sprite {

namespace {

// Ids with the sign bit set can only come from a negative value squeezed
// through FileId's unsigned conversion; the workload allocator never gets
// anywhere near 2^63.
constexpr FileId kSignBit = FileId{1} << 63;

class ModuloSharder final : public Sharder {
 public:
  explicit ModuloSharder(int num_servers) : Sharder(ShardingPolicy::kModulo, num_servers) {}

 protected:
  // Bit-identical to the historical `file % servers_.size()` partition.
  ServerId Place(FileId file) const override {
    return static_cast<ServerId>(file % static_cast<FileId>(num_servers()));
  }
};

class HashSharder final : public Sharder {
 public:
  explicit HashSharder(int num_servers) : Sharder(ShardingPolicy::kHash, num_servers) {}

 protected:
  ServerId Place(FileId file) const override {
    return static_cast<ServerId>(SplitMix64(file) % static_cast<uint64_t>(num_servers()));
  }
};

class RangeSharder final : public Sharder {
 public:
  // Uniform partition of [0, kDefaultRangeSpan); the last server also owns
  // everything at or above the span.
  explicit RangeSharder(int num_servers) : Sharder(ShardingPolicy::kRange, num_servers) {
    splits_.reserve(static_cast<size_t>(num_servers) - 1);
    for (int i = 1; i < num_servers; ++i) {
      splits_.push_back(kDefaultRangeSpan / static_cast<FileId>(num_servers) *
                        static_cast<FileId>(i));
    }
  }

 protected:
  // Server i owns the half-open range [splits[i-1], splits[i]); server 0's
  // range starts at 0 and the last server's is unbounded above, so every id
  // belongs to exactly one server (no gaps, no overlaps).
  ServerId Place(FileId file) const override {
    const auto it = std::upper_bound(splits_.begin(), splits_.end(), file);
    return static_cast<ServerId>(it - splits_.begin());
  }

 private:
  std::vector<FileId> splits_;
};

class DirAffinitySharder final : public Sharder {
 public:
  explicit DirAffinitySharder(int num_servers)
      : Sharder(ShardingPolicy::kDirAffinity, num_servers) {}

 protected:
  // Hash the parent directory, not the file: everything under one directory
  // lands on one server, and a directory is a fixed point of
  // HomeDirectoryOf, so it co-locates with its children.
  ServerId Place(FileId file) const override {
    return static_cast<ServerId>(SplitMix64(HomeDirectoryOf(file)) %
                                 static_cast<uint64_t>(num_servers()));
  }
};

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

FileId HomeDirectoryOf(FileId file) {
  using L = FileIdLayout;
  if (file >= L::kTempBase) {
    return file;  // fresh temporaries: no durable parent
  }
  if (file >= L::kUserFileBase) {
    return L::kDirectoryBase + (file - L::kUserFileBase) / L::kUserFileStride;
  }
  if (file >= L::kBackingBase) {
    return file;  // per-client VM backing files: no durable parent
  }
  if (file >= L::kSharedBase) {
    return L::kSharedDirectory;
  }
  if (file >= L::kDirectoryBase) {
    return file;  // a directory is its own home
  }
  if (file >= L::kMailboxBase) {
    return L::kDirectoryBase + (file - L::kMailboxBase);
  }
  return L::kSystemDirectory;  // executables and low fixed ids
}

const char* ShardingPolicyName(ShardingPolicy policy) {
  switch (policy) {
    case ShardingPolicy::kModulo:
      return "modulo";
    case ShardingPolicy::kHash:
      return "hash";
    case ShardingPolicy::kRange:
      return "range";
    case ShardingPolicy::kDirAffinity:
      return "dir-affinity";
  }
  return "unknown";
}

bool ParseShardingPolicy(const std::string& name, ShardingPolicy* out) {
  if (name == "modulo") {
    *out = ShardingPolicy::kModulo;
  } else if (name == "hash") {
    *out = ShardingPolicy::kHash;
  } else if (name == "range") {
    *out = ShardingPolicy::kRange;
  } else if (name == "dir-affinity" || name == "dir") {
    *out = ShardingPolicy::kDirAffinity;
  } else {
    return false;
  }
  return true;
}

Sharder::Sharder(ShardingPolicy policy, int num_servers)
    : policy_(policy), num_servers_(num_servers) {
  if (num_servers <= 0) {
    throw std::invalid_argument("Sharder: need at least one server");
  }
}

ServerId Sharder::ServerFor(FileId file) const {
  if ((file & kSignBit) != 0) {
    throw std::invalid_argument(
        "Sharder::ServerFor: FileId has the sign bit set (a negative id "
        "converted to unsigned?)");
  }
  return Place(file);
}

std::unique_ptr<Sharder> MakeSharder(const ShardingConfig& config, int num_servers) {
  switch (config.policy) {
    case ShardingPolicy::kModulo:
      return std::make_unique<ModuloSharder>(num_servers);
    case ShardingPolicy::kHash:
      return std::make_unique<HashSharder>(num_servers);
    case ShardingPolicy::kRange:
      return std::make_unique<RangeSharder>(num_servers);
    case ShardingPolicy::kDirAffinity:
      return std::make_unique<DirAffinitySharder>(num_servers);
  }
  throw std::invalid_argument("MakeSharder: unknown sharding policy");
}

PlacementLedger::PlacementLedger(int num_servers)
    : files_(static_cast<size_t>(num_servers)), routed_(static_cast<size_t>(num_servers), 0) {}

void PlacementLedger::Note(ServerId server, FileId file) {
  files_[server].insert(file);
  ++routed_[server];
}

int64_t PlacementLedger::files_placed(ServerId server) const {
  return static_cast<int64_t>(files_.at(server).size());
}

int64_t PlacementLedger::routed(ServerId server) const { return routed_.at(server); }

void PlacementLedger::Grow(int num_servers) {
  if (static_cast<size_t>(num_servers) > files_.size()) {
    files_.resize(static_cast<size_t>(num_servers));
    routed_.resize(static_cast<size_t>(num_servers), 0);
  }
}

int64_t PlacementLedger::total_routed() const {
  int64_t total = 0;
  for (const int64_t r : routed_) {
    total += r;
  }
  return total;
}

void PlacementLedger::Reset() {
  for (auto& set : files_) {
    set.clear();
  }
  std::fill(routed_.begin(), routed_.end(), 0);
}

SkewSummary ComputeSkew(const std::vector<int64_t>& loads) {
  SkewSummary s;
  if (loads.empty()) {
    return s;
  }
  int64_t total = 0;
  for (const int64_t v : loads) {
    s.max = std::max(s.max, v);
    total += v;
  }
  s.mean = static_cast<double>(total) / static_cast<double>(loads.size());
  if (total == 0) {
    return s;  // no load, no skew
  }
  s.max_over_mean = static_cast<double>(s.max) / s.mean;
  double variance = 0.0;
  for (const int64_t v : loads) {
    const double d = static_cast<double>(v) - s.mean;
    variance += d * d;
  }
  variance /= static_cast<double>(loads.size());
  s.cv = std::sqrt(variance) / s.mean;
  return s;
}

}  // namespace sprite
