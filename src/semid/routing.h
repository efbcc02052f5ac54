// Routers: per-tuple routing table vs. embedded-ID routing (§4.2).
//
// "Such tables can easily become a resource and performance bottleneck and
//  limit the scalability of the routing infrastructure."
// TableRouter and EmbeddedRouter are the §4.2 reproduction: the benchmark
// (bench/sec42_semantic_ids) and the semantic_id_routing example quantify
// the RAM footprint and lookup cost of a per-tuple map vs. a shift+mask.
// HashRouter places keys with no semantic placement by a mixed hash; it is
// the ShardedEngine's router. The three are plain classes with the same
// Route/MemoryBytes shape, not an interface: nothing picks one at run time.

#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/result.h"
#include "common/rng.h"
#include "semid/semantic_id.h"

namespace nblb {

/// \brief Baseline: explicit per-tuple routing table ("a large routing table
/// that maps tuple IDs to their physical location").
class TableRouter {
 public:
  void Add(uint64_t id, uint32_t partition) { map_[id] = partition; }

  /// \brief Partition of `id`; NotFound if no placement was added.
  Result<uint32_t> Route(uint64_t id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return Status::NotFound("id not in routing table");
    return it->second;
  }

  /// \brief Approximate RAM the routing state occupies.
  size_t MemoryBytes() const {
    // Node-based map: key + value + bucket pointer + node overhead.
    return map_.size() * (sizeof(uint64_t) + sizeof(uint32_t) +
                          2 * sizeof(void*)) +
           map_.bucket_count() * sizeof(void*);
  }

  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<uint64_t, uint32_t> map_;
};

/// \brief Stateless fallback for keys with no semantic placement: partition
/// by a mixed hash of the ID. Unlike TableRouter it costs no RAM and unlike
/// EmbeddedRouter it needs no ID rewrite, but it cannot express placement
/// policy — a tuple's home is fixed by its hash forever.
class HashRouter {
 public:
  explicit HashRouter(uint32_t num_partitions)
      : num_partitions_(num_partitions) {}

  /// \brief Partition of `id`, in [0, num_partitions); never fails.
  Result<uint32_t> Route(uint64_t id) const {
    return static_cast<uint32_t>(Mix(id) % num_partitions_);
  }

  size_t MemoryBytes() const { return sizeof(*this); }

  uint32_t num_partitions() const { return num_partitions_; }

 private:
  // Sequential IDs (auto-increment keys) must not all land in the same
  // partition, so `id % n` is not enough — spread them first.
  static uint64_t Mix(uint64_t x) { return SplitMix64(x); }

  uint32_t num_partitions_;
};

/// \brief §4.2 proposal: the partition is embedded in the ID itself.
class EmbeddedRouter {
 public:
  explicit EmbeddedRouter(SemanticIdCodec codec) : codec_(codec) {}

  Result<uint32_t> Route(uint64_t id) const { return codec_.PartitionOf(id); }

  size_t MemoryBytes() const { return sizeof(codec_); }

  const SemanticIdCodec& codec() const { return codec_; }

 private:
  SemanticIdCodec codec_;
};

}  // namespace nblb
