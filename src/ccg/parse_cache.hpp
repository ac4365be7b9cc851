// Memoization cache for sentence parses.
//
// The ablation benches re-run the same corpora dozens of times, the
// serve daemon shares one cache across every pipeline it builds, and a
// document repeats many sentences verbatim ("The checksum is the 16-bit
// one's complement ..." appears in every ICMP message section). Parsing is by far the dominant cost, and it is a pure
// function of (tokens, structural context, parser options) — so the
// pipeline memoizes the post-context candidate set.
//
// Keying: the cache key is the normalized token sequence (kind + lowered
// text + numeric value per token), a fingerprint of the dynamic context
// the pipeline folds into parsing (the structural "field" subject plus
// chunking configuration), and a hash of every ParserOptions knob.
// Distinct options can therefore never alias to the same entry — an
// ablation run with composition disabled does not poison the cache for
// the full-grammar run.
//
// Concurrency: sharded LRU with one mutex per shard (mutex striping).
// Shard choice is the key hash, so two threads parsing different
// sentences almost never contend; hit/miss/eviction counters are
// relaxed atomics surfaced through ProtocolRun for the benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ccg/parser.hpp"
#include "lf/logical_form.hpp"
#include "nlp/tokenizer.hpp"

namespace sage::ccg {

/// The memoized outcome of the parse (+ structural-context retry) stage
/// for one sentence: everything downstream winnowing needs, nothing it
/// could mutate in place.
struct CachedParse {
  std::vector<lf::LogicalForm> candidates;
  std::vector<std::string> unknown_tokens;
  bool used_structural_context = false;
};

/// Monotonic counters (totals since construction).
struct ParseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  std::uint64_t lookups() const { return hits + misses; }
};

class ParseCache {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `shards`. Both are clamped to at least 1.
  explicit ParseCache(std::size_t capacity = 4096, std::size_t shards = 8);

  /// Stable fingerprint of every knob that changes parse results.
  static std::uint64_t options_fingerprint(const ParserOptions& options);

  /// Build the full cache key for a token sequence under a dynamic
  /// context (e.g. the structural "field" + chunking mode) and options.
  static std::string key_of(const std::vector<nlp::Token>& tokens,
                            std::string_view context_fingerprint,
                            const ParserOptions& options);

  /// Returns a copy of the cached value and promotes the entry to
  /// most-recently-used; nullopt on miss.
  std::optional<CachedParse> lookup(const std::string& key);

  /// Insert (or refresh) an entry, evicting the shard's LRU tail when
  /// over budget.
  void insert(const std::string& key, CachedParse value);

  ParseCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return per_shard_capacity_ * shards_.size(); }

 private:
  struct Entry {
    std::string key;
    CachedParse value;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  Shard& shard_for(const std::string& key);

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace sage::ccg
