// Hash-consing (interning) infrastructure for CCG categories and terms.
//
// Both `Category` and `Term` are immutable trees built exclusively
// through factory functions. The factories route every construction
// through a process-wide intern table: structurally identical nodes get
// the SAME canonical `shared_ptr`, so
//
//   * structural equality is pointer equality (no recursive compares on
//     the parse hot path),
//   * every node carries a precomputed structural hash and a dense
//     integer id, which is what the chart's edge-dedup set and the
//     per-cell combinability indexes key on (src/ccg/parser.cpp), and
//   * rebuilding a subtree that already exists allocates nothing —
//     β-reduction steps that do not touch a subtree return the original
//     interned node.
//
// Concurrency: the tables are mutex-striped (shard = high hash bits), so
// parallel parses interning different structures almost never contend.
// Entries are intentionally immortal — the table owns one shared_ptr per
// distinct structure — so only what must live for ever is interned:
// categories, lexicon terms, lexical leaves, and the reduced combinator
// results the parser's memo keeps, with their subterms. A memo miss
// builds its wrapper and β-reduces it in a per-thread scratch generation
// of uninterned terms and promotes only the result (ScratchScope in
// term.hpp), so no process-table node points at a scratch node. Growth
// stops once a workload has been seen, because no term's identity
// depends on process history: parse-time variable ids restart at
// kParseVarBase for every parse and lexicon binder ids at kLexVarBase
// for every lexicon (see VarGen in term.hpp).
// Rebuilding the grammar or re-parsing a sentence re-interns the same
// nodes, so the parser's combinator memo, keyed on their ids, stops
// growing too.
// `category_interner_size()` / `term_interner_size()` expose the live
// table sizes for `sage_debug --parse-stats` and the property tests.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace sage::ccg {

/// FNV-1a mixing, the same stable scheme the logical-form structural
/// hash and the parse cache use. Seed with kHashSeed, then fold values.
inline constexpr std::uint64_t kHashSeed = 14695981039346656037ull;

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kPrime;
  }
  return h;
}

inline std::uint64_t hash_bytes(std::uint64_t h, std::string_view s) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= kPrime;
  }
  return h;
}

/// A table split into 16 lock stripes, each a flat open-addressing
/// table: power-of-two capacity, linear probing, doubled at 3/4 load.
/// Entries are never deleted — the tables built on it keep theirs for
/// the process lifetime — which is exactly the case where tombstone-free
/// linear probing is both simplest and fastest: a find is one or two
/// contiguous cache lines. A hash picks its stripe by its top four bits
/// and its slot by its low bits; callers hold the stripe's `mutex` while
/// they probe or insert. `Entry::empty()` marks a free slot;
/// `Entry::hash()` places a resident again when its stripe grows.
template <typename Entry>
class ShardedFlat {
 public:
  /// One stripe. Cache-line aligned so neighbouring stripes' mutexes do
  /// not share a line.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries = std::vector<Entry>(64);
    std::size_t used = 0;

    /// Slot of the first entry on `hash`'s probe sequence that
    /// `matches`, or the empty slot where it belongs (load is capped at
    /// 3/4, so an empty slot always ends the sequence).
    template <typename Matches>
    std::size_t find_slot(std::uint64_t hash, Matches&& matches) const {
      const std::size_t mask = entries.size() - 1;
      std::size_t slot = static_cast<std::size_t>(hash) & mask;
      while (!entries[slot].empty() && !matches(entries[slot])) {
        slot = (slot + 1) & mask;
      }
      return slot;
    }

    /// Fills the empty `slot` find_slot returned.
    void insert(std::size_t slot, Entry entry) {
      entries[slot] = std::move(entry);
      if (++used * 4 <= entries.size() * 3) return;
      std::vector<Entry> old = std::move(entries);
      entries.assign(old.size() * 2, Entry{});
      const std::size_t mask = entries.size() - 1;
      for (Entry& e : old) {
        if (e.empty()) continue;
        std::size_t s = static_cast<std::size_t>(e.hash()) & mask;
        while (!entries[s].empty()) s = (s + 1) & mask;
        entries[s] = std::move(e);
      }
    }
  };

  Shard& shard_for(std::uint64_t hash) { return shards_[hash >> 60]; }

  /// Entries stored over all stripes.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total += shard.used;
    }
    return total;
  }

 private:
  std::array<Shard, 16> shards_;
};

/// One InternTable slot: a canonical node and its structural hash.
template <typename Node>
struct InternEntry {
  std::uint64_t key_hash = 0;
  std::shared_ptr<const Node> node;  // nullptr marks an empty slot
  bool empty() const { return node == nullptr; }
  std::uint64_t hash() const { return key_hash; }
};

/// Thread-safe hash-consing table. `Key` is a cheap probe view of a
/// node's structure (child pointers + scalars + string_views) carrying
/// its precomputed `hash`; `stored_key_of(node)` rebuilds that view
/// from a canonical node so probes can be compared against residents.
/// The stored 64-bit hash is screened before any full key comparison.
template <typename Node, typename Key, typename KeyHash>
class InternTable : public ShardedFlat<InternEntry<Node>> {
 public:
  using Ptr = std::shared_ptr<const Node>;

  /// Returns the canonical node for `probe`, creating it with
  /// `make(id)` on first sight. `stored_key_of(node)` must rebuild the
  /// probe key with views into the node's own storage.
  template <typename Factory, typename StoredKeyOf>
  Ptr intern(const Key& probe, Factory&& make, StoredKeyOf&& stored_key_of) {
    auto& shard = this->shard_for(probe.hash);
    std::lock_guard lock(shard.mutex);
    const std::size_t slot = shard.find_slot(probe.hash, [&](const Entry& e) {
      return e.key_hash == probe.hash && stored_key_of(*e.node) == probe;
    });
    if (!shard.entries[slot].empty()) return shard.entries[slot].node;
    Ptr node = make(next_id_.fetch_add(1, std::memory_order_relaxed));
    shard.insert(slot, Entry{probe.hash, node});
    return node;
  }

 private:
  using Entry = InternEntry<Node>;
  std::atomic<std::uint32_t> next_id_{1};
};

/// Live intern-table sizes (distinct structures seen process-wide).
std::size_t category_interner_size();  // defined in category.cpp
std::size_t term_interner_size();      // defined in term.cpp

}  // namespace sage::ccg
