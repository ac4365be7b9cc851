// Hash-consing (interning) infrastructure for CCG categories and terms.
//
// Both `Category` and `Term` are immutable trees built exclusively
// through factory functions. The factories route every construction
// through a process-wide intern table: structurally identical nodes get
// the SAME canonical `const Node*`, so
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
// Each table owns its nodes in an immortal NodeStore and their names
// live in the immortal name pool (pool_name), so a node pointer is valid
// for the process lifetime and nothing counts references. Only what must
// live for ever is interned: categories, lexicon terms, lexical leaves,
// and the reduced combinator results the parser's memo keeps, with their
// subterms. A memo miss builds its wrapper and β-reduces it in a
// per-thread scratch generation of uninterned terms and promotes only
// the result (ScratchScope in term.hpp), so no process-table node points
// at a scratch node. Growth stops once a workload has been seen, because
// no term's identity depends on process history: parse-time variable ids
// restart at kParseVarBase for every parse and lexicon binder ids at
// kLexVarBase for every lexicon (see VarGen in term.hpp).
//
// Concurrency: the tables are mutex-striped (shard = high hash bits), so
// parallel parses interning different structures almost never contend;
// a table's store has a mutex of its own, taken only to place a new node.
#pragma once

#include <sanitizer/asan_interface.h>  // no-op macros without ASan

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
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

/// Fixed-size chunks of placement-built, trivially destructible nodes.
/// A node never moves and stays valid until reset(), which the intern
/// tables never call; under ASan a slot is poisoned until allocate()
/// hands it out and again after reset(). Not thread-safe.
template <typename Node, std::size_t kChunk>
class NodeStore {
  static_assert(std::is_trivially_destructible_v<Node>);

 public:
  /// Storage for one more node.
  void* allocate() {
    if (used_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunk));
      ASAN_POISON_MEMORY_REGION(chunks_.back().get(), kChunk * sizeof(Slot));
    }
    Slot* slot = &chunks_[used_ / kChunk][used_ % kChunk];
    ++used_;
    ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Slot));
    return slot->bytes;
  }

  /// Nodes allocated since the last reset.
  std::size_t size() const { return used_; }
  /// Chunk bytes held.
  std::size_t bytes() const { return chunks_.size() * kChunk * sizeof(Slot); }

  /// Forgets every node and keeps the chunks for the next ones.
  void reset() {
    for (std::size_t c = 0; c * kChunk < used_; ++c) {
      ASAN_POISON_MEMORY_REGION(chunks_[c].get(), kChunk * sizeof(Slot));
    }
    used_ = 0;
  }

 private:
  struct Slot {
    alignas(Node) std::byte bytes[sizeof(Node)];
  };
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t used_ = 0;
};

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
      entries[slot] = entry;
      if (++used * 4 <= entries.size() * 3) return;
      std::vector<Entry> old = std::move(entries);
      entries.assign(old.size() * 2, Entry{});
      const std::size_t mask = entries.size() - 1;
      for (const Entry& e : old) {
        if (e.empty()) continue;
        std::size_t s = static_cast<std::size_t>(e.hash()) & mask;
        while (!entries[s].empty()) s = (s + 1) & mask;
        entries[s] = e;
      }
    }
  };

  Shard& shard_for(std::uint64_t hash) { return shards_[hash >> 60]; }

  /// Entries stored over all stripes.
  std::size_t size() const { return sum([](auto& s) { return s.used; }); }
  /// Slot bytes held over all stripes.
  std::size_t bytes() const {
    return sum([](auto& s) { return s.entries.size() * sizeof(Entry); });
  }

 private:
  template <typename Of>
  std::size_t sum(Of&& of) const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total += of(shard);
    }
    return total;
  }

  std::array<Shard, 16> shards_;
};

/// One InternTable slot: a resident node, screened by the hash stored in
/// the node itself. `Key::of(node)` rebuilds the node's probe key.
template <typename Node, typename Key>
struct InternSlot {
  const Node* node = nullptr;  // nullptr marks an empty slot
  bool empty() const { return node == nullptr; }
  std::uint64_t hash() const { return Key::of(*node).hash; }
};

/// Thread-safe hash-consing table that owns its nodes. `Key` is a cheap
/// probe view of a node's structure (child pointers + scalars +
/// string_views) carrying its precomputed `hash`; the static
/// `Key::of(node)` rebuilds it from a resident, and the stored hash is
/// screened before any full key comparison.
template <typename Node, typename Key>
class InternTable : public ShardedFlat<InternSlot<Node, Key>> {
 public:
  /// Returns the canonical node for `probe`. On first sight,
  /// `build(memory, id)` placement-constructs it in the table's store
  /// with the next dense id (same structure <=> same id, from 1).
  template <typename Build>
  const Node* intern(const Key& probe, Build&& build) {
    auto& shard = this->shard_for(probe.hash);
    std::lock_guard lock(shard.mutex);
    const std::size_t slot = shard.find_slot(probe.hash, [&](const Slot& s) {
      const Key resident = Key::of(*s.node);
      return resident.hash == probe.hash && resident == probe;
    });
    if (!shard.entries[slot].empty()) return shard.entries[slot].node;
    std::lock_guard store_lock(store_mutex_);
    void* memory = store_.allocate();
    const Node* node = build(memory, static_cast<std::uint32_t>(store_.size()));
    shard.insert(slot, Slot{node});
    return node;
  }

  /// Slot and node-chunk bytes held. Takes the store's lock and the
  /// stripes' locks one at a time (intern() nests them stripe first).
  std::size_t bytes() const {
    std::size_t nodes = 0;
    {
      std::lock_guard lock(store_mutex_);
      nodes = store_.bytes();
    }
    return ShardedFlat<Slot>::bytes() + nodes;
  }

 private:
  using Slot = InternSlot<Node, Key>;
  mutable std::mutex store_mutex_;
  NodeStore<Node, 256> store_;
};

/// Copies `name` into the process-wide name pool: append-only chunks
/// that are never freed, so the returned view is valid for the process
/// lifetime. Interned and scratch terms and primitive categories keep
/// their names here. Thread-safe. Defined in term.cpp.
std::string_view pool_name(std::string_view name);

/// Live intern-table sizes (distinct structures seen process-wide).
std::size_t category_interner_size();  // defined in category.cpp
std::size_t term_interner_size();      // defined in term.cpp

/// Bytes the term interner holds: its node chunks and slots, plus the
/// name pool's chunks.
std::size_t term_store_bytes();  // defined in term.cpp

}  // namespace sage::ccg
