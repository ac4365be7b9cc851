#include "ccg/parse_cache.hpp"

#include <functional>

namespace sage::ccg {

namespace {

/// FNV-1a, the same stable mixing the logical-form structural hash uses.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kPrime;
  }
  return h;
}

}  // namespace

ParseCache::ParseCache(std::size_t capacity, std::size_t shards) {
  if (shards == 0) shards = 1;
  if (capacity == 0) capacity = 1;
  if (shards > capacity) shards = capacity;
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::uint64_t ParseCache::options_fingerprint(const ParserOptions& options) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  h = fnv1a(h, options.record_derivations ? 1 : 0);
  h = fnv1a(h, options.max_edges_per_cell);
  h = fnv1a(h, options.max_tokens);
  return h;
}

std::string ParseCache::key_of(const std::vector<nlp::Token>& tokens,
                               std::string_view context_fingerprint,
                               const ParserOptions& options) {
  std::string key;
  key.reserve(tokens.size() * 8 + context_fingerprint.size() + 24);
  for (const nlp::Token& tok : tokens) {
    key += static_cast<char>('0' + static_cast<int>(tok.kind));
    if (tok.kind == nlp::TokenKind::kNumber) {
      key += std::to_string(tok.number);
    } else {
      key += tok.lower;
    }
    key += '\x1f';  // unit separator: token texts cannot contain it
  }
  key += '\x1e';  // record separator between sections
  key += context_fingerprint;
  key += '\x1e';
  key += std::to_string(options_fingerprint(options));
  return key;
}

ParseCache::Shard& ParseCache::shard_for(const std::string& key) {
  const std::size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::optional<CachedParse> ParseCache::lookup(const std::string& key) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void ParseCache::insert(const std::string& key, CachedParse value) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ParseCacheStats ParseCache::stats() const {
  ParseCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

std::size_t ParseCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace sage::ccg
