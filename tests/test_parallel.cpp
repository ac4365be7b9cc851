// The concurrency test layer (ctest label: concurrency; run it under
// -DSAGE_SANITIZE=thread for the race-freedom guarantee).
//
// Locks down what the serve daemon relies on when its workers build
// pipelines at once: fresh Sage instances on pool threads, with private
// parse caches or one shared cache, produce ProtocolRuns byte-identical
// to a serial, cache-off run — report sequence, winnow stage counts,
// generated C bodies, everything protocol_run_signature covers. Also
// stress-tests the ThreadPool itself, the parse-cache under concurrent
// hammering, and the parser's token/edge caps at their exact boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccg/parse_cache.hpp"
#include "ccg/parser.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/spec_corpora.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "util/thread_pool.hpp"

namespace sage {
namespace {

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForWorksWithSingleIndexAndZero) {
  util::ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          calls.fetch_add(1);
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> after{0};
  pool.parallel_for(50, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPool, SubmittedJobsRun) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
    // parallel_for drains through the same queue-independent ticket, so
    // use it as a barrier-ish flush: by the time destruction completes,
    // started jobs have finished.
    while (ran.load() < 16) std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, DestructionWithQueuedJobsDoesNotHang) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
    // Destroyed immediately: the stop_token-aware workers discard what
    // has not started. The assertion is simply that we get here.
  }
  EXPECT_LE(ran.load(), 64);
}

TEST(ThreadPool, ManyConcurrentParallelForsFromWorkers) {
  // parallel_for must be safe to call while the pool is busy (the
  // caller participates, so there is no thread-starvation deadlock).
  util::ThreadPool outer(2);
  std::atomic<int> total{0};
  outer.parallel_for(8, [&](std::size_t) {
    util::ThreadPool inner(2);
    inner.parallel_for(32, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 32);
}

// ---- differential determinism ----------------------------------------------

std::vector<corpus::SpecCorpus> corpora() {
  return {
      {"ICMP", corpus::rfc792_original(), "ICMP",
       corpus::icmp_non_actionable_annotations()},
      {"BFD", corpus::bfd_state_document(), "BFD", {}},
  };
}

class DifferentialDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DifferentialDeterminism, ConcurrentSagesMatchSerialByteForByte) {
  const std::size_t threads = GetParam();
  util::ThreadPool pool(threads);
  // Odd runs of both corpora share this cache, so documents that share
  // one cache must still match their serial runs.
  const auto shared_cache = std::make_shared<ccg::ParseCache>();
  for (const corpus::SpecCorpus& corpus : corpora()) {
    // Serial reference, memoization off.
    core::Sage reference_sage;
    reference_sage.set_parse_cache(nullptr);
    reference_sage.annotate_non_actionable(corpus.annotations);
    const std::string reference = core::protocol_run_signature(
        reference_sage.process(corpus.text, corpus.protocol));

    // 20 runs, each a fresh Sage on a pool thread as a serve worker
    // builds one, to shake out races: even runs use a private cache, odd
    // runs the shared one, so its hit path races its miss path too.
    std::vector<std::string> signatures(20);
    pool.parallel_for(signatures.size(), [&](std::size_t run) {
      core::Sage sage;
      if (run % 2 == 1) sage.set_parse_cache(shared_cache);
      sage.annotate_non_actionable(corpus.annotations);
      signatures[run] = core::protocol_run_signature(
          sage.process(corpus.text, corpus.protocol));
    });
    for (std::size_t run = 0; run < signatures.size(); ++run) {
      ASSERT_EQ(signatures[run], reference)
          << corpus.name << " diverged at " << threads << " threads, run "
          << run;
    }
  }
  EXPECT_GT(shared_cache->stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, DifferentialDeterminism,
                         ::testing::Values(1, 2, 8));

TEST(DifferentialDeterminism, CacheCountersSurfaceThroughProtocolRun) {
  // Two fresh Sage instances sharing one cache: the pipelines are
  // identical (process() on a *single* instance deliberately carries
  // discovered non-actionable sentences into the next run, so a shared
  // instance would legitimately diverge), and the second run must be
  // served from the cache.
  const auto cache = std::make_shared<ccg::ParseCache>();
  core::Sage first_sage;
  first_sage.set_parse_cache(cache);
  first_sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const auto first = first_sage.process(corpus::rfc792_original(), "ICMP");
  EXPECT_GT(first.cache.misses, 0u);

  core::Sage second_sage;
  second_sage.set_parse_cache(cache);
  second_sage.annotate_non_actionable(
      corpus::icmp_non_actionable_annotations());
  const auto second = second_sage.process(corpus::rfc792_original(), "ICMP");
  EXPECT_GT(second.cache.hits, 0u);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(core::protocol_run_signature(first),
            core::protocol_run_signature(second));
}

// ---- cap boundaries, serial and under concurrency --------------------------

std::vector<nlp::Token> tokens_for(const core::Sage& sage,
                                   const std::string& sentence) {
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  return chunker.chunk(nlp::tokenize(sentence));
}

TEST(CapBoundaries, SentenceAtExactlyMaxTokensParses) {
  core::Sage sage;
  const auto tokens = tokens_for(sage, "the checksum is zero");
  ASSERT_GE(tokens.size(), 2u);

  ccg::ParserOptions at_cap;
  at_cap.max_tokens = tokens.size();  // boundary: == must be allowed
  const ccg::CcgParser parser_at(&sage.lexicon(), at_cap);
  EXPECT_FALSE(parser_at.parse(tokens).forms.empty())
      << "a sentence of exactly max_tokens tokens must parse";

  ccg::ParserOptions below;
  below.max_tokens = tokens.size() - 1;  // boundary: one over must reject
  const ccg::CcgParser parser_below(&sage.lexicon(), below);
  const auto rejected = parser_below.parse(tokens);
  EXPECT_TRUE(rejected.forms.empty());
  EXPECT_TRUE(rejected.fragments.empty());
  EXPECT_EQ(rejected.chart_edges, 0u);
}

TEST(CapBoundaries, ChartEdgesNeverExceedTheCellBudget) {
  core::Sage sage;
  // Pathological coordination chain: every "and" doubles attachment
  // choices, the classic chart blowup.
  std::string chain = "the type";
  for (const char* field : {"the code", "the checksum", "the identifier",
                            "the sequence number", "the pointer"}) {
    chain += std::string(" and ") + field;
  }
  chain += " is zero";
  const auto tokens = tokens_for(sage, chain);

  for (const std::size_t cap : {1u, 2u, 8u, 96u}) {
    ccg::ParserOptions options;
    options.max_edges_per_cell = cap;
    const ccg::CcgParser parser(&sage.lexicon(), options);
    const auto result = parser.parse(tokens);
    const std::size_t n = tokens.size();
    const std::size_t cells = n * (n + 1) / 2;
    EXPECT_LE(result.chart_edges, cells * cap) << "cap " << cap;
  }
}

TEST(CapBoundaries, ConcurrentPathologicalChainsNeitherDeadlockNorBlowCaps) {
  core::Sage sage;
  util::ThreadPool pool(8);

  // A mix of boundary workloads hammered concurrently through the
  // shared lexicon: coordination chains of growing length, sentences at
  // the token cap, and tiny cell caps.
  std::vector<std::string> sentences;
  std::string chain = "the type";
  for (int i = 0; i < 8; ++i) {
    chain += " and the code";
    sentences.push_back(chain + " is zero");
  }

  std::atomic<std::size_t> done{0};
  pool.parallel_for(64, [&](std::size_t i) {
    const auto tokens = tokens_for(sage, sentences[i % sentences.size()]);
    ccg::ParserOptions options;
    options.max_edges_per_cell = (i % 3 == 0) ? 4 : 96;
    options.max_tokens = (i % 5 == 0) ? tokens.size() : 48;
    const ccg::CcgParser parser(&sage.lexicon(), options);
    const auto result = parser.parse(tokens);
    const std::size_t n = tokens.size();
    EXPECT_LE(result.chart_edges,
              n * (n + 1) / 2 * options.max_edges_per_cell);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64u);
}

// ---- parse cache under concurrency -----------------------------------------

TEST(ParseCacheConcurrency, ConcurrentHitsAndMissesAgreeWithSerial) {
  core::Sage sage;  // default per-instance cache
  const auto doc = rfc::preprocess(corpus::rfc792_original(), "ICMP");
  const auto sentences = rfc::extract_sentences(doc, "ICMP");
  ASSERT_FALSE(sentences.empty());

  // Serial, cache-free references.
  core::Sage plain;
  plain.set_parse_cache(nullptr);
  std::vector<std::string> expected;
  expected.reserve(sentences.size());
  for (const auto& sentence : sentences) {
    const auto report = plain.analyze_sentence(sentence);
    std::string sig = core::sentence_status_name(report.status);
    for (const auto& s : report.winnow.survivors) sig += "|" + s.to_string();
    expected.push_back(sig);
  }

  // Hammer the shared cache: every sentence analyzed 8 times
  // concurrently, so the same key races insert vs hit constantly.
  util::ThreadPool pool(8);
  pool.parallel_for(sentences.size() * 8, [&](std::size_t i) {
    const std::size_t index = i % sentences.size();
    const auto report = sage.analyze_sentence(sentences[index]);
    std::string sig = core::sentence_status_name(report.status);
    for (const auto& s : report.winnow.survivors) sig += "|" + s.to_string();
    EXPECT_EQ(sig, expected[index]) << sentences[index].text;
  });
  EXPECT_GT(sage.parse_cache()->stats().hits, 0u);
}

TEST(ParseCacheConcurrency, TinyCapacityUnderConcurrentEvictionStaysCorrect) {
  const auto cache = std::make_shared<ccg::ParseCache>(2, 1);
  core::Sage sage;
  sage.set_parse_cache(cache);
  core::Sage plain;
  plain.set_parse_cache(nullptr);

  std::vector<rfc::SpecSentence> sentences;
  for (const char* text :
       {"the checksum is zero", "the code is one", "the type is two",
        "the identifier is three", "the sequence number is four"}) {
    rfc::SpecSentence s;
    s.text = text;
    sentences.push_back(std::move(s));
  }
  std::vector<std::size_t> expected;
  for (const auto& s : sentences) {
    expected.push_back(plain.analyze_sentence(s).winnow.survivors.size());
  }

  util::ThreadPool pool(4);
  pool.parallel_for(200, [&](std::size_t i) {
    const std::size_t index = i % sentences.size();
    const auto report = sage.analyze_sentence(sentences[index]);
    EXPECT_EQ(report.winnow.survivors.size(), expected[index])
        << sentences[index].text;
  });
  // Five keys through a two-entry cache must evict.
  EXPECT_GT(cache->stats().evictions, 0u);
  EXPECT_LE(cache->size(), cache->capacity());
}

}  // namespace
}  // namespace sage
