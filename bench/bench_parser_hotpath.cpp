// Parser hot path (not a paper artifact).
//
// Measures raw single-thread CCG chart-parser throughput with no parse
// cache in the loop — the cost of every parse-cache miss, such as the
// re-parse after each rewrite of a sentence. The workload is the
// combined sentence set of all five RFC corpora (ICMP, IGMP, NTP, BFD,
// TCP probe), tokenized and chunked once up front so only
// CcgParser::parse is on the clock. The process-wide term interner and
// combinator memo are warm after the untimed first pass, as they are
// for every re-parse in a long-running process, so the timed passes
// build no new terms.
//
// Reported per configuration:
//   * sentences/s and chart edges/s (single thread);
//   * heap allocations and peak live bytes per pass, via an
//     instrumented global operator new/delete in this TU;
//   * the interned terms after the passes and the bytes the term store
//     and the combinator memo hold.
//
// Gate: at most 5,000 heap allocations per pass. Results and the gate go
// through benchutil::Scorecard to BENCH_parser_hotpath.json, copied to
// bench/results/; EXPERIMENTS.md records the history of these numbers.
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ccg/interner.hpp"
#include "ccg/parser.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/rfc793.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"

namespace {

// ---- allocation instrumentation -------------------------------------------

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live{0};

void note_alloc(void* p) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_live.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_live.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

struct AllocSnapshot {
  std::uint64_t count;
  std::uint64_t peak;
};

AllocSnapshot snapshot_and_reset_peak() {
  AllocSnapshot snap{g_alloc_count.load(std::memory_order_relaxed),
                     g_peak_live.load(std::memory_order_relaxed)};
  g_peak_live.store(g_live_bytes.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return snap;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

using namespace sage;

namespace {

std::string tcp_text() {
  std::string text = "TCP State Management\n\n   Description\n\n";
  for (const auto& s : corpus::tcp_probe_sentences()) {
    text += "      " + s.text + "\n";
  }
  return text;
}

/// Every corpus sentence, tokenized+chunked exactly as the pipeline does.
std::vector<std::vector<nlp::Token>> workload(const core::Sage& sage) {
  const std::vector<std::pair<std::string, std::string>> corpora = {
      {corpus::rfc792_original(), "ICMP"},
      {corpus::rfc1112_appendix_i(), "IGMP"},
      {corpus::rfc1059_appendices(), "NTP"},
      {corpus::bfd_state_document(), "BFD"},
      {tcp_text(), "TCP"},
  };
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  std::vector<std::vector<nlp::Token>> out;
  for (const auto& [text, protocol] : corpora) {
    const auto doc = rfc::preprocess(text, protocol);
    for (const auto& sentence : rfc::extract_sentences(doc, protocol)) {
      out.push_back(chunker.chunk(nlp::tokenize(sentence.text)));
    }
  }
  return out;
}

struct Measurement {
  double ms_per_pass = 0;
  double sentences_per_s = 0;
  double edges_per_s = 0;
  double allocs_per_pass = 0;
  std::uint64_t peak_live_bytes = 0;
  std::size_t forms = 0;  // total logical forms per pass (output sanity)
};

Measurement measure(const ccg::CcgParser& parser,
                    const std::vector<std::vector<nlp::Token>>& sentences,
                    int iterations) {
  Measurement m;
  // Warmup pass: interners, combinator memo and lexicon singletons
  // populate outside the clock.
  std::size_t edges = 0;
  for (const auto& tokens : sentences) {
    const auto result = parser.parse(tokens);
    edges += result.chart_edges;
    m.forms += result.forms.size();
  }

  const AllocSnapshot before = snapshot_and_reset_peak();
  const double start = benchutil::now_ms();
  for (int i = 0; i < iterations; ++i) {
    for (const auto& tokens : sentences) {
      (void)parser.parse(tokens);
    }
  }
  const double elapsed = benchutil::now_ms() - start;
  const AllocSnapshot after = snapshot_and_reset_peak();

  m.ms_per_pass = elapsed / iterations;
  m.sentences_per_s =
      static_cast<double>(sentences.size()) / (m.ms_per_pass / 1000.0);
  m.edges_per_s = static_cast<double>(edges) / (m.ms_per_pass / 1000.0);
  m.allocs_per_pass =
      static_cast<double>(after.count - before.count) / iterations;
  m.peak_live_bytes = after.peak;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  int iterations = 20;
  if (argc > 1) iterations = std::atoi(argv[1]);
  if (iterations <= 0) iterations = 1;

  benchutil::title("Parser hot path",
                   "uncached chart parsing, all five RFC corpora");

  core::Sage sage;  // lexicon + dictionary source
  const auto sentences = workload(sage);
  std::size_t token_count = 0;
  for (const auto& s : sentences) token_count += s.size();

  benchutil::row("workload",
                 benchutil::fmt("%zu sentences, %zu tokens, %d iterations",
                                sentences.size(), token_count, iterations));

  const ccg::CcgParser parser(&sage.lexicon());
  const Measurement prod = measure(parser, sentences, iterations);

  benchutil::row("configuration",
                 "ms/pass   sent/s      edges/s      allocs/pass");
  benchutil::rule();
  benchutil::row("uncached parse, single thread",
                 benchutil::fmt("%8.2f   %8.0f   %10.0f   %10.0f",
                                prod.ms_per_pass, prod.sentences_per_s,
                                prod.edges_per_s, prod.allocs_per_pass));
  benchutil::row("peak live heap during passes",
                 benchutil::fmt("%.1f MiB",
                                prod.peak_live_bytes / (1024.0 * 1024.0)));
  benchutil::row("output sanity",
                 benchutil::fmt("%zu logical forms/pass", prod.forms));
  const std::size_t terms = ccg::term_interner_size();
  const std::size_t term_bytes = ccg::term_store_bytes();
  const std::size_t memo_bytes = ccg::combine_memo_bytes();
  benchutil::row("interned terms",
                 benchutil::fmt("%zu (term store %zu bytes, memo %zu bytes)",
                                terms, term_bytes, memo_bytes));

  benchutil::Scorecard card("parser_hotpath");
  card.str("workload",
           benchutil::fmt("ICMP+IGMP+NTP+BFD+TCP, %zu sentences, %zu tokens",
                          sentences.size(), token_count))
      .num("iterations", iterations)
      .obj("single_thread",
           benchutil::Json()
               .num("ms_per_pass", prod.ms_per_pass, 3)
               .num("sentences_per_s", prod.sentences_per_s)
               .num("edges_per_s", prod.edges_per_s)
               .num("allocs_per_pass", prod.allocs_per_pass)
               .num("peak_live_bytes", prod.peak_live_bytes)
               .num("forms_per_pass", prod.forms))
      .num("interned_terms", terms)
      .num("term_store_bytes", term_bytes)
      .num("combine_memo_bytes", memo_bytes);

  // The arena-backed chart must keep the parser's steady-state heap
  // traffic bounded; a regression that reintroduces per-edge or
  // per-candidate allocations fails here.
  constexpr double kMaxAllocsPerPass = 5000.0;
  card.gate("allocs_per_pass", prod.allocs_per_pass <= kMaxAllocsPerPass,
            benchutil::fmt("%.0f allocs/pass (budget <= %.0f)",
                           prod.allocs_per_pass, kMaxAllocsPerPass));
  return card.finish();
}
