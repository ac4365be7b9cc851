// spec_cold: the paper's spec -> code loop (§5, Figure 4), paid once per
// RFC rewrite. One op is one pass over the six embedded corpora in a
// seeded order; each corpus goes through a fresh core::Sage::process and
// every generated function through runtime::vm::compile.
//
// Oracle: the FNV-1a of each corpus' protocol_run_signature equals the
// golden pinned below (the same renderings tests/test_differential.cpp
// pins for the seed parser).
//
// Traced run: the op records spans around Sage::process and vm::compile;
// the stages inside process are replayed on the op's own inputs
// (preprocess, chunk, parse, winnow) and attached as its children, and
// compile_to_program is replayed under vm::compile. The run then probes
// the serve layer (serve_layers.cpp), which answers from the same
// pipelines warm.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.hpp"
#include "ccg/interner.hpp"
#include "ccg/parser.hpp"
#include "codegen/lowering.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc4443.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"
#include "runtime/vm/program.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace sage;

struct Corpus {
  std::string name;
  std::string text;
  std::string protocol;
  std::vector<std::string> annotations;
  std::uint64_t golden;  // FNV-1a of protocol_run_signature
};

std::string bfd_text() {
  std::string text = "BFD State Management\n\n   Description\n\n";
  for (const auto& s : corpus::bfd_state_sentences()) text += "      " + s + "\n";
  return text;
}

std::vector<Corpus> load_corpora() {
  return {
      {"icmp", corpus::rfc792_revised(), "ICMP",
       corpus::icmp_non_actionable_annotations(), 0xd140139159e40968ull},
      {"icmp-orig", corpus::rfc792_original(), "ICMP",
       corpus::icmp_non_actionable_annotations(), 0x75bcb06ce22a2188ull},
      {"igmp", corpus::rfc1112_appendix_i(), "IGMP",
       corpus::igmp_non_actionable_annotations(), 0xea9c8d5e6e0fd335ull},
      {"ntp", corpus::rfc1059_appendices(), "NTP",
       corpus::ntp_non_actionable_annotations(), 0x32541b8c8ee5fe1aull},
      {"bfd", bfd_text(), "BFD", {}, 0x349f5dc9ffe95c53ull},
      {"icmp6", corpus::rfc4443_revised(), "ICMP6",
       corpus::icmp6_non_actionable_annotations(), 0x0732176cb96b6f35ull},
  };
}

struct Names {
  std::uint32_t op = span_name("op:spec_pass");
  std::uint32_t sage = span_name("core.sage");  // construct, annotate, release
  std::uint32_t process = span_name("core.process");
  std::uint32_t vm_compile = span_name("runtime.vm_compile");
  std::uint32_t preprocess = span_name("rfc.preprocess");
  std::uint32_t chunk = span_name("nlp.chunk");
  std::uint32_t parse = span_name("ccg.parse");
  std::uint32_t winnow = span_name("disambig.winnow");
  std::uint32_t lower = span_name("codegen.lower");
};

/// Counters the traced run gathers next to its spans.
struct Counters {
  double sentences = 0;
  double parsed_sentences = 0;
  double chart_edges = 0;
  double beta_steps = 0;
  double cache_hits = 0;
  double cache_lookups = 0;
  double forms_in = 0;
  double forms_out = 0;
  double allocs = 0;
  double new_terms = 0;  // growth of the process-wide term interner
};

struct CorpusRun {
  core::ProtocolRun run;
  std::int32_t process_span = -1;
  std::int32_t compile_span = -1;
};

struct Pass {
  std::vector<CorpusRun> runs;  // in `order`
  std::size_t sentences = 0;
  std::int64_t ns = 0;
  std::int64_t end_ns = 0;
};

std::size_t g_sink = 0;  // keeps compiled programs observable

/// peak_rss_mb is read after this many passes (~5 s on a 4-vCPU Xeon).
constexpr std::uint64_t kRssPasses = 50;

/// The op: every corpus in `order` through a fresh Sage and vm::compile.
Pass run_pass(const std::vector<Corpus>& corpora,
              const std::vector<std::size_t>& order, SpanLog* log,
              const Names& n, std::uint64_t op, Counters* counters) {
  Pass pass;
  pass.runs.reserve(order.size());
  const std::int64_t start = now_ns();
  const std::int32_t root = log ? log->begin(n.op, -1, op) : -1;
  for (const std::size_t index : order) {
    const Corpus& c = corpora[index];
    CorpusRun out;
    const std::uint64_t allocs = thread_allocs();
    std::int32_t sage_span = log ? log->begin(n.sage, root, op) : -1;
    auto sage = std::make_unique<core::Sage>();
    sage->annotate_non_actionable(c.annotations);
    if (log) log->end(sage_span);
    if (log) out.process_span = log->begin(n.process, root, op);
    out.run = sage->process(c.text, c.protocol);
    if (log) {
      log->end(out.process_span);
      out.compile_span = log->begin(n.vm_compile, root, op);
    }
    for (const auto& fn : out.run.functions) {
      if (const auto program = runtime::vm::compile(fn)) {
        g_sink += program->code().size();
      }
    }
    if (log) log->end(out.compile_span);
    sage_span = log ? log->begin(n.sage, root, op) : -1;
    sage.reset();
    if (log) log->end(sage_span);
    if (counters) counters->allocs += static_cast<double>(thread_allocs() - allocs);
    pass.sentences += out.run.reports.size();
    pass.runs.push_back(std::move(out));
  }
  if (log) log->end(root);
  pass.end_ns = now_ns();
  pass.ns = pass.end_ns - start;
  return pass;
}

/// Replay the stages Sage::process runs internally on this corpus, and
/// attach each as a child span of the op's process span. Returns false
/// when the winnow replay keeps other survivors than the run did.
bool replay_stages(const core::Sage& sage, const Corpus& c, const CorpusRun& r,
                   SpanLog& log,
                   const Names& n, Counters& counters) {
  std::int64_t t0 = now_ns();
  const rfc::RfcDocument doc = rfc::preprocess(c.text, c.protocol);
  const std::vector<rfc::SpecSentence> sentences =
      rfc::extract_sentences(doc, c.protocol);
  log.add_replay(n.preprocess, r.process_span, now_ns() - t0);

  std::set<std::string> annotated;
  for (const auto& a : c.annotations) {
    annotated.insert(util::to_lower(util::trim(a)));
  }
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  struct Chunked {
    std::string key;
    std::string field;
    std::vector<nlp::Token> tokens;
  };
  std::vector<Chunked> chunked;
  t0 = now_ns();
  for (const auto& s : sentences) {
    if (annotated.count(util::to_lower(util::trim(s.text))) != 0) continue;
    const auto field = s.context.find("field");
    const std::string f = field == s.context.end() ? "" : field->second;
    chunked.push_back({s.text + "|" + f, f, chunker.chunk(nlp::tokenize(s.text))});
  }
  log.add_replay(n.chunk, r.process_span, now_ns() - t0);

  // Sage memoizes parses per (tokens, field) within a run; replay each
  // distinct sentence once, as its parse cache does, including the
  // structural-context re-parses of a subject-less clause (the field
  // name inserted as subject at the start and after each comma).
  const ccg::CcgParser parser(&sage.lexicon());
  std::set<std::string> seen;
  std::int64_t parse_ns = 0;
  const auto timed_parse = [&](const std::vector<nlp::Token>& tokens) {
    const std::int64_t start = now_ns();
    ccg::ParseResult parsed = parser.parse(tokens);
    parse_ns += now_ns() - start;
    counters.chart_edges += static_cast<double>(parsed.stats.edges_created);
    counters.beta_steps += static_cast<double>(parsed.stats.beta_steps);
    return parsed;
  };
  for (const Chunked& ch : chunked) {
    if (!seen.insert(ch.key).second) continue;
    counters.parsed_sentences += 1;
    const ccg::ParseResult parsed = timed_parse(ch.tokens);
    if (!parsed.forms.empty() || ch.field.empty() || !parsed.fragments.empty()) {
      continue;
    }
    std::vector<std::size_t> positions = {0};
    for (std::size_t i = 0; i < ch.tokens.size(); ++i) {
      if (ch.tokens[i].kind == nlp::TokenKind::kPunct && ch.tokens[i].text == ",") {
        positions.push_back(i + 1);
      }
    }
    for (const std::size_t pos : positions) {
      std::vector<nlp::Token> with_subject = ch.tokens;
      with_subject.insert(with_subject.begin() + static_cast<long>(pos),
                          nlp::make_noun_phrase(util::to_lower(ch.field)));
      timed_parse(with_subject);
    }
  }
  log.add_replay(n.parse, r.process_span, parse_ns);

  std::size_t survivors = 0;
  std::size_t replayed_survivors = 0;
  t0 = now_ns();
  for (const auto& report : r.run.reports) {
    if (report.status == core::SentenceStatus::kNonActionable) continue;
    replayed_survivors += sage.winnower().winnow(report.base_candidates).survivors.size();
  }
  log.add_replay(n.winnow, r.process_span, now_ns() - t0);
  for (const auto& report : r.run.reports) {
    if (report.status == core::SentenceStatus::kNonActionable) continue;
    counters.forms_in += static_cast<double>(report.base_forms);
    counters.forms_out += static_cast<double>(report.winnow.survivors.size());
    survivors += report.winnow.survivors.size();
  }

  t0 = now_ns();
  for (const auto& fn : r.run.functions) {
    g_sink += codegen::compile_to_program(fn).code.size();
  }
  log.add_replay(n.lower, r.compile_span, now_ns() - t0);

  counters.sentences += static_cast<double>(r.run.reports.size());
  counters.cache_hits += static_cast<double>(r.run.cache.hits);
  counters.cache_lookups += static_cast<double>(r.run.cache.lookups());
  return replayed_survivors == survivors;
}

/// The oracle: every corpus' signature hash equals its golden.
std::size_t count_mismatches(const std::vector<Corpus>& corpora,
                             const std::vector<std::size_t>& order,
                             const Pass& pass,
                             const std::vector<std::uint64_t>& goldens,
                             bool report = true) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint64_t got =
        fnv1a(core::protocol_run_signature(pass.runs[i].run));
    if (got == goldens[order[i]]) continue;
    ++bad;
    if (report) {
      std::fprintf(stderr, "spec_cold: %s signature 0x%016llx, expected 0x%016llx\n",
                   corpora[order[i]].name.c_str(),
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(goldens[order[i]]));
    }
  }
  return bad;
}

std::vector<std::size_t> shuffled(std::size_t n, util::SplitMix64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

}  // namespace

WorkloadResult run_spec_cold(const Options& options) {
  WorkloadResult result;
  result.tail_q = 0.90;
  const Names names;

  // Set-up: load the corpora and make a warm-up pass, which settles the
  // process-wide interners and lexicon singletons.
  struct SetupState {
    std::vector<Corpus> corpora;
    Pass warm;
    std::vector<std::size_t> order;
  };
  SetupTimer setups([&] {
    SetupState s;
    s.corpora = load_corpora();
    for (std::size_t i = 0; i < s.corpora.size(); ++i) s.order.push_back(i);
    s.warm = run_pass(s.corpora, s.order, nullptr, names, 0, nullptr);
    return s;
  });
  SetupState state = setups.first();
  const std::vector<Corpus> corpora = std::move(state.corpora);

  std::vector<std::uint64_t> goldens;
  for (const auto& c : corpora) goldens.push_back(c.golden);

  // Oracle self-test: a corrupted golden must be counted as a failure.
  std::vector<std::uint64_t> corrupted = goldens;
  corrupted[0] ^= 1;
  result.self_test_flagged =
      count_mismatches(corpora, state.order, state.warm, goldens) == 0 &&
      count_mismatches(corpora, state.order, state.warm, corrupted, false) == 1;

  util::SplitMix64 rng(options.seed);
  RssProbe rss(kRssPasses);
  QuietCpu quiet;
  const core::Sage replay_sage;  // lexicon, dictionary and winnower for replays
  const auto measure = [&](double seconds, SpanLog* log, Counters* counters,
                           Samples* samples) {
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    *samples = Samples(start, seconds);
    while (now_ns() < deadline && !(log && log->full())) {
      quiet.maybe_repin();
      const std::vector<std::size_t> order = shuffled(corpora.size(), rng);
      const std::size_t terms = ccg::term_interner_size();
      Pass pass;
      try {
        pass = run_pass(corpora, order, log, names, result.attempted, counters);
      } catch (const std::exception& e) {
        report_exception(e);
        ++result.attempted;
        ++result.failed;
        continue;
      }
      if (counters) {
        counters->new_terms += static_cast<double>(ccg::term_interner_size() - terms);
      }
      bool replays_agree = true;
      if (log) {
        for (std::size_t i = 0; i < order.size(); ++i) {
          if (!replay_stages(replay_sage, corpora[order[i]], pass.runs[i], *log, names,
                             *counters)) {
            std::fprintf(stderr, "spec_cold: %s winnow replay disagrees\n",
                         corpora[order[i]].name.c_str());
            replays_agree = false;
          }
        }
      }
      ++result.attempted;
      if (count_mismatches(corpora, order, pass, goldens) != 0 || !replays_agree) {
        ++result.failed;
      }
      samples->add(pass.ns, static_cast<double>(pass.sentences), pass.end_ns);
      rss.tick(result.attempted);
    }
  };

  if (!options.trace) {
    measure(options.seconds, nullptr, nullptr, &result.ops);
  } else {
    Samples untraced;
    measure(options.seconds * kUntracedShare, nullptr, nullptr, &untraced);
    SpanLog log;
    Counters c;
    measure(options.seconds * (1 - kUntracedShare), &log, &c, &result.ops);
    const TraceSummary s = summarize({&log});
    const double ops = static_cast<double>(s.count_of("op"));
    const auto per_op_us = [&](const char* stage) { return s.self_of(stage) * 1e-3 / ops; };
    auto& m = result.layer;
    m["rfc.preprocess_us"] = per_op_us("rfc.preprocess");
    m["nlp.chunk_us"] = per_op_us("nlp.chunk");
    m["ccg.parse_us"] = per_op_us("ccg.parse");
    m["ccg.chart_edges_per_sentence"] = c.chart_edges / c.parsed_sentences;
    m["ccg.beta_steps_per_sentence"] = c.beta_steps / c.parsed_sentences;
    m["ccg.parse_cache_hit_ratio"] =
        c.cache_lookups > 0 ? c.cache_hits / c.cache_lookups : 0.0;
    m["disambig.winnow_us"] = per_op_us("disambig.winnow");
    m["disambig.survivor_ratio"] = c.forms_in > 0 ? c.forms_out / c.forms_in : 0.0;
    m["codegen.lower_us"] = per_op_us("codegen.lower");
    m["runtime.vm_compile_us"] = per_op_us("runtime.vm_compile");
    m["core.process_self_us"] = per_op_us("core.process");
    m["core.sage_us"] = per_op_us("core.sage");
    m["ccg.interned_terms_per_pass"] = c.new_terms / ops;
    m["spec.allocs_per_sentence"] = c.allocs / c.sentences;
    finish_trace(options, {&log}, untraced.quantile_us(0.5),
                 result.ops.quantile_us(0.5), result);
    measure_serve_layers(options.seed, result);
  }

  result.peak_rss_mb = rss.mb();
  setups.finish(result);
  result.names[0] = "spec_sentences_per_s";
  result.names[1] = "spec_pass_ms_p50";
  result.names[2] = "spec_pass_ms_p90";
  result.latency_scale = 1e-3;
  result.latency_unit = "ms";
  return result;
}

}  // namespace perfbench
