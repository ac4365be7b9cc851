// Property tests for the hash-consing interner (src/ccg/interner.hpp):
// canonical pointers, stable hashes/ids, thread-safety of concurrent
// interning, the scratch generation a combinator-memo miss reduces in
// (ScratchScope, term.hpp), and the bound that makes the process-wide
// tables pay: a fresh core::Sage re-interns nothing once the grammar has
// been seen.
// This file runs under the `concurrency` ctest label, so the TSan preset
// covers the striped-lock paths and the shared grammar's first build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "ccg/category.hpp"
#include "ccg/interner.hpp"
#include "ccg/lexicon.hpp"
#include "ccg/parser.hpp"
#include "ccg/term.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/lexicon_data.hpp"
#include "corpus/spec_corpora.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"

namespace sage::ccg {
namespace {

/// One corpus through a fresh Sage, as every spec -> code rerun does.
std::string fresh_signature(const corpus::SpecCorpus& c) {
  core::Sage sage;
  sage.annotate_non_actionable(c.annotations);
  return core::protocol_run_signature(sage.process(c.text, c.protocol));
}

TEST(Interner, SameCategoryStructureSamePointer) {
  const CategoryPtr a = Category::parse("(S\\NP)/NP");
  const CategoryPtr b = Category::parse("(S\\NP)/NP");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);

  // Built a different way — explicit factories — still the same node.
  const CategoryPtr c = Category::complex(
      Category::complex(cat_S(), Category::Slash::kBackward, cat_NP()),
      Category::Slash::kForward, cat_NP());
  EXPECT_EQ(a, c);
}

TEST(Interner, PointerEqualityMatchesStructuralEquality) {
  const std::vector<CategoryPtr> cats = {
      Category::parse("S"),          Category::parse("NP"),
      Category::parse("S/NP"),       Category::parse("S\\NP"),
      Category::parse("(S\\NP)/NP"), Category::parse("S\\NP/NP"),
  };
  for (const auto& x : cats) {
    for (const auto& y : cats) {
      EXPECT_EQ(x == y, x->to_string() == y->to_string())
          << x->to_string() << " vs " << y->to_string();
    }
  }
}

TEST(Interner, SameTermStructureSamePointer) {
  const TermPtr a = mk_pred_app("@Is", {mk_str("checksum"), mk_num(0)});
  const TermPtr b = mk_pred_app("@Is", {mk_str("checksum"), mk_num(0)});
  EXPECT_EQ(a, b);

  const TermPtr lam1 = mk_lam(5, mk_app(mk_var(5), mk_str("x")));
  const TermPtr lam2 = mk_lam(5, mk_app(mk_var(5), mk_str("x")));
  EXPECT_EQ(lam1, lam2);

  // Different binder id => different term.
  const TermPtr lam3 = mk_lam(6, mk_app(mk_var(6), mk_str("x")));
  EXPECT_NE(lam1, lam3);
}

TEST(Interner, HashAndIdAreStableAndInjective) {
  const TermPtr a = mk_pred_app("@Count", {mk_num(1), mk_num(2)});
  const TermPtr b = mk_pred_app("@Count", {mk_num(1), mk_num(2)});
  const TermPtr c = mk_pred_app("@Count", {mk_num(2), mk_num(1)});
  EXPECT_EQ(a->hash, b->hash);
  EXPECT_EQ(a->id, b->id);
  EXPECT_NE(a->id, c->id);  // dense ids: same structure <=> same id

  const CategoryPtr x = Category::parse("(S\\NP)/NP");
  const CategoryPtr y = Category::parse("(S\\NP)/NP");
  EXPECT_EQ(x->hash(), y->hash());
  EXPECT_EQ(x->id(), y->id());
  EXPECT_NE(x->id(), cat_S()->id());
}

TEST(Interner, InterningNewStructureGrowsTables) {
  const std::size_t cats_before = category_interner_size();
  const std::size_t terms_before = term_interner_size();
  Category::primitive("ZZINTERNTEST");
  mk_pred("@ZzInternTest");
  EXPECT_EQ(category_interner_size(), cats_before + 1);
  EXPECT_EQ(term_interner_size(), terms_before + 1);
  // Re-interning the same structures adds nothing.
  Category::primitive("ZZINTERNTEST");
  mk_pred("@ZzInternTest");
  EXPECT_EQ(category_interner_size(), cats_before + 1);
  EXPECT_EQ(term_interner_size(), terms_before + 1);
}

TEST(Interner, MemoBitsMatchStructure) {
  const TermPtr ground = mk_pred_app("@Is", {mk_str("a"), mk_num(1)});
  EXPECT_TRUE(ground->normal);
  EXPECT_EQ(ground->var_bloom, 0u);

  const TermPtr open = mk_app(mk_var(7), mk_num(1));
  EXPECT_TRUE(open->normal);  // head is a variable, not a lambda
  EXPECT_NE(open->var_bloom & (1ull << (7 & 63)), 0u);

  const TermPtr redex = mk_app(mk_lam(7, mk_var(7)), mk_num(1));
  EXPECT_FALSE(redex->normal);
}

/// True iff no node of `term` is a scratch node.
bool fully_interned(const Term* term) {
  if (term == nullptr) return true;
  return (term->id & kScratchBit) == 0 && fully_interned(term->a) &&
         fully_interned(term->b);
}

TEST(Interner, ScratchScopeInternsNothing) {
  const std::size_t before = term_interner_size();
  {
    ScratchScope scratch;
    const TermPtr fn = mk_lam(
        kParseVarBase,
        mk_pred_app("@ZzScratchOnly", {mk_var(kParseVarBase),
                                       mk_str("zz scratch"), mk_num(424242)}));
    EXPECT_NE(fn->id & kScratchBit, 0u);
    EXPECT_TRUE(fn->normal);
    const TermPtr redex = mk_app(fn, mk_num(7));
    EXPECT_FALSE(redex->normal);
    std::size_t steps = 0;
    const TermPtr reduced = beta_reduce(redex, 4096, &steps);
    EXPECT_EQ(term_to_string(reduced),
              "@ZzScratchOnly(7, \"zz scratch\", 424242)");
    EXPECT_EQ(steps, 1u);
    EXPECT_EQ(term_interner_size(), before);
  }
  EXPECT_EQ(term_interner_size(), before);
}

TEST(Interner, PromotionInternsEachNewNodeOnce) {
  const TermPtr resident = mk_str("zz promoted resident");
  const std::size_t before = term_interner_size();
  // New distinct nodes: the predicate, the leaf (built twice, one
  // structure) and the three applications of the spine.
  const auto build = [&resident] {
    return mk_pred_app("@ZzPromote", {mk_str("zz promoted leaf"),
                                      mk_str("zz promoted leaf"), resident});
  };
  TermPtr promoted = nullptr;
  {
    ScratchScope scratch;
    const TermPtr term = build();
    EXPECT_EQ(term->b, resident);  // interned operands stay
    promoted = scratch.promote(term);
    EXPECT_EQ(term_interner_size(), before + 5);
    EXPECT_TRUE(fully_interned(promoted));
    EXPECT_EQ(promoted->hash, term->hash);
    EXPECT_EQ(promoted->a->b, promoted->a->a->b);
    // Promoting again, or promoting an interned node, interns nothing.
    EXPECT_EQ(scratch.promote(term), promoted);
    EXPECT_EQ(scratch.promote(resident), resident);
    EXPECT_EQ(term_interner_size(), before + 5);
  }
  // The promoted node is the canonical one.
  const TermPtr rebuilt = build();
  EXPECT_EQ(rebuilt, promoted);
  EXPECT_EQ(rebuilt->id, promoted->id);
  // A structure that already exists comes back with its pointer and id.
  {
    ScratchScope scratch;
    const TermPtr again = scratch.promote(build());
    EXPECT_EQ(again, promoted);
    EXPECT_EQ(again->id, promoted->id);
  }
  EXPECT_EQ(term_interner_size(), before + 5);
}

/// The standard lexicon's distinct semantic terms, in lexicon order.
std::vector<TermPtr> lexicon_terms() {
  static const Lexicon lexicon = corpus::make_lexicon();
  std::vector<TermPtr> terms;
  for (const auto& word : lexicon.words()) {
    for (const LexEntry& entry : lexicon.lookup(word)) {
      const bool seen =
          std::any_of(terms.begin(), terms.end(), [&](const TermPtr t) {
            return t == entry.semantics;
          });
      if (!seen) terms.push_back(entry.semantics);
    }
  }
  return terms;
}

struct Reduction {
  const Term* term;
  std::string text;
  std::size_t steps;
  bool operator==(const Reduction&) const = default;
};

/// β(f a) for every ordered pair of the first `kLexiconSample` lexicon
/// terms. With `scratch`, each pair reduces in its own scratch scope and
/// its result is promoted, as a combinator-memo miss does.
std::vector<Reduction> reduce_lexicon_pairs(bool scratch) {
  constexpr std::size_t kLexiconSample = 48;
  std::vector<TermPtr> terms = lexicon_terms();
  if (terms.size() > kLexiconSample) terms.resize(kLexiconSample);
  std::vector<Reduction> out;
  for (const TermPtr f : terms) {
    for (const TermPtr a : terms) {
      std::size_t steps = 0;
      TermPtr result = nullptr;
      if (scratch) {
        ScratchScope scope;
        const TermPtr reduced = beta_reduce(mk_app(f, a), 4096, &steps);
        if (reduced != nullptr) result = scope.promote(reduced);
      } else {
        result = beta_reduce(mk_app(f, a), 4096, &steps);
      }
      out.push_back({result, term_to_string(result), steps});
    }
  }
  return out;
}

// Reducing in a scratch generation changes where intermediates live, not
// what the reduction computes: the same rendering, the same step count
// and, once promoted, the very node the interned reduction returns.
TEST(Interner, ScratchReductionMatchesInternedReduction) {
  const std::vector<Reduction> scratch = reduce_lexicon_pairs(true);
  ASSERT_GE(scratch.size(), 1000u);
  std::size_t reduced = 0;
  for (const Reduction& r : scratch) {
    EXPECT_TRUE(fully_interned(r.term)) << r.text;
    reduced += r.steps > 0 ? 1 : 0;
  }
  EXPECT_GT(reduced, 100u);
  const std::size_t promoted = term_interner_size();
  EXPECT_EQ(reduce_lexicon_pairs(true), scratch);
  EXPECT_EQ(term_interner_size(), promoted);
  EXPECT_EQ(reduce_lexicon_pairs(false), scratch);
}

// Many threads intern the same structures concurrently; every thread
// must observe the same canonical pointer, and distinct structures must
// keep distinct ids. Exercises the striped locks under TSan.
TEST(Interner, ConcurrentInternStress) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::vector<const Term*>> shared_seen(kThreads);
  std::vector<std::vector<const Category*>> cat_seen(kThreads);
  std::atomic<int> start{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared_seen, &cat_seen, &start] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }  // maximize overlap
      for (int i = 0; i < kRounds; ++i) {
        // Same structure from every thread, every round.
        const TermPtr shared = mk_lam(
            kParseVarBase + (i % 16),
            mk_pred_app("@Stress", {mk_var(kParseVarBase + (i % 16)),
                                    mk_num(i % 16)}));
        shared_seen[t].push_back(shared);
        const CategoryPtr cat = Category::complex(
            cat_S(), Category::Slash::kForward,
            (i % 2) == 0 ? cat_NP() : cat_N());
        cat_seen[t].push_back(cat);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(shared_seen[t], shared_seen[0]) << "thread " << t;
    EXPECT_EQ(cat_seen[t], cat_seen[0]) << "thread " << t;
  }
}

// Eight threads intern overlapping windows of one family of term and
// category structures at once: thread t builds members t .. t+63. Each
// member is a term with a name of its own and a category chain as deep
// as its index, so the threads race on the stripes, the node stores and
// the name pool. A serial replay afterwards must get every thread's
// pointers and ids and add no node and no store byte, and the tables
// must have grown by exactly the family's distinct structures.
TEST(Interner, ConcurrentStoreMatchesSerial) {
  constexpr int kThreads = 8;
  constexpr int kWindow = 64;
  constexpr int kFamily = kThreads - 1 + kWindow;
  constexpr int kVar = kParseVarBase + 777'777;
  struct Member {
    const Term* term;
    std::uint32_t term_id;
    const Category* cat;
    std::uint32_t cat_id;
    bool operator==(const Member&) const = default;
  };
  const CategoryPtr np = cat_NP();  // interned before the counts below
  // Three shared term nodes (the predicate, the variable and their
  // application), then five per member; one shared primitive category,
  // then one chain node per member.
  const auto build = [np](int i) {
    const TermPtr term = mk_lam(
        kVar, mk_pred_app("@ZzStore", {mk_var(kVar),
                                       mk_str("zz store " + std::to_string(i)),
                                       mk_num(9'000'000 + i)}));
    CategoryPtr cat = Category::primitive("ZZSTORE");
    for (int k = 0; k <= i; ++k) {
      cat = Category::complex(
          cat, k % 2 == 0 ? Category::Slash::kForward
                          : Category::Slash::kBackward,
          np);
    }
    return Member{term, term->id, cat, cat->id()};
  };
  const std::size_t terms_before = term_interner_size();
  const std::size_t cats_before = category_interner_size();
  std::vector<std::vector<Member>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = t; i < t + kWindow; ++i) seen[t].push_back(build(i));
    });
  }
  for (auto& th : threads) th.join();
  const std::size_t terms = term_interner_size();
  const std::size_t cats = category_interner_size();
  const std::size_t bytes = term_store_bytes();
  EXPECT_EQ(terms, terms_before + 3 + 5 * kFamily);
  EXPECT_EQ(cats, cats_before + 1 + kFamily);

  std::vector<Member> serial;
  for (int i = 0; i < kFamily; ++i) serial.push_back(build(i));
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kWindow; ++k) {
      EXPECT_EQ(seen[t][k], serial[t + k]) << "thread " << t << ", member " << k;
    }
  }
  for (const Member& m : serial) {
    EXPECT_LE(m.term_id, terms);
    EXPECT_LE(m.cat_id, cats);
  }
  EXPECT_EQ(term_interner_size(), terms);
  EXPECT_EQ(category_interner_size(), cats);
  EXPECT_EQ(term_store_bytes(), bytes);
}

#if defined(__SANITIZE_ADDRESS__)
// Closing a scratch scope poisons its nodes, so under ASan a scratch node
// read after its scope is reported as a use-after-poison.
TEST(Interner, ScratchNodeReadAfterItsScopeIsPoisoned) {
  TermPtr escaped = nullptr;
  {
    ScratchScope scratch;
    escaped = mk_app(mk_var(kParseVarBase), mk_num(1));
  }
  EXPECT_DEATH(
      {
        const volatile std::uint64_t hash = escaped->hash;
        (void)hash;
      },
      "use-after-poison");
}
#endif

TEST(Interner, VarGenIsDeterministicPerParse) {
  VarGen a;
  VarGen b;
  for (int i = 0; i < 32; ++i) {
    const int va = a.fresh();
    EXPECT_EQ(va, b.fresh());
    EXPECT_GE(va, kParseVarBase);
  }
  // Lexicon binders live in a disjoint, lower range.
  const Lexicon lexicon = corpus::make_lexicon();
  std::size_t binders = 0;
  for (const auto& word : lexicon.words()) {
    for (const LexEntry& entry : lexicon.lookup(word)) {
      std::vector<const Term*> stack = {entry.semantics};
      while (!stack.empty()) {
        const Term* t = stack.back();
        stack.pop_back();
        if (t->kind == Term::Kind::kLam) {
          ++binders;
          EXPECT_GE(t->var, kLexVarBase) << word;
          EXPECT_LT(t->var, kTypeRaiseVar) << word;
        }
        if (t->a) stack.push_back(t->a);
        if (t->b) stack.push_back(t->b);
      }
    }
  }
  EXPECT_GT(binders, 0u);
}

// Binder ids depend only on the grammar text, so rebuilding the lexicon
// returns the very same interned terms.
TEST(Interner, RebuiltLexiconHoldsTheSameTerms) {
  const Lexicon a = corpus::make_lexicon();
  const Lexicon b = corpus::make_lexicon();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& word : a.words()) {
    const auto& xs = a.lookup(word);
    const auto& ys = b.lookup(word);
    ASSERT_EQ(xs.size(), ys.size()) << word;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(xs[i].semantics, ys[i].semantics) << word;
      EXPECT_EQ(xs[i].category, ys[i].category) << word;
    }
  }
}

// After one warm pass, a second pass over every corpus with new Sages
// interns no term or category and reproduces every run.
TEST(Interner, FreshSagesReuseTheInternedGrammar) {
  const auto& corpora = corpus::spec_corpora();
  std::vector<std::string> warm;
  for (const auto& c : corpora) warm.push_back(fresh_signature(c));
  const std::size_t terms = term_interner_size();
  const std::size_t categories = category_interner_size();
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    EXPECT_EQ(fresh_signature(corpora[i]), warm[i]) << corpora[i].name;
  }
  EXPECT_EQ(term_interner_size(), terms);
  EXPECT_EQ(category_interner_size(), categories);
}

// The first Sages of a process build the shared grammar: four threads
// construct theirs at the same moment and each runs ICMP. Every run must
// match the serial one, and a second concurrent round interns nothing.
TEST(Interner, ConcurrentFirstSagesShareOneGrammar) {
  constexpr int kThreads = 4;
  const corpus::SpecCorpus& icmp = corpus::spec_corpora()[0];
  const auto round = [&icmp] {
    std::vector<std::string> signatures(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        signatures[t] = fresh_signature(icmp);
      });
    }
    for (auto& th : threads) th.join();
    return signatures;
  };
  const std::vector<std::string> first = round();
  const std::size_t terms = term_interner_size();
  const std::vector<std::string> second = round();
  EXPECT_EQ(term_interner_size(), terms);
  const std::string serial = fresh_signature(icmp);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(first[t], serial) << "round 1, thread " << t;
    EXPECT_EQ(second[t], serial) << "round 2, thread " << t;
  }
}

/// One digest per sentence of every spec corpus, parsed with derivations
/// on by a fresh Sage's grammar: forms, fragments, derivations (binder
/// ids included) and the per-parse chart and β counters. The memo
/// counters are left out: they depend on what ran first.
std::vector<std::uint64_t> parse_digests() {
  const core::Sage sage;
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  ParserOptions options;
  options.record_derivations = true;
  const CcgParser parser(&sage.lexicon(), options);
  std::vector<std::uint64_t> digests;
  for (const auto& c : corpus::spec_corpora()) {
    const rfc::RfcDocument doc = rfc::preprocess(c.text, c.protocol);
    for (const auto& sentence : rfc::extract_sentences(doc, c.protocol)) {
      const ParseResult r =
          parser.parse(chunker.chunk(nlp::tokenize(sentence.text)));
      std::string record;
      for (const auto& f : r.forms) record += f.to_string() + "\n";
      for (const auto& f : r.fragments) record += f.to_string() + "\n";
      for (const auto& d : r.derivations) record += d.to_string();
      record += std::to_string(r.stats.edges_created) + " " +
                std::to_string(r.stats.dedup_hits) + " " +
                std::to_string(r.stats.beta_reductions) + " " +
                std::to_string(r.stats.beta_steps);
      digests.push_back(hash_bytes(kHashSeed, record));
    }
  }
  return digests;
}

// Four threads parse every corpus at once, each through a fresh Sage.
// Run in a process of its own, as ctest runs it, the combinator memo is
// still cold, so the threads race to fill the same entries. Each
// thread's per-sentence digests must equal a serial pass's, which then
// runs with the memo warm.
TEST(Interner, ConcurrentParsesShareOneCombinatorMemo) {
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = parse_digests();
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<std::uint64_t> serial = parse_digests();
  ASSERT_GT(serial.size(), 100u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t], serial) << "thread " << t;
  }
  EXPECT_GT(combine_memo_size(), 0u);
}

// Four threads reduce the same lexicon pairs at once, each in its own
// scratch scopes, and race to promote the same results. Every thread
// must get the serial renderings, step counts and canonical nodes.
TEST(Interner, ConcurrentScratchReductionsMatchSerial) {
  constexpr int kThreads = 4;
  std::vector<std::vector<Reduction>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = reduce_lexicon_pairs(true);
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<Reduction> serial = reduce_lexicon_pairs(true);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace sage::ccg
