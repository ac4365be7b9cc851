// Property tests for the hash-consing interner (src/ccg/interner.hpp):
// canonical pointers, stable hashes/ids, thread-safety of concurrent
// interning, and the bound that makes the process-wide tables pay: a
// fresh core::Sage re-interns nothing once the grammar has been seen.
// This file runs under the `concurrency` ctest label, so the TSan preset
// covers the striped-lock paths and the shared grammar's first build.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "ccg/category.hpp"
#include "ccg/interner.hpp"
#include "ccg/lexicon.hpp"
#include "ccg/term.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/lexicon_data.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc4443.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"

namespace sage::ccg {
namespace {

struct SpecCorpus {
  std::string text;
  std::string protocol;
  std::vector<std::string> annotations;
};

std::string bfd_text() {
  std::string text = "BFD State Management\n\n   Description\n\n";
  for (const auto& s : corpus::bfd_state_sentences()) text += "      " + s + "\n";
  return text;
}

/// The revised ICMP and ICMPv6 texts, IGMP, NTP and BFD, each with its
/// non-actionable annotations.
const std::vector<SpecCorpus>& spec_corpora() {
  static const std::vector<SpecCorpus> corpora = {
      {corpus::rfc792_revised(), "ICMP",
       corpus::icmp_non_actionable_annotations()},
      {corpus::rfc1112_appendix_i(), "IGMP",
       corpus::igmp_non_actionable_annotations()},
      {corpus::rfc1059_appendices(), "NTP",
       corpus::ntp_non_actionable_annotations()},
      {bfd_text(), "BFD", {}},
      {corpus::rfc4443_revised(), "ICMP6",
       corpus::icmp6_non_actionable_annotations()},
  };
  return corpora;
}

/// One corpus through a fresh Sage, as every spec -> code rerun does.
std::string fresh_signature(const SpecCorpus& c) {
  core::Sage sage;
  sage.annotate_non_actionable(c.annotations);
  return core::protocol_run_signature(sage.process(c.text, c.protocol));
}

TEST(Interner, SameCategoryStructureSamePointer) {
  const CategoryPtr a = Category::parse("(S\\NP)/NP");
  const CategoryPtr b = Category::parse("(S\\NP)/NP");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());

  // Built a different way — explicit factories — still the same node.
  const CategoryPtr c = Category::complex(
      Category::complex(cat_S(), Category::Slash::kBackward, cat_NP()),
      Category::Slash::kForward, cat_NP());
  EXPECT_EQ(a.get(), c.get());
}

TEST(Interner, PointerEqualityMatchesStructuralEquality) {
  const std::vector<CategoryPtr> cats = {
      Category::parse("S"),          Category::parse("NP"),
      Category::parse("S/NP"),       Category::parse("S\\NP"),
      Category::parse("(S\\NP)/NP"), Category::parse("S\\NP/NP"),
  };
  for (const auto& x : cats) {
    for (const auto& y : cats) {
      EXPECT_EQ(x.get() == y.get(), x->equals(*y))
          << x->to_string() << " vs " << y->to_string();
    }
  }
}

TEST(Interner, SameTermStructureSamePointer) {
  const TermPtr a = mk_pred_app("@Is", {mk_str("checksum"), mk_num(0)});
  const TermPtr b = mk_pred_app("@Is", {mk_str("checksum"), mk_num(0)});
  EXPECT_EQ(a.get(), b.get());

  const TermPtr lam1 = mk_lam(5, mk_app(mk_var(5), mk_str("x")));
  const TermPtr lam2 = mk_lam(5, mk_app(mk_var(5), mk_str("x")));
  EXPECT_EQ(lam1.get(), lam2.get());

  // Different binder id => different term.
  const TermPtr lam3 = mk_lam(6, mk_app(mk_var(6), mk_str("x")));
  EXPECT_NE(lam1.get(), lam3.get());
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
  const CategoryPtr c = Category::primitive("ZZINTERNTEST");
  const TermPtr t = mk_pred("@ZzInternTest");
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
        shared_seen[t].push_back(shared.get());
        const CategoryPtr cat = Category::complex(
            cat_S(), Category::Slash::kForward,
            (i % 2) == 0 ? cat_NP() : cat_N());
        cat_seen[t].push_back(cat.get());
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(shared_seen[t], shared_seen[0]) << "thread " << t;
    EXPECT_EQ(cat_seen[t], cat_seen[0]) << "thread " << t;
  }
}

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
      std::vector<const Term*> stack = {entry.semantics.get()};
      while (!stack.empty()) {
        const Term* t = stack.back();
        stack.pop_back();
        if (t->kind == Term::Kind::kLam) {
          ++binders;
          EXPECT_GE(t->var, kLexVarBase) << word;
          EXPECT_LT(t->var, kTypeRaiseVar) << word;
        }
        if (t->a) stack.push_back(t->a.get());
        if (t->b) stack.push_back(t->b.get());
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
      EXPECT_EQ(xs[i].semantics.get(), ys[i].semantics.get()) << word;
      EXPECT_EQ(xs[i].category.get(), ys[i].category.get()) << word;
    }
  }
}

// After one warm pass, a second pass over every corpus with new Sages
// interns no term or category and reproduces every run.
TEST(Interner, FreshSagesReuseTheInternedGrammar) {
  std::vector<std::string> warm;
  for (const auto& c : spec_corpora()) warm.push_back(fresh_signature(c));
  const std::size_t terms = term_interner_size();
  const std::size_t categories = category_interner_size();
  for (std::size_t i = 0; i < spec_corpora().size(); ++i) {
    EXPECT_EQ(fresh_signature(spec_corpora()[i]), warm[i])
        << spec_corpora()[i].protocol;
  }
  EXPECT_EQ(term_interner_size(), terms);
  EXPECT_EQ(category_interner_size(), categories);
}

// The first Sages of a process build the shared grammar: four threads
// construct theirs at the same moment and each runs ICMP. Every run must
// match the serial one, and a second concurrent round interns nothing.
TEST(Interner, ConcurrentFirstSagesShareOneGrammar) {
  constexpr int kThreads = 4;
  const SpecCorpus& icmp = spec_corpora()[0];
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

}  // namespace
}  // namespace sage::ccg
