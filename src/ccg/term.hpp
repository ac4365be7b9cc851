// Lambda-calculus semantic terms (§3).
//
// CCG couples every syntactic category with a semantics written as a
// lambda expression, e.g.  is => (S\NP)/NP : \x.\y.@Is(y,x).
// Combinators apply/compose these terms; after a full parse the sentence
// term β-reduces to a ground tree of predicates — the logical form.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "lf/logical_form.hpp"

namespace sage::ccg {

struct Term;
using TermPtr = const Term*;  // never owns: see interner.hpp

/// Immutable, hash-consed lambda term (see interner.hpp): outside a
/// ScratchScope the mk_* factories return canonical pointers, so
/// structurally identical terms are the SAME object. Never mutated after
/// build. Trivially destructible; its name lives in the name pool.
struct Term {
  enum class Kind : std::uint8_t {
    kVar,   // bound variable (id)
    kLam,   // \v. body
    kApp,   // fun arg
    kPred,  // predicate constant, e.g. "@Is"
    kStr,   // string literal
    kNum,   // numeric literal
  };

  Kind kind = Kind::kVar;
  // Memoized structural facts, also set at build time. Hash-consing is
  // what makes these pay: every shared subterm carries them, so
  // beta-reduction skips normal-form subtrees in O(1) and substitution
  // returns untouched subtrees without walking them.
  /// True iff the subtree contains no redex (kApp with a kLam function).
  bool normal = true;
  int var = 0;  // kVar, kLam
  union {
    long number = 0;         // kNum
    const char* name_chars;  // every other kind: name()'s pooled bytes
  };
  TermPtr a = nullptr;  // kLam: body; kApp: function
  TermPtr b = nullptr;  // kApp: argument

  std::uint64_t hash = 0;  // precomputed structural hash (factory-set)
  /// Bloom filter over the variable ids occurring in the subtree
  /// (bit = 1 << (id & 63)). A clear bit proves the variable is absent.
  std::uint64_t var_bloom = 0;
  /// Dense interner id; same structure <=> same id. A scratch node (see
  /// ScratchScope) has none: its id holds kScratchBit over its slot.
  std::uint32_t id = 0;
  std::uint32_t name_size = 0;  // kPred, kStr

  /// kPred, kStr: the pooled name; empty for every other kind.
  std::string_view name() const {
    return {name_size != 0 ? name_chars : "", name_size};
  }
};
static_assert(std::is_trivially_destructible_v<Term> && sizeof(Term) <= 56);

/// Marks a scratch node's `id`. Interned ids count up from 1 and would
/// need 2^31 live terms to reach it.
inline constexpr std::uint32_t kScratchBit = 1u << 31;

TermPtr mk_var(int id);
TermPtr mk_lam(int var, TermPtr body);
TermPtr mk_app(TermPtr fun, TermPtr arg);
TermPtr mk_pred(std::string_view name);
TermPtr mk_str(std::string_view value);
TermPtr mk_num(long value);

/// Base id for lexicon/surface-syntax binders: every Lexicon numbers its
/// binders from here (one VarGen per lexicon, threaded through
/// parse_term), so a lexicon's terms depend only on its entries and
/// rebuilding it returns the same interned terms. Kept disjoint from
/// parse-time ids so substitution can never capture (every binder id in
/// a lexicon is unique).
inline constexpr int kLexVarBase = 1'000'000;

/// Base id for parse-time fresh variables: every CcgParser::parse call
/// restarts its own VarGen here, so rendered terms, derivations, and
/// dedup identities are deterministic regardless of thread interleaving
/// — and the term interner stays bounded across a batch run (repeated
/// parses re-intern the same ids instead of minting new ones forever).
inline constexpr int kParseVarBase = 1'000'000'000;

/// Reserved binder id for the type-raising wrapper \f.f(x). Outside both
/// the lexicon and parse-time ranges, and only ever bound in that head
/// position, so a single id is capture-safe (docs/PARSER_INTERNALS.md)
/// and raised terms become canonical per raised semantics — the parser
/// memoizes them instead of rebuilding per chart cell.
inline constexpr int kTypeRaiseVar = kParseVarBase - 1;

/// Fresh-variable generator (not thread-safe): one per parse, counting
/// from kParseVarBase, or one per lexicon, counting from kLexVarBase.
class VarGen {
 public:
  explicit VarGen(int base = kParseVarBase) : next_(base) {}
  /// Draws `count` consecutive ids and returns the first.
  int fresh(int count = 1) { return (next_ += count) - count; }

 private:
  int next_;
};

/// Build @Pred(arg1, ..., argN) as an application spine.
TermPtr mk_pred_app(std::string_view name, std::initializer_list<TermPtr> args);

/// This thread's scratch generation, open for the life of the scope.
/// While it is open, the mk_* factories on this thread build uninterned
/// nodes: they probe no table and draw no id, but carry the hash,
/// `normal` and `var_bloom` an interned node gets, so beta_reduce runs on
/// them unchanged. `promote` interns a result; closing the scope frees
/// every scratch node, so only what was promoted may outlive it. The
/// parser opens one per combinator-memo miss (docs/PARSER_INTERNALS.md,
/// "Interning"). Scopes do not nest.
class ScratchScope {
 public:
  ScratchScope();
  ~ScratchScope();
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  /// The canonical interned node with `term`'s structure, built bottom-up
  /// through the interner: each scratch node below is interned once, and
  /// a structure already in the table comes back as its existing node.
  /// An interned `term` is returned as is.
  TermPtr promote(TermPtr term);
};

/// Full normal-order β-reduction with a step cap (malformed combinations
/// could otherwise loop). Returns nullptr if the cap is exceeded.
/// Substitution shares untouched subtrees; each rebuilt node comes from
/// the mk_* factories, so inside a ScratchScope every intermediate is a
/// scratch node. `steps_out`, when non-null, is incremented by the number
/// of reduction steps taken (parse stats). Not memoized: the parser
/// memoizes whole combinator results instead, keyed before any wrapper
/// term is built (parser.cpp).
TermPtr beta_reduce(TermPtr term, int max_steps = 4096,
                    std::size_t* steps_out = nullptr);

/// Render for diagnostics: "\x1.@Is(x1, @Num(0))".
std::string term_to_string(TermPtr term);

/// Term id -> the logical form it converts to (nullopt: not ground),
/// for one parse's harvest.
using LfMemo =
    std::pmr::unordered_map<std::uint32_t, std::optional<lf::LogicalForm>>;

/// Convert a fully reduced, closed term into a logical form. Fails
/// (nullopt) if lambdas/variables remain or an application head is not a
/// predicate — such parses are discarded (they are CCG artifacts). Each
/// application term converts once per `memo`: a subterm two readings
/// share becomes one shared subtree of their forms.
std::optional<lf::LogicalForm> term_to_logical_form(TermPtr term, LfMemo& memo);
/// The same, with a memo of its own.
std::optional<lf::LogicalForm> term_to_logical_form(TermPtr term);

/// Parse the lexicon surface syntax:
///   \x.\y.@Is(y, x)        lambdas and predicate application
///   @Action("compute", x)  string literals
///   f(x)                   applying a bound variable
///   16                     numeric literal
/// Binder ids come from `binders`; terms that will meet in one parse
/// must share a generator (Lexicon::add threads its own). Returns
/// nullptr on syntax errors.
TermPtr parse_term(std::string_view text, VarGen& binders);

}  // namespace sage::ccg
