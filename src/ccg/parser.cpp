#include "ccg/parser.hpp"

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <mutex>
#include <unordered_set>

#include "ccg/interner.hpp"
#include "lf/logical_form.hpp"
#include "util/arena.hpp"

namespace sage::ccg {

namespace {

// Chart edges, memo entries and arena nodes hold plain pointers: every
// category and every term they see is interned, and its interner's store
// owns it for the process lifetime (interner.hpp). The scratch terms a
// memo miss builds never reach them (CombineMemo::get). Nothing in a
// ParseResult points at a term: its logical forms own their nodes (each
// term converted once per harvest, shared by the readings that contain
// it) and derivations are rendered.

/// An interned term with its id, as the memo returns it.
struct Sem {
  const Term* term = nullptr;
  std::uint32_t id = 0;
  explicit operator bool() const { return term != nullptr; }
};

Sem interned(TermPtr t) { return {t, t->id}; }

/// One chart edge: a category with its (beta-normal) semantics and that
/// term's id, so dedup never loads the term, plus an index into the
/// derivation arena when derivations are recorded.
struct Edge {
  const Category* cat;
  const Term* sem;
  std::uint32_t sem_id;
  int id;
};

/// Arena node recorded per edge while parsing. The strings a
/// DerivationNode needs are rendered lazily at harvest, only for the
/// subtrees that actually reach a sentence-level parse.
struct ArenaNode {
  const Category* cat = nullptr;
  const Term* sem = nullptr;
  std::string rule;
  int left = -1;
  int right = -1;
};

/// Per-cell combinability index: flat (key, edge position) pairs in
/// insertion order. Cells are capped at max_edges_per_cell (≤ ~100
/// entries), so a linear scan over a contiguous array beats a hash map
/// — no node allocations, no hashing, and probes stream one or two
/// cache lines. Ascending positions per key come for free.
using CellIndex = std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// A chart cell: its edges plus the dedup set and combinability indexes
/// the combine loop probes. All index lists hold edge positions in
/// insertion order (ascending), which is what keeps the indexed
/// enumeration byte-identical to a left×right cross-product scan.
///
/// Allocator-aware: every vector bump-allocates from the per-thread
/// chart arena (util::Arena as a pmr resource), so vector growth never
/// touches the heap after the arena's chunks are warm. The arena's
/// deallocate is a no-op — a growing vector abandons its old block,
/// which reset() reclaims wholesale at the next parse.
struct Cell {
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
  explicit Cell(allocator_type alloc)
      : edges(alloc),
        seen(alloc),
        by_cat(alloc),
        fwd_by_result(alloc),
        bwd_by_arg(alloc) {}

  std::pmr::vector<Edge> edges;
  /// Dedup keys: (category interner id << 32) | term interner id, one
  /// entry per edge, linearly scanned (cells are small — see CellIndex).
  /// Equivalent to keying on the rendered "category :: semantics" string
  /// because rendering is injective on beta-normal terms — same
  /// structure, same id, same string.
  std::pmr::vector<std::uint64_t> seen;
  /// Edges keyed by exact category id (forward application targets,
  /// noun-compound partners).
  CellIndex by_cat;
  /// Forward-slash edges keyed by their result's category id (X/Y edges
  /// under key id(X)) — forward-composition partners.
  CellIndex fwd_by_result;
  /// Backward-slash edges keyed by their argument's category id (X\Y
  /// edges under key id(Y)) — backward application/composition partners.
  CellIndex bwd_by_arg;
};

class Chart {
 public:
  Chart(std::size_t n, std::size_t cap, std::vector<ArenaNode>* arena,
        ParseStats* stats, std::pmr::memory_resource* mr)
      : n_(n),
        cap_(cap),
        cells_(n * n, mr),  // uses-allocator: every Cell vector gets mr
        arena_(arena),
        stats_(stats) {}

  Cell& cell(std::size_t start, std::size_t span) {
    return cells_[(span - 1) * n_ + start];
  }
  const Cell& cell(std::size_t start, std::size_t span) const {
    return cells_[(span - 1) * n_ + start];
  }

  /// Insert if the cell has room and the edge is new; returns true if
  /// added. `rule` is only invoked (to build the provenance string) when
  /// derivations are being recorded; the child ids record provenance for
  /// derivations (the first derivation of a deduplicated edge wins).
  template <typename RuleFn>
  bool add(std::size_t start, std::size_t span, const Category* cat, Sem sem,
           RuleFn&& rule, int left = -1, int right = -1) {
    Cell& c = cell(start, span);
    if (c.edges.size() >= cap_) {
      ++stats_->cap_drops;
      full_span_capped = full_span_capped || span == n_;
      return false;
    }
    Edge edge{cat, sem.term, sem.id, -1};
    const std::uint64_t key =
        (static_cast<std::uint64_t>(cat->id()) << 32) | sem.id;
    for (const std::uint64_t k : c.seen) {
      if (k == key) {
        ++stats_->dedup_hits;
        return false;
      }
    }
    c.seen.push_back(key);
    if (arena_ != nullptr) {
      arena_->push_back(ArenaNode{cat, sem.term, rule(), left, right});
      edge.id = static_cast<int>(arena_->size()) - 1;
    }
    const auto pos = static_cast<std::uint32_t>(c.edges.size());
    c.by_cat.emplace_back(cat->id(), pos);
    if (!cat->is_primitive()) {
      if (cat->slash() == Category::Slash::kForward) {
        c.fwd_by_result.emplace_back(cat->result()->id(), pos);
      } else {
        c.bwd_by_arg.emplace_back(cat->arg()->id(), pos);
      }
    }
    c.edges.push_back(edge);
    ++stats_->edges_created;
    return true;
  }

  bool full_span_capped = false;  // the full-span cell refused an edge

 private:
  std::size_t n_;
  std::size_t cap_;
  std::pmr::vector<Cell> cells_;
  std::vector<ArenaNode>* arena_;
  ParseStats* stats_;
};

/// Generalized coordination semantics (the Φ-rule of CCG [Steedman]).
/// Coordinating two edges of category X yields, for primitive X,
///   \y. @Conj(y, r)
/// and for function categories X = (..(P|A1)|..)|An, the pointwise
///   \y. \x1...\xn. @Conj(y(x1..xn), r(x1..xn))
/// This is what makes the distributive reading of "A and B is C" emerge:
/// type-raised NPs coordinate pointwise over the verb phrase, producing
/// @And(@Is(A,C), @Is(B,C)) alongside the plain @Is(@And(A,B), C).
/// The binders are the attempt's n+1 fresh ids: xi = first + i - 1,
/// y = first + n.
TermPtr coordination_sem(TermPtr conj_pred, TermPtr right_sem, int arity,
                         int first) {
  const auto apply_chain = [&](TermPtr f) {
    for (int i = 0; i < arity; ++i) f = mk_app(f, mk_var(first + i));
    return f;
  };
  const int y = first + arity;
  TermPtr body = mk_app(mk_app(conj_pred, apply_chain(mk_var(y))),
                        apply_chain(right_sem));
  for (int i = arity; i-- > 0;) body = mk_lam(first + i, body);
  return mk_lam(y, body);
}

/// S/(S\NP) — the type-raised category.
CategoryPtr cat_S_fwd_S_back_NP() {
  static const CategoryPtr c = Category::complex(
      cat_S(), Category::Slash::kForward,
      Category::complex(cat_S(), Category::Slash::kBackward, cat_NP()));
  return c;
}

/// The combinations the memo caches, one tag per result function.
/// Forward and backward application share kApply, and forward and
/// backward composition share kCompose: the key orders the operands as
/// the reduction uses them.
enum class Rule : std::uint8_t {
  kApply,        // f(a)                 left f, right a
  kCompose,      // \z. f(g(z))          left f, right g, aux z
  kCoordinate,   // Φ(conj, r) over X    left conj, right r, aux id(X) | first
  kTypeRaise,    // \f. f(x)             left x (f is kTypeRaiseVar)
  kCompoundStr,  // "l r"                left l, right r
  kCompoundOf,   // @Of(r, l)            left l, right r
};

/// (rule, left term id, right term id, aux). The result of each rule is
/// a pure function of these fields (docs/PARSER_INTERNALS.md).
struct CombineKey {
  Rule rule = Rule::kApply;
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  std::uint64_t aux = 0;

  bool operator==(const CombineKey&) const = default;

  std::uint64_t hash() const {  // splitmix64 finalizer over the fields
    std::uint64_t h = ((static_cast<std::uint64_t>(left) << 32) | right) ^
                      (aux * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(rule) << 59);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
  }
};

/// The memo's reduction cap; a stored step count is below it.
constexpr int kMaxBetaSteps = 4096;

/// One memo slot: a CombineKey's fields laid flat beside the result, so
/// a slot is 32 bytes.
struct CombineEntry {
  const Term* term = nullptr;  // nullptr marks an empty slot
  std::uint64_t aux = 0;
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  std::uint32_t term_id = 0;
  std::uint16_t steps = 0;
  Rule rule = Rule::kApply;

  CombineKey key() const { return {rule, left, right, aux}; }
  bool empty() const { return term == nullptr; }
  std::uint64_t hash() const { return key().hash(); }
};
static_assert(sizeof(CombineEntry) <= 32 && kMaxBetaSteps <= UINT16_MAX);

/// Process-wide memo of combinator results: key -> (β-normal result,
/// steps its reduction took). A hit returns the term a rebuild would
/// intern, without building the wrapper first. Striped like the
/// interner (interner.hpp's ShardedFlat).
class CombineMemo : public ShardedFlat<CombineEntry> {
 public:
  /// The result `key` names and its id; a hit reads only its slot. On a
  /// miss, `build()` makes the unreduced term and it is reduced under the
  /// parser's one 4096-step cap (malformed combinations could otherwise
  /// loop). Both run in this thread's scratch generation, and only the
  /// reduced result is interned, so the wrapper and every β-step
  /// intermediate die with the miss. Only a success is stored, so a
  /// reduction that hits the cap returns an empty Sem on every attempt.
  /// Wrappers that are already normal (type raise, compounds) pass
  /// through unchanged in 0 steps.
  template <typename Build>
  Sem get(const CombineKey& key, ParseStats& stats, Build&& build) {
    const std::uint64_t hash = key.hash();
    Shard& shard = shard_for(hash);
    const auto matches = [&](const CombineEntry& e) { return e.key() == key; };
    {
      std::lock_guard lock(shard.mutex);
      const CombineEntry& entry = shard.entries[shard.find_slot(hash, matches)];
      if (!entry.empty()) {
        ++stats.memo_hits;
        stats.beta_steps += entry.steps;
        return {entry.term, entry.term_id};
      }
    }
    ++stats.memo_misses;
    std::size_t steps = 0;
    TermPtr term = nullptr;
    {
      ScratchScope scratch;
      const TermPtr reduced = beta_reduce(build(), kMaxBetaSteps, &steps);
      if (reduced == nullptr) return {};
      term = scratch.promote(reduced);
    }
    stats.beta_steps += steps;
    std::lock_guard lock(shard.mutex);
    const std::size_t slot = shard.find_slot(hash, matches);
    if (shard.entries[slot].empty()) {  // else a racing thread stored it
      shard.insert(slot, {term, key.aux, key.left, key.right, term->id,
                          static_cast<std::uint16_t>(steps), key.rule});
    }
    return interned(term);
  }
};

CombineMemo& combine_memo() {
  static auto* memo = new CombineMemo();  // immortal, like the interners
  return *memo;
}

/// Copy the subtree rooted at `root` out of the shared arena into a
/// compact, self-contained Derivation, rendering the category/semantics
/// strings only now. Explicit-stack post-order walk (left subtree, right
/// subtree, node) — derivations can be deep enough on long sentences
/// that recursing per node risks the stack.
Derivation extract_derivation(const std::vector<ArenaNode>& arena, int root) {
  Derivation out;
  struct Frame {
    int index;
    int stage = 0;     // 0: visit left, 1: visit right, 2: emit
    int left_out = -1;
  };
  std::vector<Frame> stack;
  int ret = -1;  // result of the most recently completed subtree
  const auto enter = [&](int index) {
    if (index < 0 || index >= static_cast<int>(arena.size())) {
      ret = -1;
      return false;
    }
    stack.push_back(Frame{index});
    return true;
  };
  if (!enter(root)) {
    out.root = -1;
    return out;
  }
  while (!stack.empty()) {
    Frame& f = stack.back();  // invalidated by enter()==true; continue then
    const ArenaNode& node = arena[static_cast<std::size_t>(f.index)];
    if (f.stage == 0) {
      f.stage = 1;
      if (enter(node.left)) continue;
    }
    if (f.stage == 1) {
      f.left_out = ret;
      f.stage = 2;
      if (enter(node.right)) continue;
    }
    out.nodes.push_back(DerivationNode{node.cat->to_string(),
                                       term_to_string(node.sem),
                                       node.rule, f.left_out, ret});
    ret = static_cast<int>(out.nodes.size()) - 1;
    stack.pop_back();
  }
  out.root = ret;
  return out;
}

}  // namespace

std::size_t combine_memo_size() { return combine_memo().size(); }

std::size_t combine_memo_bytes() { return combine_memo().bytes(); }

std::string Derivation::to_string() const {
  std::string out;
  // Explicit-stack pre-order render; pushing right before left keeps the
  // visit order identical to the recursive original.
  struct Frame {
    int index;
    std::string prefix;
    bool last;
  };
  std::vector<Frame> stack;
  if (root >= 0) stack.push_back(Frame{root, "", true});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.index < 0) continue;
    const DerivationNode& node = nodes[static_cast<std::size_t>(f.index)];
    if (f.prefix.empty()) {
      out += node.category + ": " + node.semantics + "   [" + node.rule + "]\n";
    } else {
      out += f.prefix + (f.last ? "`-- " : "|-- ") + node.category + ": " +
             node.semantics + "   [" + node.rule + "]\n";
    }
    const std::string child_prefix =
        f.prefix.empty() ? std::string("  ")
                         : f.prefix + (f.last ? "    " : "|   ");
    if (node.left >= 0 && node.right >= 0) {
      stack.push_back(Frame{node.right, child_prefix, true});
      stack.push_back(Frame{node.left, child_prefix, false});
    } else if (node.left >= 0) {
      stack.push_back(Frame{node.left, child_prefix, true});
    }
  }
  return out;
}

ParseResult CcgParser::parse(const std::vector<nlp::Token>& tokens) const {
  ParseResult result;
  const std::size_t n = tokens.size();
  result.over_max_tokens = n > options_.max_tokens;
  if (n == 0 || result.over_max_tokens) return result;

  VarGen vg;  // per-parse: derivations and dedup ids are deterministic
  std::vector<ArenaNode> arena;
  // Per-thread chart arena: reset() rewinds it while keeping its chunks,
  // so after the first few parses warmed the chunks, chart storage costs
  // zero heap allocations per parse. Nothing that escapes parse() points
  // into it — forms keep their nodes on the heap and derivations are
  // copied out — so resetting at the next parse is safe.
  static thread_local util::Arena chart_arena;
  chart_arena.reset();
  Chart chart(n, options_.max_edges_per_cell,
              options_.record_derivations ? &arena : nullptr, &result.stats,
              &chart_arena);

  // Every combination goes through the process-wide memo, keyed before
  // any wrapper term is built. Fresh binders are drawn before the probe,
  // exactly as a rebuild would draw them, so ids never depend on hits.
  CombineMemo& memo = combine_memo();
  ParseStats& stats = result.stats;
  // The grammar's fixed categories, read once rather than on every test.
  const Category* const n_cat = cat_N();
  const Category* const np_cat = cat_NP();
  const Category* const s_cat = cat_S();
  const Category* const conj_cat = cat_CONJ();
  const Category* const raised_cat = cat_S_fwd_S_back_NP();
  const auto apply = [&](const Edge& f, const Edge& a) {
    ++stats.beta_reductions;
    return memo.get({Rule::kApply, f.sem_id, a.sem_id}, stats,
                    [&] { return mk_app(f.sem, a.sem); });
  };
  const auto compose = [&](const Edge& f, const Edge& g) {
    const int z = vg.fresh();
    ++stats.beta_reductions;
    return memo.get(
        {Rule::kCompose, f.sem_id, g.sem_id, static_cast<std::uint64_t>(z)},
        stats, [&] {
          return mk_lam(z, mk_app(f.sem, mk_app(g.sem, mk_var(z))));
        });
  };
  // Unary rules on a completed cell: N -> NP, then, when `raise_np`,
  // NP -> S/(S\NP) : \f. f(x). Edges are copied: add() reallocates.
  const auto unary_rules = [&](std::size_t start, std::size_t span,
                               bool raise_np) {
    const std::size_t base = chart.cell(start, span).edges.size();
    for (std::size_t k = 0; k < base; ++k) {
      const Edge e = chart.cell(start, span).edges[k];
      if (e.cat == n_cat) {
        chart.add(start, span, np_cat, {e.sem, e.sem_id},
                  [] { return "N -> NP"; }, e.id);
      }
    }
    if (!raise_np) return;
    const std::size_t base2 = chart.cell(start, span).edges.size();
    for (std::size_t k = 0; k < base2; ++k) {
      const Edge e = chart.cell(start, span).edges[k];
      if (e.cat != np_cat) continue;
      const Sem raised = memo.get({Rule::kTypeRaise, e.sem_id}, stats, [&] {
        return mk_lam(kTypeRaiseVar, mk_app(mk_var(kTypeRaiseVar), e.sem));
      });
      chart.add(start, span, raised_cat, raised,
                [] { return "type raising"; }, e.id);
    }
  };

  // --- lexical edges -----------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const nlp::Token& tok = tokens[i];
    bool has_lexical = false;

    switch (tok.kind) {
      case nlp::TokenKind::kNounPhrase:
        // Labeled noun phrases enter the chart as N with their surface
        // text as semantics; the unary N->NP rule lifts them.
        has_lexical = true;
        chart.add(i, 1, n_cat, interned(mk_str(tok.lower)),
                  [&] { return "noun phrase '" + tok.text + "'"; });
        break;
      case nlp::TokenKind::kNumber:
        has_lexical = true;
        chart.add(i, 1, np_cat, interned(mk_num(tok.number)),
                  [&] { return "number " + tok.text; });
        break;
      default:
        break;
    }
    for (const LexEntry& entry : lexicon_->lookup(tok.lower)) {
      has_lexical = true;
      chart.add(i, 1, entry.category, interned(entry.semantics),
                [&] { return "lexicon '" + tok.text + "'"; });
    }
    if (!has_lexical && tok.kind != nlp::TokenKind::kPunct) {
      result.unknown_tokens.push_back(tok.text);
    }

    unary_rules(i, 1, true);
  }

  // --- binary combination ------------------------------------------------
  // Applies every combinator whose guards pass, in a fixed order, so the
  // result is independent of how the partner edge was found (index probe
  // or cross-product scan).
  const auto try_combine = [&](const Edge& l, const Edge& r, std::size_t start,
                               std::size_t span) {
    const Category& lc = *l.cat;
    const Category& rc = *r.cat;
    // Forward application: X/Y  Y  =>  X
    if (!lc.is_primitive() && lc.slash() == Category::Slash::kForward &&
        lc.arg() == r.cat) {
      if (const Sem sem = apply(l, r)) {
        chart.add(start, span, lc.result(), sem,
                  [] { return "forward application"; }, l.id, r.id);
      }
    }
    // Backward application: Y  X\Y  =>  X
    if (!rc.is_primitive() && rc.slash() == Category::Slash::kBackward &&
        rc.arg() == l.cat) {
      if (const Sem sem = apply(r, l)) {
        chart.add(start, span, rc.result(), sem,
                  [] { return "backward application"; }, l.id, r.id);
      }
    }
    // Forward composition: X/Y  Y/Z  =>  X/Z
    if (!lc.is_primitive() && !rc.is_primitive() &&
        lc.slash() == Category::Slash::kForward &&
        rc.slash() == Category::Slash::kForward &&
        lc.arg() == rc.result()) {
      if (const Sem sem = compose(l, r)) {
        chart.add(start, span,
                  Category::complex(lc.result(), Category::Slash::kForward,
                                    rc.arg()),
                  sem, [] { return "forward composition"; }, l.id, r.id);
      }
    }
    // Backward composition: Y\Z  X\Y  =>  X\Z
    if (!lc.is_primitive() && !rc.is_primitive() &&
        lc.slash() == Category::Slash::kBackward &&
        rc.slash() == Category::Slash::kBackward &&
        rc.arg() == lc.result()) {
      if (const Sem sem = compose(r, l)) {
        chart.add(start, span,
                  Category::complex(rc.result(), Category::Slash::kBackward,
                                    lc.arg()),
                  sem, [] { return "backward composition"; }, l.id, r.id);
      }
    }
    // Noun compounding: N N => N ("echo reply" + "message" =>
    // "echo reply message"). Two adjacent bare nouns concatenate;
    // this is what lets poorly-labeled noun phrases still parse —
    // at the cost of extra attachment ambiguity (Table 7).
    if (l.cat == n_cat && r.cat == n_cat && l.sem->kind == Term::Kind::kStr &&
        r.sem->kind == Term::Kind::kStr) {
      // Both analyses the parser cannot choose between: the
      // compound as one name, and the head-modifier relation.
      const Sem name =
          memo.get({Rule::kCompoundStr, l.sem_id, r.sem_id}, stats, [&] {
            std::string joined(l.sem->name());
            joined += ' ';
            joined += r.sem->name();
            return mk_str(joined);
          });
      const Sem head =
          memo.get({Rule::kCompoundOf, l.sem_id, r.sem_id}, stats, [&] {
            return mk_pred_app(lf::pred::kOf, {r.sem, l.sem});
          });
      chart.add(start, span, n_cat, name, [] { return "noun compound"; },
                l.id, r.id);
      chart.add(start, span, n_cat, head,
                [] { return "noun compound (head)"; }, l.id, r.id);
    }
    // Coordination (binarized): CONJ X => X\X with the
    // generalized Φ semantics. The CONJ edge's semantics is the
    // bare conjunction predicate (@And / @Or).
    if (l.cat == conj_cat && l.sem->kind == Term::Kind::kPred) {
      int arity = 0;
      for (const Category* c = r.cat; !c->is_primitive();
           c = c->result()) {
        ++arity;
      }
      const int first = vg.fresh(arity + 1);
      const std::uint64_t aux = (static_cast<std::uint64_t>(rc.id()) << 32) |
                                static_cast<std::uint32_t>(first);
      ++stats.beta_reductions;
      if (const Sem sem = memo.get(
              {Rule::kCoordinate, l.sem_id, r.sem_id, aux}, stats, [&] {
                return coordination_sem(l.sem, r.sem, arity, first);
              })) {
        chart.add(start, span,
                  Category::complex(r.cat, Category::Slash::kBackward, r.cat),
                  sem, [] { return "coordination"; }, l.id, r.id);
      }
    }
  };

  // Per cell pair, each left-edge shape's candidate right-edge positions,
  // gathered on the shape's first occurrence. A shape (category id, is a
  // coordinating CONJ, is an N with string semantics) is all the gather
  // reads from a left edge, and the right cell is never the target cell,
  // so its indexes cannot change while the pair runs. Both lists are
  // bump-allocated like the cells.
  struct Shape {
    std::uint64_t key;
    std::size_t begin, end;  // range in `cand`
  };
  std::pmr::vector<Shape> shapes(&chart_arena);
  std::pmr::vector<std::uint32_t> cand(&chart_arena);
  const auto probe = [&](const CellIndex& index, std::uint32_t key) {
    ++stats.index_probes;
    for (const auto& [k, pos] : index) {
      if (k == key) cand.push_back(pos);
    }
  };
  for (std::size_t span = 2; span <= n; ++span) {
    for (std::size_t start = 0; start + span <= n; ++start) {
      for (std::size_t left_span = 1; left_span < span; ++left_span) {
        const Cell& left = chart.cell(start, left_span);
        const Cell& right = chart.cell(start + left_span, span - left_span);
        if (right.edges.empty()) continue;
        shapes.clear();
        cand.clear();
        for (const Edge& l : left.edges) {
          const bool conj =
              l.cat == conj_cat && l.sem->kind == Term::Kind::kPred;
          const bool n_str = l.cat == n_cat && l.sem->kind == Term::Kind::kStr;
          const std::uint64_t key =
              (std::uint64_t{l.cat->id()} << 2) | (conj << 1) | n_str;
          auto shape = shapes.begin();
          while (shape != shapes.end() && shape->key != key) ++shape;
          if (shape == shapes.end()) {
            // Each probe list is ascending by insertion; the sort+unique
            // merge restores the exact right-cell scan order, so cap
            // truncation and first-derivation-wins dedup behave as a
            // full left×right scan would.
            const std::size_t begin = cand.size();
            if (conj) {  // coordination pairs a CONJ with ANY right edge
              for (std::uint32_t k = 0; k < right.edges.size(); ++k) {
                cand.push_back(k);
              }
            } else {
              const Category& lc = *l.cat;
              if (!lc.is_primitive() &&
                  lc.slash() == Category::Slash::kForward) {
                probe(right.by_cat, lc.arg()->id());  // forward application
                probe(right.fwd_by_result, lc.arg()->id());  // fwd comp
              }
              probe(right.bwd_by_arg, lc.id());  // backward application
              if (!lc.is_primitive() &&
                  lc.slash() == Category::Slash::kBackward) {
                probe(right.bwd_by_arg, lc.result()->id());  // bwd comp
              }
              if (n_str) probe(right.by_cat, n_cat->id());  // noun compound
              std::sort(cand.begin() + begin, cand.end());
              cand.erase(std::unique(cand.begin() + begin, cand.end()),
                         cand.end());
            }
            shape = shapes.insert(shapes.end(), {key, begin, cand.size()});
          }
          for (std::size_t k = shape->begin; k < shape->end; ++k) {
            try_combine(l, right.edges[cand[k]], start, span);
          }
        }
      }

      unary_rules(start, span, span < n);
    }
  }

  // --- harvest full-span parses -------------------------------------------
  // Dedup sets live in the chart arena too: node and string storage is
  // bump-allocated and reclaimed by the next parse's reset(). The
  // conversion memo turns each term into a form once, so readings that
  // share a subterm share that subtree; it bump-allocates from an arena of
  // its own, which the chart arena counters (`--parse-stats`) leave out.
  std::pmr::unordered_set<std::pmr::string> seen_forms(&chart_arena);
  std::pmr::unordered_set<std::pmr::string> seen_fragments(&chart_arena);
  static thread_local util::Arena memo_arena;
  memo_arena.reset();
  LfMemo lf_memo(&memo_arena);
  std::string render;  // reused per-candidate render buffer
  const auto render_key = [&](const lf::LogicalForm& form) {
    render.clear();
    form.append_to(render);
    return std::pmr::string(render.begin(), render.end(), &chart_arena);
  };
  for (const Edge& e : chart.cell(0, n).edges) {
    if (e.cat == s_cat) {
      if (auto form = term_to_logical_form(e.sem, lf_memo)) {
        if (seen_forms.insert(render_key(*form)).second) {
          result.forms.push_back(std::move(*form));
          if (options_.record_derivations && e.id >= 0) {
            result.derivations.push_back(extract_derivation(arena, e.id));
          }
        }
      }
    } else if (e.cat == np_cat || e.cat == n_cat) {
      if (auto frag = term_to_logical_form(e.sem, lf_memo)) {
        if (seen_fragments.insert(render_key(*frag)).second) {
          result.fragments.push_back(std::move(*frag));
        }
      }
    }
  }
  result.chart_edges = result.stats.edges_created;
  result.full_span_capped = chart.full_span_capped;
  result.stats.arena_bytes_reserved = chart_arena.bytes_reserved();
  result.stats.arena_high_water = chart_arena.high_water();
  result.stats.arena_resets = static_cast<std::size_t>(chart_arena.resets());
  return result;
}

}  // namespace sage::ccg
