#include "ccg/term.hpp"

#include <cassert>
#include <cctype>
#include <cstddef>
#include <limits>
#include <map>
#include <new>
#include <stdexcept>
#include <vector>

#include "ccg/interner.hpp"
#include "util/arena.hpp"

namespace sage::ccg {

namespace {

/// Probe key for the term interner: scalars + child pointers. For a
/// resident, `name` views the node's pooled name.
struct TermKey {
  Term::Kind kind;
  int var;
  long number;
  std::string_view name;
  const Term* a;
  const Term* b;
  std::uint64_t hash;

  bool operator==(const TermKey& o) const {
    return kind == o.kind && var == o.var && number == o.number &&
           name == o.name && a == o.a && b == o.b;
  }

  static TermKey of(const Term& t) {
    return {t.kind, t.var,  t.kind == Term::Kind::kNum ? t.number : 0,
            t.name(), t.a, t.b, t.hash};
  }
};

using TermTable = InternTable<Term, TermKey>;

TermTable& term_table() {
  static TermTable* table = new TermTable();  // immortal by design
  return *table;
}

/// The name pool behind pool_name: an arena that is never reset, so its
/// chunks and every view into them live for the process.
std::mutex name_pool_mutex;
util::Arena& name_pool() {
  static auto* pool = new util::Arena(4096);  // immortal by design
  return *pool;
}

std::uint64_t term_hash(const TermKey& k) {
  std::uint64_t h = hash_mix(kHashSeed, static_cast<std::uint64_t>(k.kind));
  h = hash_mix(h, static_cast<std::uint64_t>(k.var));
  h = hash_mix(h, static_cast<std::uint64_t>(k.number));
  h = hash_bytes(h, k.name);
  h = hash_mix(h, k.a != nullptr ? k.a->hash : 0);
  h = hash_mix(h, k.b != nullptr ? k.b->hash : 0);
  return h;
}

bool is_scratch(const Term& t) { return (t.id & kScratchBit) != 0; }

/// Builds the node `key` describes in `memory`, naming it with the pooled
/// `name`. Interned and scratch nodes are both built here, so they carry
/// the same hash, `normal` and `var_bloom`.
Term* build(void* memory, const TermKey& key, std::string_view name) {
  Term* t = ::new (memory) Term();
  t->kind = key.kind;
  t->var = key.var;
  t->name_chars = name.data();
  t->name_size = static_cast<std::uint32_t>(name.size());
  if (key.kind == Term::Kind::kNum) t->number = key.number;  // no name
  t->a = key.a;
  t->b = key.b;
  t->hash = key.hash;
  switch (t->kind) {
    case Term::Kind::kVar:
      t->var_bloom = 1ull << (static_cast<unsigned>(t->var) & 63u);
      break;
    case Term::Kind::kLam:
      t->normal = t->a->normal;
      t->var_bloom = t->a->var_bloom;
      break;
    case Term::Kind::kApp:
      t->normal =
          t->a->normal && t->b->normal && t->a->kind != Term::Kind::kLam;
      t->var_bloom = t->a->var_bloom | t->b->var_bloom;
      break;
    default:
      break;  // leaves: normal, no variables
  }
  return t;
}

/// The canonical node for `key`. A new node takes its name from the pool:
/// `key.name` itself when `name_pooled`, else a pooled copy of it.
TermPtr intern_term(const TermKey& key, bool name_pooled) {
  // A process-table node never points into a scratch generation.
  assert(key.a == nullptr || !is_scratch(*key.a));
  assert(key.b == nullptr || !is_scratch(*key.b));
  return term_table().intern(key, [&](void* memory, std::uint32_t id) {
    Term* t = build(memory, key,
                    name_pooled ? key.name : pool_name(key.name));
    t->id = id;
    return t;
  });
}

/// One thread's scratch generation: the nodes built while its ScratchScope
/// is open, in a store the thread keeps across scopes, and during
/// promote() each slot's canonical node. Closing the scope resets the
/// store, which under ASan poisons the freed slots. Names go to the pool,
/// where a node's promoted twin reuses them.
struct Scratch {
  NodeStore<Term, 256> nodes;
  std::vector<TermPtr> promoted;  // by slot
};

/// The generation of the scope open on this thread, or nullptr.
thread_local Scratch* open_scratch = nullptr;

/// Interns scratch node `t` after its children, once per node.
TermPtr lift(TermPtr t) {
  if (t == nullptr || !is_scratch(*t)) return t;
  TermPtr& canonical = open_scratch->promoted[t->id & ~kScratchBit];
  if (canonical == nullptr) {
    TermKey key = TermKey::of(*t);
    key.a = lift(t->a);
    key.b = lift(t->b);
    canonical = intern_term(key, /*name_pooled=*/true);
  }
  return canonical;
}

TermPtr make_term(Term::Kind kind, int var, long number, std::string_view name,
                  TermPtr a, TermPtr b) {
  TermKey key{kind, var, number, name, a, b, 0};
  key.hash = term_hash(key);
  if (open_scratch == nullptr) return intern_term(key, /*name_pooled=*/false);
  const auto slot = static_cast<std::uint32_t>(open_scratch->nodes.size());
  Term* t = build(open_scratch->nodes.allocate(), key, pool_name(key.name));
  t->id = kScratchBit | slot;
  return t;
}

}  // namespace

std::string_view pool_name(std::string_view name) {
  if (name.empty()) return {};
  if (name.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("term name longer than 4 GiB");
  }
  std::lock_guard lock(name_pool_mutex);
  const auto pooled = name_pool().intern(
      {reinterpret_cast<const std::uint8_t*>(name.data()), name.size()});
  return {reinterpret_cast<const char*>(pooled.data()), pooled.size()};
}

std::size_t term_interner_size() { return term_table().size(); }

std::size_t term_store_bytes() {
  std::size_t names = 0;
  {
    std::lock_guard lock(name_pool_mutex);  // never held with a table lock
    names = name_pool().bytes_reserved();
  }
  return term_table().bytes() + names;
}

ScratchScope::ScratchScope() {
  static thread_local Scratch scratch;
  assert(open_scratch == nullptr && "scratch scopes do not nest");
  open_scratch = &scratch;
}

ScratchScope::~ScratchScope() {
  open_scratch->nodes.reset();
  open_scratch->promoted.clear();
  open_scratch = nullptr;
}

TermPtr ScratchScope::promote(TermPtr term) {
  open_scratch->promoted.resize(open_scratch->nodes.size());
  return lift(term);
}

TermPtr mk_var(int id) {
  return make_term(Term::Kind::kVar, id, 0, {}, nullptr, nullptr);
}

TermPtr mk_lam(int var, TermPtr body) {
  return make_term(Term::Kind::kLam, var, 0, {}, body, nullptr);
}

TermPtr mk_app(TermPtr fun, TermPtr arg) {
  return make_term(Term::Kind::kApp, 0, 0, {}, fun, arg);
}

TermPtr mk_pred(std::string_view name) {
  return make_term(Term::Kind::kPred, 0, 0, name, nullptr, nullptr);
}

TermPtr mk_str(std::string_view value) {
  return make_term(Term::Kind::kStr, 0, 0, value, nullptr, nullptr);
}

TermPtr mk_num(long value) {
  return make_term(Term::Kind::kNum, 0, value, {}, nullptr, nullptr);
}

TermPtr mk_pred_app(std::string_view name,
                    std::initializer_list<TermPtr> args) {
  TermPtr t = mk_pred(name);
  for (TermPtr a : args) t = mk_app(t, a);
  return t;
}

namespace {

/// Substitute `value` for free occurrences of `var` in `term`.
/// No alpha-renaming: lexicon terms are closed, combinator wrappers use
/// ids fresh within the parse, and the one reused binder id
/// (kTypeRaiseVar) is only ever bound over its own head occurrence —
/// so the shadowing check below is exact and capture cannot occur
/// (docs/PARSER_INTERNALS.md spells out the argument).
TermPtr substitute(TermPtr term, int var, TermPtr value) {
  // Bloom miss proves `var` does not occur anywhere below: no walk.
  if ((term->var_bloom & (1ull << (static_cast<unsigned>(var) & 63u))) == 0) {
    return term;
  }
  switch (term->kind) {
    case Term::Kind::kVar:
      return term->var == var ? value : term;
    case Term::Kind::kLam: {
      if (term->var == var) return term;  // shadowed

      const TermPtr body = substitute(term->a, var, value);
      return body == term->a ? term : mk_lam(term->var, body);
    }
    case Term::Kind::kApp: {
      const TermPtr f = substitute(term->a, var, value);
      const TermPtr x = substitute(term->b, var, value);
      return (f == term->a && x == term->b) ? term : mk_app(f, x);
    }
    default:
      return term;
  }
}

/// One normal-order reduction step; nullptr when already in normal form.
TermPtr step(TermPtr term) {
  if (term->normal) return nullptr;  // memoized: no redex below
  switch (term->kind) {
    case Term::Kind::kApp: {
      if (term->a->kind == Term::Kind::kLam) {
        return substitute(term->a->a, term->a->var, term->b);
      }
      if (const TermPtr f = step(term->a)) return mk_app(f, term->b);
      if (const TermPtr x = step(term->b)) return mk_app(term->a, x);
      return nullptr;
    }
    case Term::Kind::kLam: {
      if (const TermPtr body = step(term->a)) return mk_lam(term->var, body);
      return nullptr;
    }
    default:
      return nullptr;
  }
}

}  // namespace

TermPtr beta_reduce(TermPtr term, int max_steps,
                    std::size_t* steps_out) {
  if (term->normal) return term;
  TermPtr current = term;
  for (int i = 0; i < max_steps; ++i) {
    const TermPtr next = step(current);
    if (!next) {
      if (steps_out != nullptr) *steps_out += static_cast<std::size_t>(i);
      return current;
    }
    current = next;
  }
  return nullptr;  // did not normalize within the cap
}

namespace {

/// Append the rendering of `term` to `out` without allocating temporary
/// Term copies (renders must stay byte-identical to the historical
/// recursive formatter — golden corpora depend on these strings).
void append_term(const Term* term, std::string& out) {
  switch (term->kind) {
    case Term::Kind::kVar:
      out += 'x';
      out += std::to_string(term->var);
      return;
    case Term::Kind::kLam:
      out += "\\x";
      out += std::to_string(term->var);
      out += '.';
      append_term(term->a, out);
      return;
    case Term::Kind::kApp: {
      // Collect the application spine for @Pred(a, b) style printing.
      std::vector<const Term*> args;
      const Term* head = term;
      while (head->kind == Term::Kind::kApp) {
        args.push_back(head->b);
        head = head->a;
      }
      if (head->kind == Term::Kind::kPred) {
        out += head->name();
      } else {
        append_term(head, out);
      }
      out += '(';
      for (std::size_t i = args.size(); i-- > 0;) {
        append_term(args[i], out);
        if (i != 0) out += ", ";
      }
      out += ')';
      return;
    }
    case Term::Kind::kPred:
      out += term->name();
      return;
    case Term::Kind::kStr:
      out += '"';
      out += term->name();
      out += '"';
      return;
    case Term::Kind::kNum:
      out += std::to_string(term->number);
      return;
  }
  out += '?';
}

std::optional<lf::LfNode> term_to_lf_node(const Term* term, LfMemo& memo) {
  switch (term->kind) {
    case Term::Kind::kStr:
      return lf::LfNode::str(std::string(term->name()));
    case Term::Kind::kNum:
      return lf::LfNode::num(term->number);
    case Term::Kind::kPred:
      return lf::LfNode::predicate(std::string(term->name()));
    case Term::Kind::kApp:
      break;
    case Term::Kind::kVar:
    case Term::Kind::kLam:
      return std::nullopt;  // not a ground logical form
  }
  if (const auto it = memo.find(term->id); it != memo.end()) return it->second;

  std::vector<const Term*> spine;
  const Term* head = term;
  while (head->kind == Term::Kind::kApp) {
    spine.push_back(head->b);
    head = head->a;
  }
  std::optional<lf::LfNode> out;
  if (head->kind == Term::Kind::kPred) {
    std::vector<lf::LfNode> args;
    args.reserve(spine.size());
    for (std::size_t i = spine.size(); i-- > 0;) {
      auto arg = term_to_lf_node(spine[i], memo);
      if (!arg) break;
      args.push_back(std::move(*arg));
    }
    if (args.size() == spine.size()) {
      out = lf::LfNode::predicate(std::string(head->name()), std::move(args));
    }
  }
  memo.emplace(term->id, out);
  return out;
}

}  // namespace

std::string term_to_string(TermPtr term) {
  if (!term) return "<null>";
  std::string out;
  append_term(term, out);
  return out;
}

std::optional<lf::LogicalForm> term_to_logical_form(TermPtr term,
                                                    LfMemo& memo) {
  if (!term) return std::nullopt;
  return term_to_lf_node(term, memo);
}

std::optional<lf::LogicalForm> term_to_logical_form(TermPtr term) {
  LfMemo memo;
  return term_to_logical_form(term, memo);
}

namespace {

/// Parser for the lexicon's term syntax.
class TermParser {
 public:
  TermParser(std::string_view text, VarGen& binders)
      : text_(text), binders_(binders) {}

  TermPtr parse() {
    const TermPtr t = parse_term();
    skip_ws();
    if (t && pos_ != text_.size()) return nullptr;
    return t;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  TermPtr parse_term() {
    skip_ws();
    if (pos_ >= text_.size()) return nullptr;
    const char c = text_[pos_];
    if (c == '\\') return parse_lambda();
    return parse_applied();
  }

  TermPtr parse_lambda() {
    ++pos_;  // backslash
    std::string name = parse_ident();
    if (name.empty() || !eat('.')) return nullptr;
    const int id = binders_.fresh();
    vars_[name] = id;
    const TermPtr body = parse_term();
    vars_.erase(name);
    if (!body) return nullptr;
    return mk_lam(id, body);
  }

  /// atom optionally followed by (arg, arg, ...) application lists.
  TermPtr parse_applied() {
    TermPtr head = parse_atom();
    if (!head) return nullptr;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '(') break;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ')') {
        ++pos_;
        continue;  // nullary application: just the head
      }
      while (true) {
        const TermPtr arg = parse_term();
        if (!arg) return nullptr;
        head = mk_app(head, arg);
        if (eat(')')) break;
        if (!eat(',')) return nullptr;
      }
    }
    return head;
  }

  TermPtr parse_atom() {
    skip_ws();
    if (pos_ >= text_.size()) return nullptr;
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '"') value += text_[pos_++];
      if (pos_ >= text_.size()) return nullptr;
      ++pos_;
      return mk_str(value);
    }
    if (c == '@') {
      ++pos_;
      std::string name = parse_ident();
      if (name.empty()) return nullptr;
      return mk_pred("@" + name);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-') {
      std::string digits;
      if (c == '-') {
        digits += c;
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        digits += text_[pos_++];
      }
      if (digits.empty() || digits == "-") return nullptr;
      return mk_num(std::stol(digits));
    }
    const std::string name = parse_ident();
    if (name.empty()) return nullptr;
    const auto it = vars_.find(name);
    if (it == vars_.end()) return nullptr;  // unbound variable
    return mk_var(it->second);
  }

  std::string parse_ident() {
    skip_ws();
    std::string out;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_')) {
      out += text_[pos_++];
    }
    return out;
  }

  std::string_view text_;
  VarGen& binders_;
  std::size_t pos_ = 0;
  std::map<std::string, int> vars_;
};

}  // namespace

TermPtr parse_term(std::string_view text, VarGen& binders) {
  return TermParser(text, binders).parse();
}

}  // namespace sage::ccg
