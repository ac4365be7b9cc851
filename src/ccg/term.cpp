#include "ccg/term.hpp"

#include <cctype>
#include <map>
#include <unordered_map>

#include "ccg/interner.hpp"

namespace sage::ccg {

namespace {

/// Probe key for the term interner: scalars + child pointers. For the
/// stored copy, `name` views the canonical node's own storage.
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
};
struct TermKeyHash {
  std::size_t operator()(const TermKey& k) const {
    return static_cast<std::size_t>(k.hash);
  }
};

using TermTable = InternTable<Term, TermKey, TermKeyHash>;

TermTable& term_table() {
  static TermTable* table = new TermTable();  // immortal by design
  return *table;
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

TermKey key_of(const Term& t) {
  TermKey key{t.kind, t.var, t.number, t.name, t.a.get(), t.b.get(), t.hash};
  return key;
}

TermPtr intern_term(Term::Kind kind, int var, long number, std::string name,
                    TermPtr a, TermPtr b) {
  TermKey key{kind, var, number, name, a.get(), b.get(), 0};
  key.hash = term_hash(key);
  return term_table().intern(
      key,
      [&](std::uint32_t id) {
        auto t = std::make_shared<Term>();
        t->kind = kind;
        t->var = var;
        t->number = number;
        t->name = std::move(name);
        t->a = std::move(a);
        t->b = std::move(b);
        t->hash = key.hash;
        t->id = id;
        switch (kind) {
          case Term::Kind::kVar:
            t->var_bloom = 1ull << (static_cast<unsigned>(var) & 63u);
            break;
          case Term::Kind::kLam:
            t->normal = t->a->normal;
            t->var_bloom = t->a->var_bloom;
            break;
          case Term::Kind::kApp:
            t->normal = t->a->normal && t->b->normal &&
                        t->a->kind != Term::Kind::kLam;
            t->var_bloom = t->a->var_bloom | t->b->var_bloom;
            break;
          default:
            break;  // leaves: normal, no variables
        }
        return t;
      },
      [](const Term& t) { return key_of(t); });
}

}  // namespace

std::size_t term_interner_size() { return term_table().size(); }

TermPtr mk_var(int id) {
  return intern_term(Term::Kind::kVar, id, 0, {}, nullptr, nullptr);
}

TermPtr mk_lam(int var, TermPtr body) {
  return intern_term(Term::Kind::kLam, var, 0, {}, std::move(body), nullptr);
}

TermPtr mk_app(TermPtr fun, TermPtr arg) {
  return intern_term(Term::Kind::kApp, 0, 0, {}, std::move(fun),
                     std::move(arg));
}

TermPtr mk_pred(std::string name) {
  return intern_term(Term::Kind::kPred, 0, 0, std::move(name), nullptr,
                     nullptr);
}

TermPtr mk_str(std::string value) {
  return intern_term(Term::Kind::kStr, 0, 0, std::move(value), nullptr,
                     nullptr);
}

TermPtr mk_num(long value) {
  return intern_term(Term::Kind::kNum, 0, value, {}, nullptr, nullptr);
}

TermPtr mk_pred_app(std::string name, std::vector<TermPtr> args) {
  TermPtr t = mk_pred(std::move(name));
  for (auto& a : args) t = mk_app(std::move(t), std::move(a));
  return t;
}

namespace {

/// Substitute `value` for free occurrences of `var` in `term`.
/// No alpha-renaming: lexicon terms are closed, combinator wrappers use
/// ids fresh within the parse, and the one reused binder id
/// (kTypeRaiseVar) is only ever bound over its own head occurrence —
/// so the shadowing check below is exact and capture cannot occur
/// (docs/PARSER_INTERNALS.md spells out the argument).
TermPtr substitute(const TermPtr& term, int var, const TermPtr& value) {
  // Bloom miss proves `var` does not occur anywhere below: no walk.
  if ((term->var_bloom & (1ull << (static_cast<unsigned>(var) & 63u))) == 0) {
    return term;
  }
  switch (term->kind) {
    case Term::Kind::kVar:
      return term->var == var ? value : term;
    case Term::Kind::kLam: {
      if (term->var == var) return term;  // shadowed

      TermPtr body = substitute(term->a, var, value);
      return body == term->a ? term : mk_lam(term->var, std::move(body));
    }
    case Term::Kind::kApp: {
      TermPtr f = substitute(term->a, var, value);
      TermPtr x = substitute(term->b, var, value);
      return (f == term->a && x == term->b) ? term
                                            : mk_app(std::move(f), std::move(x));
    }
    default:
      return term;
  }
}

/// One normal-order reduction step; nullptr when already in normal form.
TermPtr step(const TermPtr& term) {
  if (term->normal) return nullptr;  // memoized: no redex below
  switch (term->kind) {
    case Term::Kind::kApp: {
      if (term->a->kind == Term::Kind::kLam) {
        return substitute(term->a->a, term->a->var, term->b);
      }
      if (TermPtr f = step(term->a)) return mk_app(std::move(f), term->b);
      if (TermPtr x = step(term->b)) return mk_app(term->a, std::move(x));
      return nullptr;
    }
    case Term::Kind::kLam: {
      if (TermPtr body = step(term->a)) return mk_lam(term->var, std::move(body));
      return nullptr;
    }
    default:
      return nullptr;
  }
}

}  // namespace

namespace {

/// Memo of successful normalizations ("computed table"): input term id
/// -> (normal form, steps it took). Sound because terms are canonical
/// and beta_reduce is a pure function of its input; shared process-wide
/// so repeated combinations across sentences and batch passes reduce
/// once. Striped like the interner. Entries are only reused when the
/// caller's step budget covers the recorded cost, so a generous cache
/// can never turn a capped failure into a success.
struct BetaMemoShard {
  std::mutex mutex;
  std::unordered_map<std::uint32_t, std::pair<TermPtr, std::uint32_t>> map;
};

std::array<BetaMemoShard, 16>& beta_memo() {
  static auto* shards = new std::array<BetaMemoShard, 16>();  // immortal
  return *shards;
}

/// Same idea keyed on (fun id, arg id) pairs for reduce_app().
struct AppMemoShard {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, std::pair<TermPtr, std::uint32_t>> map;
};

std::array<AppMemoShard, 16>& app_memo() {
  static auto* shards = new std::array<AppMemoShard, 16>();  // immortal
  return *shards;
}

}  // namespace

TermPtr beta_reduce(const TermPtr& term, int max_steps,
                    std::size_t* steps_out) {
  if (term->normal) return term;
  BetaMemoShard& shard = beta_memo()[term->id & 15u];
  {
    std::lock_guard lock(shard.mutex);
    const auto it = shard.map.find(term->id);
    if (it != shard.map.end() &&
        it->second.second <= static_cast<std::uint32_t>(max_steps)) {
      if (steps_out != nullptr) *steps_out += it->second.second;
      return it->second.first;
    }
  }
  TermPtr current = term;
  for (int i = 0; i < max_steps; ++i) {
    TermPtr next = step(current);
    if (!next) {
      std::lock_guard lock(shard.mutex);
      shard.map.emplace(term->id,
                        std::make_pair(current, static_cast<std::uint32_t>(i)));
      if (steps_out != nullptr) *steps_out += static_cast<std::size_t>(i);
      return current;
    }
    current = std::move(next);
  }
  return nullptr;  // did not normalize within the cap
}

TermPtr reduce_app(const TermPtr& fun, const TermPtr& arg, int max_steps,
                   std::size_t* steps_out) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(fun->id) << 32) | arg->id;
  AppMemoShard& shard = app_memo()[key & 15u];
  {
    std::lock_guard lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end() &&
        it->second.second <= static_cast<std::uint32_t>(max_steps)) {
      if (steps_out != nullptr) *steps_out += it->second.second;
      return it->second.first;
    }
  }
  std::size_t steps = 0;
  TermPtr reduced = beta_reduce(mk_app(fun, arg), max_steps, &steps);
  if (steps_out != nullptr) *steps_out += steps;
  if (reduced != nullptr) {
    std::lock_guard lock(shard.mutex);
    shard.map.emplace(key, std::make_pair(reduced,
                                          static_cast<std::uint32_t>(steps)));
  }
  return reduced;
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
      append_term(term->a.get(), out);
      return;
    case Term::Kind::kApp: {
      // Collect the application spine for @Pred(a, b) style printing.
      std::vector<const Term*> args;
      const Term* head = term;
      while (head->kind == Term::Kind::kApp) {
        args.push_back(head->b.get());
        head = head->a.get();
      }
      if (head->kind == Term::Kind::kPred) {
        out += head->name;
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
      out += term->name;
      return;
    case Term::Kind::kStr:
      out += '"';
      out += term->name;
      out += '"';
      return;
    case Term::Kind::kNum:
      out += std::to_string(term->number);
      return;
  }
  out += '?';
}

std::optional<lf::LfNode> term_to_lf_node(const Term* term) {
  switch (term->kind) {
    case Term::Kind::kStr:
      return lf::LfNode::str(term->name);
    case Term::Kind::kNum:
      return lf::LfNode::num(term->number);
    case Term::Kind::kPred:
      return lf::LfNode::predicate(term->name);
    case Term::Kind::kApp: {
      std::vector<const Term*> spine;
      const Term* head = term;
      while (head->kind == Term::Kind::kApp) {
        spine.push_back(head->b.get());
        head = head->a.get();
      }
      if (head->kind != Term::Kind::kPred) return std::nullopt;
      std::vector<lf::LfNode> args;
      args.reserve(spine.size());
      for (std::size_t i = spine.size(); i-- > 0;) {
        auto arg = term_to_lf_node(spine[i]);
        if (!arg) return std::nullopt;
        args.push_back(std::move(*arg));
      }
      return lf::LfNode::predicate(head->name, std::move(args));
    }
    case Term::Kind::kVar:
    case Term::Kind::kLam:
      return std::nullopt;  // not a ground logical form
  }
  return std::nullopt;
}

}  // namespace

std::string term_to_string(const TermPtr& term) {
  if (!term) return "<null>";
  std::string out;
  append_term(term.get(), out);
  return out;
}

std::optional<lf::LogicalForm> term_to_logical_form(const TermPtr& term) {
  if (!term) return std::nullopt;
  return term_to_lf_node(term.get());
}

namespace {

/// Parser for the lexicon's term syntax.
class TermParser {
 public:
  TermParser(std::string_view text, VarGen& binders)
      : text_(text), binders_(binders) {}

  TermPtr parse() {
    TermPtr t = parse_term();
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
    TermPtr body = parse_term();
    vars_.erase(name);
    if (!body) return nullptr;
    return mk_lam(id, std::move(body));
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
        TermPtr arg = parse_term();
        if (!arg) return nullptr;
        head = mk_app(std::move(head), std::move(arg));
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
      return mk_str(std::move(value));
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
