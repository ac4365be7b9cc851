#include "ccg/category.hpp"

#include "ccg/interner.hpp"
#include "util/strings.hpp"

namespace sage::ccg {

namespace {

/// Probe key for the category interner: scalars + child pointers. For a
/// resident, `name` views its pooled name.
struct CatKey {
  Category::Slash slash;
  std::string_view name;      // primitive only
  const Category* result;     // complex only
  const Category* arg;        // complex only
  std::uint64_t hash;

  bool operator==(const CatKey& o) const {
    return slash == o.slash && name == o.name && result == o.result &&
           arg == o.arg;
  }

  static CatKey of(const Category& c) {
    return {c.slash(), c.name(), c.result(), c.arg(), c.hash()};
  }
};

using CatTable = InternTable<Category, CatKey>;

CatTable& cat_table() {
  static CatTable* table = new CatTable();  // immortal by design
  return *table;
}

}  // namespace

std::size_t category_interner_size() { return cat_table().size(); }

CategoryPtr Category::intern(Slash slash, std::string_view name,
                             CategoryPtr result, CategoryPtr arg,
                             std::uint64_t hash) {
  return cat_table().intern(
      {slash, name, result, arg, hash}, [&](void* memory, std::uint32_t id) {
        auto* c = ::new (memory) Category();
        c->slash_ = slash;
        c->name_ = pool_name(name);
        c->result_ = result;
        c->arg_ = arg;
        c->hash_ = hash;
        c->id_ = id;
        return c;
      });
}

CategoryPtr Category::primitive(std::string_view name) {
  return intern(Slash::kNone, name, nullptr, nullptr,
                hash_bytes(hash_mix(kHashSeed, 0x5ca7), name));
}

CategoryPtr Category::complex(CategoryPtr result, Slash slash, CategoryPtr arg) {
  return intern(
      slash, {}, result, arg,
      hash_mix(hash_mix(hash_mix(kHashSeed, static_cast<std::uint64_t>(slash)),
                        result->hash()),
               arg->hash()));
}

std::string Category::to_string() const {
  if (is_primitive()) return std::string(name_);
  const auto wrap = [](const Category& c) {
    return c.is_primitive() ? c.to_string() : "(" + c.to_string() + ")";
  };
  const char slash_char = slash_ == Slash::kForward ? '/' : '\\';
  // The result side keeps left-associative rendering unparenthesized.
  const std::string lhs = result_->is_primitive() ? result_->to_string()
                                                  : "(" + result_->to_string() + ")";
  return lhs + slash_char + wrap(*arg_);
}

namespace {

/// Recursive-descent category parser (left-associative slashes).
class CatParser {
 public:
  explicit CatParser(std::string_view text) : text_(text) {}

  CategoryPtr parse() {
    auto cat = parse_expr();
    skip_ws();
    if (pos_ != text_.size()) return nullptr;
    return cat;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  CategoryPtr parse_expr() {
    auto left = parse_atom();
    if (!left) return nullptr;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (c != '/' && c != '\\') break;
      ++pos_;
      auto right = parse_atom();
      if (!right) return nullptr;
      left = Category::complex(left,
                               c == '/' ? Category::Slash::kForward
                                        : Category::Slash::kBackward,
                               right);
    }
    return left;
  }

  CategoryPtr parse_atom() {
    skip_ws();
    if (pos_ >= text_.size()) return nullptr;
    if (text_[pos_] == '(') {
      ++pos_;
      auto inner = parse_expr();
      skip_ws();
      if (!inner || pos_ >= text_.size() || text_[pos_] != ')') return nullptr;
      ++pos_;
      return inner;
    }
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_')) {
      name += text_[pos_++];
    }
    if (name.empty()) return nullptr;
    return Category::primitive(name);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

CategoryPtr Category::parse(std::string_view text) {
  return CatParser(text).parse();
}

CategoryPtr cat_S() { return Category::primitive("S"); }
CategoryPtr cat_NP() { return Category::primitive("NP"); }
CategoryPtr cat_N() { return Category::primitive("N"); }
CategoryPtr cat_CONJ() { return Category::primitive("CONJ"); }

}  // namespace sage::ccg
