#include "lf/logical_form.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <type_traits>

namespace sage::lf {

namespace {

// The structural hash: FNV-1a over a canonical serialization, with each
// child's hash folded in where the child appears.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t mix(std::uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

LfNode::Args::Args(std::vector<LfNode>&& children) {
  static_assert(sizeof(Block) % alignof(LfNode) == 0 &&
                alignof(LfNode) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  // Nothing below throws once the block is allocated.
  static_assert(std::is_nothrow_move_constructible_v<LfNode>);
  if (children.empty()) return;
  void* raw = ::operator new(sizeof(Block) + children.size() * sizeof(LfNode));
  block_ = new (raw) Block{{1}, static_cast<std::uint32_t>(children.size())};
  auto* out = reinterpret_cast<LfNode*>(block_ + 1);
  for (LfNode& child : children) new (out++) LfNode(std::move(child));
}

void LfNode::Args::destroy(Block* block) noexcept {
  LfNode* elems = std::launder(reinterpret_cast<LfNode*>(block + 1));
  for (std::uint32_t i = block->count; i-- > 0;) elems[i].~LfNode();
  block->~Block();
  ::operator delete(block);
}

LfNode::LfNode() : LfNode(str(std::string())) {}

LfNode LfNode::predicate(std::string name, std::vector<LfNode> args) {
  std::uint64_t h = mix(mix(kFnvBasis, "("), name);
  for (const LfNode& a : args) {
    h ^= a.hash_ + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  h = mix(h, ")");
  return LfNode(Kind::kPredicate, std::move(name), 0, Args(std::move(args)), h);
}

LfNode LfNode::str(std::string value) {
  const std::uint64_t h = mix(mix(kFnvBasis, "$"), value);
  return LfNode(Kind::kString, std::move(value), 0, Args(), h);
}

LfNode LfNode::num(long value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  const std::uint64_t h =
      mix(mix(kFnvBasis, "#"), std::string_view(digits, end - digits));
  return LfNode(Kind::kNumber, std::string(), value, Args(), h);
}

bool LfNode::operator==(const LfNode& other) const {
  if (hash_ != other.hash_ || kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return label_ == other.label_;
    case Kind::kPredicate:
      return label_ == other.label_ &&
             (args_.shares_block(other.args_) ||
              std::equal(args_.begin(), args_.end(), other.args_.begin(),
                         other.args_.end()));
  }
  return false;
}

std::size_t LfNode::size() const {
  std::size_t n = 1;
  for (const auto& a : args_) n += a.size();
  return n;
}

std::size_t LfNode::depth() const {
  std::size_t d = 0;
  for (const auto& a : args_) d = std::max(d, a.depth());
  return d + 1;
}

namespace {

/// Append-style renderer: one output buffer for the whole tree instead
/// of a temporary string per node (to_string is on the pipeline's
/// dedup paths, where forms are rendered per candidate).
void append_node(const LfNode& node, std::string& out) {
  switch (node.kind()) {
    case LfNode::Kind::kNumber:
      out += "@Num(";
      out += std::to_string(node.number());
      out += ')';
      return;
    case LfNode::Kind::kString:
      out += '"';
      out += node.label();
      out += '"';
      return;
    case LfNode::Kind::kPredicate:
      out += node.label();
      out += '(';
      for (std::size_t i = 0; i < node.args().size(); ++i) {
        if (i != 0) out += ", ";
        append_node(node.args()[i], out);
      }
      out += ')';
      return;
  }
  out += '?';
}

}  // namespace

std::string LfNode::to_string() const {
  std::string out;
  out.reserve(32);
  append_node(*this, out);
  return out;
}

void LfNode::append_to(std::string& out) const { append_node(*this, out); }

namespace {

/// Tiny recursive-descent parser for the to_string grammar:
///   node  := '@Num' '(' [-]digits ')'
///          | '@Name' '(' [node (',' node)*] ')'
///          | '"' chars '"'
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<LfNode> parse() {
    auto node = parse_node();
    skip_ws();
    if (node && pos_ != text_.size()) return std::nullopt;  // trailing junk
    return node;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t')) {
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

  std::optional<LfNode> parse_node() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    if (text_[pos_] == '"') return parse_string();
    if (text_[pos_] == '@') return parse_predicate();
    return std::nullopt;
  }

  std::optional<LfNode> parse_string() {
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      value += text_[pos_++];
    }
    if (pos_ >= text_.size()) return std::nullopt;  // unterminated
    ++pos_;                                         // closing quote
    return LfNode::str(std::move(value));
  }

  std::optional<LfNode> parse_predicate() {
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '@' || text_[pos_] == '_')) {
      name += text_[pos_++];
    }
    if (name.size() < 2) return std::nullopt;
    if (!eat('(')) return std::nullopt;

    if (name == "@Num") {
      skip_ws();
      std::string digits;
      if (pos_ < text_.size() && text_[pos_] == '-') digits += text_[pos_++];
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        digits += text_[pos_++];
      }
      if (digits.empty() || digits == "-") return std::nullopt;
      if (!eat(')')) return std::nullopt;
      return LfNode::num(std::stol(digits));
    }

    std::vector<LfNode> args;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ')') {
      ++pos_;
      return LfNode::predicate(std::move(name), std::move(args));
    }
    while (true) {
      auto arg = parse_node();
      if (!arg) return std::nullopt;
      args.push_back(std::move(*arg));
      if (eat(')')) break;
      if (!eat(',')) return std::nullopt;
    }
    return LfNode::predicate(std::move(name), std::move(args));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void collect_predicates_impl(const LfNode& node, std::vector<std::string>& out) {
  if (node.kind() == LfNode::Kind::kPredicate) {
    if (std::find(out.begin(), out.end(), node.label()) == out.end()) {
      out.push_back(node.label());
    }
    for (const auto& a : node.args()) collect_predicates_impl(a, out);
  }
}

}  // namespace

std::optional<LogicalForm> parse_logical_form(std::string_view text) {
  return Parser(text).parse();
}

std::vector<std::string> collect_predicates(const LfNode& root) {
  std::vector<std::string> out;
  collect_predicates_impl(root, out);
  return out;
}

}  // namespace sage::lf
