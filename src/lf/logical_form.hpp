// Logical forms (LFs): SAGE's intermediate representation.
//
// §2.2/§4 of the paper: the semantic parser outputs zero or more logical
// forms per sentence; each LF is a tree of nested predicates whose
// internal nodes are predicates (@Is, @If, @And, @Of, @Action, ...) and
// whose leaves are scalar arguments (field names, numbers). Multiple LFs
// for one sentence represent ambiguity; the disambiguation stage winnows
// them.
//
// An LF is immutable and shared. A predicate's children sit in one
// refcounted block, so a copy of a form copies its root and bumps one
// count; the parse cache, the sentence reports, the winnower's survivors
// and code generation all hold the same children. The block is freed with
// its last owner. Each node's structural hash is computed once, by the
// factory that builds it, from its children's hashes.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sage::lf {

/// Well-known predicate names. Kept as strings in the tree (the lexicon
/// can introduce new predicates, per §6.4 where BFD adds 10), but the
/// common ones get named constants so call sites don't typo them.
namespace pred {
inline constexpr std::string_view kIs = "@Is";
inline constexpr std::string_view kIf = "@If";
inline constexpr std::string_view kAnd = "@And";
inline constexpr std::string_view kOr = "@Or";
inline constexpr std::string_view kOf = "@Of";
inline constexpr std::string_view kIn = "@In";
inline constexpr std::string_view kAction = "@Action";
inline constexpr std::string_view kCompute = "@Compute";
inline constexpr std::string_view kNum = "@Num";
inline constexpr std::string_view kMay = "@May";
inline constexpr std::string_view kMust = "@Must";
inline constexpr std::string_view kNot = "@Not";
inline constexpr std::string_view kAdvBefore = "@AdvBefore";
inline constexpr std::string_view kAdvComment = "@AdvComment";
inline constexpr std::string_view kSelect = "@Select";
inline constexpr std::string_view kDiscard = "@Discard";
inline constexpr std::string_view kSend = "@Send";
inline constexpr std::string_view kCease = "@Cease";
inline constexpr std::string_view kNonzero = "@Nonzero";
inline constexpr std::string_view kCase = "@Case";
inline constexpr std::string_view kWhen = "@When";
inline constexpr std::string_view kGreater = "@Greater";
inline constexpr std::string_view kLess = "@Less";
}  // namespace pred

/// One node of a logical form. Built only by the factories and never
/// changed after: to alter a form, build the changed nodes anew around
/// the unchanged subtrees.
class LfNode {
 public:
  enum class Kind : std::uint8_t {
    kPredicate,  // label = predicate name, args = children
    kString,     // label = the string value (field name, function name, ...)
    kNumber,     // number = numeric literal
  };

  /// A predicate's children: one immutable block holding the count and
  /// the elements, shared by every copy and freed with its last owner.
  /// The count is atomic, because serve workers share cached runs and
  /// one ParseCache across threads.
  class Args {
   public:
    Args() = default;
    Args(const Args& other) noexcept : block_(other.block_) {
      if (block_ != nullptr) {
        block_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Args(Args&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)) {}
    Args& operator=(Args other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~Args() {
      if (block_ != nullptr &&
          block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        destroy(block_);
      }
    }

    std::size_t size() const { return block_ == nullptr ? 0 : block_->count; }
    bool empty() const { return block_ == nullptr; }
    const LfNode* begin() const {
      return block_ == nullptr
                 ? nullptr
                 : std::launder(reinterpret_cast<const LfNode*>(block_ + 1));
    }
    const LfNode* end() const { return begin() + size(); }
    const LfNode& operator[](std::size_t i) const { return begin()[i]; }

    /// True if both hold the same block, as a copy and its source do.
    bool shares_block(const Args& other) const {
      return block_ == other.block_;
    }

   private:
    friend class LfNode;
    /// The header; the elements follow it in the same allocation.
    struct Block {
      std::atomic<std::uint32_t> refs;
      std::uint32_t count;
    };

    /// Moves `children` into one new block (no block when empty).
    explicit Args(std::vector<LfNode>&& children);
    static void destroy(Block* block) noexcept;

    Block* block_ = nullptr;
  };

  /// An empty string leaf.
  LfNode();

  static LfNode predicate(std::string name, std::vector<LfNode> args = {});
  static LfNode str(std::string value);
  static LfNode num(long value);

  Kind kind() const { return kind_; }
  /// Predicate name or string value; empty for a number.
  const std::string& label() const { return label_; }
  long number() const { return number_; }
  /// The children; empty unless a predicate has arguments.
  const Args& args() const { return args_; }
  /// Structural hash: equal trees hash equal. Computed by the factory.
  std::uint64_t hash() const { return hash_; }

  bool is_predicate(std::string_view name) const {
    return kind_ == Kind::kPredicate && label_ == name;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  /// Structural equality; rejects on a hash mismatch before it walks.
  bool operator==(const LfNode& other) const;

  /// Number of nodes in the subtree (for statistics/benches).
  std::size_t size() const;

  /// Maximum nesting depth.
  std::size_t depth() const;

  /// Render as "@Is("checksum", @Num(0))".
  std::string to_string() const;

  /// Append the to_string rendering to `out` — lets dedup loops reuse
  /// one buffer instead of materializing a string per candidate.
  void append_to(std::string& out) const;

 private:
  LfNode(Kind kind, std::string label, long number, Args args,
         std::uint64_t hash)
      : hash_(hash),
        label_(std::move(label)),
        number_(number),
        args_(std::move(args)),
        kind_(kind) {}

  std::uint64_t hash_;
  std::string label_;
  long number_;
  Args args_;
  Kind kind_;
};

/// A complete logical form for one sentence.
using LogicalForm = LfNode;

/// Parse the textual form produced by LfNode::to_string. Used by golden
/// tests and the corpus annotations. Returns nullopt on syntax errors.
std::optional<LogicalForm> parse_logical_form(std::string_view text);

/// Collect the distinct predicate names used in a tree.
std::vector<std::string> collect_predicates(const LfNode& root);

/// Deterministic structural hash (identical trees hash equal): the
/// node's cached hash.
inline std::uint64_t structural_hash(const LfNode& root) { return root.hash(); }

}  // namespace sage::lf
