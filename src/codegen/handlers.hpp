// Predicate handler functions (§5.2 "Code generation", §6.1: "we defined
// 25 predicate handler functions to convert LFs to code snippets").
//
// Code generation is a post-order traversal of the (single, winnowed)
// logical form; at each node the handler table supplies the rows that
// turn the predicate into an IR fragment, using the resolution context to
// map surface phrases onto fields and framework functions. Rows are
// tagged with the protocol that required them, reproducing the paper's
// incremental-cost numbers (25 for ICMP, +4 for IGMP, +8 for BFD).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/context.hpp"
#include "codegen/ir.hpp"
#include "lf/logical_form.hpp"

namespace sage::codegen {

class LfConverter;

/// Row keys for leaves, which carry no predicate.
inline constexpr std::string_view kStrLeaf = "$str";
inline constexpr std::string_view kNumLeaf = "$num";

/// One predicate handler: the node converted to a `T` (Stmt, Expr or
/// Cond), or nullopt when the node is not its case and the next row for
/// the same key is tried.
template <typename T>
using HandlerFn = std::optional<T> (*)(LfConverter&, const lf::LfNode&);

template <typename T>
struct HandlerRow {
  std::string_view predicate;  // an lf::pred label, kStrLeaf or kNumLeaf
  std::string_view source;     // "icmp", "igmp", "ntp", "bfd"
  HandlerFn<T> fn;
};

/// The handler table: one array per output kind, each in dispatch order.
std::span<const HandlerRow<Stmt>> stmt_handlers();
std::span<const HandlerRow<Expr>> expr_handlers();
std::span<const HandlerRow<Cond>> cond_handlers();

/// Rows tagged with `source` (§6.1: ICMP 25, IGMP +4, BFD +8; NTP's
/// peer-variable sentences add 2).
std::size_t handler_count(std::string_view source);

/// Drives the post-order conversion; handlers call back into it for
/// sub-trees. Each conversion walks its kind's rows whose key matches the
/// node, in order, and returns the first output.
class LfConverter {
 public:
  explicit LfConverter(const ResolutionContext* context) : context_(context) {}

  std::optional<Stmt> to_stmt(const lf::LfNode& node);
  std::optional<Expr> to_expr(const lf::LfNode& node);
  std::optional<Cond> to_cond(const lf::LfNode& node);

  const ResolutionContext& context() const { return *context_; }

  /// Diagnostics accumulated during conversion (why a sentence failed to
  /// generate code — input to the iterative non-actionable discovery).
  const std::vector<std::string>& errors() const { return errors_; }
  void report(std::string error) { errors_.push_back(std::move(error)); }

 private:
  const ResolutionContext* context_;
  std::vector<std::string> errors_;
};

}  // namespace sage::codegen
