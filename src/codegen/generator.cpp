#include "codegen/generator.hpp"

#include <algorithm>
#include <atomic>

#include "codegen/handlers.hpp"
#include "net/schema.hpp"
#include "util/strings.hpp"

namespace sage::codegen {

namespace {

std::atomic<std::size_t> g_schema_resolved{0};
std::atomic<std::size_t> g_schema_unresolved{0};

/// Post-pass over a generated statement tree: annotate every FieldRef
/// with its dense registry id (generation-time schema resolution) and
/// precompute symbol values for kName expressions against the
/// protocol's symbol table. Unresolvable field names are collected as
/// diagnostics; they fall back to the interpreter's string path.
class SchemaAnnotator {
 public:
  SchemaAnnotator(const net::schema::ProtocolSchema* schema,
                  std::vector<std::string>* unresolved)
      : schema_(schema), unresolved_(unresolved) {}

  void annotate(Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kAssign) {
      note(stmt.target);
      annotate(stmt.value);
    }
    for (auto& a : stmt.args) annotate(a);
    if (stmt.kind == Stmt::Kind::kIf) annotate(stmt.cond);
    for (auto& child : stmt.body) annotate(child);
  }

 private:
  void note(FieldRef& ref) {
    if (!ref.valid()) return;
    if (const auto* spec = field_spec(ref)) ref.field_id = spec->id;
    if (ref.field_id >= 0) {
      g_schema_resolved.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    g_schema_unresolved.fetch_add(1, std::memory_order_relaxed);
    const std::string name = ref.to_string();
    if (std::find(unresolved_->begin(), unresolved_->end(), name) ==
        unresolved_->end()) {
      unresolved_->push_back(name);
    }
  }

  void annotate(Expr& expr) {
    if (expr.kind == Expr::Kind::kField) note(expr.field);
    if (expr.kind == Expr::Kind::kName) cache_symbol(expr);
    for (auto& a : expr.args) annotate(a);
  }

  /// The schema's symbol value, except for the per-run "scenario" alias
  /// (which must stay a runtime lookup).
  void cache_symbol(Expr& expr) {
    if (util::to_lower(expr.name) == "scenario") return;
    expr.symbol_cached = true;
    expr.symbol_cache = net::schema::symbol_value(schema_, expr.name);
  }

  void annotate(Cond& cond) {
    if (cond.kind == Cond::Kind::kCompare) {
      annotate(cond.lhs);
      annotate(cond.rhs);
    }
    for (auto& child : cond.children) annotate(child);
  }

  const net::schema::ProtocolSchema* schema_;
  std::vector<std::string>* unresolved_;
};

/// Does this statement (tree) contain a checksum computation call?
bool contains_checksum_call(const Stmt& stmt) {
  if (stmt.kind == Stmt::Kind::kCall &&
      (stmt.fn == "compute_checksum" || stmt.fn == "recompute_checksum")) {
    return true;
  }
  for (const auto& s : stmt.body) {
    if (contains_checksum_call(s)) return true;
  }
  return false;
}

}  // namespace

SchemaResolutionStats schema_resolution_stats() {
  return {g_schema_resolved.load(std::memory_order_relaxed),
          g_schema_unresolved.load(std::memory_order_relaxed)};
}

std::string CodeGenerator::function_name(const std::string& protocol,
                                         const std::string& message,
                                         const std::string& role) {
  std::string msg = message;
  // "Destination Unreachable Message" -> "destination_unreachable".
  const std::string suffix = " Message";
  if (util::ends_with(msg, suffix)) {
    msg = msg.substr(0, msg.size() - suffix.size());
  }
  return util::to_snake_case(protocol) + "_" + util::to_snake_case(msg) + "_" +
         util::to_snake_case(role);
}

GenerationOutcome CodeGenerator::generate(
    const std::string& protocol, const std::string& message,
    const std::string& role, std::span<const SentenceLf> sentences) const {
  GenerationOutcome outcome;

  std::vector<Stmt> main_body;
  std::vector<Stmt> advice;  // @AdvBefore statements, hoisted later

  for (const auto& s : sentences) {
    // Pre-processing: @AdvComment forms generate no code (§5.2).
    if (s.form.is_predicate(lf::pred::kAdvComment)) {
      Stmt c = Stmt::comment(s.sentence.empty() ? "non-actionable"
                                                : s.sentence);
      main_body.push_back(std::move(c));
      continue;
    }

    DynamicContext ctx = s.context;
    ctx.role = role;
    const ResolutionContext resolution(ctx, statics_);
    LfConverter converter(&resolution);

    const bool is_advice = s.form.is_predicate(lf::pred::kAdvBefore);
    const lf::LfNode& to_convert =
        is_advice && s.form.args().size() == 2 ? s.form.args()[1] : s.form;

    auto stmt = converter.to_stmt(to_convert);
    if (!stmt) {
      outcome.failed_sentences.push_back(s.sentence);
      outcome.diagnostics.push_back(
          converter.errors().empty()
              ? "no handler produced code for " + s.form.to_string()
              : converter.errors().back());
      continue;
    }
    stmt->text = s.sentence;  // provenance
    if (is_advice) {
      advice.push_back(std::move(*stmt));
    } else {
      main_body.push_back(std::move(*stmt));
    }
  }

  // Advice processing (§5.2): @AdvBefore statements execute before the
  // function they advise — here, before the checksum computation the
  // sentence order would otherwise place first.
  std::vector<Stmt> body;
  bool advice_inserted = advice.empty();
  for (auto& stmt : main_body) {
    if (!advice_inserted && contains_checksum_call(stmt)) {
      for (auto& a : advice) body.push_back(std::move(a));
      advice_inserted = true;
    }
    body.push_back(std::move(stmt));
  }
  if (!advice_inserted) {
    // No checksum call found: advice still runs, ahead of everything.
    std::vector<Stmt> prefixed;
    for (auto& a : advice) prefixed.push_back(std::move(a));
    for (auto& s : body) prefixed.push_back(std::move(s));
    body = std::move(prefixed);
  }

  GeneratedFunction fn;
  fn.name = function_name(protocol, message, role);
  fn.protocol = protocol;
  fn.message = message;
  fn.role = role;
  fn.body = Stmt::seq(std::move(body));

  // Schema resolution (see SchemaAnnotator): runs before emission, but
  // neither field ids nor symbol caches are rendered into the C text, so
  // goldens are unaffected.
  SchemaAnnotator annotator(
      net::schema::SchemaRegistry::instance().protocol(protocol),
      &outcome.unresolved_fields);
  annotator.annotate(fn.body);

  fn.c_source = emit_function(fn);
  outcome.function = std::move(fn);
  return outcome;
}

}  // namespace sage::codegen
