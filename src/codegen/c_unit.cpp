#include "codegen/c_unit.hpp"

#include <map>
#include <set>

#include "codegen/framework.hpp"
#include "net/schema.hpp"
#include "util/strings.hpp"

namespace sage::codegen {

namespace {

/// Byte-array-valued fields, per the packet-schema registry (the same
/// view runtime::SchemaExecEnv executes against). The substring
/// fallback keeps non-registry layers behaving as before.
bool is_bytes_field(const FieldRef& ref) {
  const auto& registry = net::schema::SchemaRegistry::instance();
  const auto* spec = ref.field_id >= 0
                         ? registry.field_by_id(ref.field_id)
                         : registry.field(ref.layer, ref.field);
  if (spec != nullptr) return spec->kind == net::schema::FieldKind::kBytes;
  return ref.field == "data" ||
         ref.field.find("datagram") != std::string::npos ||
         ref.field.find("internet_header") != std::string::npos;
}

struct Collected {
  // layer -> field -> is_bytes
  std::map<std::string, std::map<std::string, bool>> fields;
  std::set<std::string> functions;
  std::set<std::string> symbols;  // scenario constants
};

void collect_expr(const Expr& expr, Collected& out);

void collect_cond(const Cond& cond, Collected& out) {
  if (cond.kind == Cond::Kind::kCompare) {
    collect_expr(cond.lhs, out);
    collect_expr(cond.rhs, out);
  }
  for (const auto& child : cond.children) collect_cond(child, out);
}

void collect_expr(const Expr& expr, Collected& out) {
  switch (expr.kind) {
    case Expr::Kind::kField:
      out.fields[expr.field.layer][expr.field.field] = is_bytes_field(expr.field);
      break;
    case Expr::Kind::kCall:
      out.functions.insert(expr.name);
      for (const auto& a : expr.args) collect_expr(a, out);
      break;
    case Expr::Kind::kName: {
      const std::string id = util::to_snake_case(expr.name);
      if (id != "scenario") out.symbols.insert(id);
      break;
    }
    case Expr::Kind::kConst:
      break;
  }
}

void collect_stmt(const Stmt& stmt, Collected& out) {
  switch (stmt.kind) {
    case Stmt::Kind::kAssign:
      out.fields[stmt.target.layer][stmt.target.field] =
          is_bytes_field(stmt.target);
      collect_expr(stmt.value, out);
      break;
    case Stmt::Kind::kCall:
      out.functions.insert(stmt.fn);
      for (const auto& a : stmt.args) collect_expr(a, out);
      break;
    case Stmt::Kind::kIf:
      collect_cond(stmt.cond, out);
      break;
    case Stmt::Kind::kSeq:
    case Stmt::Kind::kComment:
      break;
  }
  for (const auto& child : stmt.body) collect_stmt(child, out);
}

}  // namespace

std::string c_framework_header() {
  return
      "/* sage static framework (C declarations) */\n"
      "struct sage_bytes {\n"
      "    const unsigned char *ptr;\n"
      "    unsigned long len;\n"
      "};\n\n";
}

std::string emit_compilation_unit(
    std::span<const GeneratedFunction> functions) {
  Collected collected;
  for (const auto& fn : functions) collect_stmt(fn.body, collected);

  std::string out = c_framework_header();

  // struct packet, built from exactly the fields the generated code uses.
  out += "struct packet {\n";
  for (const auto& [layer, fields] : collected.fields) {
    out += "    struct {\n";
    for (const auto& [field, bytes] : fields) {
      out += std::string("        ") +
             (bytes ? "struct sage_bytes " : "long ") + field + ";\n";
    }
    out += "    } " + layer + ";\n";
  }
  out += "};\n\n";

  // The event scenario the framework supplies (see §5.2's context use).
  out += "static long scenario;\n";
  long next = 1;
  for (const auto& symbol : collected.symbols) {
    out += "static const long " + symbol + " = " + std::to_string(next++) +
           ";\n";
  }
  out += "\n";

  // Framework function declarations. C99 empty parameter lists leave the
  // arity unspecified, matching the variadic way RFC text names them.
  for (const auto& fn : collected.functions) {
    out += std::string(framework::returns_bytes(fn) ? "struct sage_bytes "
                                                     : "long ") +
           fn + "();\n";
  }
  out += "\n";

  for (const auto& fn : functions) {
    out += fn.c_source;
    out += "\n";
  }
  return out;
}

}  // namespace sage::codegen
