// Table 4: "Logical form with context and resulting code" — the
// @Is('type', '3') example from the Destination Unreachable section,
// pushed through the real resolution context and predicate handlers.
#include <cstdio>

#include "bench_util.hpp"
#include "codegen/context.hpp"
#include "codegen/emitter.hpp"
#include "codegen/handlers.hpp"
#include "lf/logical_form.hpp"

int main() {
  using namespace sage;
  benchutil::title("Table 4", "logical form + context dictionary -> code");

  const auto lf = lf::parse_logical_form("@Is(\"type\", @Num(3))");
  if (!lf) {
    std::printf("internal error: LF did not parse\n");
    return 1;
  }

  codegen::DynamicContext dynamic;
  dynamic.protocol = "ICMP";
  dynamic.message = "Destination Unreachable Message";
  dynamic.field = "Type";
  dynamic.role = "";

  const auto statics = codegen::StaticContext::standard();
  const codegen::ResolutionContext resolution(dynamic, &statics);
  codegen::LfConverter converter(&resolution);

  const auto stmt = converter.to_stmt(*lf);

  std::printf("LF      | %s\n", lf->to_string().c_str());
  std::printf("CONTEXT | %s\n", dynamic.to_string().c_str());
  if (stmt) {
    std::printf("CODE    | %s", codegen::emit_stmt(*stmt).c_str());
  } else {
    std::printf("CODE    | <conversion failed>\n");
  }
  std::printf("\npaper   | hdr->type = 3;\n");
  return 0;
}
