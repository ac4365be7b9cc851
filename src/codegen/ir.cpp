#include "codegen/ir.hpp"

#include "net/schema.hpp"

namespace sage::codegen {

const net::schema::FieldSpec* field_spec(const FieldRef& ref) {
  const auto& registry = net::schema::SchemaRegistry::instance();
  return ref.field_id >= 0 ? registry.field_by_id(ref.field_id)
                           : registry.field(ref.layer, ref.field);
}

std::size_t Stmt::executable_count() const {
  switch (kind) {
    case Kind::kAssign:
    case Kind::kCall:
      return 1;
    case Kind::kComment:
      return 0;
    case Kind::kIf:
    case Kind::kSeq: {
      std::size_t n = kind == Kind::kIf ? 1 : 0;
      for (const auto& s : body) n += s.executable_count();
      return n;
    }
  }
  return 0;
}

}  // namespace sage::codegen
