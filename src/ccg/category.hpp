// CCG syntactic categories (§3 "CCG background").
//
// Primitive categories (S, NP, N, PP, COND, CONJ) combine into complex
// categories with directional slashes: X/Y consumes a Y to its right and
// produces an X; X\Y consumes a Y to its left. Example from the paper:
// "is" has category (S\NP)/NP — combine with an NP on the right, then an
// NP on the left, to form a sentence.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sage::ccg {

class Category;
using CategoryPtr = const Category*;  // never owns: see interner.hpp

/// Immutable, hash-consed category tree (see interner.hpp): the
/// factories return canonical pointers, so structurally identical
/// categories are the SAME object — equality is pointer equality, and
/// every node carries a precomputed structural hash and a dense id the
/// chart indexes key on. A primitive's name lives in the name pool.
class Category {
 public:
  enum class Slash { kNone, kForward, kBackward };

  /// Primitive category, e.g. "S". Interned.
  static CategoryPtr primitive(std::string_view name);

  /// Complex category `result slash arg`. Interned.
  static CategoryPtr complex(CategoryPtr result, Slash slash, CategoryPtr arg);

  bool is_primitive() const { return slash_ == Slash::kNone; }
  std::string_view name() const { return name_; }
  Slash slash() const { return slash_; }
  CategoryPtr result() const { return result_; }
  CategoryPtr arg() const { return arg_; }

  /// Precomputed structural hash (equal structures hash equal).
  std::uint64_t hash() const { return hash_; }
  /// Dense interner id; same structure <=> same id.
  std::uint32_t id() const { return id_; }

  /// Structural equality. Categories exist only as interned nodes (no
  /// constructor or copy is public), so it is identity.
  bool equals(const Category& other) const { return this == &other; }

  /// Render with minimal parentheses: "(S\NP)/NP".
  std::string to_string() const;

  /// Parse "(S\NP)/NP" style text. Slashes are left-associative:
  /// "S\NP/NP" means "(S\NP)/NP". Returns nullptr on syntax error.
  static CategoryPtr parse(std::string_view text);

 private:
  Category() = default;
  Category(const Category&) = delete;
  Category& operator=(const Category&) = delete;
  /// The canonical node with these fields, built on first sight.
  static CategoryPtr intern(Slash slash, std::string_view name,
                            CategoryPtr result, CategoryPtr arg,
                            std::uint64_t hash);

  std::string_view name_;         // primitive only, pooled
  CategoryPtr result_ = nullptr;  // complex only
  CategoryPtr arg_ = nullptr;     // complex only
  std::uint64_t hash_ = 0;        // structural hash, set by the interner
  std::uint32_t id_ = 0;          // dense interner id
  Slash slash_ = Slash::kNone;
};

/// The common primitives.
CategoryPtr cat_S();
CategoryPtr cat_NP();
CategoryPtr cat_N();
CategoryPtr cat_CONJ();

}  // namespace sage::ccg
