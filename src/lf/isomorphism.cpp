#include "lf/isomorphism.hpp"

#include <algorithm>

namespace sage::lf {

LfNode flatten_associative(const LfNode& root,
                           const AlgebraicProperties& props) {
  if (root.kind() != LfNode::Kind::kPredicate) return root;

  const bool assoc = props.associative.count(root.label()) != 0;
  std::vector<LfNode> args;
  args.reserve(root.args().size());
  for (const auto& arg : root.args()) {
    LfNode flat = flatten_associative(arg, props);
    if (assoc && flat.is_predicate(root.label())) {
      // Splice the child's arguments into ours.
      args.insert(args.end(), flat.args().begin(), flat.args().end());
    } else {
      args.push_back(std::move(flat));
    }
  }
  return LfNode::predicate(root.label(), std::move(args));
}

namespace {

std::string encode(const LfNode& node, const AlgebraicProperties& props) {
  switch (node.kind()) {
    case LfNode::Kind::kNumber:
      return "#" + std::to_string(node.number());
    case LfNode::Kind::kString:
      return "$" + node.label();
    case LfNode::Kind::kPredicate: {
      std::vector<std::string> parts;
      parts.reserve(node.args().size());
      for (const auto& a : node.args()) parts.push_back(encode(a, props));
      if (props.commutative.count(node.label()) != 0) {
        std::sort(parts.begin(), parts.end());
      }
      std::string out = "(" + node.label();
      for (const auto& p : parts) {
        out += ' ';
        out += p;
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

}  // namespace

std::string canonical_encoding(const LfNode& root,
                               const AlgebraicProperties& props) {
  return encode(flatten_associative(root, props), props);
}

bool isomorphic(const LfNode& a, const LfNode& b,
                const AlgebraicProperties& props) {
  return canonical_encoding(a, props) == canonical_encoding(b, props);
}

}  // namespace sage::lf
