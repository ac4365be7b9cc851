#include "disambig/winnower.hpp"

#include <algorithm>
#include <optional>
#include <set>

namespace sage::disambig {

using lf::LfNode;

bool is_distributed_version(const LfNode& distributed, const LfNode& grouped) {
  // distributed: @Conj(P(a1..an), P(b1..bn)) with exactly one differing slot
  // grouped:     P(c1..cn) with the differing slot ck = @Conj(ak, bk).
  if (distributed.kind() != LfNode::Kind::kPredicate ||
      grouped.kind() != LfNode::Kind::kPredicate) {
    return false;
  }
  const bool conj = distributed.label() == lf::pred::kAnd ||
                    distributed.label() == lf::pred::kOr;
  if (!conj || distributed.args().size() != 2) return false;
  const LfNode& left = distributed.args()[0];
  const LfNode& right = distributed.args()[1];
  if (left.kind() != LfNode::Kind::kPredicate ||
      right.kind() != LfNode::Kind::kPredicate) {
    return false;
  }
  if (left.label() != right.label() || left.label() != grouped.label()) {
    return false;
  }
  if (left.args().size() != right.args().size() ||
      left.args().size() != grouped.args().size()) {
    return false;
  }

  // Find the single differing argument slot.
  int differing = -1;
  for (std::size_t i = 0; i < left.args().size(); ++i) {
    if (!(left.args()[i] == right.args()[i])) {
      if (differing != -1) return false;  // more than one slot differs
      differing = static_cast<int>(i);
    }
  }
  if (differing == -1) return false;  // identical conjuncts

  for (std::size_t i = 0; i < grouped.args().size(); ++i) {
    if (static_cast<int>(i) == differing) {
      const LfNode expected = LfNode::predicate(
          distributed.label(),
          {left.args()[i], right.args()[i]});
      if (!(grouped.args()[i] == expected)) return false;
    } else {
      if (!(grouped.args()[i] == left.args()[i])) return false;
    }
  }
  return true;
}

namespace {

/// `node` undistributed, or nullopt when it is already its own normal
/// form: the caller then shares it, so only the nodes a fold changes (and
/// their ancestors) are built anew.
std::optional<LfNode> undistributed(const LfNode& node) {
  if (node.kind() != LfNode::Kind::kPredicate) return std::nullopt;
  // Normalize children first.
  const LfNode::Args& args = node.args();
  std::vector<LfNode> children;
  bool changed = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::optional<LfNode> child = undistributed(args[i]);
    if (child && !changed) {
      children.assign(args.begin(), args.begin() + i);
      changed = true;
    }
    if (changed) children.push_back(child ? std::move(*child) : args[i]);
  }
  LfNode out =
      changed ? LfNode::predicate(node.label(), std::move(children)) : node;

  // Fixpoint at this node: repeatedly fold @Conj(P(..a..), P(..b..)).
  while (true) {
    const bool conj =
        out.label() == lf::pred::kAnd || out.label() == lf::pred::kOr;
    if (!conj || out.args().size() != 2) break;
    const LfNode& left = out.args()[0];
    const LfNode& right = out.args()[1];
    if (left.kind() != LfNode::Kind::kPredicate ||
        right.kind() != LfNode::Kind::kPredicate ||
        left.label() != right.label() ||
        left.args().size() != right.args().size()) {
      break;
    }
    int differing = -1;
    bool foldable = true;
    for (std::size_t i = 0; i < left.args().size(); ++i) {
      if (!(left.args()[i] == right.args()[i])) {
        if (differing != -1) {
          foldable = false;
          break;
        }
        differing = static_cast<int>(i);
      }
    }
    if (!foldable || differing == -1) break;
    const auto d = static_cast<std::size_t>(differing);
    std::vector<LfNode> slots(left.args().begin(), left.args().end());
    slots[d] = undistribute(
        LfNode::predicate(out.label(), {left.args()[d], right.args()[d]}));
    out = LfNode::predicate(left.label(), std::move(slots));
    changed = true;
  }
  if (!changed) return std::nullopt;
  return out;
}

}  // namespace

LfNode undistribute(const LfNode& node) {
  std::optional<LfNode> normal = undistributed(node);
  return normal ? *std::move(normal) : node;
}

Winnower::Winnower(std::vector<Check> checks, lf::AlgebraicProperties properties)
    : checks_(std::move(checks)), properties_(std::move(properties)) {
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& check = checks_[i];
    if (check.family > CheckFamily::kPredicateOrdering) continue;  // not per-LF
    if (check.at.empty()) at_root_.push_back(i);
    for (const std::string_view label : check.at) by_label_[label].push_back(i);
  }
}

std::size_t Winnower::count_in_family(CheckFamily family) const {
  return static_cast<std::size_t>(
      std::count_if(checks_.begin(), checks_.end(),
                    [family](const Check& c) { return c.family == family; }));
}

Winnower::FirstFailures Winnower::first_failures(const LfNode& form) const {
  FirstFailures first;
  first.fill(kPasses);
  const auto run = [this, &first](std::size_t i, const LfNode& node) {
    std::size_t& slot = first[static_cast<std::size_t>(checks_[i].family)];
    if (i < slot && checks_[i].test(node)) slot = i;
  };
  for (const std::size_t i : at_root_) run(i, form);
  const auto walk = [this, &run](const auto& self, const LfNode& node) -> void {
    if (node.kind() == LfNode::Kind::kPredicate) {
      if (const auto it = by_label_.find(node.label()); it != by_label_.end()) {
        for (const std::size_t i : it->second) run(i, node);
      }
    }
    for (const auto& a : node.args()) self(self, a);
  };
  walk(walk, form);
  return first;
}

std::vector<LfNode> Winnower::apply_distributivity(
    std::vector<LfNode> forms,
    std::map<std::string, std::size_t>* removed_by_check) const {
  // "SAGE always selects the non-distributive logical form version":
  // among forms sharing an undistributed normal form, keep the least
  // distributed one (fewest conjunction nodes); drop the others.
  const auto conj_count = [](const LfNode& root) {
    // Explicit-stack walk: logical forms can get deep, and this runs
    // per candidate pair — no allocation-per-level std::function.
    std::size_t n = 0;
    std::vector<const LfNode*> stack = {&root};
    while (!stack.empty()) {
      const LfNode* m = stack.back();
      stack.pop_back();
      if (m->is_predicate(lf::pred::kAnd) || m->is_predicate(lf::pred::kOr)) {
        ++n;
      }
      for (const auto& a : m->args()) stack.push_back(&a);
    }
    return n;
  };

  std::map<std::string, std::size_t> best;  // normal form -> index of keeper
  std::vector<bool> is_normal(forms.size());
  for (std::size_t i = 0; i < forms.size(); ++i) {
    const LfNode normal = undistribute(forms[i]);
    is_normal[i] = normal == forms[i];
    const auto [it, inserted] = best.try_emplace(normal.to_string(), i);
    if (inserted) continue;
    // Prefer the form that *is* the grouped normal form; then the one
    // with fewer conjunction nodes.
    const std::size_t kept = it->second;
    if ((is_normal[i] && !is_normal[kept]) ||
        (is_normal[i] == is_normal[kept] &&
         conj_count(forms[i]) < conj_count(forms[kept]))) {
      it->second = i;
    }
  }
  std::vector<bool> keep(forms.size(), false);
  for (const auto& [key, idx] : best) keep[idx] = true;

  std::vector<LfNode> out;
  for (std::size_t i = 0; i < forms.size(); ++i) {
    if (keep[i]) {
      out.push_back(std::move(forms[i]));
    } else if (removed_by_check != nullptr) {
      ++(*removed_by_check)["distrib:prefer-grouped"];
    }
  }
  return out;
}

std::vector<LfNode> Winnower::apply_associativity(
    std::vector<LfNode> forms,
    std::map<std::string, std::size_t>* removed_by_check) const {
  // Keep the first representative of every isomorphism class.
  std::set<std::string> seen;
  std::vector<LfNode> out;
  for (auto& form : forms) {
    const std::string key = lf::canonical_encoding(form, properties_);
    if (seen.insert(key).second) {
      out.push_back(std::move(form));
    } else if (removed_by_check != nullptr) {
      ++(*removed_by_check)["assoc:isomorphic"];
    }
  }
  return out;
}

WinnowResult Winnower::winnow(const std::vector<LfNode>& input) const {
  WinnowResult result;
  result.stages.push_back({"Base", input.size()});

  // One walk per form decides the per-LF stages; only survivors are copied.
  std::vector<LfNode> forms;
  std::array<std::size_t, 3> removed_at{};
  for (const LfNode& form : input) {
    const FirstFailures first = first_failures(form);
    const auto failed = std::find_if(first.begin(), first.end(),
                                     [](std::size_t i) { return i != kPasses; });
    if (failed == first.end()) {
      forms.push_back(form);
      continue;
    }
    ++removed_at[static_cast<std::size_t>(failed - first.begin())];
    ++result.removed_by_check[checks_[*failed].name];
  }
  std::size_t remaining = input.size();
  for (const CheckFamily family : {CheckFamily::kType, CheckFamily::kArgumentOrdering,
                                   CheckFamily::kPredicateOrdering}) {
    remaining -= removed_at[static_cast<std::size_t>(family)];
    result.stages.push_back({check_family_name(family), remaining});
  }

  // A single form is its own grouped normal form and its own isomorphism
  // class, so both stages would keep it.
  if (forms.size() >= 2) {
    forms = apply_distributivity(std::move(forms), &result.removed_by_check);
  }
  result.stages.push_back({"Distrib", forms.size()});

  if (forms.size() >= 2) {
    forms = apply_associativity(std::move(forms), &result.removed_by_check);
  }
  result.stages.push_back({"Assoc", forms.size()});

  result.survivors = std::move(forms);
  return result;
}

std::vector<LfNode> Winnower::apply_family(CheckFamily family,
                                           std::vector<LfNode> forms) const {
  switch (family) {
    case CheckFamily::kType:
    case CheckFamily::kArgumentOrdering:
    case CheckFamily::kPredicateOrdering:
      std::erase_if(forms, [this, family](const LfNode& form) {
        return first_failures(form)[static_cast<std::size_t>(family)] != kPasses;
      });
      return forms;
    case CheckFamily::kDistributivity:
      return apply_distributivity(std::move(forms), nullptr);
    case CheckFamily::kAssociativity:
      return apply_associativity(std::move(forms), nullptr);
  }
  return forms;
}

std::size_t Winnower::removed_by_family_alone(
    CheckFamily family, const std::vector<LfNode>& input) const {
  return input.size() - apply_family(family, input).size();
}

}  // namespace sage::disambig
