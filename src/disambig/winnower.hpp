// The winnowing pipeline (§4.2, evaluated in §6.5 / Figures 5 and 6).
//
// Checks run in the paper's order — Type, ArgOrder, PredOrder, Distrib,
// Assoc — recording how many logical forms survive each stage (the Figure
// 5 series) and how many each individual check removes (Figure 6). A
// sentence still carrying more than one logical form after the full
// pipeline is *fundamentally ambiguous*: SAGE keeps all surviving forms
// and asks the author to rewrite the sentence.
//
// The three per-LF families cost one walk per form: the winnower indexes
// its checks by the labels they inspect, and at each predicate node runs
// only the tests registered for that label, keeping the lowest-index
// failing check of each family. A form is removed at the first family
// with a failure and credited to that check, exactly as if each check in
// declaration order had walked the form itself. Distributivity and
// associativity run only while two or more forms remain: a single form
// is its own grouped normal form and its own isomorphism class.
#pragma once

#include <array>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "disambig/checks.hpp"
#include "lf/isomorphism.hpp"
#include "lf/logical_form.hpp"

namespace sage::disambig {

/// Survivor count after each pipeline stage, starting with "Base".
struct StageCount {
  std::string stage;
  std::size_t remaining = 0;
};

struct WinnowResult {
  std::vector<lf::LogicalForm> survivors;
  std::vector<StageCount> stages;  // Base, Type, ArgOrder, PredOrder, Distrib, Assoc
  /// check name -> number of logical forms it removed in the full pipeline.
  std::map<std::string, std::size_t> removed_by_check;

  bool unambiguous() const { return survivors.size() == 1; }
  bool ambiguous() const { return survivors.size() > 1; }
};

class Winnower {
 public:
  /// Build with a specific check set (usually icmp_checks() or
  /// all_checks()) and the algebraic properties for the associativity
  /// stage.
  explicit Winnower(std::vector<Check> checks,
                    lf::AlgebraicProperties properties = {});

  /// Run the full ordered pipeline.
  WinnowResult winnow(const std::vector<lf::LogicalForm>& input) const;

  /// Apply only one family to the base set — the Figure 6 experiment
  /// ("for each sentence, we apply only one check on the base set of
  /// logical forms and measure how many LFs the check can reduce").
  std::size_t removed_by_family_alone(CheckFamily family,
                                      const std::vector<lf::LogicalForm>& input) const;

  /// Apply one family and return the survivors (building block for the
  /// check-order ablation bench: any family sequence can be composed).
  std::vector<lf::LogicalForm> apply_family(
      CheckFamily family, std::vector<lf::LogicalForm> forms) const;

  const std::vector<Check>& checks() const { return checks_; }
  std::size_t count_in_family(CheckFamily family) const;

 private:
  /// Per per-LF family (in CheckFamily order), the index of the
  /// lowest-index check the form fails, or kPasses.
  static constexpr std::size_t kPasses = static_cast<std::size_t>(-1);
  using FirstFailures = std::array<std::size_t, 3>;
  FirstFailures first_failures(const lf::LfNode& form) const;

  std::vector<lf::LogicalForm> apply_distributivity(
      std::vector<lf::LogicalForm> forms,
      std::map<std::string, std::size_t>* removed_by_check) const;
  std::vector<lf::LogicalForm> apply_associativity(
      std::vector<lf::LogicalForm> forms,
      std::map<std::string, std::size_t>* removed_by_check) const;

  std::vector<Check> checks_;
  /// Label -> indices, ascending, of the per-LF checks that test nodes
  /// with that label; root-only checks are listed in `at_root_`. Built
  /// once and read-only after, so one winnower serves every thread.
  std::unordered_map<std::string_view, std::vector<std::size_t>> by_label_;
  std::vector<std::size_t> at_root_;
  lf::AlgebraicProperties properties_;
};

/// True if `distributed` is the distributed version of `grouped`:
///   distributed = @Conj(P(..a..), P(..b..))  — differing in one slot —
///   grouped     = P(.. @Conj(a, b) ..).
/// Exposed for tests.
bool is_distributed_version(const lf::LfNode& distributed,
                            const lf::LfNode& grouped);

/// Bottom-up undistribution to a fixpoint: every @Conj(P(..a..), P(..b..))
/// differing in exactly one slot becomes P(.. @Conj(a, b) ..). Two
/// readings of a coordination denote the same statement iff their
/// normal forms are equal; the distributivity check keeps the least
/// distributed representative. Exposed for tests.
lf::LfNode undistribute(const lf::LfNode& node);

}  // namespace sage::disambig
