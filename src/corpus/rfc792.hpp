// RFC 792 (ICMP) corpus — the paper's primary evaluation target.
//
// `rfc792_original()` reconstructs the eight message sections of RFC 792
// (public domain), including the sentences the paper found problematic:
// the 4 multi-LF instances (the "Addresses" sentence of Table 7 and the
// three "To form a ... reply message" variants), the 1 zero-LF sentence
// (the Redirect gateway-address description, example D of §4.1), and the
// 6 imprecise "may be zero" variants discovered by unit testing.
//
// `rfc792_rewrites()` is the Table 6 data: each problematic sentence with
// its category and the clarified replacement a spec author produced in
// SAGE's feedback loop. `rfc792_revised()` applies them, yielding the
// text used for the end-to-end experiments (§6.2).
#pragma once

#include <string>
#include <vector>

namespace sage::corpus {

/// Category labels of Table 6.
enum class RewriteCategory {
  kMoreThanOneLf,  // "More than 1 LF"
  kZeroLf,         // "0 LF"
  kImprecise,      // "Imprecise sentence" (found by unit testing)
};

std::string rewrite_category_name(RewriteCategory category);

struct Rewrite {
  std::string original;     // exact sentence text in rfc792_original()
  std::string replacement;  // clarified text
  RewriteCategory category;
};

/// `text` with every rewrite's original replaced by its replacement. The
/// originals are hard-wrapped in the raw corpora, so an original matches
/// its word sequence across any run of spaces, tabs and newlines.
std::string apply_rewrites(std::string text,
                           const std::vector<Rewrite>& rewrites);

/// The reconstructed original specification text.
const std::string& rfc792_original();

/// The Table 6 rewrite set (4 multi-LF + 1 zero-LF + 6 imprecise).
const std::vector<Rewrite>& rfc792_rewrites();

/// Original text with all rewrites applied.
std::string rfc792_revised();

/// Sentences a human annotated as non-actionable in earlier iterations
/// (§5.2: advisory prose, cross-protocol remarks, future intent).
const std::vector<std::string>& icmp_non_actionable_annotations();

}  // namespace sage::corpus
