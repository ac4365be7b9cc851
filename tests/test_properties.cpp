// Property-based tests: invariants checked across sweeps of inputs —
// deterministic parsing, logical-form round-trips under a seeded
// generator, checksum algebra, undistribution idempotence, parser option
// monotonicity, and packet-inspector robustness under truncation and
// byte corruption (failure injection).
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "ccg/parse_cache.hpp"
#include "ccg/parser.hpp"
#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "disambig/winnower.hpp"
#include "lf/logical_form.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "sim/inspector.hpp"
#include "sim/ping.hpp"

namespace sage {
namespace {

// ---- deterministic parsing ---------------------------------------------------

TEST(Property, ParsingIsDeterministic) {
  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const auto doc = rfc::preprocess(corpus::rfc792_original(), "ICMP");
  for (const auto& sentence : rfc::extract_sentences(doc, "ICMP")) {
    const auto a = sage.analyze_sentence(sentence);
    const auto b = sage.analyze_sentence(sentence);
    ASSERT_EQ(a.base_forms, b.base_forms) << sentence.text;
    ASSERT_EQ(a.winnow.survivors.size(), b.winnow.survivors.size())
        << sentence.text;
    for (std::size_t i = 0; i < a.winnow.survivors.size(); ++i) {
      EXPECT_EQ(a.winnow.survivors[i], b.winnow.survivors[i]) << sentence.text;
    }
  }
}

// ---- logical-form round trip under a seeded generator -------------------------

lf::LfNode random_lf(std::mt19937& rng, int depth) {
  static const char* kPreds[] = {"@Is", "@If",  "@And", "@Of",
                                 "@May", "@Action", "@Nonzero"};
  static const char* kStrings[] = {"checksum", "type", "code", "identifier",
                                   "echo reply message", "a b c"};
  std::uniform_int_distribution<int> kind(0, depth <= 0 ? 1 : 2);
  switch (kind(rng)) {
    case 0:
      return lf::LfNode::str(
          kStrings[std::uniform_int_distribution<int>(0, 5)(rng)]);
    case 1:
      return lf::LfNode::num(
          std::uniform_int_distribution<long>(-100, 100)(rng));
    default: {
      std::vector<lf::LfNode> args;
      const int arity = std::uniform_int_distribution<int>(0, 3)(rng);
      for (int i = 0; i < arity; ++i) {
        args.push_back(random_lf(rng, depth - 1));
      }
      return lf::LfNode::predicate(
          kPreds[std::uniform_int_distribution<int>(0, 6)(rng)],
          std::move(args));
    }
  }
}

class LfRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LfRoundTrip, ToStringParseIsIdentity) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const auto tree = random_lf(rng, 4);
    const auto text = tree.to_string();
    const auto parsed = lf::parse_logical_form(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, tree) << text;
    EXPECT_EQ(lf::structural_hash(*parsed), lf::structural_hash(tree));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LfRoundTrip, ::testing::Range(1, 9));

// ---- undistribution is idempotent and preserves leaves -------------------------

class UndistributeProps : public ::testing::TestWithParam<int> {};

TEST_P(UndistributeProps, IdempotentOnRandomTrees) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919);
  for (int i = 0; i < 50; ++i) {
    const auto tree = random_lf(rng, 4);
    const auto once = disambig::undistribute(tree);
    const auto twice = disambig::undistribute(once);
    EXPECT_EQ(once, twice) << tree.to_string();
    // Undistribution never grows the tree.
    EXPECT_LE(once.size(), tree.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndistributeProps, ::testing::Range(1, 9));

// ---- checksum algebra -----------------------------------------------------------

class ChecksumProps : public ::testing::TestWithParam<int> {};

TEST_P(ChecksumProps, AppendedChecksumSumsToAllOnes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(2, 512);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> data(len(rng) * 2);  // even length
    for (auto& b : data) b = static_cast<std::uint8_t>(byte(rng));
    const std::uint16_t ck = net::internet_checksum(data);
    data.push_back(static_cast<std::uint8_t>(ck >> 8));
    data.push_back(static_cast<std::uint8_t>(ck & 0xff));
    EXPECT_EQ(net::ones_complement_sum(data), 0xffff);
  }
}

TEST_P(ChecksumProps, IncrementalUpdateEqualsRecompute) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 1299709);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> data(64);
    for (auto& b : data) b = static_cast<std::uint8_t>(byte(rng));
    const std::uint16_t before = net::internet_checksum(data);
    // Flip one aligned 16-bit word.
    const std::size_t word =
        std::uniform_int_distribution<std::size_t>(0, 31)(rng) * 2;
    const std::uint16_t old_value =
        static_cast<std::uint16_t>((data[word] << 8) | data[word + 1]);
    const std::uint16_t new_value =
        static_cast<std::uint16_t>(byte(rng) << 8 | byte(rng));
    data[word] = static_cast<std::uint8_t>(new_value >> 8);
    data[word + 1] = static_cast<std::uint8_t>(new_value & 0xff);
    EXPECT_EQ(net::incremental_checksum_update(before, old_value, new_value),
              net::internet_checksum(data));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumProps, ::testing::Range(1, 9));

// ---- parser option monotonicity ---------------------------------------------------

TEST(Property, SmallerCellCapNeverAddsForms) {
  core::Sage sage;
  const std::string sentence =
      "If code = 0, an identifier to aid in matching echos and replies, "
      "may be zero.";
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  const auto tokens = chunker.chunk(nlp::tokenize(sentence));

  std::size_t previous = 0;
  for (const std::size_t cap : {8u, 16u, 32u, 64u, 96u, 128u}) {
    ccg::ParserOptions options;
    options.max_edges_per_cell = cap;
    const ccg::CcgParser parser(&sage.lexicon(), options);
    const std::size_t forms = parser.parse(tokens).forms.size();
    EXPECT_GE(forms, previous) << "cap " << cap;
    previous = forms;
  }
}

// ---- parse cache: memoization must be invisible -----------------------------------

/// Random sentences drawn from the lexicon's own vocabulary: these are
/// exactly the token sequences that can reach deep into the chart, so
/// they exercise the cache with realistic keys.
std::string random_sentence(std::mt19937& rng,
                            const std::vector<std::string>& words) {
  std::uniform_int_distribution<std::size_t> pick(0, words.size() - 1);
  std::uniform_int_distribution<int> length(2, 8);
  std::string sentence;
  const int n = length(rng);
  for (int i = 0; i < n; ++i) {
    if (!sentence.empty()) sentence += ' ';
    sentence += words[pick(rng)];
  }
  return sentence;
}

class ParseCacheProps : public ::testing::TestWithParam<int> {};

TEST_P(ParseCacheProps, CacheHitEqualsFreshParse) {
  core::Sage cached;  // default-enabled cache
  core::Sage fresh;
  fresh.set_parse_cache(nullptr);

  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31337);
  const auto words = cached.lexicon().words();
  ASSERT_FALSE(words.empty());

  for (int i = 0; i < 40; ++i) {
    rfc::SpecSentence sentence;
    sentence.text = random_sentence(rng, words);
    if (i % 3 == 0) sentence.context["field"] = "Checksum";

    const auto baseline = fresh.analyze_sentence(sentence);
    // Twice through the cached pipeline: miss-then-insert, then hit.
    const auto first = cached.analyze_sentence(sentence);
    const auto second = cached.analyze_sentence(sentence);
    for (const auto* report : {&first, &second}) {
      ASSERT_EQ(report->status, baseline.status) << sentence.text;
      ASSERT_EQ(report->base_forms, baseline.base_forms) << sentence.text;
      ASSERT_EQ(report->used_structural_context,
                baseline.used_structural_context)
          << sentence.text;
      ASSERT_EQ(report->unknown_tokens, baseline.unknown_tokens)
          << sentence.text;
      ASSERT_EQ(report->winnow.survivors.size(),
                baseline.winnow.survivors.size())
          << sentence.text;
      for (std::size_t k = 0; k < baseline.winnow.survivors.size(); ++k) {
        EXPECT_EQ(report->winnow.survivors[k], baseline.winnow.survivors[k])
            << sentence.text;
      }
    }
  }
  EXPECT_GT(cached.parse_cache()->stats().hits, 0u);
}

TEST_P(ParseCacheProps, EvictionUnderTinyCapacityNeverChangesResults) {
  core::Sage evicting;
  evicting.set_parse_cache(std::make_shared<ccg::ParseCache>(2, 1));
  core::Sage fresh;
  fresh.set_parse_cache(nullptr);

  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 65537);
  const auto words = evicting.lexicon().words();

  std::vector<rfc::SpecSentence> sentences;
  for (int i = 0; i < 12; ++i) {
    rfc::SpecSentence s;
    s.text = random_sentence(rng, words);
    sentences.push_back(std::move(s));
  }
  // Two passes: the second re-misses everything that was evicted, and
  // results must still match the uncached pipeline exactly.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& sentence : sentences) {
      const auto expected = fresh.analyze_sentence(sentence);
      const auto actual = evicting.analyze_sentence(sentence);
      ASSERT_EQ(actual.status, expected.status) << sentence.text;
      ASSERT_EQ(actual.base_forms, expected.base_forms) << sentence.text;
      ASSERT_EQ(actual.winnow.survivors.size(),
                expected.winnow.survivors.size())
          << sentence.text;
    }
  }
  // Capacity 2 with 12 distinct keys must have evicted, and only the
  // counters may show it.
  EXPECT_GT(evicting.parse_cache()->stats().evictions, 0u);
  EXPECT_LE(evicting.parse_cache()->size(),
            evicting.parse_cache()->capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseCacheProps, ::testing::Range(1, 6));

TEST(Property, DifferingParserOptionsNeverAliasCacheKeys) {
  const auto tokens = nlp::tokenize("the checksum is zero");

  // Every single-knob mutation of the default options must produce a
  // distinct key for the same token sequence.
  std::vector<ccg::ParserOptions> variants(4);
  variants[1].record_derivations = true;
  variants[2].max_edges_per_cell = 95;
  variants[3].max_tokens = 47;

  std::vector<std::string> keys;
  for (const auto& options : variants) {
    keys.push_back(ccg::ParseCache::key_of(tokens, "field=", options));
  }
  for (std::size_t a = 0; a < keys.size(); ++a) {
    for (std::size_t b = a + 1; b < keys.size(); ++b) {
      EXPECT_NE(keys[a], keys[b]) << "variants " << a << " and " << b;
    }
  }

  // Context and token changes must also change the key.
  const ccg::ParserOptions defaults;
  EXPECT_NE(ccg::ParseCache::key_of(tokens, "field=", defaults),
            ccg::ParseCache::key_of(tokens, "field=checksum", defaults));
  EXPECT_NE(ccg::ParseCache::key_of(nlp::tokenize("the checksum is one"),
                                    "field=", defaults),
            ccg::ParseCache::key_of(tokens, "field=", defaults));
}

// ---- failure injection: the inspector must survive anything ------------------------

class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, InspectorNeverCrashesAndFlagsShortPackets) {
  // A valid echo reply, truncated at every possible length.
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.src = net::IpAddr(10, 0, 1, 1);
  ip.dst = net::IpAddr(10, 0, 1, 100);
  net::IcmpMessage icmp;
  icmp.type = net::IcmpType::kEchoReply;
  icmp.payload = sim::PingClient::make_payload(56);
  const auto full = net::build_ipv4_packet(ip, icmp.serialize());

  const std::size_t cut = static_cast<std::size_t>(GetParam());
  ASSERT_LT(cut, full.size());
  std::vector<std::uint8_t> truncated(full.begin(),
                                      full.begin() + static_cast<long>(cut));
  sim::PacketInspector inspector;
  const auto result = inspector.inspect(truncated);
  // Anything shorter than the full datagram must be flagged.
  EXPECT_FALSE(result.clean()) << "cut at " << cut;
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationSweep,
                         ::testing::Values(0, 1, 7, 19, 20, 21, 27, 28, 40,
                                           63, 83));

class CorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionSweep, SingleBitFlipsAreDetected) {
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.src = net::IpAddr(10, 0, 1, 1);
  ip.dst = net::IpAddr(10, 0, 1, 100);
  net::IcmpMessage icmp;
  icmp.type = net::IcmpType::kEchoReply;
  icmp.payload = sim::PingClient::make_payload(56);
  auto packet = net::build_ipv4_packet(ip, icmp.serialize());

  // Flip one bit somewhere in the ICMP portion: either the ICMP checksum
  // no longer verifies, or (for flips inside the checksum field itself)
  // it still fails — one's complement protects every bit.
  const std::size_t bit = static_cast<std::size_t>(GetParam());
  const std::size_t byte_index = 20 + bit / 8;
  ASSERT_LT(byte_index, packet.size());
  packet[byte_index] ^= static_cast<std::uint8_t>(1u << (bit % 8));

  sim::PacketInspector inspector;
  const auto result = inspector.inspect(packet);
  EXPECT_FALSE(result.clean()) << "bit " << bit;
}

INSTANTIATE_TEST_SUITE_P(Bits, CorruptionSweep,
                         ::testing::Values(0, 5, 16, 17, 31, 40, 64, 100, 200,
                                           350, 511));

TEST(Property, InspectorHandlesRandomGarbage) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 200);
  sim::PacketInspector inspector;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> garbage(len(rng));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(byte(rng));
    const auto result = inspector.inspect(garbage);  // must not crash
    EXPECT_FALSE(result.summary.empty());
  }
}

TEST(Property, LfParserHandlesRandomGarbage) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> ch(32, 126);
  std::uniform_int_distribution<std::size_t> len(0, 64);
  for (int i = 0; i < 500; ++i) {
    std::string text(len(rng), ' ');
    for (auto& c : text) c = static_cast<char>(ch(rng));
    const auto parsed = lf::parse_logical_form(text);  // must not crash
    if (parsed) {
      // Anything that parses must round-trip.
      EXPECT_EQ(lf::parse_logical_form(parsed->to_string()), parsed);
    }
  }
}

}  // namespace
}  // namespace sage
