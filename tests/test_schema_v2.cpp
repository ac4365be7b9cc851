// Property battery for the schema v2 layout-program API: the TLV codec
// (OptionsView encode/decode), a layer image's options region and
// TLV-located wire reads.
//
// The central property is round-trip identity: any option list encoded
// through OptionsView::append, walked back through an OptionsView, and
// re-encoded from the walked options must reproduce the original bytes
// exactly. 1000 seeded-random lists per options-bearing layer pin it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/schema.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sage::net::schema {
namespace {

/// Every registered layer that declares a TLV options region.
std::vector<const LayerSpec*> options_layers() {
  std::vector<const LayerSpec*> out;
  const auto& reg = SchemaRegistry::instance();
  for (const char* name :
       {"ip", "ip6", "icmp", "icmp6", "igmp", "ntp", "bfd", "udp", "dhcp",
        "serve"}) {
    const auto* layer = reg.layer(name);
    if (layer != nullptr && layer->has_options) out.push_back(layer);
  }
  return out;
}

/// A random option list: types avoid the layer's pad and end codes so
/// the encoding is unambiguous; values are 0..8 random bytes.
struct RandomOption {
  std::uint8_t type;
  std::vector<std::uint8_t> value;
};

std::vector<RandomOption> random_options(const LayerSpec& layer,
                                         util::SplitMix64& rng) {
  const std::size_t n = rng.below(8);
  std::vector<RandomOption> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RandomOption opt;
    do {
      opt.type = static_cast<std::uint8_t>(rng.below(256));
    } while (opt.type == layer.option_pad || opt.type == layer.option_end);
    opt.value.resize(rng.below(9));
    for (auto& b : opt.value) b = static_cast<std::uint8_t>(rng.below(256));
    out.push_back(std::move(opt));
  }
  return out;
}

TEST(TlvRoundTrip, RandomOptionListsSurviveEncodeDecodeEncode) {
  const auto layers = options_layers();
  ASSERT_FALSE(layers.empty()) << "at least DHCP must declare options";
  for (const auto* layer : layers) {
    util::SplitMix64 rng(0x5eedULL ^ layer->header_bytes);
    for (int iter = 0; iter < 1000; ++iter) {
      const auto options = random_options(*layer, rng);

      std::vector<std::uint8_t> image(layer->options_offset, 0);
      for (const auto& opt : options) {
        OptionsView::append(image, opt.type, opt.value);
      }
      OptionsView::append_end(image, layer->option_end);

      const OptionsView view(*layer, image);
      ASSERT_TRUE(view.ok()) << layer->name << " iter " << iter << ": "
                             << tlv_status_name(view.status());
      ASSERT_EQ(view.count(), options.size()) << layer->name << " iter "
                                              << iter;

      // Walk and re-encode: byte-identical to the original image.
      std::vector<std::uint8_t> rebuilt(layer->options_offset, 0);
      std::size_t i = 0;
      for (const auto& opt : view) {
        ASSERT_LT(i, options.size());
        EXPECT_EQ(opt.type, options[i].type);
        EXPECT_EQ(std::vector<std::uint8_t>(opt.value.begin(), opt.value.end()),
                  options[i].value);
        OptionsView::append(rebuilt, opt.type, opt.value);
        ++i;
      }
      OptionsView::append_end(rebuilt, layer->option_end);
      ASSERT_EQ(rebuilt, image) << layer->name << " iter " << iter;
    }
  }
}

TEST(TlvRoundTrip, ScalarAppendMatchesManualEncoding) {
  std::vector<std::uint8_t> out;
  OptionsView::append_scalar(out, 51, 0x00015180, 4);
  OptionsView::append_scalar(out, 53, 5, 1);
  const std::vector<std::uint8_t> expected = {51, 4, 0x00, 0x01, 0x51,
                                              0x80, 53, 1, 5};
  EXPECT_EQ(out, expected);
}

TEST(OptionsView, ClassifiesEveryMalformation) {
  const auto make = [](std::vector<std::uint8_t> region) {
    return OptionsView(std::span<const std::uint8_t>(region), /*pad_code=*/0,
                       /*end_code=*/255);
  };
  // Clean terminated run.
  {
    const std::vector<std::uint8_t> region = {53, 1, 2, 255};
    const OptionsView v(region, 0, 255);
    EXPECT_EQ(v.status(), TlvStatus::kOk);
    EXPECT_EQ(v.count(), 1u);
  }
  // Pad bytes are skipped, not options.
  {
    const std::vector<std::uint8_t> region = {0, 0, 53, 1, 2, 0, 255};
    const OptionsView v(region, 0, 255);
    EXPECT_EQ(v.status(), TlvStatus::kOk);
    EXPECT_EQ(v.count(), 1u);
  }
  // Exhausted without an end marker is still clean.
  {
    const std::vector<std::uint8_t> region = {53, 1, 2};
    const OptionsView v(region, 0, 255);
    EXPECT_EQ(v.status(), TlvStatus::kOk);
    EXPECT_EQ(v.count(), 1u);
  }
  // Empty region: clean and empty.
  {
    const OptionsView v(std::span<const std::uint8_t>{}, 0, 255);
    EXPECT_EQ(v.status(), TlvStatus::kOk);
    EXPECT_EQ(v.count(), 0u);
    EXPECT_EQ(v.begin(), v.end());
  }
  // A bare code byte with no length byte: truncated mid-TLV.
  {
    const std::vector<std::uint8_t> region = {53, 1, 2, 51};
    const OptionsView v(region, 0, 255);
    EXPECT_EQ(v.status(), TlvStatus::kTruncated);
    EXPECT_EQ(v.count(), 1u);  // the well-formed prefix survives
  }
  // A length byte claiming bytes past the region: length lie.
  {
    const std::vector<std::uint8_t> region = {53, 1, 2, 54, 200, 10, 0};
    const OptionsView v(region, 0, 255);
    EXPECT_EQ(v.status(), TlvStatus::kLengthLie);
    EXPECT_EQ(v.count(), 1u);
    // find() must not claim the malformed option exists.
    EXPECT_FALSE(v.find(54).has_value());
    EXPECT_TRUE(v.find(53).has_value());
  }
  (void)make;
}

TEST(OptionsView, ResolvesTheLayerRegionAndHandlesShortImages) {
  const auto& reg = SchemaRegistry::instance();
  const auto* dhcp = reg.layer("dhcp");
  ASSERT_NE(dhcp, nullptr);

  std::vector<std::uint8_t> image(dhcp->options_offset, 0);
  util::put_be32({image.data() + 236, 4}, 0x63825363u);
  OptionsView::append_scalar(image, 53, 2, 1);
  OptionsView::append_scalar(image, 51, 86400, 4);
  OptionsView::append_end(image, dhcp->option_end);

  const OptionsView options(*dhcp, image);
  EXPECT_TRUE(options.ok());
  EXPECT_EQ(options.count(), 2u);
  // The region starts at options_offset: the first value follows its
  // code and length bytes there.
  EXPECT_EQ(options.begin()->value.data(),
            image.data() + dhcp->options_offset + 2);
  const auto lease = options.find(51);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->value.size(), 4u);

  // The by-name read finds the same option.
  const auto lease_time = reg.read_wire("dhcp", "lease_time", image);
  ASSERT_TRUE(lease_time.ok());
  EXPECT_EQ(lease_time.value, 86400);

  // Absent option reads report kMissingOption, never a zero value.
  const auto missing = reg.read_wire("dhcp", "server_identifier", image);
  EXPECT_EQ(missing.status, ReadStatus::kMissingOption);

  // An image that ends before the options region: empty, clean view.
  const std::vector<std::uint8_t> stub(16, 0);
  const OptionsView short_options(*dhcp, stub);
  EXPECT_TRUE(short_options.begin() == short_options.end());
  EXPECT_TRUE(short_options.ok());
  EXPECT_EQ(short_options.count(), 0u);
}

TEST(DecodeLayer, MarksTlvOptionsAndMalformations) {
  const auto& reg = SchemaRegistry::instance();
  const auto* dhcp = reg.layer("dhcp");
  ASSERT_NE(dhcp, nullptr);

  std::vector<std::uint8_t> image(dhcp->options_offset, 0);
  image[0] = 2;
  util::put_be32({image.data() + 236, 4}, 0x63825363u);
  OptionsView::append_scalar(image, 53, 5, 1);
  const std::vector<std::uint8_t> opaque = {0xde, 0xad};
  OptionsView::append(image, 99, opaque);
  image.push_back(54);  // bare code byte: truncated mid-TLV

  const auto lines = reg.decode_layer("dhcp", image);
  const auto has_line = [&](const std::string& needle) {
    for (const auto& l : lines) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_line("dhcp.message_type = 5"));
  EXPECT_TRUE(has_line("dhcp.option_99 = <2 bytes>"));
  EXPECT_TRUE(has_line("dhcp.options = <truncated option>"));
}

TEST(DumpSchema, PinsIcmp6AndDhcpLayoutPrograms) {
  // Golden check on `sage_debug --dump-schema` (SchemaRegistry::dump):
  // the layout program of the two schema-v2 layers, with the dense field
  // ids stripped (they renumber whenever any earlier layer changes — the
  // layout itself must not).
  const std::string dump = SchemaRegistry::instance().dump();
  const std::vector<const char*> expected = {
      "layer icmp6 (8 bytes + payload)",
      "  icmp6.type  scalar @0+8 rw",
      "  icmp6.code  scalar @8+8 rw",
      "  icmp6.checksum  scalar @16+16 pseudo(58) rw",
      "  icmp6.identifier  scalar @32+16 rw",
      "  icmp6.sequence_number  scalar @48+16 rw",
      "  icmp6.pointer  scalar @32+32 rw",
      "  icmp6.mtu  scalar @32+32 rw",
      "  icmp6.data  bytes rw",
      "layer dhcp (240 bytes + options@240 pad=0 end=255)",
      "  dhcp.op  scalar @0+8 rw",
      "  dhcp.xid  scalar @32+32 rw",
      "  dhcp.magic_cookie  scalar @1888+32 r-",
      "  dhcp.subnet_mask  scalar tlv=1 +0+32 rw",
      "  dhcp.requested_ip  scalar tlv=50 +0+32 rw",
      "  dhcp.lease_time  scalar tlv=51 +0+32 rw",
      "  dhcp.message_type  scalar tlv=53 +0+8 rw",
      "  dhcp.server_identifier  scalar tlv=54 +0+32 rw",
      "  dhcp.renewal_time  scalar tlv=58 +0+32 rw",
      "  dhcp.parameter_request_list  bytes tlv=55 length-prefixed rw",
      "  dhcp.client_identifier  bytes tlv=61 length-prefixed rw",
  };
  for (const char* line : expected) {
    EXPECT_NE(dump.find(line), std::string::npos) << "missing: " << line;
  }
}

}  // namespace
}  // namespace sage::net::schema
