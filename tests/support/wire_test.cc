#include "support/wire.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rbx {
namespace {

TEST(WireWriter, PrimitivesRoundTrip) {
  wire::Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-2.5);
  w.str("hello");
  w.f64_vec({1.0, 2.0, 3.0});

  wire::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.done());
}

TEST(WireWriter, EncodingIsLittleEndianByDefinition) {
  // The byte layout is part of the format: pinned so a future refactor
  // cannot silently flip it (partials are exchanged between hosts).
  wire::Writer w;
  w.u32(0x04030201u);
  const auto& b = w.data();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(b[0]), 0x01);
  EXPECT_EQ(static_cast<std::uint8_t>(b[1]), 0x02);
  EXPECT_EQ(static_cast<std::uint8_t>(b[2]), 0x03);
  EXPECT_EQ(static_cast<std::uint8_t>(b[3]), 0x04);
}

TEST(WireWriter, DoublesBitPreserved) {
  const double cases[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::nextafter(1.0, 2.0),
  };
  for (double v : cases) {
    wire::Writer w;
    w.f64(v);
    wire::Reader r(w.data());
    const double back = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(WireWriter, StringWithEmbeddedNulRoundTrips) {
  const std::string s("a\0b", 3);
  wire::Writer w;
  w.str(s);
  wire::Reader r(w.data());
  EXPECT_EQ(r.str(), s);
}

TEST(WireReader, TruncationThrowsNotUb) {
  wire::Writer w;
  w.u64(42);
  for (std::size_t keep = 0; keep < 8; ++keep) {
    std::vector<std::byte> cut(w.data().begin(),
                               w.data().begin() + static_cast<long>(keep));
    wire::Reader r(cut);
    EXPECT_THROW(r.u64(), wire::Error);
  }
  // A string whose length prefix claims more bytes than exist.
  wire::Writer ws;
  ws.u32(1000);  // length prefix only, no payload
  wire::Reader rs(ws.data());
  EXPECT_THROW(rs.str(), wire::Error);
  // A vector whose count field claims more doubles than could fit.
  wire::Writer wv;
  wv.u32(0xffffffffu);
  wire::Reader rv(wv.data());
  EXPECT_THROW(rv.f64_vec(), wire::Error);
}

TEST(WireReader, ExpectDoneCatchesTrailingGarbage) {
  wire::Writer w;
  w.u8(1);
  w.u8(2);
  wire::Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), wire::Error);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireFrame, SealAndParse) {
  wire::Writer payload;
  payload.str("payload");
  const std::vector<std::byte> frame = wire::seal_frame(7, payload.data());

  wire::Frame parsed;
  std::size_t consumed = 0;
  ASSERT_TRUE(
      wire::parse_frame(frame.data(), frame.size(), &parsed, &consumed));
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(parsed.type, 7);
  EXPECT_EQ(parsed.payload, payload.data());
}

TEST(WireFrame, IncompleteFrameAsksForMoreBytes) {
  wire::Writer payload;
  payload.u64(1);
  const std::vector<std::byte> frame = wire::seal_frame(1, payload.data());
  wire::Frame parsed;
  std::size_t consumed = 0;
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(wire::parse_frame(frame.data(), keep, &parsed, &consumed))
        << "prefix of " << keep << " bytes should be incomplete";
  }
}

TEST(WireFrame, BadMagicRejected) {
  wire::Writer payload;
  const std::vector<std::byte> good = wire::seal_frame(1, payload.data());
  std::vector<std::byte> bad = good;
  bad[0] = static_cast<std::byte>(0x00);
  wire::Frame parsed;
  std::size_t consumed = 0;
  EXPECT_THROW(wire::parse_frame(bad.data(), bad.size(), &parsed, &consumed),
               wire::Error);
}

TEST(WireFrame, VersionMismatchRejected) {
  wire::Writer payload;
  const std::vector<std::byte> good = wire::seal_frame(1, payload.data());
  std::vector<std::byte> bad = good;
  // Version lives in bytes 4..5 (little-endian u16 after the magic).
  bad[4] = static_cast<std::byte>(wire::kVersion + 1);
  wire::Frame parsed;
  std::size_t consumed = 0;
  try {
    wire::parse_frame(bad.data(), bad.size(), &parsed, &consumed);
    FAIL() << "expected wire::Error";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(WireFrame, InsaneLengthFieldRejected) {
  wire::Writer header;
  header.u32(wire::kMagic);
  header.u16(wire::kVersion);
  header.u16(1);
  header.u64(wire::kMaxFramePayload + 1);
  wire::Frame parsed;
  std::size_t consumed = 0;
  EXPECT_THROW(wire::parse_frame(header.data().data(), header.size(),
                                 &parsed, &consumed),
               wire::Error);
}

TEST(WireFile, WriteReadRoundTripAndTruncationError) {
  const std::string path = ::testing::TempDir() + "wire_test_frames.rbxw";
  wire::Writer p1;
  p1.str("one");
  wire::Writer p2;
  p2.str("two");
  std::vector<std::byte> data = wire::seal_frame(1, p1.data());
  const std::vector<std::byte> second = wire::seal_frame(2, p2.data());
  data.insert(data.end(), second.begin(), second.end());
  wire::write_file(path, data);

  // The file holds exactly the bytes written: both frames parse back.
  std::vector<std::byte> back(data.size() + 1);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  back.resize(std::fread(back.data(), 1, back.size(), f));
  std::fclose(f);
  ASSERT_EQ(back, data);
  wire::Frame frame;
  std::size_t consumed = 0;
  ASSERT_TRUE(wire::parse_frame(back.data(), back.size(), &frame, &consumed));
  EXPECT_EQ(frame.type, 1);
  const std::size_t first = consumed;
  ASSERT_TRUE(wire::parse_frame(back.data() + first, back.size() - first,
                                &frame, &consumed));
  EXPECT_EQ(frame.type, 2);
  EXPECT_EQ(first + consumed, back.size());
  // A frame cut short asks for more bytes instead of misparsing.
  EXPECT_FALSE(wire::parse_frame(back.data() + first,
                                 back.size() - first - 1, &frame,
                                 &consumed));

  EXPECT_THROW(wire::write_file(path + ".missing-dir/x", data), wire::Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rbx
