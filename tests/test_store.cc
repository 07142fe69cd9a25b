// Checkpoint-layer tests (ARCHITECTURE.md §15): the tagged binary codec,
// atomic checksummed record files and their corruption detection, and the
// graceful-shutdown flag.

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/codec.hh"
#include "store/record_file.hh"
#include "store/shutdown.hh"

namespace ascoma::store {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ascoma_store_test_" + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(Codec, ScalarsRoundTrip) {
  Encoder e;
  e.u8(0xAB);
  e.u32(0xDEADBEEFu);
  e.u64(0x0123456789ABCDEFull);
  e.b(true);
  e.b(false);
  e.f64(0.25);
  e.str("hello");
  Decoder d(e.bytes().data(), e.bytes().size());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(d.b());
  EXPECT_FALSE(d.b());
  EXPECT_EQ(d.f64(), 0.25);
  EXPECT_EQ(d.str(), "hello");
  EXPECT_TRUE(d.done());
}

TEST(Codec, SectionLengthCatchesDrift) {
  Encoder e;
  e.begin_section("sect");
  e.u32(7);
  e.u32(8);
  e.end_section();
  // A decoder that reads too little trips the section length check — the
  // runtime half of the encode/decode pairing rule.
  Decoder d(e.bytes().data(), e.bytes().size());
  d.begin_section("sect");
  d.u32();
  EXPECT_THROW(d.end_section(), CodecError);
}

TEST(Codec, SectionTagMismatchThrows) {
  Encoder e;
  e.begin_section("aaaa");
  e.end_section();
  Decoder d(e.bytes().data(), e.bytes().size());
  EXPECT_THROW(d.begin_section("bbbb"), CodecError);
}

TEST(RecordFile, RoundTripAndTornWriteDetection) {
  TempDir td("record");
  const std::string path = td.str() + "/r.ckpt";
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  write_record(path, payload);
  EXPECT_EQ(read_record(path), payload);
  // No abandoned temp file after a successful atomic write.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& p : fs::directory_iterator(td.str()))
    ++entries;
  EXPECT_EQ(entries, 1u);

  // Flip one payload byte: the checksum must reject the record.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('\x7F');
  }
  EXPECT_THROW(read_record(path), CodecError);

  // Truncation (a torn write) must also be detected, not trusted.
  write_record(path, payload);
  fs::resize_file(path, fs::file_size(path) - 3);
  EXPECT_THROW(read_record(path), CodecError);
}

TEST(Shutdown, TestHookSetsAndClearsTheFlag) {
  set_shutdown_requested(0);
  EXPECT_FALSE(shutdown_requested());
  EXPECT_FALSE(shutdown_flag()->load());
  set_shutdown_requested(SIGTERM);
  EXPECT_TRUE(shutdown_requested());
  EXPECT_TRUE(shutdown_flag()->load());
  EXPECT_EQ(shutdown_signal(), SIGTERM);
  set_shutdown_requested(0);
  EXPECT_FALSE(shutdown_requested());
}

}  // namespace
}  // namespace ascoma::store
