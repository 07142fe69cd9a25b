// Durability-layer tests (ARCHITECTURE.md §15): the tagged binary codec,
// atomic checksummed record files and their quarantine path, the
// content-addressed ResultStore + manifest journal, job fingerprints, and
// the sweep runner's cache-hit / graceful-stop plumbing.

#include "store/store.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "core/sweep_store.hh"
#include "obs/sink.hh"
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
  const std::string path = td.str() + "/r.result";
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
  bool corrupt = false;
  EXPECT_FALSE(try_read_record(path, &corrupt).has_value());
  EXPECT_TRUE(corrupt);

  // Truncation (a torn write) must also be detected, not trusted.
  write_record(path, payload);
  fs::resize_file(path, fs::file_size(path) - 3);
  corrupt = false;
  EXPECT_FALSE(try_read_record(path, &corrupt).has_value());
  EXPECT_TRUE(corrupt);
}

TEST(ResultStore, SaveLoadAndQuarantine) {
  TempDir td("store");
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  {
    ResultStore rs(td.str());
    EXPECT_TRUE(rs.report().clean());
    rs.save("aaaa", payload, 0);
    rs.save("bbbb", payload, 1);
  }
  // Corrupt one record on disk; reopening quarantines and reports it.
  {
    std::fstream f(td.str() + "/aaaa.result",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(28);
    f.put('\x00');
    f.put('\x01');
  }
  ResultStore rs(td.str());
  EXPECT_EQ(rs.report().records, 1u);
  EXPECT_EQ(rs.report().quarantined, 1u);
  EXPECT_FALSE(rs.report().clean());
  EXPECT_FALSE(rs.contains("aaaa"));
  EXPECT_TRUE(rs.contains("bbbb"));
  EXPECT_FALSE(rs.load("aaaa").has_value());
  ASSERT_TRUE(rs.load("bbbb").has_value());
  EXPECT_EQ(*rs.load("bbbb"), payload);
  EXPECT_TRUE(fs::exists(td.str() + "/aaaa.result.corrupt"));

  // verify() is the non-mutating census --store-verify exposes.
  const StoreReport v = ResultStore::verify(td.str());
  EXPECT_EQ(v.records, 1u);
  EXPECT_EQ(v.prior_corrupt, 1u);
  EXPECT_FALSE(v.clean());
}

TEST(ResultStore, ManifestAndCampaignRoundTrip) {
  TempDir td("manifest");
  const std::vector<std::string> argv = {"ascoma", "--workload", "fft",
                                         "--store", "a b\"c"};
  ResultStore::write_campaign(td.str(), argv);
  // A second write (the resume) must keep the original identity.
  ResultStore::write_campaign(td.str(), {"other"});
  const auto back = ResultStore::read_campaign(td.str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, argv);

  ResultStore rs(td.str());
  rs.append_manifest("{\"sweep\":\"done\",\"job\":0}");
  std::ifstream in(rs.manifest_path());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2u);
}

TEST(ResultStore, ReadCampaignMissingOrMalformed) {
  TempDir td("badcampaign");
  EXPECT_FALSE(ResultStore::read_campaign(td.str()).has_value());
  std::ofstream(td.str() + "/sweep.manifest.jsonl") << "not json\n";
  EXPECT_FALSE(ResultStore::read_campaign(td.str()).has_value());
}

TEST(Fingerprint, StableAndSensitive) {
  core::SweepJob j;
  j.label = "ASCOMA(50%)";
  j.config.arch = ArchModel::kAsComa;
  j.config.memory_pressure = 0.5;
  j.workload = "fft";
  j.workload_scale = 0.2;

  const core::Fingerprint a = core::job_fingerprint(j);
  EXPECT_EQ(a, core::job_fingerprint(j));  // deterministic
  EXPECT_EQ(a.hex().size(), 32u);

  core::SweepJob k = j;
  k.config.memory_pressure = 0.7;
  EXPECT_FALSE(a == core::job_fingerprint(k));
  k = j;
  k.workload = "radix";
  EXPECT_FALSE(a == core::job_fingerprint(k));
  k = j;
  k.config.seed += 1;
  EXPECT_FALSE(a == core::job_fingerprint(k));
  // The non-owning observability pointers never change results and must not
  // change the fingerprint.
  k = j;
  obs::EventSink sink;
  k.config.sink = &sink;
  EXPECT_TRUE(a == core::job_fingerprint(k));
}

core::SweepJob tiny_job(const std::string& label) {
  core::SweepJob j;
  j.label = label;
  j.config.arch = ArchModel::kAsComa;
  j.config.memory_pressure = 0.5;
  j.workload = "fft";
  j.workload_scale = 0.2;
  return j;
}

TEST(DurableSweep, SecondRunIsServedFromTheStore) {
  TempDir td("sweep");
  core::SweepOptions opts;
  opts.threads = 2;
  opts.store_dir = td.str();

  const auto first = core::run_sweep({tiny_job("a"), tiny_job("b")}, opts);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_FALSE(first[0].timing.cached);
  EXPECT_FALSE(first[1].timing.cached);
  EXPECT_GT(first[0].timing.store.value(), 0u);

  obs::EventSink sink;
  opts.sink = &sink;
  const auto second = core::run_sweep({tiny_job("a"), tiny_job("b")}, opts);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(second[0].timing.cached);
  EXPECT_TRUE(second[1].timing.cached);
  EXPECT_EQ(sink.count(obs::EventKind::kSweepCacheHit), 2u);

  // The cached result vector is exactly the computed one: canonical bytes
  // of every RunResult must match.
  for (std::size_t i = 0; i < first.size(); ++i) {
    Encoder ea, eb;
    core::encode_run_result(ea, first[i].result);
    core::encode_run_result(eb, second[i].result);
    EXPECT_EQ(ea.bytes(), eb.bytes()) << "job " << i;
  }

  // Manifest: one line per completion across both sweeps.
  std::ifstream in(td.str() + "/sweep.manifest.jsonl");
  std::string line;
  std::size_t done = 0, cached = 0;
  while (std::getline(in, line)) {
    if (line.find("\"sweep\":\"done\"") != std::string::npos) ++done;
    if (line.find("\"cached\":true") != std::string::npos) ++cached;
  }
  EXPECT_EQ(done, 4u);
  EXPECT_EQ(cached, 2u);
}

TEST(DurableSweep, CorruptRecordIsRecomputedAndRequarantined) {
  TempDir td("corrupt");
  core::SweepOptions opts;
  opts.threads = 1;
  opts.store_dir = td.str();
  const auto first = core::run_sweep({tiny_job("a")}, opts);
  ASSERT_EQ(first.size(), 1u);

  // Damage the one record: the next sweep must quarantine it, re-simulate,
  // and persist a fresh verified record.
  std::string victim;
  for (const auto& p : fs::directory_iterator(td.str()))
    if (p.path().extension() == ".result") victim = p.path().string();
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, fs::file_size(victim) - 1);

  const auto second = core::run_sweep({tiny_job("a")}, opts);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(second[0].timing.cached);
  EXPECT_TRUE(fs::exists(victim + ".corrupt"));
  EXPECT_TRUE(fs::exists(victim));  // recomputed record back in place

  const auto third = core::run_sweep({tiny_job("a")}, opts);
  EXPECT_TRUE(third[0].timing.cached);
}

TEST(DurableSweep, StopFlagDrainsInsteadOfStarting) {
  core::SweepOptions opts;
  opts.threads = 1;
  std::atomic<bool> stop{true};
  opts.stop = &stop;
  // Stop raised before the sweep: no job is claimed, results stay empty.
  const auto res = core::run_sweep({tiny_job("a"), tiny_job("b")}, opts);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].result.stats.parallel_cycles, Cycle{0});
  EXPECT_EQ(res[1].result.stats.parallel_cycles, Cycle{0});
}

TEST(DurableSweep, StorelessSweepChargesZeroStoreTime) {
  // Zero-cost when off: without a store_dir no job touches the durability
  // layer, so the store wall-time attribution must stay exactly zero (the
  // sim-rate bench gate then covers the wall-clock side of the claim).
  core::SweepOptions opts;
  opts.threads = 1;
  const auto res = core::run_sweep({tiny_job("a")}, opts);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_FALSE(res[0].timing.cached);
  EXPECT_EQ(res[0].timing.store, HostNs{0});
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
