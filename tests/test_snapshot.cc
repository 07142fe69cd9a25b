// Machine checkpoint/restore tests (ARCHITECTURE.md §15): for every
// architecture model, a run interrupted at a checkpoint and resumed in a
// fresh machine must finish with a bit-identical RunResult; snapshots must
// refuse to restore into a differently-built machine; and the default-on
// self-check must hold (save → restore → save is byte-stable).  Also the
// canonical encodings the snapshots are built on (core/canonical.hh): the
// machine fingerprint and the RunResult encode/decode pair.

#include "core/machine.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/check.hh"
#include "core/canonical.hh"
#include "store/codec.hh"
#include "obs/sink.hh"
#include "store/snapshot.hh"
#include "workload/workload.hh"

namespace ascoma::core {
namespace {

constexpr double kScale = 0.1;

MachineConfig config_for(ArchModel arch) {
  MachineConfig cfg;
  cfg.arch = arch;
  cfg.memory_pressure = 0.7;
  return cfg;
}

/// Canonical bytes of a RunResult — the equality the golden CSV depends on.
std::vector<std::uint8_t> canon(const RunResult& r) {
  store::Encoder e;
  encode_run_result(e, r);
  return e.bytes();
}

const std::vector<ArchModel> kAllArchs = {
    ArchModel::kCcNuma, ArchModel::kScoma, ArchModel::kRNuma,
    ArchModel::kVcNuma, ArchModel::kAsComa};

TEST(Fingerprint, StableAndSensitive) {
  MachineConfig cfg;
  cfg.arch = ArchModel::kAsComa;
  cfg.memory_pressure = 0.5;
  const auto fp = [](const MachineConfig& c, const std::string& name,
                     std::uint64_t pages, std::uint32_t procs) {
    return machine_fingerprint(c, name, pages, procs);
  };

  const Fingerprint a = fp(cfg, "fft", 1024, 16);
  EXPECT_EQ(a, fp(cfg, "fft", 1024, 16));  // deterministic
  EXPECT_NE(a.hi, a.lo);                   // two differently salted passes

  MachineConfig k = cfg;
  k.memory_pressure = 0.7;
  EXPECT_FALSE(a == fp(k, "fft", 1024, 16));
  k = cfg;
  k.seed += 1;
  EXPECT_FALSE(a == fp(k, "fft", 1024, 16));
  EXPECT_FALSE(a == fp(cfg, "radix", 1024, 16));
  EXPECT_FALSE(a == fp(cfg, "fft", 1025, 16));
  EXPECT_FALSE(a == fp(cfg, "fft", 1024, 8));
  // The non-owning observability pointers never change results and must not
  // change the fingerprint.
  k = cfg;
  obs::EventSink sink;
  k.sink = &sink;
  EXPECT_TRUE(a == fp(k, "fft", 1024, 16));
}

TEST(Canonical, RunResultEncodeDecodeEncodeIsByteStable) {
  const auto wl = workload::make_workload("fft", kScale);
  ASSERT_NE(wl, nullptr);
  const RunResult r = simulate(config_for(ArchModel::kAsComa), *wl);
  const std::vector<std::uint8_t> bytes = canon(r);

  store::Decoder d(bytes);
  RunResult back;
  decode_run_result(d, &back);
  EXPECT_TRUE(d.done());
  EXPECT_EQ(back.cycles(), r.cycles());
  EXPECT_EQ(back.per_node.size(), r.per_node.size());
  EXPECT_EQ(back.config.arch, ArchModel::kAsComa);
  EXPECT_EQ(canon(back), bytes);
}

TEST(Snapshot, FreshMachineSaveRestoreSaveIsByteStable) {
  const auto wl = workload::make_workload("fft", kScale);
  ASSERT_NE(wl, nullptr);
  for (ArchModel arch : kAllArchs) {
    const MachineConfig cfg = config_for(arch);
    Machine a(cfg, *wl);
    store::Snapshot snap;
    a.save(&snap);
    EXPECT_FALSE(snap.empty());

    Machine b(cfg, *wl);
    b.restore(snap);
    store::Snapshot again;
    b.save(&again);
    EXPECT_EQ(snap, again) << to_string(arch);
  }
}

TEST(Snapshot, ResumedRunMatchesUninterruptedRunAllArchitectures) {
  const auto wl = workload::make_workload("fft", kScale);
  ASSERT_NE(wl, nullptr);
  for (ArchModel arch : kAllArchs) {
    const MachineConfig cfg = config_for(arch);

    Machine reference(cfg, *wl);
    const RunResult expect = reference.run();

    // Checkpoint mid-run (self-check on by default: every snapshot must
    // round-trip byte-identically through a scratch machine or the run
    // fails here).
    std::vector<store::Snapshot> snaps;
    Machine interrupted(cfg, *wl);
    interrupted.set_checkpoint(
        Cycle{expect.cycles().value() / 3},
        [&snaps](const store::Snapshot& s, Cycle) { snaps.push_back(s); });
    const RunResult through = interrupted.run();
    ASSERT_GE(snaps.size(), 2u) << to_string(arch);
    // Checkpointing itself never changes simulated behaviour.
    EXPECT_EQ(canon(through), canon(expect)) << to_string(arch);

    // Resume from each snapshot — early and late — and finish the run.
    for (const store::Snapshot& snap : {snaps.front(), snaps.back()}) {
      Machine resumed(cfg, *wl);
      resumed.restore(snap);
      const RunResult got = resumed.run();
      EXPECT_EQ(canon(got), canon(expect)) << to_string(arch);
    }
  }
}

TEST(Snapshot, RestoreRefusesMismatchedConfig) {
  const auto wl = workload::make_workload("fft", kScale);
  Machine a(config_for(ArchModel::kAsComa), *wl);
  store::Snapshot snap;
  a.save(&snap);

  // Different architecture: different machine fingerprint.
  Machine b(config_for(ArchModel::kScoma), *wl);
  EXPECT_THROW(b.restore(snap), store::CodecError);

  // Different workload shape: also refused.
  const auto other = workload::make_workload("radix", kScale);
  Machine c(config_for(ArchModel::kAsComa), *other);
  EXPECT_THROW(c.restore(snap), store::CodecError);
}

TEST(Snapshot, RestoreRefusesTamperedBytes) {
  const auto wl = workload::make_workload("fft", kScale);
  Machine a(config_for(ArchModel::kAsComa), *wl);
  store::Snapshot snap;
  a.save(&snap);

  store::Snapshot truncated = snap;
  truncated.bytes.resize(truncated.bytes.size() / 2);
  Machine b(config_for(ArchModel::kAsComa), *wl);
  EXPECT_THROW(b.restore(truncated), store::CodecError);
}

// Version 2 changed the cmem section's coherence shadow to one stale-copy
// mask per block.  A snapshot tagged version 1 must be refused with a typed
// error, never misread or crashed on.
TEST(Snapshot, RestoreRefusesVersion1) {
  const auto wl = workload::make_workload("fft", kScale);
  Machine a(config_for(ArchModel::kAsComa), *wl);
  store::Snapshot snap;
  a.save(&snap);

  // The version is the first field of the "meta" section: after the u64 tag
  // length, the tag, and the u64 section length, as a little-endian u32.
  store::Decoder d(snap.bytes);
  d.begin_section("meta");
  ASSERT_EQ(d.u32(), 2u);
  constexpr std::size_t kVersionAt = 8 + 4 + 8;
  snap.bytes[kVersionAt] = 1;

  Machine b(config_for(ArchModel::kAsComa), *wl);
  EXPECT_THROW(b.restore(snap), store::CodecError);
}

TEST(Snapshot, RestoreRefusesAfterRun) {
  const auto wl = workload::make_workload("fft", kScale);
  Machine a(config_for(ArchModel::kCcNuma), *wl);
  store::Snapshot snap;
  a.save(&snap);
  a.run();
  EXPECT_THROW(a.restore(snap), CheckFailure);
}

TEST(Snapshot, FileRoundTripThroughRecordFraming) {
  const auto wl = workload::make_workload("fft", kScale);
  Machine a(config_for(ArchModel::kAsComa), *wl);
  store::Snapshot snap;
  a.save(&snap);

  const std::string path =
      (std::string(::getenv("TMPDIR") ? ::getenv("TMPDIR") : "/tmp")) +
      "/ascoma_snapshot_test.ckpt";
  store::write_snapshot_file(path, snap);
  const store::Snapshot back = store::read_snapshot_file(path);
  EXPECT_EQ(back, snap);
  ::remove(path.c_str());
}

TEST(Snapshot, SetCheckpointRejectsZeroInterval) {
  const auto wl = workload::make_workload("fft", kScale);
  Machine a(config_for(ArchModel::kAsComa), *wl);
  EXPECT_THROW(
      a.set_checkpoint(Cycle{0}, [](const store::Snapshot&, Cycle) {}),
      CheckFailure);
}

}  // namespace
}  // namespace ascoma::core
