#pragma once

// Durable-sweep serialization (ARCHITECTURE.md §15): the canonical byte
// representations that make sweep results content-addressable.
//
// A SweepJob's identity is everything that determines its RunResult: the
// store format version, the job label, workload name and scale, and the full
// MachineConfig (minus the non-owning sink/profiler pointers, which never
// change results).  job_fingerprint() folds the canonical encoding into a
// 128-bit salted FNV pair whose hex spelling names the job's record file in
// a ResultStore.  encode_sweep_result()/decode_sweep_result() round-trip the
// completed result so a resumed sweep reproduces the exact result vector —
// and therefore a byte-identical CSV — without re-simulating cache hits.
//
// Every encode_* has its decode_* immediately after it (the lint pairing
// rule): a field added to one side without the other fails review and, at
// runtime, the section length check.

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "core/machine.hh"
#include "core/sweep.hh"
#include "store/codec.hh"

namespace ascoma::core {

/// Bumped whenever any canonical encoding below changes shape.  Part of the
/// fingerprint, so old store records simply never match and are left alone.
inline constexpr std::uint32_t kStoreFormatVersion = 1;

// ---- canonical encodings ----------------------------------------------------

void encode_config(store::Encoder& e, const MachineConfig& c);
void decode_config(store::Decoder& d, MachineConfig* c);

void encode_node_stats(store::Encoder& e, const NodeStats& s);
void decode_node_stats(store::Decoder& d, NodeStats* s);

void encode_run_result(store::Encoder& e, const RunResult& r);
void decode_run_result(store::Decoder& d, RunResult* r);

void encode_sweep_result(store::Encoder& e, const SweepResult& sr);
/// Restores result + timing; `job` is not stored (the caller owns it).
void decode_sweep_result(store::Decoder& d, SweepResult* sr);

// ---- content addressing -----------------------------------------------------

/// 128-bit content hash: two salted FNV-1a 64 passes over the same canonical
/// bytes.  hex() is the record's file stem in a store::ResultStore.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  std::string hex() const;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Content address of one sweep job (see file comment for what it covers).
Fingerprint job_fingerprint(const SweepJob& job);

/// Fingerprint of a machine's identity (config + workload shape); stamped
/// into snapshots so a checkpoint can only restore into a machine built the
/// same way.
Fingerprint machine_fingerprint(const MachineConfig& cfg,
                                const std::string& workload_name,
                                std::uint64_t total_pages,
                                std::uint32_t processes);

}  // namespace ascoma::core
