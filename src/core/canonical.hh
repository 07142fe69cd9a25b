#pragma once

// Canonical byte encodings of a machine's configuration and results
// (ARCHITECTURE.md §15).  Machine checkpoints embed the node-stats encoding
// and stamp machine_fingerprint() into their header; tests compare
// RunResults through encode_run_result().  The encoding is canonical: the
// same logical value always yields the same bytes, so byte equality is
// result equality.
//
// Every encode_* has its decode_* immediately after it (the lint pairing
// rule): a field added to one side without the other fails review and, at
// runtime, the section length check.

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "core/machine.hh"
#include "store/codec.hh"

namespace ascoma::core {

/// Bumped whenever any canonical encoding below changes shape.  Part of
/// machine_fingerprint(), so a checkpoint written under an older encoding
/// never restores.
inline constexpr std::uint32_t kCanonicalVersion = 1;

// ---- canonical encodings ----------------------------------------------------

void encode_config(store::Encoder& e, const MachineConfig& c);
void decode_config(store::Decoder& d, MachineConfig* c);

void encode_node_stats(store::Encoder& e, const NodeStats& s);
void decode_node_stats(store::Decoder& d, NodeStats* s);

void encode_run_result(store::Encoder& e, const RunResult& r);
void decode_run_result(store::Decoder& d, RunResult* r);

// ---- machine identity -------------------------------------------------------

/// 128-bit hash: two salted FNV-1a 64 passes over the same canonical bytes.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Fingerprint of a machine's identity (config + workload shape); stamped
/// into snapshots so a checkpoint can only restore into a machine built the
/// same way.  The non-owning sink and profiler pointers are not part of it.
Fingerprint machine_fingerprint(const MachineConfig& cfg,
                                const std::string& workload_name,
                                std::uint64_t total_pages,
                                std::uint32_t processes);

}  // namespace ascoma::core
