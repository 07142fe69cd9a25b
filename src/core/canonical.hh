#pragma once

// Canonical byte encodings behind machine checkpoints (ARCHITECTURE.md §15).
// Checkpoints embed the node-stats encoding and stamp machine_fingerprint()
// into their header.  The encoding is canonical: the same logical value
// always yields the same bytes.
//
// Every encode_* has its decode_* immediately after it (the lint pairing
// rule): a field added to one side without the other fails review and, at
// runtime, the section length check.

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "store/codec.hh"

namespace ascoma::core {

/// Bumped whenever any canonical encoding below changes shape.  Part of
/// machine_fingerprint(), so a checkpoint written under an older encoding
/// never restores.
inline constexpr std::uint32_t kCanonicalVersion = 1;

// ---- canonical encodings ----------------------------------------------------

void encode_node_stats(store::Encoder& e, const NodeStats& s);
void decode_node_stats(store::Decoder& d, NodeStats* s);

// ---- machine identity -------------------------------------------------------

/// 128-bit hash: two salted FNV-1a 64 passes over the same canonical bytes.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Fingerprint of a machine's identity (config + workload shape); stamped
/// into snapshots so a checkpoint can only restore into a machine built the
/// same way.  The non-owning probe pointer is not part of it.
Fingerprint machine_fingerprint(const MachineConfig& cfg,
                                const std::string& workload_name,
                                std::uint64_t total_pages,
                                std::uint32_t processes);

}  // namespace ascoma::core
