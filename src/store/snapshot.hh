#pragma once

// Machine checkpoint container (`*.ckpt`).  A Snapshot is the byte image a
// Machine::save() produced — a versioned, tagged, sectioned buffer (see
// store/codec.hh) — plus the file I/O to persist it with the atomic-write +
// checksum framing of store/record_file.hh.  Snapshot compatibility
// rules live in ARCHITECTURE.md §15: the snapshot format version is bumped
// whenever any subsystem's encode/decode pair changes shape, and restore
// refuses anything but an exact version + config-fingerprint match (a
// checkpoint is a resume token for one exact machine, not an interchange
// format).

#include <cstdint>
#include <string>
#include <vector>

namespace ascoma::store {

struct Snapshot {
  std::vector<std::uint8_t> bytes;

  bool empty() const { return bytes.empty(); }

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Atomically write `snap` to `path` (temp + fsync + rename, checksummed
/// header).  Throws std::runtime_error on I/O failure.
void write_snapshot_file(const std::string& path, const Snapshot& snap);

/// Read and verify a snapshot file.  Throws CodecError when the file is
/// torn or corrupt, std::runtime_error when it cannot be opened.
Snapshot read_snapshot_file(const std::string& path);

}  // namespace ascoma::store
