#pragma once

// Crash-safe record files: the on-disk framing of *.ckpt machine
// checkpoints.  A record is
//
//   magic u64 | format version u32 | payload length u64 | FNV-1a checksum u64
//   | payload bytes
//
// written atomically: the bytes land in a temp file in the same directory,
// are fsync'd, and only then renamed over the final path — so a reader can
// never observe a half-written record under POSIX rename semantics, and a
// torn write (power loss mid-fsync) leaves a file whose length or checksum
// disagrees with its header.  read_record() verifies all three and throws
// CodecError on any disagreement: a corrupt record is detected, never
// trusted.

#include <cstdint>
#include <string>
#include <vector>

#include "store/codec.hh"

namespace ascoma::store {

inline constexpr std::uint64_t kRecordMagic = 0x41'53'43'4F'4D'41'52'31ull;
inline constexpr std::uint32_t kRecordVersion = 1;

/// Atomically write `payload` (with header) to `path` via a temp file +
/// fsync + rename.  Throws std::runtime_error on I/O failure.
void write_record(const std::string& path,
                  const std::vector<std::uint8_t>& payload);

/// Read and verify a record.  Throws CodecError when the file is truncated,
/// has a bad magic/version, or fails the checksum; throws std::runtime_error
/// when the file cannot be opened.
std::vector<std::uint8_t> read_record(const std::string& path);

}  // namespace ascoma::store
