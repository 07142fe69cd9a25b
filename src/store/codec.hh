#pragma once

// Versioned tagged binary codec for machine checkpoints (ARCHITECTURE.md
// §15).  A checkpoint, and every canonical encoding in core/canonical.hh, is
// a flat byte buffer produced by an Encoder and consumed by a Decoder.  The
// format is deliberately minimal and explicit:
//
//   * primitives are fixed-width little-endian (u8/u32/u64, doubles via
//     bit_cast), so buffers are portable across hosts and canonical — the
//     same logical state always encodes to the same bytes, which is what
//     makes the machine fingerprint and the snapshot self-check possible;
//   * named, length-prefixed sections bracket each subsystem's fields.  A
//     section records its byte length at end_section(); the decoder verifies
//     the tag on entry and the consumed length on exit, so adding a field to
//     the encode side but not the decode side (or vice versa) fails loudly
//     instead of silently shearing every later field.
//
// Decode failures throw CodecError, never ASCOMA_CHECK: a torn or stale
// checkpoint on disk is an expected runtime condition the caller must
// report, not a programming error that should abort the process.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ascoma::store {

/// Thrown on any malformed, truncated, or mismatched buffer.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a over a byte range.  Used both as the record checksum and (salted)
/// as the machine fingerprint; it is stable across builds by construction.
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ull;

inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                             std::uint64_t basis = kFnvBasis) {
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }

  void b(bool v) { u8(v ? 1 : 0); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Open a named section; its byte length is patched in by end_section().
  void begin_section(std::string_view tag) {
    str(tag);
    patch_.push_back(buf_.size());
    u64(0);  // length placeholder
  }

  void end_section() {
    if (patch_.empty()) throw CodecError("end_section without begin_section");
    const std::size_t at = patch_.back();
    patch_.pop_back();
    const std::uint64_t len = buf_.size() - (at + 8);
    for (int i = 0; i < 8; ++i)
      buf_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
  }

  const std::vector<std::uint8_t>& bytes() const {
    if (!patch_.empty()) throw CodecError("unclosed section");
    return buf_;
  }

  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> patch_;
};

class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  bool b() { return u8() != 0; }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Enter a section, verifying its tag; end_section() verifies that the
  /// declared length was consumed exactly.
  void begin_section(std::string_view tag) {
    const std::string got = str();
    if (got != tag) {
      std::ostringstream os;
      os << "section tag mismatch: expected '" << tag << "', found '" << got
         << "'";
      throw CodecError(os.str());
    }
    const std::uint64_t len = u64();
    need(len);
    ends_.push_back(pos_ + static_cast<std::size_t>(len));
  }

  void end_section() {
    if (ends_.empty()) throw CodecError("end_section without begin_section");
    if (pos_ != ends_.back())
      throw CodecError("section length mismatch (encode/decode drift)");
    ends_.pop_back();
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) throw CodecError("buffer truncated");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> ends_;
};

}  // namespace ascoma::store
