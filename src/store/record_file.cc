#include "store/record_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace ascoma::store {

namespace {

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " failed for " + path + ": " +
                           std::strerror(errno));
}

/// Directory part of `path` ("." when there is none) — for directory fsync.
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse directory fds
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void write_record(const std::string& path,
                  const std::vector<std::uint8_t>& payload) {
  Encoder header;
  header.u64(kRecordMagic);
  header.u32(kRecordVersion);
  header.u64(payload.size());
  header.u64(fnv1a64(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_fail("open", tmp);

  auto write_all = [&](const std::uint8_t* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ::ssize_t n = ::write(fd, data + off, size - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        io_fail("write", tmp);
      }
      off += static_cast<std::size_t>(n);
    }
  };
  write_all(header.bytes().data(), header.bytes().size());
  write_all(payload.data(), payload.size());

  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    io_fail("fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    io_fail("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    io_fail("rename", path);
  }
  // Make the rename itself durable (the record was already fsync'd).
  fsync_dir(dir_of(path));
}

std::vector<std::uint8_t> read_record(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail("open", path);

  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ::ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_fail("read", path);
    }
    if (n == 0) break;
    raw.insert(raw.end(), chunk, chunk + n);
  }
  ::close(fd);

  Decoder d(raw);
  if (raw.size() < 28) throw CodecError("record shorter than its header");
  if (d.u64() != kRecordMagic) throw CodecError("bad record magic");
  if (d.u32() != kRecordVersion) throw CodecError("unknown record version");
  const std::uint64_t len = d.u64();
  const std::uint64_t sum = d.u64();
  if (len != d.remaining())
    throw CodecError("record length mismatch (torn write)");
  std::vector<std::uint8_t> payload(raw.begin() + 28, raw.end());
  if (fnv1a64(payload.data(), payload.size()) != sum)
    throw CodecError("record checksum mismatch");
  return payload;
}

}  // namespace ascoma::store
