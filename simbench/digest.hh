#pragma once

// The simulated-statistics digest: an order-sensitive FNV-1a hash over every
// job's simulated results.  Two repetitions of a workload with the same
// seed must produce the same digest; a change meant only to speed up the
// simulator must leave it unchanged.

#include <cstdint>
#include <string>
#include <string_view>

#include "core/machine.hh"

namespace simbench {

class Digest {
 public:
  void add(std::uint64_t v);
  void add(std::string_view s);
  /// Folds one run's simulated statistics: cycles, every time bucket, every
  /// miss source, every KernelStats counter, and access, traffic and
  /// synchronisation totals.
  void add(const ascoma::core::RunResult& r);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace simbench
