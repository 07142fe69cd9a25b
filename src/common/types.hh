#pragma once

// Fundamental identifier and quantity types shared by every AS-COMA module.
//
// The simulated machine exposes a single global *shared* virtual address
// space (SPLASH-2 style).  Addresses decompose as
//
//   virtual page (PageId)  ->  coherence block (BlockId)  ->  L1 line (LineAddr)
//
// where block and line numbers are global (page-relative offsets are derived
// via MachineConfig).  Each node additionally has private physical *frames*
// (FrameId) into which virtual pages are mapped either as home pages or as
// S-COMA page-cache replicas.
//
// Every one of these quantities is a *strong* typedef (ARCHITECTURE.md §13):
// explicit construction only, no implicit conversion back to the raw
// representation, and only dimension-correct arithmetic.  `Cycles + Cycles`
// compiles; `Cycles + PageId` does not; an `Addr` becomes a `PageId` only
// through a named conversion (MachineConfig::page_of).  The wrappers compile
// to the same machine code as the raw integers they replace — construction,
// value(), and every operator are constexpr pass-throughs — so the golden
// baselines are bit-identical to the weak-alias era.
//
// Adding a new dimension: define a tag struct carrying `rep`, alias either
// StrongId (identifiers: compare/hash/print/++) or StrongQuantity
// (measures: identifiers' ops plus +, -, scalar *, scalar /, ratio /, %),
// and extend tools/lint_types.py's DIMENSIONS table so bare-integer
// parameters of that dimension are rejected at lint time.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <type_traits>
#include <vector>

namespace ascoma {

/// Identifier-like strong typedef: ordered, hashable, printable, and
/// incrementable (for dense id loops), but with no arithmetic — ids name
/// things, they do not measure them.
template <class Tag>
class StrongId {
 public:
  using rep = typename Tag::rep;
  static_assert(std::is_unsigned_v<rep>, "dimension reps are unsigned");

  constexpr StrongId() = default;
  explicit constexpr StrongId(rep v) : v_(v) {}

  /// The raw representation.  This is the *only* way out of the type; new
  /// call sites outside the whitelisted boundary files should prefer a named
  /// conversion (see tools/lint_types.py).
  [[nodiscard]] constexpr rep value() const { return v_; }

  static constexpr StrongId invalid() {
    return StrongId(std::numeric_limits<rep>::max());
  }

  friend constexpr auto operator<=>(const StrongId&, const StrongId&) = default;

  constexpr StrongId& operator++() {
    ++v_;
    return *this;
  }

  /// Ids are address-like: offsetting by a dimensionless count yields the
  /// i-th successor (line i of a block, node n+1 round-robin).  Id + Id has
  /// no meaning and stays a compile error.
  template <class I>
    requires std::is_integral_v<I>
  friend constexpr StrongId operator+(StrongId a, I n) {
    return StrongId(a.v_ + static_cast<rep>(n));
  }

  friend std::ostream& operator<<(std::ostream& os, StrongId x) {
    return os << +x.v_;
  }

 private:
  rep v_ = 0;
};

/// Measure-like strong typedef: everything StrongId offers plus the
/// dimension-correct arithmetic of a physical quantity — sums/differences of
/// the same dimension, scaling by dimensionless integers, and
/// dimension-cancelling ratio/modulus.
template <class Tag>
class StrongQuantity {
 public:
  using rep = typename Tag::rep;
  static_assert(std::is_unsigned_v<rep>, "dimension reps are unsigned");

  constexpr StrongQuantity() = default;
  explicit constexpr StrongQuantity(rep v) : v_(v) {}

  [[nodiscard]] constexpr rep value() const { return v_; }

  static constexpr StrongQuantity max() {
    return StrongQuantity(std::numeric_limits<rep>::max());
  }

  friend constexpr auto operator<=>(const StrongQuantity&,
                                    const StrongQuantity&) = default;

  // -- same-dimension sums ----------------------------------------------------
  friend constexpr StrongQuantity operator+(StrongQuantity a,
                                            StrongQuantity b) {
    return StrongQuantity(a.v_ + b.v_);
  }
  friend constexpr StrongQuantity operator-(StrongQuantity a,
                                            StrongQuantity b) {
    return StrongQuantity(a.v_ - b.v_);
  }
  constexpr StrongQuantity& operator+=(StrongQuantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr StrongQuantity& operator-=(StrongQuantity o) {
    v_ -= o.v_;
    return *this;
  }

  // -- scaling by a dimensionless count --------------------------------------
  template <class I>
    requires std::is_integral_v<I>
  friend constexpr StrongQuantity operator*(StrongQuantity a, I n) {
    return StrongQuantity(a.v_ * static_cast<rep>(n));
  }
  template <class I>
    requires std::is_integral_v<I>
  friend constexpr StrongQuantity operator*(I n, StrongQuantity a) {
    return StrongQuantity(static_cast<rep>(n) * a.v_);
  }
  template <class I>
    requires std::is_integral_v<I>
  friend constexpr StrongQuantity operator/(StrongQuantity a, I n) {
    return StrongQuantity(a.v_ / static_cast<rep>(n));
  }

  // -- dimension-cancelling ---------------------------------------------------
  friend constexpr rep operator/(StrongQuantity a, StrongQuantity b) {
    return a.v_ / b.v_;
  }
  friend constexpr StrongQuantity operator%(StrongQuantity a,
                                            StrongQuantity b) {
    return StrongQuantity(a.v_ % b.v_);
  }

  friend std::ostream& operator<<(std::ostream& os, StrongQuantity x) {
    return os << +x.v_;
  }

 private:
  rep v_ = 0;
};

namespace dim {
struct CyclesTag {
  using rep = std::uint64_t;
};
struct ByteCountTag {
  using rep = std::uint64_t;
};
struct NodeTag {
  using rep = std::uint32_t;
};
struct AddrTag {
  using rep = std::uint64_t;
};
struct PageTag {
  using rep = std::uint64_t;
};
struct BlockTag {
  using rep = std::uint64_t;
};
struct LineTag {
  using rep = std::uint64_t;
};
struct FrameTag {
  using rep = std::uint32_t;
};
struct HostNsTag {
  using rep = std::uint64_t;
};
}  // namespace dim

/// Simulated clock cycle count (processor and bus share one clock domain).
using Cycles = StrongQuantity<dim::CyclesTag>;
using Cycle = Cycles;  // historical spelling, same strong type

/// A size or span measured in bytes (page/block/line granularities).
using ByteCount = StrongQuantity<dim::ByteCountTag>;

/// Node (cluster) index within the machine, 0-based.
using NodeId = StrongId<dim::NodeTag>;

/// Byte address in the global shared virtual address space.
using Addr = StrongId<dim::AddrTag>;

/// Global virtual page number (Addr / page_bytes).
using PageId = StrongId<dim::PageTag>;
using VPageId = PageId;  // historical spelling, same strong type

/// Global coherence-block number (Addr / block_bytes).
using BlockId = StrongId<dim::BlockTag>;

/// Global L1-line number (Addr / line_bytes).
using LineAddr = StrongId<dim::LineTag>;
using LineId = LineAddr;  // historical spelling, same strong type

/// Physical frame index local to one node.
using FrameId = StrongId<dim::FrameTag>;

/// Host wall-clock nanoseconds: the simulator's own execution time (sweep
/// job walls, store overheads), never simulated time, so
/// `Cycle + HostNs` does not compile.
using HostNs = StrongQuantity<dim::HostNsTag>;

// Address arithmetic: an address offset by a byte span is an address, and
// the difference of two addresses is a byte span.  This is the entire
// cross-dimension algebra — everything else goes through the named
// conversions on MachineConfig (page_of/block_of/line_of/page_base).
constexpr Addr operator+(Addr a, ByteCount b) {
  return Addr(a.value() + b.value());
}
constexpr ByteCount operator-(Addr a, Addr b) {
  return ByteCount(a.value() - b.value());
}

/// A std::vector whose primary index is a strong id: a per-node table is an
/// IdVector<NodeId, T>, a per-block bitmap an IdVector<BlockId, uint8_t>.
/// The element axis is part of the type, so indexing a per-node table with a
/// FrameId is a compile error.  Raw size_t indexing stays available for
/// dimension-free loops (the base-class operator[] is re-exported).
template <class Id, class T>
class IdVector : public std::vector<T> {
 public:
  using std::vector<T>::vector;
  using std::vector<T>::operator[];

  constexpr T& operator[](Id i) {
    return std::vector<T>::operator[](static_cast<std::size_t>(i.value()));
  }
  constexpr const T& operator[](Id i) const {
    return std::vector<T>::operator[](static_cast<std::size_t>(i.value()));
  }
};

inline constexpr NodeId kInvalidNode = NodeId::invalid();
inline constexpr FrameId kInvalidFrame = FrameId::invalid();
inline constexpr VPageId kInvalidPage = PageId::invalid();
inline constexpr Cycle kNeverCycle = Cycles::max();

/// How a virtual page is mapped on a particular node.
enum class PageMode : std::uint8_t {
  kUnmapped,  ///< never touched by this node
  kHome,      ///< this node is the page's home; backed by local DRAM
  kNuma,      ///< mapped in CC-NUMA mode: accesses go to the remote home
  kScoma,     ///< mapped to a local page-cache frame (S-COMA replica)
};

/// Memory operation kind issued by a simulated processor.
enum class OpKind : std::uint8_t {
  kCompute,  ///< burst of user instructions (arg = cycles)
  kPrivate,  ///< burst of private (non-shared) memory ops (arg = count)
  kLoad,     ///< shared-memory load  (arg = byte address)
  kStore,    ///< shared-memory store (arg = byte address)
  kBarrier,  ///< global barrier      (arg = barrier id)
  kLock,     ///< acquire lock        (arg = lock id)
  kUnlock,   ///< release lock        (arg = lock id)
  kEnd,      ///< end of this process's stream
};

/// One element of a workload-generated instruction stream.  `arg` is a
/// deliberate dimensional boundary: its meaning depends on `kind` (cycles,
/// count, byte address, or id), so it stays a raw integer and is wrapped at
/// the point of interpretation (core::Machine::execute_op).
struct Op {
  OpKind kind = OpKind::kEnd;
  std::uint64_t arg = 0;
};

/// Where a shared-memory cache miss was ultimately satisfied.  These are the
/// categories of the right-hand charts of the paper's Figures 2 and 3.
enum class MissSource : std::uint8_t {
  kHome,      ///< local DRAM, this node is home
  kScoma,     ///< local DRAM, S-COMA page-cache replica
  kRac,       ///< remote access cache on the local DSM engine
  kCold,      ///< remote fetch, first touch of the block (incl. remap-induced)
  kConfCapc,  ///< remote fetch caused by a conflict/capacity refetch
  kCoherence, ///< remote fetch caused by an invalidation (write sharing)
};
inline constexpr int kNumMissSources = 6;

/// Execution-time buckets of the left-hand charts of Figures 2 and 3.
enum class TimeBucket : std::uint8_t {
  kUserInstr,   ///< U-INSTR: user-level instruction execution
  kUserLocal,   ///< U-LC-MEM: private / non-shared memory time
  kUserShared,  ///< U-SH-MEM: stalled on shared memory
  kKernelBase,  ///< K-BASE: kernel work every architecture performs
  kKernelOvhd,  ///< K-OVERHD: architecture-specific remapping machinery
  kSync,        ///< SYNC: barriers and locks
};
inline constexpr int kNumTimeBuckets = 6;

}  // namespace ascoma

// Strong ids and quantities hash as their representation so they drop into
// unordered containers wherever the weak aliases were used as keys.
template <class Tag>
struct std::hash<ascoma::StrongId<Tag>> {
  std::size_t operator()(ascoma::StrongId<Tag> x) const noexcept {
    return std::hash<typename Tag::rep>{}(x.value());
  }
};
template <class Tag>
struct std::hash<ascoma::StrongQuantity<Tag>> {
  std::size_t operator()(ascoma::StrongQuantity<Tag> x) const noexcept {
    return std::hash<typename Tag::rep>{}(x.value());
  }
};
