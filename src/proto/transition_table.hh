#pragma once

// Declarative transition table for the directory-based write-invalidate,
// sequentially-consistent DSM protocol.
//
// Every directory transition the simulator can take is one row of a
// (state x message x requester-relation) table: the exact protocol is
// inspectable *data*, not branching code.  proto::Directory applies rows
// mechanically (Directory::apply), proto::CoherentMemory branches on the
// action bits a transition returned (instead of re-deriving them from entry
// fields).  The table is total — every (state, message, relation) triple has
// exactly one row in kProtocol — by a static_assert on the row count and the
// constructor's duplicate/missing-triple checks.
//
// Directory states are a *view* of a directory entry (the Directory's
// sharer word and exclusive bit are the ground truth): kUncached (no
// sharers, not exclusive), kShared (sharers, not exclusive — home memory
// current), kExclusive (one sharer, the owner, dirty).  The
// requester relation splits rows that transition differently depending on
// whether the requester already appears in the entry.  Rows whose triple
// cannot arise under the protocol invariants (e.g. a sharer bit in an
// uncached entry) are declared with act::kFatal: reaching one is itself a
// protocol violation, and Directory::apply throws CheckFailure on it.

#include <array>
#include <cstdint>

namespace ascoma::proto {

/// View of a directory entry's coherence state.
enum class DirState : std::uint8_t { kUncached, kShared, kExclusive };
inline constexpr int kNumDirStates = 3;

/// Protocol message classes a directory entry reacts to.
enum class ProtoMsg : std::uint8_t { kGetS, kGetX, kFlush };
inline constexpr int kNumProtoMsgs = 3;

/// Requester's relation to the entry when the message is processed.
enum class ReqRel : std::uint8_t { kNone, kSharer, kOwner };
inline constexpr int kNumReqRels = 3;

/// Expected entry state after a row's actions are applied.  kSharedOrUncached
/// covers a sharer flush that may or may not empty the copyset.
enum class DirNext : std::uint8_t {
  kUncached,
  kShared,
  kExclusive,
  kSharedOrUncached,
  kFatal,
};

const char* to_string(DirState s);
const char* to_string(ProtoMsg m);
const char* to_string(ReqRel r);
const char* to_string(DirNext n);

/// Transition actions, applied by Directory::apply in declaration order
/// (reads before writes: forwards/invalidations observe the pre-transition
/// entry, then the entry is rewritten).
namespace act {
inline constexpr std::uint32_t kNone = 0;
/// 3-hop forward: the dirty owner supplies the data (counts one forward).
inline constexpr std::uint32_t kForwardOwner = 1u << 0;
/// Invalidate every sharer except the requester and the dirty owner
/// (counts one invalidation per target).
inline constexpr std::uint32_t kInvalSharers = 1u << 1;
/// The forwarded-to owner also loses its copy (GETX; counts one
/// invalidation).
inline constexpr std::uint32_t kInvalOwner = 1u << 2;
/// Clear the exclusive bit: home memory becomes current (downgrade/writeback).
inline constexpr std::uint32_t kClearOwner = 1u << 3;
/// Add the requester to the copyset.
inline constexpr std::uint32_t kAddSharer = 1u << 4;
/// Collapse the copyset to {requester} and make it the owner.
inline constexpr std::uint32_t kSetOwner = 1u << 5;
/// Remove the requester from the copyset.
inline constexpr std::uint32_t kRemoveSharer = 1u << 6;
/// Home memory is current and supplies the data if the requester needs it.
inline constexpr std::uint32_t kDataFromHome = 1u << 7;
/// The triple is unreachable under the protocol invariants.
inline constexpr std::uint32_t kFatal = 1u << 8;
}  // namespace act

/// One row: state x message x relation -> actions + next state.
struct Transition {
  DirState state;
  ProtoMsg msg;
  ReqRel rel;
  std::uint32_t actions;
  DirNext next;
  const char* why;  ///< one-line rationale (or unreachability argument)

  bool has(std::uint32_t bit) const { return (actions & bit) != 0; }
  bool fatal() const { return has(act::kFatal); }
};

/// The full protocol table, indexed by (state, message, relation).  The
/// constructor ingests a row list and enforces totality: every triple
/// covered exactly once (throws common::CheckFailure otherwise).  The
/// pristine() singleton holds the protocol as shipped.
class TransitionTable {
 public:
  /// Builds the pristine protocol (the kProtocol row list).
  TransitionTable();

  const Transition& lookup(DirState s, ProtoMsg m, ReqRel r) const {
    return rows_[index(s, m, r)];
  }

  /// The protocol as shipped (shared immutable singleton).
  static const TransitionTable& pristine();

  static constexpr int kNumRows =
      kNumDirStates * kNumProtoMsgs * kNumReqRels;

 private:
  static int index(DirState s, ProtoMsg m, ReqRel r) {
    return (static_cast<int>(s) * kNumProtoMsgs + static_cast<int>(m)) *
               kNumReqRels +
           static_cast<int>(r);
  }

  std::array<Transition, kNumRows> rows_;
};

}  // namespace ascoma::proto
