#include "proto/transition_table.hh"

#include "common/check.hh"

namespace ascoma::proto {

const char* to_string(DirState s) {
  switch (s) {
    case DirState::kUncached: return "Uncached";
    case DirState::kShared: return "Shared";
    case DirState::kExclusive: return "Exclusive";
  }
  return "?";
}

const char* to_string(ProtoMsg m) {
  switch (m) {
    case ProtoMsg::kGetS: return "GETS";
    case ProtoMsg::kGetX: return "GETX";
    case ProtoMsg::kFlush: return "FLUSH";
  }
  return "?";
}

const char* to_string(ReqRel r) {
  switch (r) {
    case ReqRel::kNone: return "none";
    case ReqRel::kSharer: return "sharer";
    case ReqRel::kOwner: return "owner";
  }
  return "?";
}

const char* to_string(DirNext n) {
  switch (n) {
    case DirNext::kUncached: return "Uncached";
    case DirNext::kShared: return "Shared";
    case DirNext::kExclusive: return "Exclusive";
    case DirNext::kSharedOrUncached: return "Shared|Uncached";
    case DirNext::kFatal: return "-";
  }
  return "?";
}

namespace {

// The protocol.  One row per (state, message, relation) triple; the row
// count is a static_assert below, and the TransitionTable constructor
// rejects a duplicated or missing triple at startup.
//
// clang-format off
constexpr Transition kProtocol[] = {
  // ---- GETS: read request -------------------------------------------------
  {DirState::kUncached, ProtoMsg::kGetS, ReqRel::kNone,
   act::kAddSharer | act::kDataFromHome, DirNext::kShared,
   "cold read: home supplies, requester joins the copyset"},
  {DirState::kUncached, ProtoMsg::kGetS, ReqRel::kSharer,
   act::kFatal, DirNext::kFatal,
   "an uncached entry has an empty copyset"},
  {DirState::kUncached, ProtoMsg::kGetS, ReqRel::kOwner,
   act::kFatal, DirNext::kFatal,
   "an uncached entry has no owner"},
  {DirState::kShared, ProtoMsg::kGetS, ReqRel::kNone,
   act::kAddSharer | act::kDataFromHome, DirNext::kShared,
   "read join: home memory is current"},
  {DirState::kShared, ProtoMsg::kGetS, ReqRel::kSharer,
   act::kAddSharer | act::kDataFromHome, DirNext::kShared,
   "re-fetch after a silent local eviction (RAC/L1 conflict)"},
  {DirState::kShared, ProtoMsg::kGetS, ReqRel::kOwner,
   act::kFatal, DirNext::kFatal,
   "a shared entry has no owner"},
  {DirState::kExclusive, ProtoMsg::kGetS, ReqRel::kNone,
   act::kForwardOwner | act::kClearOwner | act::kAddSharer, DirNext::kShared,
   "3-hop read: owner supplies and downgrades, writeback makes home current"},
  {DirState::kExclusive, ProtoMsg::kGetS, ReqRel::kSharer,
   act::kFatal, DirNext::kFatal,
   "an exclusive entry's only sharer is the owner itself"},
  {DirState::kExclusive, ProtoMsg::kGetS, ReqRel::kOwner,
   act::kClearOwner | act::kAddSharer | act::kDataFromHome, DirNext::kShared,
   "owner self-downgrade: its L1 lost the line; home serves after writeback"},

  // ---- GETX: write/ownership request --------------------------------------
  {DirState::kUncached, ProtoMsg::kGetX, ReqRel::kNone,
   act::kSetOwner | act::kDataFromHome, DirNext::kExclusive,
   "cold write: home supplies, requester becomes owner"},
  {DirState::kUncached, ProtoMsg::kGetX, ReqRel::kSharer,
   act::kFatal, DirNext::kFatal,
   "an uncached entry has an empty copyset"},
  {DirState::kUncached, ProtoMsg::kGetX, ReqRel::kOwner,
   act::kFatal, DirNext::kFatal,
   "an uncached entry has no owner"},
  {DirState::kShared, ProtoMsg::kGetX, ReqRel::kNone,
   act::kInvalSharers | act::kSetOwner | act::kDataFromHome,
   DirNext::kExclusive,
   "write by a non-holder: invalidate every sharer, home supplies"},
  {DirState::kShared, ProtoMsg::kGetX, ReqRel::kSharer,
   act::kInvalSharers | act::kSetOwner | act::kDataFromHome,
   DirNext::kExclusive,
   "upgrade: invalidate the other sharers; data moves only if the "
   "requester lost its copy"},
  {DirState::kShared, ProtoMsg::kGetX, ReqRel::kOwner,
   act::kFatal, DirNext::kFatal,
   "a shared entry has no owner"},
  {DirState::kExclusive, ProtoMsg::kGetX, ReqRel::kNone,
   act::kForwardOwner | act::kInvalOwner | act::kSetOwner,
   DirNext::kExclusive,
   "3-hop write: owner supplies and is invalidated, requester takes over"},
  {DirState::kExclusive, ProtoMsg::kGetX, ReqRel::kSharer,
   act::kFatal, DirNext::kFatal,
   "an exclusive entry's only sharer is the owner itself"},
  {DirState::kExclusive, ProtoMsg::kGetX, ReqRel::kOwner,
   act::kSetOwner | act::kDataFromHome, DirNext::kExclusive,
   "owner re-acquire after losing its L1 line: no third party involved"},

  // ---- FLUSH: page remap/eviction released the node's copy ----------------
  {DirState::kUncached, ProtoMsg::kFlush, ReqRel::kNone,
   act::kNone, DirNext::kUncached,
   "spurious flush: nothing recorded for this node"},
  {DirState::kUncached, ProtoMsg::kFlush, ReqRel::kSharer,
   act::kFatal, DirNext::kFatal,
   "an uncached entry has an empty copyset"},
  {DirState::kUncached, ProtoMsg::kFlush, ReqRel::kOwner,
   act::kFatal, DirNext::kFatal,
   "an uncached entry has no owner"},
  {DirState::kShared, ProtoMsg::kFlush, ReqRel::kNone,
   act::kNone, DirNext::kShared,
   "spurious flush: the node is not in the copyset"},
  {DirState::kShared, ProtoMsg::kFlush, ReqRel::kSharer,
   act::kRemoveSharer, DirNext::kSharedOrUncached,
   "sharer leaves the copyset (clean copy discarded)"},
  {DirState::kShared, ProtoMsg::kFlush, ReqRel::kOwner,
   act::kFatal, DirNext::kFatal,
   "a shared entry has no owner"},
  {DirState::kExclusive, ProtoMsg::kFlush, ReqRel::kNone,
   act::kNone, DirNext::kExclusive,
   "spurious flush: the node is not in the copyset"},
  {DirState::kExclusive, ProtoMsg::kFlush, ReqRel::kSharer,
   act::kFatal, DirNext::kFatal,
   "an exclusive entry's only sharer is the owner itself"},
  {DirState::kExclusive, ProtoMsg::kFlush, ReqRel::kOwner,
   act::kRemoveSharer | act::kClearOwner, DirNext::kUncached,
   "owner flush: its writeback makes home memory current"},
};
// clang-format on

static_assert(sizeof(kProtocol) / sizeof(kProtocol[0]) ==
                  static_cast<std::size_t>(TransitionTable::kNumRows),
              "protocol table must cover the full state x message x relation "
              "cross-product");

}  // namespace

TransitionTable::TransitionTable() {
  std::array<bool, kNumRows> seen{};
  for (const Transition& t : kProtocol) {
    const int i = index(t.state, t.msg, t.rel);
    ASCOMA_CHECK_MSG(!seen[static_cast<std::size_t>(i)],
                     "duplicate protocol row: " << to_string(t.state) << " x "
                                                << to_string(t.msg) << " x "
                                                << to_string(t.rel));
    seen[static_cast<std::size_t>(i)] = true;
    rows_[static_cast<std::size_t>(i)] = t;
  }
  for (int i = 0; i < kNumRows; ++i)
    ASCOMA_CHECK_MSG(seen[static_cast<std::size_t>(i)],
                     "protocol table is not total: row " << i << " missing");
}

const TransitionTable& TransitionTable::pristine() {
  static const TransitionTable table;
  return table;
}

}  // namespace ascoma::proto
