#include "check/model.hh"

#include <algorithm>
#include <sstream>

#include "common/check.hh"

namespace ascoma::check {

using proto::DirNext;
using proto::DirState;
using proto::ProtoMsg;
using proto::ReqRel;
using proto::Transition;
using proto::TransitionTable;
namespace act = proto::act;

// ---- names ------------------------------------------------------------------

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kDropInvalAck: return "drop-inval-ack";
    case Mutation::kStaleOwnerOnDowngrade: return "stale-owner-on-downgrade";
    case Mutation::kNackMutatesDirectory: return "nack-mutates-directory";
    case Mutation::kLostUpgrade: return "lost-upgrade";
    case Mutation::kDoubleDataReply: return "double-data-reply";
  }
  return "?";
}

bool parse_mutation(const std::string& name, Mutation* out) {
  for (int i = 0; i < kNumMutations; ++i) {
    const auto m = static_cast<Mutation>(i);
    if (name == to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kReqS: return "GETS";
    case MsgKind::kReqX: return "GETX";
    case MsgKind::kReqUp: return "UPGRADE";
    case MsgKind::kData: return "DATA";
    case MsgKind::kDataEx: return "DATA_EX";
    case MsgKind::kGrant: return "GRANT";
    case MsgKind::kFwdS: return "FWD_GETS";
    case MsgKind::kFwdX: return "FWD_GETX";
    case MsgKind::kOwnerData: return "OWNER_DATA";
    case MsgKind::kOwnerDataEx: return "OWNER_DATA_EX";
    case MsgKind::kInval: return "INVAL";
    case MsgKind::kInvAck: return "INV_ACK";
    case MsgKind::kNackMsg: return "NACK";
  }
  return "?";
}

namespace {

bool is_request(std::uint8_t kind) {
  const auto k = static_cast<MsgKind>(kind);
  return k == MsgKind::kReqS || k == MsgKind::kReqX || k == MsgKind::kReqUp;
}

bool is_reply(std::uint8_t kind) {
  const auto k = static_cast<MsgKind>(kind);
  return k == MsgKind::kData || k == MsgKind::kDataEx ||
         k == MsgKind::kGrant || k == MsgKind::kOwnerData ||
         k == MsgKind::kOwnerDataEx;
}

std::string format_msg(const Msg& m) {
  std::ostringstream os;
  os << to_string(static_cast<MsgKind>(m.kind)) << " n" << int(m.src) << "->n"
     << int(m.dst) << " b" << int(m.block);
  if (is_request(m.kind)) {
    os << " serial " << int(m.aux);
  } else {
    if (m.version != 0) os << " v" << int(m.version);
    if (m.aux != 0) {
      if (is_reply(m.kind))
        os << " acks " << int(m.aux);
      else
        os << " req n" << int(m.aux);
    }
  }
  return os.str();
}

}  // namespace

std::string Action::format() const {
  std::ostringstream os;
  switch (type) {
    case Type::kIssue:
      os << "n" << int(node) << " issues " << (is_store ? "STORE" : "LOAD")
         << " b" << int(block) << " -> " << format_msg(msg);
      break;
    case Type::kLocal:
      os << "n" << int(node) << " " << (is_store ? "STORE" : "LOAD") << " b"
         << int(block) << " completes locally";
      break;
    case Type::kDeliver:
      os << "deliver " << format_msg(msg);
      break;
    case Type::kProcess:
      os << "home dequeues " << format_msg(msg);
      break;
    case Type::kNack:
      os << "home NACKs " << format_msg(msg);
      break;
    case Type::kFlush:
      os << "n" << int(node) << " flushes b" << int(block)
         << " (notifies home)";
      break;
    case Type::kEvict:
      os << "n" << int(node) << " silently evicts b" << int(block);
      break;
    case Type::kDrop:
      os << "fabric drops a message; transport retransmits (retry counted)";
      break;
    case Type::kDup:
      os << "fabric duplicates " << format_msg(msg);
      break;
  }
  return os.str();
}

// ---- state encoding ---------------------------------------------------------

std::string State::encode() const {
  std::string out;
  out.reserve(64 + net.size() * 6);
  auto put = [&out](std::uint8_t b) { out.push_back(static_cast<char>(b)); };
  auto put_msg = [&](const Msg& m) {
    put(m.kind);
    put(m.src);
    put(m.dst);
    put(m.block);
    put(m.version);
    put(m.aux);
  };
  for (const auto& c : cache) {
    put(c[0]);
    put(c[1]);
  }
  for (std::size_t b = 0; b < dir_owner.size(); ++b) {
    put(dir_owner[b]);
    put(dir_sharers[b]);
    put(home[b].busy);
    put(home[b].busy_req);
    put(home[b].mem_version);
    put(static_cast<std::uint8_t>(home[b].queue.size()));
    for (const Msg& m : home[b].queue) put_msg(m);  // FIFO order matters
  }
  for (const Pending& p : pending) {
    put(p.active);
    put(p.kind);
    put(p.block);
    put(p.serial);
    put(p.have_data);
    put(p.data_version);
    put(p.acks_needed);
    put(p.acks_got);
    put(p.retries);
  }
  for (std::uint8_t v : ops_done) put(v);
  for (std::uint8_t v : committed) put(v);
  for (std::uint8_t v : store_seq) put(v);
  for (std::uint8_t v : req_seq) put(v);
  for (std::uint8_t v : home_served) put(v);
  put(drops_used);
  put(dups_used);
  put(nacks_used);
  put(flushes_used);
  put(evicts_used);
  put(retries_total);
  // The network is a multiset: canonicalize by sorting.
  std::vector<Msg> sorted = net;
  std::sort(sorted.begin(), sorted.end());
  put(static_cast<std::uint8_t>(sorted.size()));
  for (const Msg& m : sorted) put_msg(m);
  return out;
}

State decode_state(const CheckConfig& cfg, const std::string& enc) {
  State s;
  std::size_t at = 0;
  auto get = [&enc, &at]() {
    ASCOMA_CHECK_MSG(at < enc.size(), "truncated state encoding");
    return static_cast<std::uint8_t>(enc[at++]);
  };
  auto get_msg = [&get]() {
    Msg m;
    m.kind = get();
    m.src = get();
    m.dst = get();
    m.block = get();
    m.version = get();
    m.aux = get();
    return m;
  };
  s.cache.resize(cfg.nodes * cfg.blocks);
  for (auto& c : s.cache) {
    c[0] = get();
    c[1] = get();
  }
  s.dir_owner.resize(cfg.blocks);
  s.dir_sharers.resize(cfg.blocks);
  s.home.resize(cfg.blocks);
  for (std::uint32_t b = 0; b < cfg.blocks; ++b) {
    s.dir_owner[b] = get();
    s.dir_sharers[b] = get();
    s.home[b].busy = get();
    s.home[b].busy_req = get();
    s.home[b].mem_version = get();
    const std::uint8_t qn = get();
    s.home[b].queue.resize(qn);
    for (Msg& m : s.home[b].queue) m = get_msg();
  }
  s.pending.resize(cfg.nodes);
  for (Pending& p : s.pending) {
    p.active = get();
    p.kind = get();
    p.block = get();
    p.serial = get();
    p.have_data = get();
    p.data_version = get();
    p.acks_needed = get();
    p.acks_got = get();
    p.retries = get();
  }
  s.ops_done.resize(cfg.nodes);
  for (auto& v : s.ops_done) v = get();
  s.committed.resize(cfg.blocks);
  for (auto& v : s.committed) v = get();
  s.store_seq.resize(cfg.blocks);
  for (auto& v : s.store_seq) v = get();
  s.req_seq.resize(cfg.nodes);
  for (auto& v : s.req_seq) v = get();
  s.home_served.resize(cfg.nodes);
  for (auto& v : s.home_served) v = get();
  s.drops_used = get();
  s.dups_used = get();
  s.nacks_used = get();
  s.flushes_used = get();
  s.evicts_used = get();
  s.retries_total = get();
  const std::uint8_t nn = get();
  s.net.resize(nn);
  for (Msg& m : s.net) m = get_msg();
  ASCOMA_CHECK_MSG(at == enc.size(), "trailing bytes in state encoding");
  return s;
}

std::string describe_state(const CheckConfig& cfg, const State& s) {
  static const char* kCacheNames[] = {"I", "S", "M"};
  std::ostringstream os;
  for (std::uint32_t b = 0; b < cfg.blocks; ++b) {
    os << "  b" << b << ": dir owner=";
    if (s.dir_owner[b] == kNoOwner)
      os << "-";
    else
      os << "n" << int(s.dir_owner[b]);
    os << " copyset={";
    bool first = true;
    for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
      if (((s.dir_sharers[b] >> n) & 1u) == 0) continue;
      if (!first) os << ",";
      os << "n" << n;
      first = false;
    }
    os << "} mem v" << int(s.home[b].mem_version) << " committed v"
       << int(s.committed[b]);
    if (s.home[b].busy) os << " BUSY(n" << int(s.home[b].busy_req) << ")";
    os << " queued " << s.home[b].queue.size() << "\n";
    os << "     caches:";
    for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
      const auto line = s.cache[n * cfg.blocks + b];
      os << " n" << n << "=" << kCacheNames[line[0] <= 2 ? line[0] : 0];
      if (line[0] != 0) os << "(v" << int(line[1]) << ")";
    }
    os << "\n";
  }
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    const Pending& p = s.pending[n];
    if (!p.active) continue;
    os << "  n" << n << " pending "
       << to_string(static_cast<MsgKind>(p.kind)) << " b" << int(p.block)
       << " data=" << int(p.have_data) << " acks " << int(p.acks_got) << "/"
       << int(p.acks_needed) << " retries " << int(p.retries) << "\n";
  }
  for (const Msg& m : s.net) os << "  in flight: " << format_msg(m) << "\n";
  return os.str();
}

// ---- mutations --------------------------------------------------------------

void apply_mutation(TransitionTable* table, Mutation m) {
  switch (m) {
    case Mutation::kStaleOwnerOnDowngrade: {
      // A read that downgrades the dirty owner forgets to clear the owner
      // field: the directory keeps naming an owner that is now a sharer.
      Transition& t =
          table->row(DirState::kExclusive, ProtoMsg::kGetS, ReqRel::kNone);
      t.actions = act::kForwardOwner | act::kAddSharer;
      t.next = DirNext::kExclusive;
      t.why = "MUTATION: downgrade keeps the stale owner recorded";
      break;
    }
    case Mutation::kNackMutatesDirectory: {
      // A refusal is supposed to be a no-op; here it drops the requester
      // from the copyset, so a NACKed upgrader keeps a copy the directory
      // no longer tracks.
      for (ReqRel rel : {ReqRel::kNone, ReqRel::kSharer}) {
        Transition& t = table->row(DirState::kShared, ProtoMsg::kNack, rel);
        t.actions = act::kRemoveSharer;
        t.next = DirNext::kSharedOrUncached;
        t.why = "MUTATION: NACK removes the requester from the copyset";
      }
      break;
    }
    case Mutation::kNone:
    case Mutation::kDropInvalAck:   // handler flag, table untouched
    case Mutation::kLostUpgrade:    // handler flag, table untouched
    case Mutation::kDoubleDataReply:  // handler flag, table untouched
      break;
  }
}

// ---- model ------------------------------------------------------------------

Model::Model(const CheckConfig& cfg) : cfg_(cfg), table_() {
  ASCOMA_CHECK_MSG(cfg.nodes >= 2 && cfg.nodes <= 4,
                   "model supports 2..4 nodes");
  ASCOMA_CHECK_MSG(cfg.blocks >= 1 && cfg.blocks <= 2,
                   "model supports 1..2 blocks");
  ASCOMA_CHECK_MSG(cfg.ops_per_node >= 1 && cfg.ops_per_node <= 4,
                   "model supports 1..4 ops per node");
  apply_mutation(&table_, cfg.mutation);
}

State Model::initial() const {
  State s;
  s.cache.assign(cfg_.nodes * cfg_.blocks, {0, 0});  // all kI, version 0
  s.dir_owner.assign(cfg_.blocks, kNoOwner);
  s.dir_sharers.assign(cfg_.blocks, 0);
  s.home.assign(cfg_.blocks, HomeBlock{});
  s.pending.assign(cfg_.nodes, Pending{});
  s.ops_done.assign(cfg_.nodes, 0);
  s.committed.assign(cfg_.blocks, 0);
  s.store_seq.assign(cfg_.blocks, 0);
  s.req_seq.assign(cfg_.nodes, 0);
  s.home_served.assign(cfg_.nodes, 0);
  return s;
}

void Model::fail_step(State* s, std::string why) {
  if (s->violation.empty()) s->violation = std::move(why);
}

proto::DirState Model::dir_state(const State& s, std::uint32_t b) const {
  if (s.dir_owner[b] != kNoOwner) return DirState::kExclusive;
  return s.dir_sharers[b] == 0 ? DirState::kUncached : DirState::kShared;
}

proto::ReqRel Model::dir_rel(const State& s, std::uint32_t b,
                             std::uint8_t n) const {
  if (s.dir_owner[b] == n) return ReqRel::kOwner;
  return (s.dir_sharers[b] >> n) & 1u ? ReqRel::kSharer : ReqRel::kNone;
}

const Transition& Model::dir_apply(State* s, std::uint32_t block,
                                   ProtoMsg msg, std::uint8_t requester,
                                   std::uint8_t* dirty_owner,
                                   std::vector<std::uint8_t>* invalidate)
    const {
  const Transition& t =
      table_.lookup(dir_state(*s, block), msg, dir_rel(*s, block, requester));
  if (t.fatal()) {
    std::ostringstream os;
    os << "unreachable protocol row reached: " << to_string(t.state) << " x "
       << to_string(t.msg) << " x " << to_string(t.rel) << " (" << t.why
       << ")";
    fail_step(s, os.str());
    return t;
  }
  // Reads first (mirrors Directory::apply).
  if (t.has(act::kForwardOwner) && dirty_owner != nullptr)
    *dirty_owner = s->dir_owner[block];
  if (t.has(act::kInvalSharers) && invalidate != nullptr) {
    std::uint8_t mask = s->dir_sharers[block];
    mask = static_cast<std::uint8_t>(mask & ~(1u << requester));
    if (s->dir_owner[block] != kNoOwner)
      mask = static_cast<std::uint8_t>(mask & ~(1u << s->dir_owner[block]));
    for (std::uint8_t n = 0; n < cfg_.nodes; ++n)
      if ((mask >> n) & 1u) invalidate->push_back(n);
  }
  // Then the entry rewrite.
  if (t.has(act::kClearOwner)) s->dir_owner[block] = kNoOwner;
  if (t.has(act::kAddSharer))
    s->dir_sharers[block] =
        static_cast<std::uint8_t>(s->dir_sharers[block] | (1u << requester));
  if (t.has(act::kRemoveSharer))
    s->dir_sharers[block] =
        static_cast<std::uint8_t>(s->dir_sharers[block] & ~(1u << requester));
  if (t.has(act::kSetOwner)) {
    s->dir_sharers[block] = static_cast<std::uint8_t>(1u << requester);
    s->dir_owner[block] = requester;
  }
  // Check the promised next state (kSharedOrUncached accepts either).
  const DirState after = dir_state(*s, block);
  const bool next_ok =
      t.next == DirNext::kSharedOrUncached
          ? (after == DirState::kShared || after == DirState::kUncached)
          : after == static_cast<DirState>(t.next);
  if (!next_ok) {
    std::ostringstream os;
    os << "protocol row " << to_string(t.state) << " x " << to_string(t.msg)
       << " x " << to_string(t.rel) << " promised " << to_string(t.next)
       << " but produced " << to_string(after);
    fail_step(s, os.str());
  }
  return t;
}

void Model::apply_request(State* s, const Msg& m) const {
  const std::uint32_t b = m.block;
  const std::uint8_t r = m.src;
  const ReqRel rel_before = dir_rel(*s, b, r);
  const ProtoMsg pm = static_cast<MsgKind>(m.kind) == MsgKind::kReqS
                          ? ProtoMsg::kGetS
                          : ProtoMsg::kGetX;
  std::uint8_t fwd = kNoOwner;
  std::vector<std::uint8_t> inval;
  const Transition& t = dir_apply(s, b, pm, r, &fwd, &inval);
  if (!s->violation.empty()) return;

  s->home_served[r] = std::max(s->home_served[r], m.aux);
  HomeBlock& hb = s->home[b];
  hb.busy = 1;
  hb.busy_req = r;
  const std::uint8_t acks = static_cast<std::uint8_t>(inval.size());
  const std::uint8_t home = home_of(b);

  for (std::uint8_t n : inval)
    s->net.push_back(Msg{std::uint8_t(MsgKind::kInval), home, n, m.block, 0,
                         r});

  if (t.has(act::kForwardOwner)) {
    const MsgKind k =
        pm == ProtoMsg::kGetS ? MsgKind::kFwdS : MsgKind::kFwdX;
    s->net.push_back(Msg{std::uint8_t(k), home, fwd, m.block, acks, r});
    return;
  }

  // Home supplies the data (or just ownership, for a held-copy upgrade).
  switch (static_cast<MsgKind>(m.kind)) {
    case MsgKind::kReqS: {
      const Msg reply{std::uint8_t(MsgKind::kData), home, r, m.block,
                      hb.mem_version, 0};
      s->net.push_back(reply);
      if (cfg_.mutation == Mutation::kDoubleDataReply)
        s->net.push_back(reply);
      break;
    }
    case MsgKind::kReqX:
      s->net.push_back(Msg{std::uint8_t(MsgKind::kDataEx), home, r, m.block,
                           hb.mem_version, acks});
      break;
    case MsgKind::kReqUp:
      if (rel_before == ReqRel::kSharer) {
        if (cfg_.mutation != Mutation::kLostUpgrade)
          s->net.push_back(Msg{std::uint8_t(MsgKind::kGrant), home, r,
                               m.block, 0, acks});
        // kLostUpgrade: ownership recorded, grant never sent.
      } else {
        // Upgrade race: the requester's copy was invalidated while the
        // upgrade was in flight — serve it a full exclusive fill.
        s->net.push_back(Msg{std::uint8_t(MsgKind::kDataEx), home, r,
                             m.block, hb.mem_version, acks});
      }
      break;
    default:
      fail_step(s, "internal: non-request reached apply_request");
  }
}

void Model::complete_if_ready(State* s, std::uint8_t n) const {
  Pending& p = s->pending[n];
  if (!p.active || !p.have_data || p.acks_got < p.acks_needed) return;
  const std::uint32_t b = p.block;
  HomeBlock& hb = s->home[b];
  if (!hb.busy || hb.busy_req != n) {
    fail_step(s, "internal: transaction completed without a home "
                 "transaction in flight");
    return;
  }
  hb.busy = 0;
  auto& line = s->cache[n * cfg_.blocks + b];
  if (static_cast<MsgKind>(p.kind) == MsgKind::kReqS) {
    line = {std::uint8_t(CacheState::kS), p.data_version};
    // A 3-hop read doubles as the owner's writeback: home becomes current.
    hb.mem_version = p.data_version;
  } else {
    const std::uint8_t v = ++s->store_seq[b];
    line = {std::uint8_t(CacheState::kM), v};
    s->committed[b] = v;
  }
  ++s->ops_done[n];
  p = Pending{};
}

void Model::process_request(const State& s, const Msg& m, Action::Type label,
                            std::vector<Successor>* out) const {
  {
    Successor suc;
    suc.state = s;
    apply_request(&suc.state, m);
    suc.action.type = label;
    suc.action.msg = m;
    out->push_back(std::move(suc));
  }
  if (cfg_.faults && s.nacks_used < cfg_.max_nacks) {
    Successor suc;
    suc.state = s;
    ++suc.state.nacks_used;
    dir_apply(&suc.state, m.block, ProtoMsg::kNack, m.src, nullptr, nullptr);
    suc.state.net.push_back(Msg{std::uint8_t(MsgKind::kNackMsg),
                                home_of(m.block), m.src, m.block, 0, 0});
    suc.action.type = Action::Type::kNack;
    suc.action.msg = m;
    out->push_back(std::move(suc));
  }
}

void Model::deliver(const State& base, const Msg& m,
                    std::vector<Successor>* out) const {
  const auto kind = static_cast<MsgKind>(m.kind);
  const std::uint8_t n = m.dst;

  if (is_request(m.kind)) {
    // `m.dst` is the block's home.  The home dedups on the per-node request
    // serial: a fabric-duplicated (or already-served) request is discarded,
    // which is why duplicates cannot corrupt a correct protocol.
    if (m.aux <= base.home_served[m.src]) {
      Successor suc;
      suc.state = base;
      suc.action.type = Action::Type::kDeliver;
      suc.action.msg = m;
      suc.invisible = true;
      out->push_back(std::move(suc));
      return;
    }
    if (base.home[m.block].busy) {
      Successor suc;
      suc.state = base;
      if (suc.state.home[m.block].queue.size() >= kMaxQueuedPerBlock)
        fail_step(&suc.state, "home request queue overflow");
      else
        suc.state.home[m.block].queue.push_back(m);
      suc.action.type = Action::Type::kDeliver;
      suc.action.msg = m;
      out->push_back(std::move(suc));
      return;
    }
    process_request(base, m, Action::Type::kDeliver, out);
    return;
  }

  Successor suc;
  suc.state = base;
  suc.action.type = Action::Type::kDeliver;
  suc.action.msg = m;
  State* s = &suc.state;
  auto& line = s->cache[n * cfg_.blocks + m.block];

  switch (kind) {
    case MsgKind::kData:
    case MsgKind::kDataEx:
    case MsgKind::kGrant:
    case MsgKind::kOwnerData:
    case MsgKind::kOwnerDataEx: {
      Pending& p = s->pending[n];
      const bool wants_shared =
          static_cast<MsgKind>(p.kind) == MsgKind::kReqS;
      const bool shared_reply =
          kind == MsgKind::kData || kind == MsgKind::kOwnerData;
      const bool matches = p.active && p.block == m.block && !p.have_data &&
                           wants_shared == shared_reply;
      if (matches) {
        p.have_data = 1;
        p.data_version =
            kind == MsgKind::kGrant ? line[1] : m.version;
        p.acks_needed = m.aux;
        complete_if_ready(s, n);
      } else if (cfg_.mutation == Mutation::kDoubleDataReply &&
                 shared_reply &&
                 line[0] != std::uint8_t(CacheState::kM)) {
        // The buggy NI installs whatever data arrives: a stale late reply
        // resurrects a copy the protocol already invalidated.
        line = {std::uint8_t(CacheState::kS), m.version};
      } else {
        suc.invisible = true;  // stray reply discarded
      }
      break;
    }
    case MsgKind::kFwdS:
    case MsgKind::kFwdX: {
      if (line[0] != std::uint8_t(CacheState::kM)) {
        std::ostringstream os;
        os << "3-hop forward " << format_msg(m) << " reached n" << n
           << " which does not hold b" << int(m.block) << " exclusive";
        fail_step(s, os.str());
        break;
      }
      const std::uint8_t v = line[1];
      if (kind == MsgKind::kFwdS) {
        line[0] = std::uint8_t(CacheState::kS);  // downgrade, keep data
        s->net.push_back(Msg{std::uint8_t(MsgKind::kOwnerData), n, m.aux,
                             m.block, v, 0});
      } else {
        line = {std::uint8_t(CacheState::kI), 0};
        s->net.push_back(Msg{std::uint8_t(MsgKind::kOwnerDataEx), n, m.aux,
                             m.block, v,
                             m.version /* acks piggybacked on the fwd */});
      }
      break;
    }
    case MsgKind::kInval:
      line = {std::uint8_t(CacheState::kI), 0};
      if (cfg_.mutation != Mutation::kDropInvalAck)
        s->net.push_back(Msg{std::uint8_t(MsgKind::kInvAck), n, m.aux,
                             m.block, 0, 0});
      break;
    case MsgKind::kInvAck: {
      Pending& p = s->pending[n];
      if (p.active && p.block == m.block) {
        ++p.acks_got;
        if (p.have_data && p.acks_got >= p.acks_needed)
          complete_if_ready(s, n);
        else
          suc.invisible = true;  // private counter bump, commutes
      } else {
        suc.invisible = true;  // stray ack discarded
      }
      break;
    }
    case MsgKind::kNackMsg: {
      Pending& p = s->pending[n];
      if (p.active && p.block == m.block) {
        ++p.retries;
        ++s->retries_total;
        if (s->retries_total > cfg_.retry_max) {
          std::ostringstream os;
          os << "retry budget exhausted: " << int(s->retries_total)
             << " retries > retry_max " << cfg_.retry_max;
          fail_step(s, os.str());
        }
        s->net.push_back(Msg{p.kind, n, home_of(p.block), p.block, 0,
                             p.serial});
      } else {
        suc.invisible = true;
      }
      break;
    }
    default:
      fail_step(s, "internal: request kind reached reply delivery");
  }
  out->push_back(std::move(suc));
}

void Model::issue_ops(const State& s, std::vector<Successor>* out) const {
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    if (s.pending[n].active || s.ops_done[n] >= cfg_.ops_per_node) continue;
    for (std::uint32_t b = 0; b < cfg_.blocks; ++b) {
      const auto line = s.cache[n * cfg_.blocks + b];
      const auto cs = static_cast<CacheState>(line[0]);
      for (int is_store = 0; is_store <= 1; ++is_store) {
        Successor suc;
        suc.action.node = static_cast<std::uint8_t>(n);
        suc.action.block = static_cast<std::uint8_t>(b);
        suc.action.is_store = static_cast<std::uint8_t>(is_store);
        if (cs == CacheState::kM || (cs == CacheState::kS && !is_store)) {
          suc.state = s;
          if (is_store) {
            const std::uint8_t v = ++suc.state.store_seq[b];
            suc.state.cache[n * cfg_.blocks + b][1] = v;
            suc.state.committed[b] = v;
          }
          ++suc.state.ops_done[n];
          suc.action.type = Action::Type::kLocal;
        } else {
          const MsgKind kind = !is_store ? MsgKind::kReqS
                               : cs == CacheState::kS ? MsgKind::kReqUp
                                                      : MsgKind::kReqX;
          suc.state = s;
          const std::uint8_t serial = ++suc.state.req_seq[n];
          Pending& p = suc.state.pending[n];
          p = Pending{};
          p.active = 1;
          p.kind = std::uint8_t(kind);
          p.block = static_cast<std::uint8_t>(b);
          p.serial = serial;
          const Msg req{std::uint8_t(kind), static_cast<std::uint8_t>(n),
                        home_of(b), static_cast<std::uint8_t>(b), 0, serial};
          suc.state.net.push_back(req);
          suc.action.type = Action::Type::kIssue;
          suc.action.msg = req;
        }
        out->push_back(std::move(suc));
      }
    }
  }
}

void Model::kernel_steps(const State& s, std::vector<Successor>* out) const {
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    if (s.pending[n].active) continue;  // the processor is not blocked
    for (std::uint32_t b = 0; b < cfg_.blocks; ++b) {
      const auto line = s.cache[n * cfg_.blocks + b];
      if (static_cast<CacheState>(line[0]) == CacheState::kI) continue;
      // S-COMA style flush: release the copy and tell the home.
      if (cfg_.flush_notify() && !s.home[b].busy &&
          s.flushes_used < cfg_.max_flushes) {
        Successor suc;
        suc.state = s;
        ++suc.state.flushes_used;
        const bool owner =
            dir_rel(s, b, static_cast<std::uint8_t>(n)) == ReqRel::kOwner;
        dir_apply(&suc.state, b, ProtoMsg::kFlush,
                  static_cast<std::uint8_t>(n), nullptr, nullptr);
        if (owner) suc.state.home[b].mem_version = line[1];  // writeback
        suc.state.cache[n * cfg_.blocks + b] = {0, 0};
        suc.action.type = Action::Type::kFlush;
        suc.action.node = static_cast<std::uint8_t>(n);
        suc.action.block = static_cast<std::uint8_t>(b);
        out->push_back(std::move(suc));
      }
      // NUMA-style silent eviction: a clean copy just disappears.
      if (cfg_.silent_evict() &&
          static_cast<CacheState>(line[0]) == CacheState::kS &&
          s.evicts_used < cfg_.max_evicts) {
        Successor suc;
        suc.state = s;
        ++suc.state.evicts_used;
        suc.state.cache[n * cfg_.blocks + b] = {0, 0};
        suc.action.type = Action::Type::kEvict;
        suc.action.node = static_cast<std::uint8_t>(n);
        suc.action.block = static_cast<std::uint8_t>(b);
        out->push_back(std::move(suc));
      }
    }
  }
}

void Model::fault_steps(const State& s, std::vector<Successor>* out) const {
  if (!cfg_.faults) return;
  // A drop is absorbed by the transport's retransmission (the simulator's
  // use_net loop): the message stays in flight, the retry budget pays.
  if (s.drops_used < cfg_.max_drops && !s.net.empty()) {
    Successor suc;
    suc.state = s;
    ++suc.state.drops_used;
    ++suc.state.retries_total;
    if (suc.state.retries_total > cfg_.retry_max)
      fail_step(&suc.state, "retry budget exhausted by fabric drops");
    suc.action.type = Action::Type::kDrop;
    out->push_back(std::move(suc));
  }
  if (s.dups_used < cfg_.max_dups) {
    for (std::size_t i = 0; i < s.net.size(); ++i) {
      if (!is_request(s.net[i].kind)) continue;
      bool seen = false;
      for (std::size_t j = 0; j < i; ++j)
        if (s.net[j] == s.net[i]) { seen = true; break; }
      if (seen) continue;
      Successor suc;
      suc.state = s;
      ++suc.state.dups_used;
      suc.state.net.push_back(s.net[i]);
      suc.action.type = Action::Type::kDup;
      suc.action.msg = s.net[i];
      out->push_back(std::move(suc));
    }
  }
}

void Model::successors(const State& s, std::vector<Successor>* out) const {
  out->clear();
  issue_ops(s, out);
  for (std::size_t i = 0; i < s.net.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j)
      if (s.net[j] == s.net[i]) { seen = true; break; }
    if (seen) continue;  // identical in-flight copies: one delivery suffices
    State base = s;
    base.net.erase(base.net.begin() + static_cast<std::ptrdiff_t>(i));
    deliver(base, s.net[i], out);
  }
  for (std::uint32_t b = 0; b < cfg_.blocks; ++b) {
    if (s.home[b].busy || s.home[b].queue.empty()) continue;
    const Msg m = s.home[b].queue.front();
    State base = s;
    base.home[b].queue.erase(base.home[b].queue.begin());
    if (m.aux <= base.home_served[m.src]) {
      Successor suc;
      suc.state = std::move(base);
      suc.action.type = Action::Type::kProcess;
      suc.action.msg = m;
      suc.invisible = true;  // stale queued duplicate
      out->push_back(std::move(suc));
    } else {
      process_request(base, m, Action::Type::kProcess, out);
    }
  }
  kernel_steps(s, out);
  fault_steps(s, out);
}

std::string Model::check(const State& s) const {
  if (!s.violation.empty()) return s.violation;
  std::ostringstream os;
  for (std::uint32_t b = 0; b < cfg_.blocks; ++b) {
    std::uint32_t writer = kNoOwner;
    for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
      const auto line = s.cache[n * cfg_.blocks + b];
      const auto cs = static_cast<CacheState>(line[0]);
      if (cs == CacheState::kM) {
        if (writer != kNoOwner) {
          os << "SWMR violated on b" << b << ": n" << writer << " and n" << n
             << " both hold it modified";
          return os.str();
        }
        writer = n;
      }
    }
    if (writer != kNoOwner) {
      for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
        if (n == writer) continue;
        if (static_cast<CacheState>(s.cache[n * cfg_.blocks + b][0]) !=
            CacheState::kI) {
          os << "SWMR violated on b" << b << ": n" << writer
             << " holds it modified while n" << n << " holds a readable copy";
          return os.str();
        }
      }
    }
    // Data value: every readable copy carries the last *completed* store.
    for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
      const auto line = s.cache[n * cfg_.blocks + b];
      if (static_cast<CacheState>(line[0]) == CacheState::kI) continue;
      if (line[1] != s.committed[b]) {
        os << "data-value violated on b" << b << ": n" << n << " reads v"
           << int(line[1]) << " but the last completed store wrote v"
           << int(s.committed[b]);
        return os.str();
      }
    }
    // Directory structure: an exclusive entry's copyset is exactly its owner.
    if (s.dir_owner[b] != kNoOwner &&
        s.dir_sharers[b] != (1u << s.dir_owner[b])) {
      os << "directory invariant violated on b" << b
         << ": owner n" << int(s.dir_owner[b])
         << " recorded but copyset is 0x" << std::hex
         << int(s.dir_sharers[b]);
      return os.str();
    }
    // Agreement checks hold between transactions only.
    if (!s.home[b].busy) {
      for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
        const auto line = s.cache[n * cfg_.blocks + b];
        const auto cs = static_cast<CacheState>(line[0]);
        if (cs == CacheState::kM && s.dir_owner[b] != n) {
          os << "directory/owner disagreement on b" << b << ": n" << n
             << " holds it modified but the directory records "
             << (s.dir_owner[b] == kNoOwner
                     ? std::string("no owner")
                     : "owner n" + std::to_string(int(s.dir_owner[b])));
          return os.str();
        }
        if (cs != CacheState::kI && ((s.dir_sharers[b] >> n) & 1u) == 0) {
          os << "directory/owner disagreement on b" << b << ": n" << n
             << " holds a copy the directory does not record";
          return os.str();
        }
      }
      if (s.dir_owner[b] != kNoOwner) {
        const std::uint32_t o = s.dir_owner[b];
        if (static_cast<CacheState>(s.cache[o * cfg_.blocks + b][0]) !=
            CacheState::kM) {
          os << "directory/owner disagreement on b" << b
             << ": directory records owner n" << o
             << " but that node does not hold the block modified";
          return os.str();
        }
      } else if (s.home[b].mem_version != s.committed[b]) {
        os << "memory currency violated on b" << b << ": home holds v"
           << int(s.home[b].mem_version) << " with no dirty owner, but the "
           << "last completed store wrote v" << int(s.committed[b]);
        return os.str();
      }
    }
  }
  if (s.retries_total > cfg_.retry_max) {
    os << "retry budget exhausted: " << int(s.retries_total)
       << " retries > retry_max " << cfg_.retry_max;
    return os.str();
  }
  return "";
}

bool Model::final_state(const State& s) const {
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    if (s.ops_done[n] < cfg_.ops_per_node) return false;
    if (s.pending[n].active) return false;
  }
  if (!s.net.empty()) return false;
  for (const HomeBlock& hb : s.home)
    if (hb.busy || !hb.queue.empty()) return false;
  return true;
}

}  // namespace ascoma::check
