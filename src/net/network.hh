#pragma once

// Interconnect timing model.  A message from src to dst experiences
//
//   source NI  +  stages * fall-through  +  (stages+1) * propagation
//   +  destination input-port occupancy  +  destination NI
//
// Only destination input-port contention is modeled (each node has one input
// port Resource), matching the paper: "our network model only accounts for
// input port contention".  The first three terms are the same for every pair
// of distinct nodes, so the constructor folds them into one fabric constant
// (MachineConfig::net_stages() gives the stage count of the indirect
// k-ary switch network).
//
// Fault injection: an attached fault::FaultPlan may drop, duplicate, or
// jitter-delay individual messages.  try_deliver() performs one attempt and
// reports a drop to the caller (protocol layers run their own backoff);
// deliver() is the reliable primitive used by fire-and-forget traffic — it
// retransmits a dropped message after `retry_timeout` cycles, up to the
// configured attempt backstop.  deliver() branches on faulty() once: with no
// plan attached (or a disabled one) it takes the inline fast path, which is
// one port reservation plus the fabric constant and consults no plan, so
// zero-fault runs are bit-identical to a build without the fault layer.
// try_deliver() through a plan that never fires times every message
// exactly as the fast path does.

#include <cstdint>
#include <vector>

#include "common/annotate.hh"
#include "common/check.hh"
#include "common/config.hh"
#include "common/types.hh"
#include "fault/plan.hh"
#include "obs/probe.hh"
#include "sim/resource.hh"
#include "store/codec.hh"

namespace ascoma::net {

class Network {
 public:
  explicit Network(const MachineConfig& cfg);

  /// Attach a fault plan (nullptr detaches).  Non-owning.
  void set_fault_plan(fault::FaultPlan* plan) { plan_ = plan; }

  /// Attach the run's probe (nullptr detaches); injected faults are
  /// reported as kFaultInjected events.
  void set_probe(obs::Probe* probe) { probe_ = probe; }

  /// One delivery attempt src -> dst injected at `now`.
  struct Attempt {
    Cycle arrival{0};   ///< delivery cycle, or (when dropped) the cycle the
                         ///< message died in the fabric
    bool dropped = false;
  };
  ASCOMA_HOT_PATH Attempt try_deliver(Cycle now, NodeId src, NodeId dst);

  /// Reliable delivery: retransmits on drop every `retry_timeout` cycles;
  /// returns the arrival cycle (after the destination port and NI have
  /// processed it).  Throws CheckFailure once the attempt backstop is hit.
  Cycle deliver(Cycle now, NodeId src, NodeId dst) {
    if (faulty()) return deliver_retransmitting(now, src, dst);
    return deliver_fault_free(now, src, dst);
  }

  /// deliver() for a caller that has just seen !faulty(): no plan is
  /// consulted.  The input port serializes arriving messages, then the
  /// destination NI hands the payload to the DSM engine; a src==dst
  /// loopback takes the NI shortcut and never enters the fabric.
  Cycle deliver_fault_free(Cycle now, NodeId src, NodeId dst) {
    ASCOMA_CHECK(src.value() < ports_.size() && dst.value() < ports_.size());
    ++messages_;
    if (src == dst) return now;
    return ports_[dst].acquire_until(now + fabric_, port_occupancy_) +
           ni_cycles_;
  }

  /// Uncontended one-way latency between distinct nodes (for calibration).
  Cycle min_one_way_latency() const {
    return fabric_ + port_occupancy_ + ni_cycles_;
  }

  /// Uncontended latency for the specific pair — 0 for the src==dst loopback
  /// (which never enters the fabric), else min_one_way_latency().  The
  /// profiler uses this to split a delivery into fabric vs queueing cycles.
  Cycle uncontended_latency(NodeId src, NodeId dst) const {
    return src == dst ? Cycle{0} : min_one_way_latency();
  }

  /// Sender loss-detection timeout used by deliver() and protocol retries.
  Cycle retry_timeout() const { return retry_timeout_; }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t retransmits() const { return retransmits_; }
  const sim::Resource& input_port(NodeId n) const { return ports_[n]; }
  const fault::FaultPlan* fault_plan() const { return plan_; }

  /// True when an enabled fault plan is attached (messages may fault).
  bool faulty() const { return plan_ != nullptr && plan_->enabled(); }

  // Checkpoint serialization: port resources + counters.  The fault plan is
  // owned (and serialized) by the machine, not here (encode/decode adjacent —
  // pairing check).
  void encode(store::Encoder& e) const {
    e.u64(ports_.size());
    for (const sim::Resource& p : ports_) p.encode(e);
    e.u64(messages_);
    e.u64(retransmits_);
  }
  void decode(store::Decoder& d) {
    if (d.u64() != ports_.size())
      throw store::CodecError("network geometry mismatch");
    for (sim::Resource& p : ports_) p.decode(d);
    messages_ = d.u64();
    retransmits_ = d.u64();
  }

 private:
  /// deliver() with an enabled plan: try_deliver() until an attempt lands.
  Cycle deliver_retransmitting(Cycle now, NodeId src, NodeId dst);

  Cycle ni_cycles_;
  /// Source NI + stages * fall-through + (stages+1) * propagation: injection
  /// to the destination input port, identical for every distinct pair.
  Cycle fabric_;
  Cycle port_occupancy_;
  Cycle retry_timeout_;
  std::uint32_t retry_max_attempts_;
  IdVector<NodeId, sim::Resource> ports_;
  std::uint64_t messages_ = 0;
  std::uint64_t retransmits_ = 0;
  fault::FaultPlan* plan_ = nullptr;  // non-owning
  obs::Probe* probe_ = nullptr;       // non-owning
};

}  // namespace ascoma::net
