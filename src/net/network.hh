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
// k-ary switch network).  The fabric is lossless, as in the paper.
//
// Jitter: with MachineConfig::fault_jitter > 0, each message that enters the
// fabric is, with that probability, delayed by a uniform
// 1..fault_jitter_cycles cycles before it reaches the destination port
// (Alameldeen & Wood's perturbation for measuring run-to-run variability).
// The draws come from a dedicated RNG stream
// (MachineConfig::effective_fault_seed), so the same seed replays the same
// delays.  With jitter off no draw is made and deliver() is one port
// reservation plus the fabric constant.

#include <cstdint>

#include "common/annotate.hh"
#include "common/check.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "obs/probe.hh"
#include "sim/resource.hh"

namespace ascoma::net {

class Network {
 public:
  explicit Network(const MachineConfig& cfg);

  /// Attach the run's probe (nullptr detaches); jittered messages are
  /// reported as kFaultInjected events.
  void set_probe(obs::Probe* probe) { probe_ = probe; }

  /// Deliver one message src -> dst injected at `now`; returns the arrival
  /// cycle (after the destination port and NI have processed it).  The input
  /// port serializes arriving messages, then the destination NI hands the
  /// payload to the DSM engine; a src==dst loopback takes the NI shortcut
  /// and never enters the fabric.
  ASCOMA_HOT_PATH Cycle deliver(Cycle now, NodeId src, NodeId dst) {
    ASCOMA_CHECK(src.value() < ports_.size() && dst.value() < ports_.size());
    ++messages_;
    if (src == dst) return now;
    Cycle at_port = now + fabric_;
    if (jitter_p_ > 0.0) at_port += draw_jitter(now, src, dst);
    return ports_[dst].acquire_until(at_port, port_occupancy_) + ni_cycles_;
  }

  /// deliver() under the name the benchmark's network drive calls.
  struct Delivery {
    Cycle arrival{0};
  };
  Delivery try_deliver(Cycle now, NodeId src, NodeId dst) {
    return {deliver(now, src, dst)};
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

  std::uint64_t messages() const { return messages_; }
  /// Messages delayed by jitter so far.
  std::uint64_t jitters() const { return jitters_; }
  const sim::Resource& input_port(NodeId n) const { return ports_[n]; }

 private:
  /// One jitter draw for a message entering the fabric: 0, or a delay in
  /// [1, jitter_max_] with probability jitter_p_.
  Cycle draw_jitter(Cycle now, NodeId src, NodeId dst);

  Cycle ni_cycles_;
  /// Source NI + stages * fall-through + (stages+1) * propagation: injection
  /// to the destination input port, identical for every distinct pair.
  Cycle fabric_;
  Cycle port_occupancy_;
  IdVector<NodeId, sim::Resource> ports_;
  std::uint64_t messages_ = 0;
  double jitter_p_;
  Cycle jitter_max_;
  Rng rng_;
  std::uint64_t jitters_ = 0;
  obs::Probe* probe_ = nullptr;  // non-owning
};

}  // namespace ascoma::net
