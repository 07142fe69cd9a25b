#include "net/network.hh"

namespace ascoma::net {

namespace {

Cycle fabric_latency(const MachineConfig& cfg) {
  ASCOMA_CHECK(cfg.nodes > 0);
  ASCOMA_CHECK(cfg.switch_arity >= 2);
  const std::uint32_t stages = cfg.net_stages();
  return cfg.net_interface_cycles + stages * cfg.net_fall_through +
         (stages + 1) * cfg.net_propagation;
}

}  // namespace

Network::Network(const MachineConfig& cfg)
    : ni_cycles_(cfg.net_interface_cycles),
      fabric_(fabric_latency(cfg)),
      port_occupancy_(cfg.net_port_occupancy),
      retry_timeout_(cfg.retry_timeout),
      retry_max_attempts_(cfg.retry_max_attempts),
      ports_(cfg.nodes) {}

Network::Attempt Network::try_deliver(Cycle now, NodeId src, NodeId dst) {
  ASCOMA_CHECK(src.value() < ports_.size() && dst.value() < ports_.size());
  ++messages_;
  if (src == dst) return {now, false};  // loopback: NI shortcut, no fabric
  Cycle at_port = now + fabric_;
  if (plan_ && plan_->enabled()) {
    const fault::FaultDecision d = plan_->decide(now, src, dst);
    if (d.drop) {
      if (probe_)
        probe_->event(obs::EventKind::kFaultInjected, now, src, kInvalidPage,
                      static_cast<std::uint64_t>(fault::FaultKind::kDrop),
                      dst.value());
      return {at_port, true};  // died in the fabric: never touches the port
    }
    if (d.jitter > Cycle{0}) {
      at_port += d.jitter;
      if (probe_)
        probe_->event(obs::EventKind::kFaultInjected, now, src, kInvalidPage,
                      static_cast<std::uint64_t>(fault::FaultKind::kJitter),
                      dst.value(), d.jitter.value());
    }
    if (d.duplicate) {
      // The spurious copy occupies the destination input port ahead of the
      // real one; the receiver's NI discards it by sequence number.
      ports_[dst].acquire(at_port, port_occupancy_);
      if (probe_)
        probe_->event(obs::EventKind::kFaultInjected, now, src, kInvalidPage,
                      static_cast<std::uint64_t>(fault::FaultKind::kDuplicate),
                      dst.value());
    }
  }
  // The input port serializes arriving messages, then the destination NI
  // hands the payload to the DSM engine.
  return {ports_[dst].acquire_until(at_port, port_occupancy_) + ni_cycles_,
          false};
}

Cycle Network::deliver_retransmitting(Cycle now, NodeId src, NodeId dst) {
  for (std::uint32_t attempt = 1;; ++attempt) {
    const Attempt a = try_deliver(now, src, dst);
    if (!a.dropped) return a.arrival;
    ASCOMA_CHECK_MSG(attempt < retry_max_attempts_,
                     "network retransmission budget exhausted ("
                         << retry_max_attempts_ << " attempts, " << src
                         << " -> " << dst << ")");
    ++retransmits_;
    now += retry_timeout_;  // hardware retransmit after the loss timeout
  }
}

}  // namespace ascoma::net
