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
      ports_(cfg.nodes),
      jitter_p_(cfg.fault_jitter),
      jitter_max_(cfg.fault_jitter_cycles),
      rng_(cfg.effective_fault_seed()) {}

Cycle Network::draw_jitter(Cycle now, NodeId src, NodeId dst) {
  if (!rng_.chance(jitter_p_)) return Cycle{0};
  const Cycle jitter{rng_.range(1, jitter_max_.value())};
  ++jitters_;
  if (probe_)
    probe_->event(obs::EventKind::kFaultInjected, now, src, kInvalidPage,
                  dst.value(), jitter.value());
  return jitter;
}

}  // namespace ascoma::net
