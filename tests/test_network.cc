#include "net/network.hh"

#include <gtest/gtest.h>

namespace ascoma::net {
namespace {

TEST(Network, MinLatencyMatchesConfigFormula) {
  MachineConfig cfg;
  Network n(cfg);
  EXPECT_EQ(n.min_one_way_latency(), cfg.net_one_way_latency());
  // With defaults: 10 + 2*4 + 3*2 + 8 + 10 = 42.
  EXPECT_EQ(n.min_one_way_latency(), Cycle{42});
}

TEST(Network, DeliverUncontendedEqualsMinLatency) {
  MachineConfig cfg;
  Network n(cfg);
  EXPECT_EQ(n.deliver(Cycle{100}, NodeId{0}, NodeId{1}), Cycle{100} + n.min_one_way_latency());
}

TEST(Network, LoopbackIsFree) {
  MachineConfig cfg;
  Network n(cfg);
  EXPECT_EQ(n.deliver(Cycle{100}, NodeId{2}, NodeId{2}), Cycle{100});
}

TEST(Network, InputPortContentionSerializes) {
  MachineConfig cfg;
  Network n(cfg);
  const Cycle first = n.deliver(Cycle{0}, NodeId{0}, NodeId{5});
  const Cycle second = n.deliver(Cycle{0}, NodeId{1}, NodeId{5});  // same destination port
  EXPECT_EQ(second, first + cfg.net_port_occupancy);
  // A message to a different destination is unaffected.
  const Cycle other = n.deliver(Cycle{0}, NodeId{2}, NodeId{6});
  EXPECT_EQ(other, Cycle{0} + n.min_one_way_latency());
}

TEST(Network, CountsMessages) {
  MachineConfig cfg;
  Network n(cfg);
  n.deliver(Cycle{0}, NodeId{0}, NodeId{1});
  n.deliver(Cycle{0}, NodeId{1}, NodeId{0});
  n.deliver(Cycle{0}, NodeId{3}, NodeId{3});  // loopback still counted
  EXPECT_EQ(n.messages(), 3u);
}

// A delivery holds only the destination's input port: it stays busy until
// the message has crossed it, and the source's port is untouched.
TEST(Network, PortUtilizationTracked) {
  MachineConfig cfg;
  Network n(cfg);
  const Cycle arrival = n.deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(n.input_port(NodeId{1}).free_at(),
            arrival - cfg.net_interface_cycles);
  EXPECT_EQ(n.input_port(NodeId{0}).free_at(), Cycle{0});
  EXPECT_EQ(n.input_port(NodeId{2}).free_at(), Cycle{0});
}

}  // namespace
}  // namespace ascoma::net
