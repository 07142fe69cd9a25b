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
  n.reset();
  EXPECT_EQ(n.messages(), 0u);
}

TEST(Network, PortUtilizationTracked) {
  MachineConfig cfg;
  Network n(cfg);
  n.deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(n.input_port(NodeId{1}).transactions(), 1u);
  EXPECT_EQ(n.input_port(NodeId{0}).transactions(), 0u);
}

}  // namespace
}  // namespace ascoma::net
