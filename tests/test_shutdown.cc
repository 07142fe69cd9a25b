// Graceful-shutdown flag (common/shutdown.hh): the test hook that stands in
// for a real SIGINT/SIGTERM delivery.

#include <gtest/gtest.h>

#include <csignal>

#include "common/shutdown.hh"

namespace ascoma {
namespace {

TEST(Shutdown, TestHookSetsAndClearsTheFlag) {
  set_shutdown_requested(0);
  EXPECT_FALSE(shutdown_requested());
  EXPECT_FALSE(shutdown_flag()->load());
  set_shutdown_requested(SIGTERM);
  EXPECT_TRUE(shutdown_requested());
  EXPECT_TRUE(shutdown_flag()->load());
  EXPECT_EQ(shutdown_signal(), SIGTERM);
  set_shutdown_requested(0);
  EXPECT_FALSE(shutdown_requested());
}

}  // namespace
}  // namespace ascoma
