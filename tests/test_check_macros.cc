// ASCOMA_CHECK / ASCOMA_CHECK_MSG (src/common/check.hh): the condition runs
// inline exactly once, the message operands run only on failure, and the
// thrown text has one fixed format.

#include "common/check.hh"

#include <gtest/gtest.h>

#include <string>

namespace ascoma {
namespace {

/// The what() text of the CheckFailure `fn` throws ("" when it does not).
template <typename Fn>
std::string failure_text(Fn fn) {
  try {
    fn();
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

std::string at(int line) {
  return std::string(" at ") + __FILE__ + ":" + std::to_string(line);
}

TEST(Check, MessageOperandsRunOnlyOnFailure) {
  int formatted = 0;
  const auto operand = [&formatted] {
    ++formatted;
    return 7;
  };
  const int two = formatted + 2;
  ASCOMA_CHECK_MSG(two == 2, "passing check " << operand());
  EXPECT_EQ(formatted, 0);
  EXPECT_THROW(ASCOMA_CHECK_MSG(two == 3, "failing check " << operand()),
               CheckFailure);
  EXPECT_EQ(formatted, 1);
}

TEST(Check, ConditionRunsOnce) {
  int evaluated = 0;
  ASCOMA_CHECK(++evaluated > 0);
  EXPECT_EQ(evaluated, 1);
  ASCOMA_CHECK_MSG(++evaluated > 0, "unused");
  EXPECT_EQ(evaluated, 2);
  EXPECT_THROW(ASCOMA_CHECK(++evaluated < 0), CheckFailure);
  EXPECT_EQ(evaluated, 3);
  EXPECT_THROW(ASCOMA_CHECK_MSG(++evaluated < 0, "m"), CheckFailure);
  EXPECT_EQ(evaluated, 4);
}

TEST(Check, FailureTextUnchanged) {
  const int v = 42;
  int line = 0;
  std::string text = failure_text([&] {
    line = __LINE__; ASCOMA_CHECK_MSG(v < 1, "value " << v << " too big");
  });
  EXPECT_EQ(text, "ASCOMA_CHECK failed: v < 1" + at(line) +
                      " — value 42 too big");

  text = failure_text([&] { line = __LINE__; ASCOMA_CHECK(v == 0); });
  EXPECT_EQ(text, "ASCOMA_CHECK failed: v == 0" + at(line));

  // An empty message adds no separator.
  text = failure_text([&] { line = __LINE__; ASCOMA_CHECK_MSG(v == 0, ""); });
  EXPECT_EQ(text, "ASCOMA_CHECK failed: v == 0" + at(line));
}

}  // namespace
}  // namespace ascoma
