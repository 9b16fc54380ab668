// The closed-loop phase's per-window counts: whole windows only, and no
// completion outside them is counted, however late it lands.
#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

TEST(WindowCountsTest, KeepsOnlyWholeWindows) {
  EXPECT_EQ(WindowCounts(0, 1000, 250).counts().size(), 4u);
  EXPECT_EQ(WindowCounts(0, 999, 250).counts().size(), 3u);
  EXPECT_EQ(WindowCounts(100, 349, 250).counts().size(), 0u);
  EXPECT_EQ(WindowCounts(500, 100, 250).counts().size(), 0u);
  EXPECT_TRUE(WindowCounts().counts().empty());
}

TEST(WindowCountsTest, CountsByWindowAndDropsOutsiders) {
  WindowCounts windows(1000, 2000, 250);  // [1000, 1250) ... [1750, 2000)
  for (int64_t at : {1000, 1249, 1250, 1999}) windows.add(at);
  // Before the start, at the end, and far past it (an op that began before
  // the end and completed much later).
  for (int64_t at : {999, 2000, 2249, 2250, 251000}) windows.add(at);
  EXPECT_EQ(windows.counts(), (std::vector<uint64_t>{2, 1, 0, 1}));
}

TEST(WindowCountsTest, PartialLastWindowIsDropped) {
  WindowCounts windows(0, 1100, 250);  // 4 whole windows; [1000, 1100) is not
  windows.add(999);
  windows.add(1000);
  windows.add(1099);
  EXPECT_EQ(windows.counts(), (std::vector<uint64_t>{0, 0, 0, 1}));
}

}  // namespace
}  // namespace perfbench
