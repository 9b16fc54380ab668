// The traced runs measure the same program as the untraced ones: a
// box_build job served through the TimingDriver gives the same checksum and
// the same supervisor counts as one served directly.
#include <gtest/gtest.h>

#include "util/path.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(TimingDriverTest, DecoratedBuildJobMatchesUndecorated) {
  ScratchDir root(::testing::TempDir(), "perfbench-test");
  ASSERT_TRUE(root.ok());
  auto tree = stage_build_tree(root.path(), 7);
  ASSERT_TRUE(tree.ok());
  const std::string self = PERFBENCH_BINARY;
  const ibox::Identity visitor = visitor_identity(3);

  auto native = run_build_native(*tree, self);
  ASSERT_TRUE(native.ok());

  auto plain = run_build_job(*tree, visitor, self, root.path(),
                             ibox::SandboxConfig{}, nullptr, nullptr, 0);
  ASSERT_TRUE(plain.ok());
  DriverProbe probe;
  SpanLog spans;
  auto timed = run_build_job(*tree, visitor, self, root.path(),
                             ibox::SandboxConfig{}, &probe, &spans, 0);
  ASSERT_TRUE(timed.ok());

  EXPECT_EQ(plain->exit_code, 0);
  EXPECT_EQ(timed->exit_code, 0);
  EXPECT_EQ(plain->checksum, *native);
  EXPECT_EQ(timed->checksum, *native);

  const ibox::SupervisorStats& a = plain->stats;
  const ibox::SupervisorStats& b = timed->stats;
  // Every call the box handled matches exactly. Pass-through counts vary
  // by a few between any two runs of the same job (timing-dependent
  // blocking calls), so they get a small slack.
  EXPECT_EQ(a.syscalls_trapped - a.syscalls_passed,
            b.syscalls_trapped - b.syscalls_passed);
  EXPECT_NEAR(static_cast<double>(a.syscalls_passed),
              static_cast<double>(b.syscalls_passed), 8);
  EXPECT_EQ(a.syscalls_nullified, b.syscalls_nullified);
  EXPECT_EQ(a.syscalls_rewritten, b.syscalls_rewritten);
  EXPECT_EQ(a.denials, b.denials);
  EXPECT_EQ(a.bytes_via_peekpoke, b.bytes_via_peekpoke);
  EXPECT_EQ(a.bytes_via_processvm, b.bytes_via_processvm);
  EXPECT_EQ(a.bytes_via_channel, b.bytes_via_channel);
  EXPECT_EQ(a.processes_seen, b.processes_seen);
  EXPECT_EQ(a.execs, b.execs);

  // The decorator saw the tree's traffic and recorded it as spans.
  EXPECT_GT(probe.calls, 0u);
  EXPECT_GT(probe.bytes, 0u);
  size_t driver_spans = 0;
  for (const Span& s : spans.spans()) {
    driver_spans += std::string_view(s.name).rfind("driver.", 0) == 0;
  }
  EXPECT_EQ(driver_spans, probe.calls);
}

}  // namespace
}  // namespace perfbench
