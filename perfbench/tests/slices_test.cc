// The job loop's slice arithmetic: jobs cut in order into slices of
// consecutive jobs, each figure the median over the slices, so a slow
// stretch confined to a few slices does not move it.
#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

// `n` back-to-back jobs of `seconds` each, from t = 0.
std::vector<JobTime> back_to_back(const std::vector<double>& seconds) {
  std::vector<JobTime> jobs;
  double t = 0;
  for (double s : seconds) {
    jobs.push_back({t, t + s});
    t += s;
  }
  return jobs;
}

TEST(SlicesTest, MedianOfQuantilesSkipsEmptySlices) {
  EXPECT_DOUBLE_EQ(median_of_quantiles({{1, 2, 3}, {}, {5}, {7, 9}}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(median_of_quantiles({}, 0.5), 0.0);
}

TEST(SlicesTest, OneSlowSliceDoesNotMoveTheFigures) {
  // 72 jobs make nine slices of eight; the fourth slice is ten times slower.
  std::vector<double> seconds(72, 0.1);
  for (size_t i = 24; i < 32; ++i) seconds[i] = 1.0;
  MetricValues m;
  fill_job_metrics(back_to_back(seconds), 0.9, /*cpu_s=*/36.0, m);
  EXPECT_NEAR(m.at("latency_p50_ms"), 100.0, 1e-9);
  EXPECT_NEAR(m.at("latency_tail_ms"), 100.0, 1e-9);
  EXPECT_NEAR(m.at("throughput_per_s"), 10.0, 1e-9);
  EXPECT_NEAR(m.at("cpu_ms_per_op"), 500.0, 1e-9);
}

TEST(SlicesTest, FewJobsMakeOneSlice) {
  // Fewer than two slices' worth: all jobs pooled in one slice.
  MetricValues m;
  fill_job_metrics(back_to_back({1.0, 2.0, 3.0, 4.0, 5.0}), 0.75, 1.0, m);
  EXPECT_NEAR(m.at("latency_p50_ms"), 3000.0, 1e-9);
  EXPECT_NEAR(m.at("latency_tail_ms"), 4000.0, 1e-9);
  EXPECT_NEAR(m.at("throughput_per_s"), 5.0 / 15.0, 1e-12);
}

TEST(SlicesTest, SliceRateCountsTheGapsBetweenJobs) {
  // Two slices of eight; in the second, each job is followed by an equal
  // idle gap, so it completes jobs at half the rate.
  std::vector<JobTime> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back({i * 1.0, i * 1.0 + 1.0});
  for (int i = 0; i < 8; ++i) jobs.push_back({8.0 + i * 2.0, 9.0 + i * 2.0});
  MetricValues m;
  fill_job_metrics(jobs, 0.9, 0.0, m);
  EXPECT_NEAR(m.at("latency_p50_ms"), 1000.0, 1e-9);
  EXPECT_NEAR(m.at("throughput_per_s"), (1.0 + 8.0 / 15.0) / 2, 1e-12);
  EXPECT_DOUBLE_EQ(m.at("cpu_ms_per_op"), 0.0);
}

TEST(SlicesTest, NoJobsReadAsZero) {
  MetricValues m;
  fill_job_metrics({}, 0.9, 1.0, m);
  EXPECT_DOUBLE_EQ(m.at("latency_p50_ms"), 0.0);
  EXPECT_DOUBLE_EQ(m.at("throughput_per_s"), 0.0);
  EXPECT_DOUBLE_EQ(m.at("cpu_ms_per_op"), 0.0);
}

}  // namespace
}  // namespace perfbench
