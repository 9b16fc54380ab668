// box_build: the paper's worst case (Fig. 5b, make +35 %). A closed loop of
// jobs, one at a time; each job is a fresh visitor whose box runs the make
// syscall mix of sim/app_profile (a stat/open/1-byte-read storm over a
// ~300-file, 16-directory tree under one governing ACL, 1-byte log I/O and
// a dozen exec'd compilers). Sandbox traps, VFS path resolution and ACL
// checks do nearly all the work; Chirp does none.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sim/app_profile.h"
#include "util/fs.h"
#include "util/rand.h"
#include "util/spawn.h"
#include "vfs/local_driver.h"
#include "workloads.h"

namespace perfbench {

using namespace ibox;

namespace {

// A run holds ~40 jobs, cut into slices of ~9: p75 is about the highest
// percentile with two jobs of a slice beyond it.
constexpr double kTailQuantile = 0.75;

// Every visitor of the pool may build in the tree.
constexpr const char* kTreeAcl = "globus:/O=EDG/* rwlax\n";

Status stamp_acl_recursive(const std::string& dir, const std::string& text) {
  IBOX_RETURN_IF_ERROR(overwrite_file(dir + "/.__acl", text));
  auto names = list_dir(dir);
  if (!names.ok()) return names.error();
  for (const auto& name : *names) {
    const std::string child = dir + "/" + name;
    if (dir_exists(child)) IBOX_RETURN_IF_ERROR(stamp_acl_recursive(child, text));
  }
  return Status::Ok();
}

// The child prints its checksum as one decimal line; 0 when malformed.
uint64_t parse_checksum(const std::string& out) {
  char* end = nullptr;
  const uint64_t value = std::strtoull(out.c_str(), &end, 10);
  return (end != out.c_str() && *end == '\n') ? value : 0;
}

std::vector<std::string> child_argv(const BuildTree& tree,
                                    const std::string& self) {
  return {self, "--child-build", tree.work, std::to_string(tree.seed)};
}

}  // namespace

Result<BuildTree> stage_build_tree(const std::string& root, uint64_t seed) {
  BuildTree tree{root + "/box_build/w", seed};
  auto profile = profile_by_name("make");
  if (!profile.ok()) return profile.error();
  // prepare_profile rewrites the same paths for every seed, so the tree's
  // files are reused rather than recreated.
  IBOX_RETURN_IF_ERROR(prepare_profile(*profile, tree.work, seed));
  IBOX_RETURN_IF_ERROR(stamp_acl_recursive(tree.work, kTreeAcl));
  return tree;
}

Result<BuildJob> run_build_job(const BuildTree& tree, const Identity& visitor,
                               const std::string& self,
                               const std::string& state_parent,
                               const SandboxConfig& config, DriverProbe* probe,
                               SpanLog* spans, uint64_t parent_span) {
  ScratchDir state(state_parent, "box");
  if (!state.ok()) return Error(EIO);
  BoxOptions box_options;
  box_options.state_dir = state.path();

  BuildJob job;
  const int64_t t0 = now_ns();
  auto box = BoxContext::Create(visitor, box_options);
  const int64_t t1 = now_ns();
  if (!box.ok()) return box.error();
  job.create_ns = t1 - t0;
  if (spans != nullptr) spans->add(parent_span, "box.create", t0, t1);

  if (probe != nullptr) {
    // The work tree through the timing decorator: a LocalDriver exported at
    // the tree's own path, so box paths and ACLs are unchanged.
    auto local = std::make_unique<LocalDriver>(tree.work);
    local->acl_store().cache().set_metrics(config.metrics);
    IBOX_RETURN_IF_ERROR((*box)->mount(
        tree.work, std::make_unique<TimingDriver>(std::move(local), *probe)));
  }
  const uint64_t run_span = spans != nullptr ? spans->next_id() : 0;
  if (probe != nullptr) {
    probe->spans = spans;
    probe->parent = run_span;
  }
  const int64_t t2 = now_ns();
  auto run = run_supervised(**box, child_argv(tree, self), config);
  const int64_t t3 = now_ns();
  if (spans != nullptr) {
    spans->add(run_span, parent_span, "supervisor.run", t2, t3);
  }
  if (!run.ok()) return run.error();
  job.run_ns = t3 - t2;
  job.exit_code = run->exit_code;
  job.checksum = parse_checksum(run->out);
  job.stats = run->stats;
  return job;
}

Result<uint64_t> run_build_native(const BuildTree& tree,
                                  const std::string& self) {
  auto run = run_capture(child_argv(tree, self));
  if (!run.ok()) return run.error();
  if (run->exit_code != 0) return Error(ECHILD);
  const uint64_t checksum = parse_checksum(run->out);
  if (checksum == 0) return Error(EPROTO);
  return checksum;
}

namespace {

struct Traced {
  MetricsRegistry registry;
  DriverProbe probe;
  SpanLog spans;
  SandboxTotals totals;
  std::vector<double> create_us;
  int64_t self_ns = 0;
};

}  // namespace

Result<RunResult> run_box_build(const Options& o) {
  // ---- set-up: stage the tree, take the native reference checksum, and
  // warm up with one boxed job; repeated, median reported ----
  std::optional<BuildTree> tree;
  uint64_t reference = 0;
  uint64_t digest = 0;
  std::vector<Stopwatch> setup_rounds(kSetupRounds);
  for (Stopwatch& round : setup_rounds) {
    tree.reset();
    round.start();
    auto staged = stage_build_tree(o.work_root, o.seed);
    if (!staged.ok()) {
      std::fprintf(stderr, "box_build: staging failed: %s\n",
                   staged.error().message().c_str());
      return staged.error();
    }
    tree = std::move(*staged);
    round.stop();
    digest = digest_tree(tree->work);  // untimed: a report, not set-up
    round.start();
    auto native = run_build_native(*tree, o.self);
    if (!native.ok()) {
      std::fprintf(stderr, "box_build: native run failed: %s\n",
                   native.error().message().c_str());
      return native.error();
    }
    reference = *native;
    auto warm = run_build_job(*tree, visitor_identity(o.seed), o.self,
                              o.work_root, SandboxConfig{}, nullptr, nullptr, 0);
    if (!warm.ok() || warm->exit_code != 0 || warm->checksum != reference) {
      std::fprintf(stderr, "box_build: warm-up job failed\n");
      return Error(EIO);
    }
    round.stop();
  }
  const double setup_median = report_setup("box_build", setup_rounds);
  std::printf("box_build: seed %" PRIu64 ", input digest %016" PRIx64
              ", reference checksum %" PRIu64 "\n",
              o.seed, digest, reference);

  // Visitors, drawn before timing starts.
  std::vector<uint64_t> visitors(4096);
  Rng pick(o.seed ^ 0xb0c5b0c5ull);
  for (auto& v : visitors) v = pick.below(512);

  RunResult result;
  size_t next_visitor = 0;
  // One closed loop of jobs for `seconds`; `traced` attaches the registry,
  // the timing decorator and spans.
  auto measure = [&](double seconds, Traced* traced) {
    SandboxConfig config;
    if (traced != nullptr) config.metrics = &traced->registry;
    return run_jobs(seconds, kTailQuantile, result, [&]() -> bool {
      const Identity visitor =
          visitor_identity(visitors[next_visitor++ % visitors.size()]);
      const uint64_t job_span = traced ? traced->spans.next_id() : 0;
      const int64_t busy0 = traced ? traced->probe.busy_ns : 0;
      const int64_t start = now_ns();
      auto job = run_build_job(*tree, visitor, o.self, o.work_root, config,
                               traced ? &traced->probe : nullptr,
                               traced ? &traced->spans : nullptr, job_span);
      const int64_t end = now_ns();
      if (!job.ok() || job->exit_code != 0 || job->checksum != reference) {
        std::fprintf(stderr, "box_build: job failed: %s\n",
                     !job.ok() ? job.error().message().c_str()
                     : job->exit_code != 0 ? "child exit status"
                                           : "checksum differs from native");
        return false;
      }
      if (traced != nullptr) {
        traced->spans.add(job_span, 0, "job", start, end);
        traced->totals.add(job->stats);
        traced->create_us.push_back(static_cast<double>(job->create_ns) / 1e3);
        traced->self_ns += job->run_ns - (traced->probe.busy_ns - busy0);
      }
      return true;
    });
  };

  if (!o.trace) {
    result.metrics = measure(o.seconds, nullptr);
    result.metrics["setup_s"] = setup_median;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const MetricValues untraced = measure(o.seconds / 2, nullptr);
  Traced traced;
  const MetricValues traced_e2e = measure(o.seconds / 2, &traced);
  MetricValues& m = result.metrics;
  const uint64_t jobs = traced.totals.jobs;
  const double per = jobs > 0 ? 1.0 / static_cast<double>(jobs) : 0.0;
  const MetricsSnapshot snapshot = traced.registry.snapshot();
  fill_sandbox_metrics(traced.totals, snapshot, m);
  fill_box_cache_metrics(snapshot, jobs, m);
  m["box.create_us"] = median(traced.create_us);
  m["sandbox.self_us_per_job"] = static_cast<double>(traced.self_ns) / 1e3 * per;
  m["vfs.driver_calls_per_job"] = static_cast<double>(traced.probe.calls) * per;
  m["vfs.driver_us_per_job"] =
      static_cast<double>(traced.probe.busy_ns) / 1e3 * per;
  std::vector<double> native_s;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    auto native = run_build_native(*tree, o.self);
    if (native.ok() && *native == reference) native_s.push_back(seconds_since(t0));
  }
  m["native.job_p50_s"] = median(native_s);
  std::printf("boxed/native job time: %.3f / %.3f s (native n=%zu)\n",
              traced_e2e.at("latency_p50_ms") / 1e3, median(native_s),
              native_s.size());
  report_overhead(untraced, traced_e2e, m);
  const std::string span_path = o.spans_dir + "/spans-box_build.jsonl";
  std::printf("spans: %zu written to %s\n",
              write_spans(span_path, {&traced.spans}), span_path.c_str());
  return result;
}

}  // namespace perfbench
