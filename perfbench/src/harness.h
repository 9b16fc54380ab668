// Shared pieces of the perfbench harness: run options, the metric names a
// run reports, sample statistics, spans, and the box-job plumbing used by
// the two boxed workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "auth/sim_gsi.h"
#include "box/box_context.h"
#include "chirp/server.h"
#include "chirp/session.h"
#include "identity/identity.h"
#include "obs/metrics.h"
#include "sandbox/supervisor.h"
#include "util/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time, user and system, of this process and of the descendants it has
// waited for, in seconds. The guest kernel leaves out the time the
// hypervisor gave to other tenants, so CPU time moves far less with the
// shared host's load than wall time does.
double cpu_seconds();

// Wall and CPU seconds summed over the stretches between start() and stop().
class Stopwatch {
 public:
  void start() {
    wall0_ = Clock::now();
    cpu0_ = cpu_seconds();
  }
  void stop() {
    wall_s_ += seconds_since(wall0_);
    cpu_s_ += cpu_seconds() - cpu0_;
  }
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0;
  double wall_s_ = 0;
  double cpu_s_ = 0;
};

// Set-up is repeated this many times per run and its median reported, so a
// single slow moment does not decide setup_s.
inline constexpr int kSetupRounds = 7;

// Prints every set-up round's wall and CPU time and returns the median CPU
// time: setup_s.
double report_setup(const char* workload, const std::vector<Stopwatch>& rounds);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_root;  // staged inputs and box state: a tmpfs if it can
  std::string spans_dir;  // where the traced run writes its spans
  std::string self;       // this binary; the boxed workloads exec it
};

// Every name a run may report, with its unit. The untraced run prints each
// end-to-end metric; the traced run prints each per-layer metric, with 0
// for layers the workload does not exercise. BENCHMARK.json lists the same
// names. The wall-clock metrics are printed by the untraced run beside the
// end-to-end ones, and reported by the traced run as wall.<name>, but not
// gated: on the shared host they moved 1.5-4x with other tenants' load.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& wall_clock_metrics();
const std::vector<MetricDef>& per_layer_metrics();

// Values by metric name; a workload fills the names it measures.
using MetricValues = std::map<std::string, double>;

// What one workload run hands back to main().
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // False when the measurement itself is unusable (the open-loop generator
  // fell behind), as distinct from a slow result.
  bool valid = true;
  MetricValues metrics;
};

// The quantile q (0..1) of `values`, linearly interpolated between closest
// ranks. Empty input reads as 0.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// The median, over the non-empty slices, of each slice's quantile q. A run's
// samples are cut into slices of time (or of consecutive jobs) so that a
// slow stretch of the shared host, a few seconds of another tenant's load,
// moves the slices it falls in rather than the run's figure. Empty input
// reads as 0.
double median_of_quantiles(const std::vector<std::vector<double>>& slices,
                           double q);

// Events counted per fixed-length window over [start_ns, end_ns). Only whole
// windows are kept: an event before the start, or at or after the end of the
// last whole window (an operation that began in time but completed late),
// is not counted.
class WindowCounts {
 public:
  WindowCounts() = default;
  WindowCounts(int64_t start_ns, int64_t end_ns, int64_t window_ns)
      : start_ns_(start_ns),
        window_ns_(window_ns),
        counts_(end_ns > start_ns
                    ? static_cast<size_t>((end_ns - start_ns) / window_ns)
                    : 0,
                0) {}

  void add(int64_t at_ns) {
    if (at_ns < start_ns_) return;
    const auto w = static_cast<uint64_t>((at_ns - start_ns_) / window_ns_);
    if (w < counts_.size()) counts_[w]++;
  }
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  int64_t start_ns_ = 0;
  int64_t window_ns_ = 1;
  std::vector<uint64_t> counts_;
};

double peak_rss_mb();

// FNV-1a over the sorted relative paths and contents of a directory tree:
// the digest printed so two runs can be shown to have used identical inputs.
uint64_t digest_tree(const std::string& dir);
void digest_mix(uint64_t& digest, std::string_view bytes);

// Inputs are staged into directory skeletons that persist in the work root
// across runs: files are rewritten in place (no truncation, no new inode
// once the file exists). On ext4, which skips recently freed inodes when
// allocating, creating and deleting thousands of files per run made later
// runs' file creation many times slower, so a run's set-up time and
// mutation latency depended on the runs before it.
ibox::Status overwrite_file(const std::string& path, std::string_view contents);

// A directory removed (recursively) on destruction.
class ScratchDir {
 public:
  // Creates a fresh, uniquely named directory under `parent`.
  ScratchDir(const std::string& parent, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- spans --------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t trace_id = 0;  // Chirp wire trace ID, 0 when none
};

// Completed spans of one thread, kept in memory until the run ends. Ids are
// unique across logs that were given distinct `stream` numbers.
class SpanLog {
 public:
  explicit SpanLog(uint64_t stream = 0) : next_id_((stream << 40) + 1) {}

  uint64_t next_id() { return next_id_++; }
  void add(uint64_t id, uint64_t parent, const char* name, int64_t start_ns,
           int64_t end_ns, uint64_t trace_id = 0) {
    spans_.push_back(Span{id, parent, name, start_ns, end_ns, trace_id});
  }
  uint64_t add(uint64_t parent, const char* name, int64_t start_ns,
               int64_t end_ns, uint64_t trace_id = 0) {
    const uint64_t id = next_id();
    add(id, parent, name, start_ns, end_ns, trace_id);
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

// Writes every span as one JSON line; returns the number written.
size_t write_spans(const std::string& path,
                   const std::vector<const SpanLog*>& logs);

// ---- box jobs -----------------------------------------------------------

// The identity of the job's visitor. The pool models the EU DataGrid shape
// (~20 sites, hundreds of users); every member is covered by the
// "globus:/O=EDG/*" grants the workloads stamp.
ibox::Identity visitor_identity(uint64_t index);

struct SupervisedRun {
  int exit_code = -1;
  std::string out;  // the root child's stdout
  ibox::SupervisorStats stats;
};

// Runs `argv` in `box` under a Supervisor with `config`, capturing stdout.
ibox::Result<SupervisedRun> run_supervised(ibox::BoxContext& box,
                                           const std::vector<std::string>& argv,
                                           const ibox::SandboxConfig& config);

// Per-job sandbox counters summed over the jobs of a traced run.
struct SandboxTotals {
  uint64_t jobs = 0;
  ibox::SupervisorStats sum;
  void add(const ibox::SupervisorStats& stats);
};

// Fills the sandbox.* per-layer metrics from job totals and the registry
// the traced jobs' SandboxConfig::metrics pointed at.
void fill_sandbox_metrics(const SandboxTotals& totals,
                          const ibox::MetricsSnapshot& registry,
                          MetricValues& out);

// Fills vfs.cache_* and acl.cache_* (box side) from the traced registry.
void fill_box_cache_metrics(const ibox::MetricsSnapshot& registry,
                            uint64_t jobs, MetricValues& out);

// When one successful job started and ended, in seconds from the loop's
// start.
struct JobTime {
  double start_s = 0;
  double end_s = 0;
};

// A closed loop's jobs are cut, in order, into up to kJobSlices slices of
// consecutive jobs, each of at least kMinSliceJobs jobs (one slice when the
// run holds fewer).
inline constexpr size_t kJobSlices = 9;
inline constexpr size_t kMinSliceJobs = 8;

// End-to-end metrics of a closed loop of jobs: the median over the slices
// of each slice's median job time, of its job time at quantile `tail_q`,
// and of its rate (jobs over the time from its first job's start to its
// last job's end); and `cpu_s`, the loop's CPU time, per job.
void fill_job_metrics(const std::vector<JobTime>& jobs, double tail_q,
                      double cpu_s, MetricValues& out);

// Runs jobs back to back, one at a time, for `seconds`. `job()` runs one
// job and returns false when it failed; attempts and failures are counted
// into `result`.
template <typename Job>
MetricValues run_jobs(double seconds, double tail_q, RunResult& result,
                      Job&& job) {
  std::vector<JobTime> jobs;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    result.attempted++;
    const double start_s = seconds_since(t0);
    if (job()) {
      jobs.push_back({start_s, seconds_since(t0)});
    } else {
      result.failed++;
    }
  }
  MetricValues e2e;
  fill_job_metrics(jobs, tail_q, cpu_seconds() - cpu0, e2e);
  return e2e;
}

// ---- the in-process Chirp server ----------------------------------------

// Starts a ChirpServer with default options over `export_dir`, with GSI
// authentication trusting `ca` and a root ACL that lets the EDG community
// list the export.
ibox::Result<std::unique_ptr<ibox::ChirpServer>> start_server(
    const std::string& export_dir, const std::string& state_dir,
    const ibox::CertificateAuthority& ca);

// A GSI credential for `dn`, issued by `ca` and valid for a day.
std::unique_ptr<ibox::GsiCredential> issue_credential(
    const ibox::CertificateAuthority& ca, const std::string& dn);

// Connects a ChirpSession to `server` as `credential`, which must outlive
// the session.
ibox::Result<std::unique_ptr<ibox::ChirpSession>> connect_session(
    const ibox::ChirpServer& server, const ibox::GsiCredential& credential,
    uint64_t jitter_seed);

// Server-side counters at one instant, for before/after deltas.
struct ServerSample {
  ibox::ChirpStatsSnapshot stats;
  ibox::HistogramSnapshot rpc_latency;  // chirp.rpc.latency_us
  int64_t at_ns = 0;
};
ServerSample sample_server(const ibox::ChirpServer& server);

// Fills the server-side per-layer metrics (chirp.rpcs, chirp.server_p50_us,
// chirp.worker_busy_frac, chirp.requests_per_batch, chirp.peak_queue_depth
// and the acl.cache_* metrics) from the change between two samples.
void fill_server_metrics(const ServerSample& before, const ServerSample& after,
                         MetricValues& out);

// Prints the traced-minus-untraced difference of the wall-clock metrics,
// records the latency difference as the trace.overhead_p50_pct metric, and
// the untraced figures as wall.<name>.
void report_overhead(const MetricValues& untraced, const MetricValues& traced,
                     MetricValues& layer);

}  // namespace perfbench
