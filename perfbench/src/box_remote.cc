// box_remote: the paper's Parrot-on-Chirp setup (Fig. 3, section 4). A
// closed loop of jobs, one at a time; each job is a fresh box with the
// in-process Chirp server mounted at /chirp/bench through a ChirpDriver on
// one authenticated connection. The boxed child forks four workers that
// each read a 4 MB input in 64 KB blocks, write a 1 MB output and run a
// ~50-op stat/open burst, all on the mount. RPC waits and the bulk data
// path into the child dominate; local metadata is negligible.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "auth/sim_gsi.h"
#include "chirp/chirp_driver.h"
#include "chirp/client.h"
#include "chirp/session.h"
#include "util/fs.h"
#include "util/rand.h"
#include "workloads.h"

namespace perfbench {

using namespace ibox;

namespace {

constexpr const char* kMount = "/chirp/bench";
constexpr size_t kVisitorPool = 64;
// A run holds ~170 jobs, cut into nine slices of ~19: p90 has about two jobs
// of a slice beyond it.
constexpr double kTailQuantile = 0.90;

// Everything set-up builds; the checker session is destroyed before the
// server it talks to.
struct RemoteSetup {
  CertificateAuthority ca{"EDG-CA", "edg-ca-secret"};
  std::unique_ptr<ChirpServer> server;
  std::vector<std::unique_ptr<GsiCredential>> visitors;  // pool, by index
  std::unique_ptr<GsiCredential> checker_cred;
  std::unique_ptr<ChirpSession> checker;  // re-reads outputs
  std::vector<std::string> heads;         // first 1 MB of each input
  std::vector<uint64_t> digests;          // fold_bytes of each input
};

std::string dn_of(const Identity& identity) {
  const std::string text = identity.str();
  return text.substr(text.find(':') + 1);
}

Result<std::unique_ptr<RemoteSetup>> stage(const Options& o) {
  auto setup = std::make_unique<RemoteSetup>();
  const std::string export_dir = o.work_root + "/box_remote/export";
  const std::string state_dir = o.work_root + "/box_remote/state";
  IBOX_RETURN_IF_ERROR(make_dirs(export_dir));
  IBOX_RETURN_IF_ERROR(make_dirs(state_dir));

  for (int k = 0; k < kRemoteWorkers; ++k) {
    const std::string dir = export_dir + "/w" + std::to_string(k);
    IBOX_RETURN_IF_ERROR(make_dirs(dir));
    IBOX_RETURN_IF_ERROR(overwrite_file(dir + "/.__acl", "globus:/O=EDG/* rwlda\n"));
    Rng rng(o.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(k));
    std::string input(kRemoteInputBytes, '\0');
    for (size_t i = 0; i < input.size(); i += 8) {
      const uint64_t word = rng.next();
      std::memcpy(input.data() + i, &word, 8);
    }
    IBOX_RETURN_IF_ERROR(overwrite_file(dir + "/input.bin", input));
    setup->digests.push_back(fold_bytes(kFoldBasis, input.data(), input.size()));
    setup->heads.push_back(input.substr(0, kRemoteOutputBytes));
    for (int m = 0; m < kRemoteMetaFiles; ++m) {
      IBOX_RETURN_IF_ERROR(overwrite_file(dir + "/m" + std::to_string(m),
                                          rng.ident(32 + rng.below(64))));
    }
  }

  auto server = start_server(export_dir, state_dir, setup->ca);
  if (!server.ok()) return server.error();
  setup->server = std::move(*server);

  for (size_t i = 0; i < kVisitorPool; ++i) {
    setup->visitors.push_back(
        issue_credential(setup->ca, dn_of(visitor_identity(i))));
  }
  setup->checker_cred = issue_credential(setup->ca, "/O=EDG/CN=checker");
  auto checker = connect_session(*setup->server, *setup->checker_cred, o.seed);
  if (!checker.ok()) return checker.error();
  setup->checker = std::move(*checker);
  return setup;
}

struct RemoteJob {
  bool ok = false;
  std::string failure;  // why the job failed, when it did
  int64_t create_ns = 0;
  int64_t handshake_ns = 0;
  int64_t run_ns = 0;
  SupervisorStats stats;
};

// Checks the child's per-worker digests and re-reads every output through
// the checker session. Returns what was wrong, empty when nothing was.
std::string check_outputs(RemoteSetup& setup, const std::string& out,
                          uint64_t nonce) {
  for (int k = 0; k < kRemoteWorkers; ++k) {
    char want[64];
    std::snprintf(want, sizeof(want), "w%d %016" PRIx64 "\n", k,
                  setup.digests[k]);
    if (out.find(want) == std::string::npos) {
      std::string shown = out;
      std::replace(shown.begin(), shown.end(), '\n', '|');
      return "worker " + std::to_string(k) + " input digest missing from \"" +
             shown + "\"";
    }
    auto got = setup.checker->get_file("/w" + std::to_string(k) + "/output.bin");
    if (!got.ok()) {
      return "re-reading output " + std::to_string(k) + ": " +
             got.error().message();
    }
    if (got->size() != kRemoteOutputBytes) {
      return "output " + std::to_string(k) + " has " +
             std::to_string(got->size()) + " bytes";
    }
    const std::string& head = setup.heads[k];
    const char mask = output_mask(nonce);
    for (size_t i = 0; i < kRemoteOutputBytes; ++i) {
      if ((*got)[i] != static_cast<char>(head[i] ^ mask)) {
        return "output " + std::to_string(k) + " differs at byte " +
               std::to_string(i);
      }
    }
  }
  return "";
}

RemoteJob run_job(RemoteSetup& setup, const Options& o, size_t visitor,
                  uint64_t nonce, const SandboxConfig& config,
                  DriverProbe* probe, SpanLog* spans, uint64_t parent_span) {
  RemoteJob job;
  auto fail = [&job](std::string what, int err) {
    job.failure = std::move(what) + ": " + std::strerror(err);
    return job;
  };
  ScratchDir state(o.work_root, "box");
  if (!state.ok()) return fail("state directory", errno);
  BoxOptions box_options;
  box_options.state_dir = state.path();
  const int64_t t0 = now_ns();
  auto box = BoxContext::Create(visitor_identity(visitor), box_options);
  const int64_t t1 = now_ns();
  if (!box.ok()) return fail("box creation", box.error_code());
  ChirpClientOptions client_options;
  client_options.port = setup.server->port();
  client_options.credentials = {setup.visitors[visitor].get()};
  auto client = ChirpClient::Connect(client_options);
  const int64_t t2 = now_ns();
  if (!client.ok()) return fail("connect", client.error_code());
  job.create_ns = t1 - t0;
  job.handshake_ns = t2 - t1;
  if (spans != nullptr) {
    spans->add(parent_span, "box.create", t0, t1);
    spans->add(parent_span, "auth.connect", t1, t2);
  }
  std::unique_ptr<Driver> driver =
      std::make_unique<ChirpDriver>(std::move(*client));
  if (probe != nullptr) {
    driver = std::make_unique<TimingDriver>(std::move(driver), *probe);
  }
  if (Status mounted = (*box)->mount(kMount, std::move(driver)); !mounted.ok()) {
    return fail("mount", mounted.error_code());
  }

  const uint64_t run_span = spans != nullptr ? spans->next_id() : 0;
  if (probe != nullptr) {
    probe->spans = spans;
    probe->parent = run_span;
  }
  const int64_t t3 = now_ns();
  auto run = run_supervised(
      **box, {o.self, "--child-remote", kMount, std::to_string(nonce)}, config);
  const int64_t t4 = now_ns();
  if (spans != nullptr) spans->add(run_span, parent_span, "supervisor.run", t3, t4);
  if (!run.ok()) return fail("supervisor", run.error_code());
  if (run->exit_code != 0) {
    return fail("child exit " + std::to_string(run->exit_code), EIO);
  }
  job.run_ns = t4 - t3;
  job.stats = run->stats;
  const std::string wrong = check_outputs(setup, run->out, nonce);
  if (spans != nullptr) spans->add(parent_span, "check", t4, now_ns());
  if (!wrong.empty()) {
    job.failure = "output check: " + wrong;
    return job;
  }
  job.ok = true;
  return job;
}

struct Traced {
  MetricsRegistry registry;
  DriverProbe probe;
  SpanLog spans;
  SandboxTotals totals;
  std::vector<double> create_us;
  std::vector<double> handshake_us;
  int64_t self_ns = 0;
  int64_t job_ns = 0;
};

}  // namespace

Result<RunResult> run_box_remote(const Options& o) {
  // ---- set-up: stage inputs, start the server, connect the checker, warm
  // up with one job; repeated, median reported ----
  std::unique_ptr<RemoteSetup> setup;
  std::vector<Stopwatch> setup_rounds(kSetupRounds);
  uint64_t nonce = 0;
  for (Stopwatch& round : setup_rounds) {
    setup.reset();
    round.start();
    auto staged = stage(o);
    if (!staged.ok()) {
      std::fprintf(stderr, "box_remote: set-up failed: %s\n",
                   staged.error().message().c_str());
      return staged.error();
    }
    setup = std::move(*staged);
    const RemoteJob warm =
        run_job(*setup, o, 0, ++nonce, SandboxConfig{}, nullptr, nullptr, 0);
    if (!warm.ok) {
      std::fprintf(stderr, "box_remote: warm-up job failed: %s\n",
                   warm.failure.c_str());
      return Error(EIO);
    }
    round.stop();
  }
  const double setup_median = report_setup("box_remote", setup_rounds);
  uint64_t digest = kFoldBasis;
  for (uint64_t d : setup->digests) digest = fold_bytes(digest, reinterpret_cast<const char*>(&d), 8);
  std::printf("box_remote: seed %" PRIu64 ", input digest %016" PRIx64 "\n",
              o.seed, digest);

  std::vector<size_t> visitors(4096);
  Rng pick(o.seed ^ 0x7e3073e7ull);
  for (auto& v : visitors) v = pick.below(kVisitorPool);

  RunResult result;
  size_t next_visitor = 0;
  auto measure = [&](double seconds, Traced* traced) {
    SandboxConfig config;
    if (traced != nullptr) config.metrics = &traced->registry;
    return run_jobs(seconds, kTailQuantile, result, [&]() -> bool {
      const uint64_t job_span = traced ? traced->spans.next_id() : 0;
      const int64_t busy0 = traced ? traced->probe.busy_ns : 0;
      const int64_t start = now_ns();
      const RemoteJob job =
          run_job(*setup, o, visitors[next_visitor++ % visitors.size()],
                  ++nonce, config, traced ? &traced->probe : nullptr,
                  traced ? &traced->spans : nullptr, job_span);
      const int64_t end = now_ns();
      if (!job.ok) {
        std::fprintf(stderr, "box_remote: job failed: %s\n", job.failure.c_str());
        return false;
      }
      if (traced != nullptr) {
        traced->spans.add(job_span, 0, "job", start, end);
        traced->totals.add(job.stats);
        traced->create_us.push_back(static_cast<double>(job.create_ns) / 1e3);
        traced->handshake_us.push_back(
            static_cast<double>(job.handshake_ns) / 1e3);
        traced->self_ns += job.run_ns - (traced->probe.busy_ns - busy0);
        traced->job_ns += end - start;
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
  const ServerSample before = sample_server(*setup->server);
  const MetricValues traced_e2e = measure(o.seconds / 2, &traced);
  const ServerSample after = sample_server(*setup->server);

  MetricValues& m = result.metrics;
  const uint64_t jobs = traced.totals.jobs;
  const double per = jobs > 0 ? 1.0 / static_cast<double>(jobs) : 0.0;
  const MetricsSnapshot snapshot = traced.registry.snapshot();
  fill_sandbox_metrics(traced.totals, snapshot, m);
  fill_box_cache_metrics(snapshot, jobs, m);
  // The remote tree's ACLs are evaluated by the server: its cache, not the
  // box's, is the one this workload exercises.
  fill_server_metrics(before, after, m);
  m["box.create_us"] = median(traced.create_us);
  m["auth.handshake_us"] = median(traced.handshake_us);
  m["sandbox.self_us_per_job"] = static_cast<double>(traced.self_ns) / 1e3 * per;
  const DriverProbe& p = traced.probe;
  m["chirp_driver.calls_per_job"] = static_cast<double>(p.calls) * per;
  m["chirp_driver.us_per_job"] = static_cast<double>(p.busy_ns) / 1e3 * per;
  m["chirp_driver.blocked_frac"] =
      traced.job_ns > 0
          ? static_cast<double>(p.busy_ns) / static_cast<double>(traced.job_ns)
          : 0.0;
  m["chirp_driver.bytes_per_call"] =
      p.calls > 0 ? static_cast<double>(p.bytes) / static_cast<double>(p.calls)
                  : 0.0;
  std::vector<double> driver_us;
  for (const Span& s : traced.spans.spans()) {
    if (std::string_view(s.name).rfind("driver.", 0) == 0) {
      driver_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  m["chirp.transport_us"] = median(driver_us) - m["chirp.server_p50_us"];
  const ChirpSessionStats& checker = setup->checker->stats();
  m["chirp.session_retries"] = static_cast<double>(checker.retries);
  m["chirp.session_reconnects"] = static_cast<double>(checker.reconnects);
  report_overhead(untraced, traced_e2e, m);
  const std::string span_path = o.spans_dir + "/spans-box_remote.jsonl";
  std::printf("spans: %zu written to %s\n",
              write_spans(span_path, {&traced.spans}), span_path.c_str());
  return result;
}

}  // namespace perfbench
