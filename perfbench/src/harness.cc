#include "harness.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "box/process_registry.h"
#include "obs/export.h"
#include "util/fs.h"
#include "util/path.h"

namespace perfbench {

using namespace ibox;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"cpu_ms_per_op", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& wall_clock_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"box.create_us", "us"},
      {"sandbox.trapped_per_job", "count"},
      {"sandbox.stops_per_job", "count"},
      {"sandbox.nullified_per_job", "count"},
      {"sandbox.passed_per_job", "count"},
      {"sandbox.exit_stops_elided_per_job", "count"},
      {"sandbox.interpose_us_per_job", "us"},
      {"sandbox.path_p50_us", "us"},
      {"sandbox.fd_p50_us", "us"},
      {"sandbox.self_us_per_job", "us"},
      {"sandbox.channel_bytes_per_job", "bytes"},
      {"sandbox.processvm_bytes_per_job", "bytes"},
      {"sandbox.peekpoke_bytes_per_job", "bytes"},
      {"vfs.driver_calls_per_job", "count"},
      {"vfs.driver_us_per_job", "us"},
      {"vfs.cache_hit_ratio", "ratio"},
      {"vfs.cache_lookups_per_job", "count"},
      {"acl.cache_hit_ratio", "ratio"},
      {"acl.cache_lookups", "count"},
      {"acl.cache_evictions", "count"},
      {"acl.cache_invalidations", "count"},
      {"auth.handshake_us", "us"},
      {"chirp.rpcs", "count"},
      {"chirp.read_p50_us", "us"},
      {"chirp.write_p50_us", "us"},
      {"chirp.mutate_p50_us", "us"},
      {"chirp.server_p50_us", "us"},
      {"chirp.transport_us", "us"},
      {"chirp.worker_busy_frac", "ratio"},
      {"chirp.requests_per_batch", "count"},
      {"chirp.peak_queue_depth", "count"},
      {"chirp.session_retries", "count"},
      {"chirp.session_reconnects", "count"},
      {"chirp.trace_join_frac", "ratio"},
      {"chirp.trace_ring_dropped", "count"},
      {"chirp_driver.calls_per_job", "count"},
      {"chirp_driver.us_per_job", "us"},
      {"chirp_driver.blocked_frac", "ratio"},
      {"chirp_driver.bytes_per_call", "bytes"},
      {"loadgen.late_p99_us", "us"},
      {"loadgen.offered_ops_s", "1/s"},
      {"loadgen.achieved_ops_s", "1/s"},
      {"native.job_p50_s", "s"},
      {"trace.overhead_p50_pct", "%"},
      {"wall.latency_p50_ms", "ms"},
      {"wall.latency_tail_ms", "ms"},
      {"wall.throughput_per_s", "1/s"},
  };
  return defs;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median_of_quantiles(const std::vector<std::vector<double>>& slices,
                           double q) {
  std::vector<double> per_slice;
  for (const auto& slice : slices) {
    if (!slice.empty()) per_slice.push_back(quantile(slice, q));
  }
  return median(std::move(per_slice));
}

double report_setup(const char* workload, const std::vector<Stopwatch>& rounds) {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::printf("%s: set-up rounds, wall / CPU (s):", workload);
  for (const Stopwatch& r : rounds) {
    std::printf(" %.4f/%.4f", r.wall_s(), r.cpu_s());
    wall_s.push_back(r.wall_s());
    cpu_s.push_back(r.cpu_s());
  }
  const double setup_s = median(cpu_s);
  std::printf("; median %.4f/%.4f\n", median(wall_s), setup_s);
  return setup_s;
}

double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    if (::getrusage(who, &usage) != 0) continue;
    for (const timeval& tv : {usage.ru_utime, usage.ru_stime}) {
      total += static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    }
  }
  return total;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: the latter keeps the peak of
  // the image this process exec'd from (the Python launcher).
  auto status = read_file("/proc/self/status");
  if (!status.ok()) return 0.0;
  const size_t at = status->find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status->c_str() + at + 6, nullptr) / 1024.0;  // KiB
}

void digest_mix(uint64_t& digest, std::string_view bytes) {
  for (unsigned char c : bytes) {
    digest ^= c;
    digest *= 0x100000001b3ull;
  }
}

namespace {

void digest_dir(const std::string& root, const std::string& rel,
                uint64_t& digest) {
  auto names = list_dir(path_join(root, rel));
  if (!names.ok()) return;
  for (const auto& name : *names) {  // list_dir sorts
    const std::string child_rel = rel.empty() ? name : rel + "/" + name;
    const std::string host = path_join(root, child_rel);
    digest_mix(digest, child_rel);
    if (dir_exists(host)) {
      digest_dir(root, child_rel, digest);
    } else if (auto contents = read_file(host); contents.ok()) {
      digest_mix(digest, *contents);
    }
  }
}

}  // namespace

uint64_t digest_tree(const std::string& dir) {
  uint64_t digest = 0xcbf29ce484222325ull;
  digest_dir(dir, "", digest);
  return digest;
}

Status overwrite_file(const std::string& path, std::string_view contents) {
  UniqueFd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644));
  if (!fd) return Error::FromErrno();
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t n = ::pwrite(fd.get(), contents.data() + done,
                               contents.size() - done, static_cast<off_t>(done));
    if (n < 0) return Error::FromErrno();
    done += static_cast<size_t>(n);
  }
  if (::ftruncate(fd.get(), static_cast<off_t>(contents.size())) != 0) {
    return Error::FromErrno();
  }
  return Status::Ok();
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& tag) {
  std::string tmpl = path_join(parent, tag + ".XXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (char* made = ::mkdtemp(buf.data())) path_ = made;
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) (void)remove_all(path_);
}

size_t write_spans(const std::string& path,
                   const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t written = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"dur_ns\":%lld,\"trace_id\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(s.trace_id));
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

Identity visitor_identity(uint64_t index) {
  const uint64_t user = index % 512;
  return *Identity::Parse("globus:/O=EDG/OU=site" + std::to_string(user % 20) +
                          "/CN=user" + std::to_string(user));
}

Result<SupervisedRun> run_supervised(BoxContext& box,
                                     const std::vector<std::string>& argv,
                                     const SandboxConfig& config) {
  UniqueFd out_fd(::memfd_create("perfbench-out", MFD_CLOEXEC));
  if (!out_fd) return Error::FromErrno();
  ProcessRegistry registry;
  Supervisor supervisor(box, registry, config);
  auto exit_code = supervisor.run(argv, {}, Supervisor::Stdio{-1, out_fd.get(), -1});
  if (!exit_code.ok()) return exit_code.error();
  SupervisedRun run;
  run.exit_code = *exit_code;
  run.stats = supervisor.stats();
  char buf[4096];
  off_t off = 0;
  while (true) {
    const ssize_t n = ::pread(out_fd.get(), buf, sizeof(buf), off);
    if (n <= 0) break;
    run.out.append(buf, static_cast<size_t>(n));
    off += n;
  }
  return run;
}

void SandboxTotals::add(const SupervisorStats& s) {
  jobs++;
  sum.syscalls_trapped += s.syscalls_trapped;
  sum.syscalls_nullified += s.syscalls_nullified;
  sum.syscalls_passed += s.syscalls_passed;
  sum.bytes_via_peekpoke += s.bytes_via_peekpoke;
  sum.bytes_via_processvm += s.bytes_via_processvm;
  sum.bytes_via_channel += s.bytes_via_channel;
  sum.seccomp_stops += s.seccomp_stops;
  sum.exit_stops_elided += s.exit_stops_elided;
  sum.trace_stops += s.trace_stops;
}

namespace {

double per_job(uint64_t total, uint64_t jobs) {
  return jobs == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(jobs);
}

double ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void fill_sandbox_metrics(const SandboxTotals& t, const MetricsSnapshot& reg,
                          MetricValues& out) {
  const uint64_t n = t.jobs;
  out["sandbox.trapped_per_job"] = per_job(t.sum.syscalls_trapped, n);
  out["sandbox.stops_per_job"] =
      per_job(t.sum.trace_stops + t.sum.seccomp_stops, n);
  out["sandbox.nullified_per_job"] = per_job(t.sum.syscalls_nullified, n);
  out["sandbox.passed_per_job"] = per_job(t.sum.syscalls_passed, n);
  out["sandbox.exit_stops_elided_per_job"] = per_job(t.sum.exit_stops_elided, n);
  out["sandbox.channel_bytes_per_job"] = per_job(t.sum.bytes_via_channel, n);
  out["sandbox.processvm_bytes_per_job"] = per_job(t.sum.bytes_via_processvm, n);
  out["sandbox.peekpoke_bytes_per_job"] = per_job(t.sum.bytes_via_peekpoke, n);
  uint64_t interpose_us = 0;
  for (const char* name :
       {"sandbox.latency.path_us", "sandbox.latency.fd_us",
        "sandbox.latency.proc_us", "sandbox.latency.other_us"}) {
    if (const HistogramSnapshot* h = reg.histogram(name)) interpose_us += h->sum;
  }
  out["sandbox.interpose_us_per_job"] = per_job(interpose_us, n);
  if (const HistogramSnapshot* h = reg.histogram("sandbox.latency.path_us")) {
    out["sandbox.path_p50_us"] = histogram_quantile(*h, 0.5);
  }
  if (const HistogramSnapshot* h = reg.histogram("sandbox.latency.fd_us")) {
    out["sandbox.fd_p50_us"] = histogram_quantile(*h, 0.5);
  }
}

void fill_box_cache_metrics(const MetricsSnapshot& reg, uint64_t jobs,
                            MetricValues& out) {
  const uint64_t vfs_hits = reg.counter("vfs.cache.stat.hits") +
                            reg.counter("vfs.cache.access.hits");
  const uint64_t vfs_lookups = vfs_hits + reg.counter("vfs.cache.stat.misses") +
                               reg.counter("vfs.cache.access.misses");
  out["vfs.cache_hit_ratio"] = ratio(vfs_hits, vfs_lookups);
  out["vfs.cache_lookups_per_job"] = per_job(vfs_lookups, jobs);
  const uint64_t acl_hits = reg.counter("acl.cache.hits");
  const uint64_t acl_lookups = acl_hits + reg.counter("acl.cache.misses");
  out["acl.cache_hit_ratio"] = ratio(acl_hits, acl_lookups);
  out["acl.cache_lookups"] = static_cast<double>(acl_lookups);
  out["acl.cache_evictions"] =
      static_cast<double>(reg.counter("acl.cache.evictions"));
  out["acl.cache_invalidations"] =
      static_cast<double>(reg.counter("acl.cache.invalidations"));
}

void fill_job_metrics(const std::vector<JobTime>& jobs, double tail_q,
                      double cpu_s, MetricValues& out) {
  const size_t n = jobs.size();
  const size_t k = std::clamp<size_t>(n / kMinSliceJobs, 1, kJobSlices);
  std::vector<std::vector<double>> slices(k);
  std::vector<double> rates;
  std::vector<double> all;
  for (size_t i = 0; i < k; ++i) {
    const size_t first = i * n / k;
    const size_t last = (i + 1) * n / k;  // exclusive
    for (size_t j = first; j < last; ++j) {
      slices[i].push_back(jobs[j].end_s - jobs[j].start_s);
      all.push_back(jobs[j].end_s - jobs[j].start_s);
    }
    const double span_s =
        last > first ? jobs[last - 1].end_s - jobs[first].start_s : 0.0;
    if (span_s > 0) rates.push_back(static_cast<double>(last - first) / span_s);
  }
  out["latency_p50_ms"] = median_of_quantiles(slices, 0.5) * 1e3;
  out["latency_tail_ms"] = median_of_quantiles(slices, tail_q) * 1e3;
  out["throughput_per_s"] = median(rates);
  out["cpu_ms_per_op"] = n > 0 ? cpu_s / static_cast<double>(n) * 1e3 : 0.0;
  std::printf("jobs: %zu in %.3f s, %zu slices of consecutive jobs; tail = "
              "p%.0f per slice\n",
              n, n > 0 ? jobs.back().end_s : 0.0, k, tail_q * 100);
  std::printf("jobs pooled: p50 %.1f ms, p%.0f %.1f ms, max %.1f ms; slice "
              "rates min %.3f max %.3f /s\n",
              quantile(all, 0.5) * 1e3, tail_q * 100,
              quantile(all, tail_q) * 1e3, quantile(all, 1) * 1e3,
              quantile(rates, 0), quantile(rates, 1));
}

Result<std::unique_ptr<ChirpServer>> start_server(
    const std::string& export_dir, const std::string& state_dir,
    const CertificateAuthority& ca) {
  ChirpServerOptions options;
  options.export_root = export_dir;
  options.state_dir = state_dir;
  GsiTrustStore trust;
  trust.trust(ca.name(), ca.verification_secret());
  options.auth_methods.push_back(AuthMethodConfig::Gsi(std::move(trust)));
  options.root_acl_text = "globus:/O=EDG/* rl\n";
  return ChirpServer::Start(std::move(options));
}

std::unique_ptr<GsiCredential> issue_credential(const CertificateAuthority& ca,
                                                const std::string& dn) {
  return std::make_unique<GsiCredential>(
      ca.issue(dn, 86400, wall_clock_seconds()));
}

Result<std::unique_ptr<ChirpSession>> connect_session(
    const ChirpServer& server, const GsiCredential& credential,
    uint64_t jitter_seed) {
  ChirpSessionOptions options;
  options.client.port = server.port();
  options.client.credentials = {&credential};
  options.jitter_seed = jitter_seed;
  return ChirpSession::Connect(std::move(options));
}

ServerSample sample_server(const ChirpServer& server) {
  ServerSample sample;
  sample.stats = server.snapshot_stats();
  const MetricsSnapshot metrics = server.metrics_snapshot();
  if (const HistogramSnapshot* h = metrics.histogram("chirp.rpc.latency_us")) {
    sample.rpc_latency = *h;
  }
  sample.at_ns = now_ns();
  return sample;
}

void fill_server_metrics(const ServerSample& before, const ServerSample& after,
                         MetricValues& out) {
  const ChirpStatsSnapshot& a = before.stats;
  const ChirpStatsSnapshot& b = after.stats;
  HistogramSnapshot window = after.rpc_latency;
  if (window.counts.size() == before.rpc_latency.counts.size()) {
    for (size_t i = 0; i < window.counts.size(); ++i) {
      window.counts[i] -= before.rpc_latency.counts[i];
    }
    window.count -= before.rpc_latency.count;
    window.sum -= before.rpc_latency.sum;
  }
  out["chirp.rpcs"] = static_cast<double>(b.requests - a.requests);
  out["chirp.server_p50_us"] = histogram_quantile(window, 0.5);
  // The server's default pool size (ChirpServerOptions::worker_threads = 0).
  const double workers =
      std::max(2u, std::thread::hardware_concurrency());
  const double wall_us =
      static_cast<double>(after.at_ns - before.at_ns) / 1e3;
  out["chirp.worker_busy_frac"] =
      wall_us > 0 ? static_cast<double>(b.worker_busy_micros -
                                        a.worker_busy_micros) /
                        (workers * wall_us)
                  : 0.0;
  out["chirp.requests_per_batch"] = ratio(b.requests - a.requests,
                                          b.worker_batches - a.worker_batches);
  out["chirp.peak_queue_depth"] = static_cast<double>(b.peak_queue_depth);
  const uint64_t hits = b.acl_cache_hits - a.acl_cache_hits;
  const uint64_t lookups = hits + (b.acl_cache_misses - a.acl_cache_misses);
  out["acl.cache_hit_ratio"] = ratio(hits, lookups);
  out["acl.cache_lookups"] = static_cast<double>(lookups);
  out["acl.cache_evictions"] =
      static_cast<double>(b.acl_cache_evictions - a.acl_cache_evictions);
  out["acl.cache_invalidations"] = static_cast<double>(
      b.acl_cache_invalidations - a.acl_cache_invalidations);
}

void report_overhead(const MetricValues& untraced, const MetricValues& traced,
                     MetricValues& layer) {
  std::printf("tracing overhead (traced minus untraced, same run):\n");
  for (const MetricDef& def : wall_clock_metrics()) {
    const std::string_view name = def.name;
    const auto a = untraced.find(def.name);
    const auto b = traced.find(def.name);
    if (a == untraced.end() || b == traced.end()) continue;
    layer["wall." + std::string(name)] = a->second;
    const double pct = a->second != 0 ? (b->second - a->second) / a->second * 100
                                      : 0.0;
    std::printf("  %-18s untraced %12.4f traced %12.4f diff %+12.4f (%+.1f%%)\n",
                def.name, a->second, b->second, b->second - a->second, pct);
    if (name == "latency_p50_ms") {
      layer["trace.overhead_p50_pct"] = pct;
    }
  }
}

}  // namespace perfbench
