// chirp_mix: Chirp serving, no sandbox. An in-process ChirpServer with
// default options (GSI auth, default ACL cache) is driven by four
// ChirpSession threads over 2048 per-identity directories, each carrying a
// ~100-entry community ACL, chosen with a Zipf skew. Phase 1 is an open
// loop at a fixed offered rate (each op timed from when it was due); phase
// 2 is a closed loop with all four sessions sending as fast as replies
// return. 2048 directories exceed the 1024-entry ACL cache, and writes and
// setacl invalidate entries beside the reads.
#include <fcntl.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cmath>
#include <set>
#include <thread>

#include "auth/sim_gsi.h"
#include "chirp/session.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/rand.h"
#include "workloads.h"

namespace perfbench {

using namespace ibox;

namespace {

constexpr int kDirs = 2048;
constexpr int kSessions = 4;
constexpr int kCommunity = 96;  // member entries in every directory ACL
constexpr size_t kAclEntries = 100;
constexpr size_t kFileBytes = 4096;
constexpr size_t kPutBytes = 16384;
constexpr size_t kPwriteBytes = 4096;
constexpr int kPutSlots = 16;      // put_file targets per session
constexpr int kReserveSlots = 8;   // reserved-directory names per session
constexpr double kZipfS = 0.9;
constexpr size_t kStreamOps = 1 << 15;  // per session, replayed cyclically
constexpr int kWarmupOps = 256;         // per session, during set-up
// Phase 1's offered rate: about a quarter of the phase-2 peak on the one CPU
// the benchmark runs on (~9k ops/s on the x86 VM it was defined on). The
// host is shared, and other tenants' load lowers the peak for minutes at a
// time; at half the peak the server then saturated and latencies from the
// due time grew to seconds in some runs and not in others.
constexpr double kOfferedOpsPerSec = 2500;
constexpr double kOpenLoopShare = 0.6;  // of the run; the rest is phase 2
// The tail figure. Pooled p99 is printed too: multi-millisecond stalls hit
// about 1 % of operations, so p99 moved between 0.5 and 48 ms from run to
// run.
constexpr double kTailQuantile = 0.90;
// Phase 1's latencies are cut into windows by due time; p50 and the tail
// are the medians of the per-window figures.
constexpr int64_t kLatencyWindowNs = 1'000'000'000;
// Phase 2 reports the median of its per-window completion rates, so a
// file-system stall in one window does not decide the run's peak.
constexpr int64_t kWindowNs = 250'000'000;
// Phase 1 is invalid, not slow, when the generator itself woke this late
// (p99) or the achieved rate fell this far below the offered one. On one
// CPU a woken session thread may wait a few milliseconds behind the
// server's threads, so the lateness limit is several per-session periods.
constexpr double kMaxWakeLateUs = 10000;
constexpr double kMinAchievedShare = 0.9;

bool is_private(uint32_t d) { return d % 32 == 31; }

// The session that may write directory d.
uint32_t owner_of(uint32_t d) { return d % kSessions; }

// The directory of session s nearest to d that it owns (never private).
uint32_t owned(uint32_t d, int s) {
  uint32_t dir = d - d % kSessions + static_cast<uint32_t>(s);
  if (is_private(dir)) dir = (dir + kDirs - kSessions) % kDirs;
  return dir;
}

uint32_t readable(uint32_t d) { return is_private(d) ? (d + 1) % kDirs : d; }

// Where session s's put slot p lives; fixed, so the files persist across
// runs and seeds.
uint32_t slot_dir(int s, int p) {
  return owned(static_cast<uint32_t>(p * 131 + s * 17 + 7) % kDirs, s);
}

std::string worker_dn(int s) {
  return "/O=EDG/OU=site" + std::to_string(s) + "/CN=worker" +
         std::to_string(s);
}

enum class OpKind : uint8_t {
  kStat, kGetacl, kReaddir, kRead, kProbe,  // reads
  kPut, kPwrite,                            // writes
  kMkdir, kRmdir, kSetacl, kUnlink,         // namespace/ACL mutations
};
constexpr const char* kOpNames[] = {
    "op.stat",  "op.getacl", "op.readdir", "op.read",   "op.probe", "op.put",
    "op.pwrite", "op.mkdir", "op.rmdir",   "op.setacl", "op.unlink"};

// 0 = read, 1 = write, 2 = mutation.
int class_of(OpKind kind) {
  if (kind <= OpKind::kProbe) return 0;
  if (kind <= OpKind::kPwrite) return 1;
  return 2;
}

struct Op {
  OpKind kind;
  uint32_t dir;
  uint32_t arg;  // file index, put or reserve slot, pwrite block, or rights
};

// Every generated input: file stamps and hashes, payloads and op streams.
struct Inputs {
  std::vector<uint64_t> stamps;  // per file, index 2 * dir + j
  std::vector<uint64_t> hashes;  // fnv1a64 of each file's contents
  std::vector<std::string> put_payloads;  // per session
  std::string pwrite_block;
  std::vector<std::vector<Op>> streams;  // per session
  uint64_t digest = 0xcbf29ce484222325ull;
};

std::string file_contents(uint64_t seed, uint32_t d, uint32_t j,
                          uint64_t stamp) {
  char head[64];
  std::snprintf(head, sizeof(head), "v=%016" PRIx64 " /u%u/f%u\n", stamp, d, j);
  std::string out(head);
  Rng rng(seed ^ (0xf11e0000ull + 2 * d + j));
  while (out.size() < kFileBytes) out.push_back(static_cast<char>('a' + rng.below(26)));
  return out;
}

std::string dir_acl(uint64_t seed, uint32_t d) {
  Rng rng(seed ^ (0xac100000ull + d));
  std::string acl;
  for (int i = 0; i < kCommunity; ++i) {
    acl += "globus:/O=EDG/OU=site" + std::to_string(rng.below(20)) +
           "/CN=user" + std::to_string(rng.below(100000)) + " rl\n";
  }
  if (is_private(d)) {
    // A directory none of the sessions may touch: the EACCES probes.
    for (size_t i = kCommunity; i < kAclEntries; ++i) {
      acl += "globus:/O=EDG/OU=site" + std::to_string(rng.below(20)) +
             "/CN=user" + std::to_string(rng.below(100000)) + " rl\n";
    }
    return acl;
  }
  for (int s = 0; s < kSessions; ++s) {
    acl += "globus:" + worker_dn(s) +
           (static_cast<uint32_t>(s) == owner_of(d) ? " rwlda\n" : " rl\n");
  }
  return acl;
}

// Op streams, per 10000 ops: 7950 reads (stat 2000, getacl 1000, readdir
// 1000, open+pread+close 3650, EACCES probe 300), 2000 writes (put_file
// 100, pwrite 1900) and 50 namespace/ACL mutations (setacl 20, mkdir or
// rmdir of a reserved directory 20, unlink 10). Directories by Zipf rank
// over a seeded permutation. Each stream ends with the ops that restore its
// put and reserve slots to their starting state, so it can be replayed.
//
// The shares of put_file and of mutations are what the file system under
// the benchmark could sustain steadily. put_file truncates and reallocates
// its 16 KB; at a 10 % share (~25 MB/s at the closed-loop peak) ext4's
// ordered-mode journal commits stalled the whole server for up to 3 s in
// some runs and slowed the runs after them. Mutations each allocate or free
// an inode, and at 10 % inode allocation slowed within a run (see
// overwrite_file in harness.h). pwrite rewrites blocks in place.
std::vector<Op> make_stream(uint64_t seed, int s, const std::vector<double>& cdf,
                            const std::vector<uint32_t>& perm,
                            const std::vector<uint32_t>& private_dirs) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(s) + 1);
  auto zipf_dir = [&] {
    const double u = rng.uniform();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return perm[std::min(rank, perm.size() - 1)];
  };
  std::vector<bool> present(kPutSlots, true);  // staged by set-up
  std::vector<bool> reserved(kReserveSlots, false);
  std::vector<Op> ops;
  ops.reserve(kStreamOps + kPutSlots + kReserveSlots);
  auto put = [&](uint32_t p) {
    present[p] = true;
    ops.push_back({OpKind::kPut, slot_dir(s, static_cast<int>(p)), p});
  };
  while (ops.size() < kStreamOps) {
    const uint32_t d = zipf_dir();
    const uint64_t u = rng.below(10000);
    if (u < 2000) {
      ops.push_back({OpKind::kStat, readable(d), static_cast<uint32_t>(rng.below(2))});
    } else if (u < 3000) {
      ops.push_back({OpKind::kGetacl, readable(d), 0});
    } else if (u < 4000) {
      ops.push_back({OpKind::kReaddir, readable(d), 0});
    } else if (u < 7650) {
      ops.push_back({OpKind::kRead, readable(d), static_cast<uint32_t>(rng.below(2))});
    } else if (u < 7950) {
      ops.push_back({OpKind::kProbe,
                     private_dirs[rng.below(private_dirs.size())], 0});
    } else if (u < 8050) {
      put(static_cast<uint32_t>(rng.below(kPutSlots)));
    } else if (u < 9950) {
      ops.push_back({OpKind::kPwrite, 0, static_cast<uint32_t>(rng.below(16))});
    } else if (u < 9970) {
      ops.push_back({OpKind::kSetacl, owned(d, s), static_cast<uint32_t>(rng.below(2))});
    } else if (u < 9990) {
      const uint32_t r = static_cast<uint32_t>(rng.below(kReserveSlots));
      ops.push_back({reserved[r] ? OpKind::kRmdir : OpKind::kMkdir, 0, r});
      reserved[r] = !reserved[r];
    } else {
      const uint32_t p = static_cast<uint32_t>(rng.below(kPutSlots));
      if (present[p]) {
        present[p] = false;
        ops.push_back({OpKind::kUnlink, slot_dir(s, static_cast<int>(p)), p});
      } else {
        put(p);
      }
    }
  }
  for (uint32_t p = 0; p < kPutSlots; ++p) {
    if (!present[p]) put(p);
  }
  for (uint32_t r = 0; r < kReserveSlots; ++r) {
    if (reserved[r]) ops.push_back({OpKind::kRmdir, 0, r});
  }
  return ops;
}

// One session and what its thread measured.
struct SessionState {
  int index = 0;
  std::unique_ptr<ChirpSession> session;
  int64_t log_handle = -1;  // the pwrite target
  size_t cursor = 0;

  // Per phase.
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;    // open loop: from the due time
  std::vector<size_t> latency_window;  // the window each op was due in
  std::vector<double> wake_late_us;  // generator lateness when idle
  int64_t last_end_ns = 0;
  WindowCounts windows;  // phase 2 completions

  // Traced phase only.
  bool tracing = false;
  SpanLog spans;
  uint64_t op_span = 0;
  std::vector<double> class_us[3];
  std::vector<double> rpc_us;
};

// Times one session call as an rpc.<op> span carrying its wire trace ID.
template <typename F>
auto rpc(SessionState& st, const char* name, F&& call) {
  if (!st.tracing) return call();
  const int64_t start = now_ns();
  auto result = call();
  const int64_t end = now_ns();
  st.spans.add(st.op_span, name, start, end, st.session->last_trace_id());
  st.rpc_us.push_back(static_cast<double>(end - start) / 1e3);
  return result;
}

bool execute(SessionState& st, const Inputs& in, const Op& op) {
  ChirpSession& ses = *st.session;
  const int s = st.index;
  char path[96];
  switch (op.kind) {
    case OpKind::kStat: {
      std::snprintf(path, sizeof(path), "/u%u/f%u", op.dir, op.arg);
      auto st_r = rpc(st, "rpc.stat", [&] { return ses.stat(path); });
      return st_r.ok() && st_r->size == kFileBytes && st_r->is_regular();
    }
    case OpKind::kGetacl: {
      std::snprintf(path, sizeof(path), "/u%u", op.dir);
      auto acl = rpc(st, "rpc.getacl", [&] { return ses.getacl(path); });
      // setacl may have added one guest entry per session.
      return acl.ok() && acl->size() >= kAclEntries &&
             acl->size() <= kAclEntries + kSessions;
    }
    case OpKind::kReaddir: {
      std::snprintf(path, sizeof(path), "/u%u", op.dir);
      auto list = rpc(st, "rpc.readdir", [&] { return ses.readdir(path); });
      if (!list.ok()) return false;
      int found = 0;
      for (const auto& e : *list) found += (e.name == "f0" || e.name == "f1");
      return found == 2;
    }
    case OpKind::kRead: {
      std::snprintf(path, sizeof(path), "/u%u/f%u", op.dir, op.arg);
      auto handle =
          rpc(st, "rpc.open", [&] { return ses.open(path, O_RDONLY, 0); });
      if (!handle.ok()) return false;
      auto data =
          rpc(st, "rpc.pread", [&] { return ses.pread(*handle, kFileBytes, 0); });
      const size_t file = 2 * op.dir + op.arg;
      char stamp[24];
      std::snprintf(stamp, sizeof(stamp), "v=%016" PRIx64, in.stamps[file]);
      const bool good = data.ok() && data->size() == kFileBytes &&
                        data->compare(0, 18, stamp) == 0 &&
                        fnv1a64(*data) == in.hashes[file];
      auto closed = rpc(st, "rpc.close", [&] { return ses.close(*handle); });
      return good && closed.ok();
    }
    case OpKind::kProbe: {
      std::snprintf(path, sizeof(path), "/u%u/f0", op.dir);
      auto handle =
          rpc(st, "rpc.open", [&] { return ses.open(path, O_RDONLY, 0); });
      if (handle.ok()) {
        (void)ses.close(*handle);
        return false;  // an unexpected grant
      }
      return handle.error_code() == EACCES;
    }
    case OpKind::kPut: {
      std::snprintf(path, sizeof(path), "/u%u/s%d_p%u", op.dir, s, op.arg);
      return rpc(st, "rpc.put_file",
                 [&] { return ses.put_file(path, in.put_payloads[s]); })
          .ok();
    }
    case OpKind::kPwrite: {
      auto wrote = rpc(st, "rpc.pwrite", [&] {
        return ses.pwrite(st.log_handle, in.pwrite_block,
                          uint64_t{op.arg} * kPwriteBytes);
      });
      return wrote.ok() && *wrote == kPwriteBytes;
    }
    case OpKind::kMkdir: {
      std::snprintf(path, sizeof(path), "/scratch/s%d_r%u", s, op.arg);
      return rpc(st, "rpc.mkdir", [&] { return ses.mkdir(path); }).ok();
    }
    case OpKind::kRmdir: {
      std::snprintf(path, sizeof(path), "/scratch/s%d_r%u", s, op.arg);
      return rpc(st, "rpc.rmdir", [&] { return ses.rmdir(path); }).ok();
    }
    case OpKind::kSetacl: {
      std::snprintf(path, sizeof(path), "/u%u", op.dir);
      const std::string guest = "globus:/O=EDG/CN=guest" + std::to_string(s);
      return rpc(st, "rpc.setacl", [&] {
               return ses.setacl(path, guest, op.arg != 0 ? "rl" : "r");
             })
          .ok();
    }
    case OpKind::kUnlink: {
      std::snprintf(path, sizeof(path), "/u%u/s%d_p%u", op.dir, s, op.arg);
      return rpc(st, "rpc.unlink", [&] { return ses.unlink(path); }).ok();
    }
  }
  return false;
}

// Runs the session's next op; returns its completion time.
int64_t step(SessionState& st, const Inputs& in) {
  const std::vector<Op>& stream = in.streams[st.index];
  const Op op = stream[st.cursor];
  st.cursor = (st.cursor + 1) % stream.size();
  const int64_t start = now_ns();
  if (st.tracing) st.op_span = st.spans.next_id();
  const bool ok = execute(st, in, op);
  const int64_t end = now_ns();
  st.ops++;
  if (!ok) st.failed++;
  if (st.tracing) {
    st.spans.add(st.op_span, 0, kOpNames[static_cast<int>(op.kind)], start, end);
    st.class_us[class_of(op.kind)].push_back(
        static_cast<double>(end - start) / 1e3);
  }
  return end;
}

void open_loop(SessionState& st, const Inputs& in, int64_t phase_start_ns,
               int64_t first_due_ns, double period_ns, size_t count) {
  // Default timer slack (50 us) would dominate sub-100 us operations.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (size_t i = 0; i < count; ++i) {
    const int64_t due =
        first_due_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (now_ns() < due) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      st.wake_late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    }
    st.last_end_ns = step(st, in);
    st.latency_us.push_back(static_cast<double>(st.last_end_ns - due) / 1e3);
    st.latency_window.push_back(
        static_cast<size_t>((due - phase_start_ns) / kLatencyWindowNs));
  }
}

void closed_loop(SessionState& st, const Inputs& in, int64_t start_ns,
                 int64_t end_ns) {
  st.windows = WindowCounts(start_ns, end_ns, kWindowNs);
  while (now_ns() < end_ns) {
    st.last_end_ns = step(st, in);
    st.windows.add(st.last_end_ns);
  }
}

// Everything set-up builds; the sessions are destroyed before the server.
struct MixSetup {
  Inputs inputs;
  CertificateAuthority ca{"EDG-CA", "edg-ca-secret"};
  std::unique_ptr<ChirpServer> server;
  std::vector<std::unique_ptr<GsiCredential>> creds;
  std::vector<SessionState> sessions;
  std::vector<double> handshake_us;
};

Inputs generate(uint64_t seed) {
  Inputs in;
  std::vector<double> cdf(kDirs);
  double total = 0;
  for (int r = 0; r < kDirs; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<uint32_t> perm(kDirs);
  for (uint32_t d = 0; d < kDirs; ++d) perm[d] = d;
  Rng shuffle(seed ^ 0x5eed5eedull);
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[shuffle.below(i + 1)]);
  }
  std::vector<uint32_t> private_dirs;
  for (uint32_t d = 0; d < kDirs; ++d) {
    if (is_private(d)) private_dirs.push_back(d);
  }
  Rng stamps(seed ^ 0x57a3957a39ull);
  for (size_t f = 0; f < 2 * kDirs; ++f) in.stamps.push_back(stamps.next());
  for (int s = 0; s < kSessions; ++s) {
    Rng payload(seed ^ (0x9a710adull + s));
    std::string bytes(kPutBytes, '\0');
    for (char& c : bytes) c = static_cast<char>(payload.below(256));
    in.put_payloads.push_back(std::move(bytes));
    in.streams.push_back(make_stream(seed, s, cdf, perm, private_dirs));
    digest_mix(in.digest, in.put_payloads.back());
    for (const Op& op : in.streams.back()) {
      // Field by field: Op's padding bytes are indeterminate.
      const uint32_t fields[] = {static_cast<uint32_t>(op.kind), op.dir, op.arg};
      digest_mix(in.digest, std::string_view(reinterpret_cast<const char*>(fields),
                                             sizeof(fields)));
    }
  }
  in.pwrite_block.assign(kPwriteBytes, 'p');
  return in;
}

Result<std::unique_ptr<MixSetup>> stage(const Options& o) {
  auto setup = std::make_unique<MixSetup>();
  setup->inputs = generate(o.seed);
  Inputs& in = setup->inputs;
  const std::string export_dir = o.work_root + "/chirp_mix/export";
  const std::string state_dir = o.work_root + "/chirp_mix/state";
  IBOX_RETURN_IF_ERROR(make_dirs(state_dir));
  IBOX_RETURN_IF_ERROR(make_dirs(export_dir + "/scratch"));
  IBOX_RETURN_IF_ERROR(overwrite_file(export_dir + "/scratch/.__acl",
                                      "globus:/O=EDG/* rldv(rwlda)\n"));
  // Reserved directories a previous run left behind (the streams start
  // with every reserve slot free).
  for (int s = 0; s < kSessions; ++s) {
    for (int r = 0; r < kReserveSlots; ++r) {
      IBOX_RETURN_IF_ERROR(remove_all(export_dir + "/scratch/s" +
                                      std::to_string(s) + "_r" +
                                      std::to_string(r)));
    }
  }
  in.hashes.resize(2 * kDirs);
  for (uint32_t d = 0; d < kDirs; ++d) {
    const std::string dir = export_dir + "/u" + std::to_string(d);
    IBOX_RETURN_IF_ERROR(make_dirs(dir));
    const std::string acl = dir_acl(o.seed, d);
    IBOX_RETURN_IF_ERROR(overwrite_file(dir + "/.__acl", acl));
    digest_mix(in.digest, acl);
    for (uint32_t j = 0; j < 2; ++j) {
      const std::string contents = file_contents(o.seed, d, j, in.stamps[2 * d + j]);
      in.hashes[2 * d + j] = fnv1a64(contents);
      IBOX_RETURN_IF_ERROR(
          overwrite_file(dir + "/f" + std::to_string(j), contents));
    }
  }
  // The streams start with every put slot present.
  for (int s = 0; s < kSessions; ++s) {
    for (int p = 0; p < kPutSlots; ++p) {
      IBOX_RETURN_IF_ERROR(overwrite_file(
          export_dir + "/u" + std::to_string(slot_dir(s, p)) + "/s" +
              std::to_string(s) + "_p" + std::to_string(p),
          in.put_payloads[s]));
    }
  }

  auto server = start_server(export_dir, state_dir, setup->ca);
  if (!server.ok()) return server.error();
  setup->server = std::move(*server);

  for (int s = 0; s < kSessions; ++s) {
    setup->creds.push_back(issue_credential(setup->ca, worker_dn(s)));
    const int64_t t0 = now_ns();
    auto session = connect_session(*setup->server, *setup->creds.back(),
                                   o.seed + static_cast<uint64_t>(s));
    setup->handshake_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!session.ok()) return session.error();
    SessionState st;
    st.index = s;
    st.session = std::move(*session);
    st.spans = SpanLog(static_cast<uint64_t>(s) + 1);
    auto handle = st.session->open("/u" + std::to_string(s) + "/s" +
                                       std::to_string(s) + ".log",
                                   O_RDWR | O_CREAT, 0644);
    if (!handle.ok()) return handle.error();
    st.log_handle = *handle;
    setup->sessions.push_back(std::move(st));
  }

  // Warm-up: the head of every stream, concurrently.
  std::vector<std::thread> threads;
  for (auto& st : setup->sessions) {
    threads.emplace_back([&st, &in] {
      for (int i = 0; i < kWarmupOps; ++i) step(st, in);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& st : setup->sessions) {
    if (st.failed != 0) return Error(EIO);
  }
  return setup;
}

struct PhaseResult {
  MetricValues e2e;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool valid = true;
  double wake_late_p99_us = 0;
  double achieved_ops_s = 0;
};

// Runs phase 1 (open loop) then phase 2 (closed loop) over `seconds`.
PhaseResult run_phases(MixSetup& setup, double seconds, bool traced) {
  auto& sessions = setup.sessions;
  for (auto& st : sessions) {
    st.ops = st.failed = 0;
    st.latency_us.clear();
    st.latency_window.clear();
    st.wake_late_us.clear();
    st.tracing = traced;
  }
  const double open_s = seconds * kOpenLoopShare;
  const size_t per_session =
      static_cast<size_t>(kOfferedOpsPerSec * open_s / kSessions);
  const double period_ns = 1e9 * kSessions / kOfferedOpsPerSec;
  const double open_cpu0 = cpu_seconds();
  const int64_t t0 = now_ns() + 2'000'000;  // let every thread reach its loop
  std::vector<std::thread> threads;
  for (auto& st : sessions) {
    const int64_t first_due =
        t0 + static_cast<int64_t>(period_ns * st.index / kSessions);
    threads.emplace_back([&st, &setup, t0, first_due, period_ns, per_session] {
      open_loop(st, setup.inputs, t0, first_due, period_ns, per_session);
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();

  PhaseResult r;
  std::vector<double> latency_us;
  std::vector<double> wake_late_us;
  // Whole windows only: the ops due in a last, partial window are pooled
  // but not sliced.
  std::vector<std::vector<double>> windows(std::max<size_t>(
      1, static_cast<size_t>(open_s * 1e9 / static_cast<double>(kLatencyWindowNs) +
                             1e-6)));
  int64_t phase1_end = t0;
  for (const auto& st : sessions) {
    latency_us.insert(latency_us.end(), st.latency_us.begin(), st.latency_us.end());
    for (size_t i = 0; i < st.latency_us.size(); ++i) {
      if (st.latency_window[i] < windows.size()) {
        windows[st.latency_window[i]].push_back(st.latency_us[i]);
      }
    }
    wake_late_us.insert(wake_late_us.end(), st.wake_late_us.begin(),
                        st.wake_late_us.end());
    phase1_end = std::max(phase1_end, st.last_end_ns);
  }
  const double offered_total = static_cast<double>(per_session * kSessions);
  r.achieved_ops_s = offered_total / (static_cast<double>(phase1_end - t0) / 1e9);
  r.wake_late_p99_us = quantile(wake_late_us, 0.99);
  r.valid = r.wake_late_p99_us <= kMaxWakeLateUs &&
            r.achieved_ops_s >= kMinAchievedShare * kOfferedOpsPerSec;

  const double cpu0 = cpu_seconds();
  const double open_cpu_s = cpu0 - open_cpu0;
  const int64_t t1 = now_ns();
  const int64_t end = t1 + static_cast<int64_t>((seconds - open_s) * 1e9);
  uint64_t ops_before = 0;
  for (const auto& st : sessions) ops_before += st.ops;
  for (auto& st : sessions) {
    threads.emplace_back(
        [&st, &setup, t1, end] { closed_loop(st, setup.inputs, t1, end); });
  }
  for (auto& t : threads) t.join();
  const double cpu_s = cpu_seconds() - cpu0;
  int64_t phase2_end = t1;
  std::vector<double> window_rates(sessions.front().windows.counts().size(), 0);
  for (const auto& st : sessions) {
    r.attempted += st.ops;
    r.failed += st.failed;
    phase2_end = std::max(phase2_end, st.last_end_ns);
    const std::vector<uint64_t>& counts = st.windows.counts();
    for (size_t w = 0; w < window_rates.size(); ++w) {
      window_rates[w] += static_cast<double>(counts[w]) * 1e9 / kWindowNs;
    }
  }
  const double closed_ops = static_cast<double>(r.attempted - ops_before);

  r.e2e["latency_p50_ms"] = median_of_quantiles(windows, 0.5) / 1e3;
  r.e2e["latency_tail_ms"] = median_of_quantiles(windows, kTailQuantile) / 1e3;
  r.e2e["throughput_per_s"] = median(window_rates);
  r.e2e["cpu_ms_per_op"] = closed_ops > 0 ? cpu_s / closed_ops * 1e3 : 0.0;
  std::printf(
      "phase 1 (open loop): %zu ops offered at %.0f/s, achieved %.0f/s; "
      "p50 and tail = p%.0f are medians over %zu windows of %.0f s; "
      "generator wake lateness p99 %.1f us -> %s\n",
      latency_us.size(), kOfferedOpsPerSec, r.achieved_ops_s,
      kTailQuantile * 100, windows.size(),
      static_cast<double>(kLatencyWindowNs) / 1e9, r.wake_late_p99_us,
      r.valid ? "valid" : "INVALID");
  std::printf("phase 1 latency from due time, pooled: p50 %.1f us, p90 %.1f us, "
              "p95 %.1f us, p99 %.1f us, p99.9 %.1f us\n",
              quantile(latency_us, 0.5), quantile(latency_us, 0.9),
              quantile(latency_us, 0.95), quantile(latency_us, 0.99),
              quantile(latency_us, 0.999));
  std::printf("phase 2 (closed loop): %.0f ops in %.3f s; median of %zu "
              "windows %.0f ops/s (min %.0f, max %.0f)\n",
              closed_ops, static_cast<double>(phase2_end - t1) / 1e9,
              window_rates.size(), median(window_rates),
              quantile(window_rates, 0), quantile(window_rates, 1));
  std::printf("CPU per op: phase 1 %.4f ms, phase 2 %.4f ms\n",
              open_cpu_s / offered_total * 1e3, r.e2e["cpu_ms_per_op"]);
  return r;
}

}  // namespace

Result<RunResult> run_chirp_mix(const Options& o) {
  // ---- set-up: generate and stage inputs, start the server, connect and
  // warm up the sessions; repeated, median reported ----
  std::unique_ptr<MixSetup> setup;
  std::vector<Stopwatch> setup_rounds(kSetupRounds);
  for (Stopwatch& round : setup_rounds) {
    setup.reset();
    round.start();
    auto staged = stage(o);
    if (!staged.ok()) {
      std::fprintf(stderr, "chirp_mix: set-up failed: %s\n",
                   staged.error().message().c_str());
      return staged.error();
    }
    setup = std::move(*staged);
    round.stop();
  }
  const double setup_median = report_setup("chirp_mix", setup_rounds);
  std::printf("chirp_mix: seed %" PRIu64 ", input digest %016" PRIx64 "\n",
              o.seed, setup->inputs.digest);

  RunResult result;
  if (!o.trace) {
    const PhaseResult r = run_phases(*setup, o.seconds, false);
    result.attempted = r.attempted;
    result.failed = r.failed;
    result.valid = r.valid;
    result.metrics = r.e2e;
    result.metrics["setup_s"] = setup_median;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const PhaseResult untraced = run_phases(*setup, o.seconds / 2, false);
  const ServerSample before = sample_server(*setup->server);
  const PhaseResult traced = run_phases(*setup, o.seconds / 2, true);
  const ServerSample after = sample_server(*setup->server);
  result.attempted = untraced.attempted + traced.attempted;
  result.failed = untraced.failed + traced.failed;
  result.valid = untraced.valid && traced.valid;

  MetricValues& m = result.metrics;
  fill_server_metrics(before, after, m);
  std::vector<double> class_us[3];
  std::vector<double> rpc_us;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  std::vector<uint64_t> sampled_ids;
  for (const auto& st : setup->sessions) {
    for (int c = 0; c < 3; ++c) {
      class_us[c].insert(class_us[c].end(), st.class_us[c].begin(),
                         st.class_us[c].end());
    }
    rpc_us.insert(rpc_us.end(), st.rpc_us.begin(), st.rpc_us.end());
    retries += st.session->stats().retries;
    reconnects += st.session->stats().reconnects;
    // The last few RPCs of each session, to join against the server ring.
    const auto& spans = st.spans.spans();
    for (size_t i = spans.size(), taken = 0; i > 0 && taken < 32; --i) {
      if (spans[i - 1].trace_id != 0) {
        sampled_ids.push_back(spans[i - 1].trace_id);
        taken++;
      }
    }
  }
  std::set<uint64_t> ring_ids;
  for (const TraceEvent& e : setup->server->trace().snapshot()) {
    if (e.kind == TraceKind::kRpc) ring_ids.insert(e.trace_id);
  }
  size_t joined = 0;
  for (uint64_t id : sampled_ids) joined += ring_ids.count(id);
  m["chirp.read_p50_us"] = median(class_us[0]);
  m["chirp.write_p50_us"] = median(class_us[1]);
  m["chirp.mutate_p50_us"] = median(class_us[2]);
  m["chirp.transport_us"] = median(rpc_us) - m["chirp.server_p50_us"];
  m["chirp.session_retries"] = static_cast<double>(retries);
  m["chirp.session_reconnects"] = static_cast<double>(reconnects);
  m["chirp.trace_join_frac"] =
      sampled_ids.empty() ? 0.0
                          : static_cast<double>(joined) /
                                static_cast<double>(sampled_ids.size());
  m["chirp.trace_ring_dropped"] =
      static_cast<double>(setup->server->trace().dropped());
  m["auth.handshake_us"] = median(setup->handshake_us);
  m["loadgen.late_p99_us"] = traced.wake_late_p99_us;
  m["loadgen.offered_ops_s"] = kOfferedOpsPerSec;
  m["loadgen.achieved_ops_s"] = traced.achieved_ops_s;
  std::printf("trace join: %zu of %zu sampled rpc spans found in the server "
              "ring (ring dropped %" PRIu64 " events)\n",
              joined, sampled_ids.size(), setup->server->trace().dropped());
  report_overhead(untraced.e2e, traced.e2e, m);
  std::vector<const SpanLog*> logs;
  for (const auto& st : setup->sessions) logs.push_back(&st.spans);
  const std::string span_path = o.spans_dir + "/spans-chirp_mix.jsonl";
  std::printf("spans: %zu written to %s\n", write_spans(span_path, logs),
              span_path.c_str());
  return result;
}

}  // namespace perfbench
