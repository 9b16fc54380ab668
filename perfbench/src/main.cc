// perfbench: the repository benchmark. See README.md in this directory.
//
//   perfbench --work-root DIR --workload box_build|chirp_mix|box_remote
//             --seed N --seconds S --trace 0|1
//
// Prints the run's seed, input digest and metrics by name and unit, then,
// as the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits non-zero, without a result line, when set-up fails.
#include <sched.h>
#include <sys/mount.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <string>

#include "util/fs.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string self_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

bool parse_u64(const char* text, uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

// Mounts a tmpfs at `dir` in a mount namespace of this process's own, so
// the staged inputs, box state and outputs live in memory: the runs measure
// the program, not the shared disk under the checkout, whose writeback
// stalls moved latencies by tens of milliseconds from run to run. The mount
// and everything in it go away when the process exits. Returns 0, or the
// errno of the step that failed (the files then stay on the checkout's own
// file system).
int mount_memory_scratch(const std::string& dir) {
  if (::unshare(CLONE_NEWNS) != 0) return errno;
  // Private first, so the tmpfs cannot propagate to the parent namespace.
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return errno;
  }
  if (::mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
              "size=1g,mode=0755") != 0) {
    return errno;
  }
  return 0;
}

// Pins this process, and with it every thread and child it starts, to one
// CPU: the last of those it may run on. The gated metrics are CPU time, and
// on the 4-vCPU VM the benchmark was defined on, an unpinned run's CPU time
// was 20-45 % higher than a pinned one's for the same jobs: the cost of
// waking and interrupting the other vCPUs (ptrace stops, socket hand-offs,
// TLB shootdowns), which the hypervisor sets and which moved with other
// tenants' load. Returns the CPU, or -1 when the affinity was not set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --work-root DIR --workload "
               "box_build|chirp_mix|box_remote --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

void print_json(const RunResult& r, bool correct,
                const std::vector<MetricDef>& defs) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = r.metrics.find(def.name);
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, value, def.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Boxed children: this binary re-exec'd by the boxed workloads.
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "--spawn-child" && argc == 3) return compile_child_main(argv[2]);
  if (mode == "--child-build" && argc == 4) {
    uint64_t seed = 0;
    if (!parse_u64(argv[3], seed)) return 2;
    return build_child_main(argv[2], seed, self_path());
  }
  if (mode == "--child-remote" && argc == 4) {
    uint64_t nonce = 0;
    if (!parse_u64(argv[3], nonce)) return 2;
    return remote_child_main(argv[2], nonce);
  }

  Options o;
  o.self = self_path();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--work-root") {
      o.work_root = value;
    } else if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      o.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number) && number > 0) {
      o.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      o.trace = number == 1;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || o.work_root.empty() || o.self.empty()) return usage();
  o.spans_dir = o.work_root;
  o.work_root += "/mem";
  if (!ibox::make_dirs(o.work_root).ok()) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", o.work_root.c_str());
    return 1;
  }
  if (const int cpu = pin_to_one_cpu(); cpu >= 0) {
    std::printf("perfbench: pinned to CPU %d\n", cpu);
  } else {
    std::printf("perfbench: could not pin to one CPU (%s); CPU times include "
                "cross-CPU wake-ups\n",
                std::strerror(errno));
  }
  if (const int err = mount_memory_scratch(o.work_root); err != 0) {
    std::printf("perfbench: no tmpfs for the work files (%s); they stay on "
                "the checkout's file system\n",
                std::strerror(err));
  }
  ibox::Result<RunResult> run = ibox::Error(EINVAL);
  if (o.workload == "box_build") {
    run = run_box_build(o);
  } else if (o.workload == "chirp_mix") {
    run = run_chirp_mix(o);
  } else if (o.workload == "box_remote") {
    run = run_box_remote(o);
  } else {
    return usage();
  }
  if (!run.ok()) return 1;

  const RunResult& r = *run;
  const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("%s run, %s, %.0f s:\n", o.workload.c_str(),
              o.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)",
              o.seconds);
  for (const MetricDef& def : defs) {
    const auto it = r.metrics.find(def.name);
    std::printf("  %-36s %16.4f %s\n", def.name,
                it == r.metrics.end() ? 0.0 : it->second, def.unit);
  }
  if (!o.trace) {
    std::printf("wall clock (printed, not gated):\n");
    for (const MetricDef& def : wall_clock_metrics()) {
      const auto it = r.metrics.find(def.name);
      std::printf("  %-36s %16.4f %s\n", def.name,
                  it == r.metrics.end() ? 0.0 : it->second, def.unit);
    }
  }
  const double failed_frac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-36s %16.6f ratio (%" PRIu64 " of %" PRIu64 ")\n",
              "failed_frac", failed_frac, r.failed, r.attempted);
  if (!r.valid) {
    std::printf("run INVALID: the open-loop generator fell behind its "
                "schedule; the latency figures describe the host's load, not "
                "the system\n");
  }
  // `correct` is about outputs: every operation's result checked. Whether
  // the open-loop generator kept its schedule is the host's doing; it is
  // printed above and in the traced run's loadgen.* metrics.
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::fflush(stdout);
  print_json(r, correct, defs);
  return 0;
}
