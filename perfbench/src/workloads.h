// The three perfbench workloads (README.md says why each exists) and the
// boxed child programs two of them run.
#pragma once

#include <cstring>
#include <string>

#include "harness.h"
#include "timing_driver.h"

namespace perfbench {

// Each returns an error (after printing why) when set-up fails; a run that
// measured returns its result, failures included.
ibox::Result<RunResult> run_box_build(const Options& options);
ibox::Result<RunResult> run_box_remote(const Options& options);
ibox::Result<RunResult> run_chirp_mix(const Options& options);

// ---- boxed children (child.cc); main() dispatches to them by flag ----

// --child-build DIR SEED: the make profile of sim/app_profile over DIR;
// prints the profile checksum.
int build_child_main(const std::string& work_dir, uint64_t seed,
                     const std::string& self);
// --spawn-child DIR: one "compiler" exec'd by the make profile.
int compile_child_main(const std::string& work_dir);
// --child-remote MOUNT NONCE: four forked workers, each reading w<k>/input.bin
// under MOUNT and writing w<k>/output.bin; prints "w<k> <digest>" per worker.
int remote_child_main(const std::string& mount, uint64_t nonce);

// box_remote data shapes, shared by the child and the output check.
inline constexpr int kRemoteWorkers = 4;
inline constexpr size_t kRemoteInputBytes = 4u << 20;
inline constexpr size_t kRemoteOutputBytes = 1u << 20;
inline constexpr size_t kRemoteBlock = 64u << 10;
inline constexpr int kRemoteMetaFiles = 8;

// Word-wise FNV-style fold used as the input digest the workers report.
inline uint64_t fold_bytes(uint64_t h, const char* p, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  for (; i < n; ++i) h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ull;
  return h;
}
inline constexpr uint64_t kFoldBasis = 0xcbf29ce484222325ull;

// Output byte i of a worker is input byte i XOR this mask, so a job's
// output proves it read its input and differs from the previous job's.
inline char output_mask(uint64_t nonce) {
  return static_cast<char>(nonce % 251 + 1);
}

// ---- box_build pieces shared with the tests ----

// The staged box_build input: the make profile's source tree and data file
// under one governing ACL, at `work` (host path == box path).
struct BuildTree {
  std::string work;
  uint64_t seed = 0;
};

// Stages (or restages in place) the tree for `seed` under `root`.
ibox::Result<BuildTree> stage_build_tree(const std::string& root,
                                         uint64_t seed);

struct BuildJob {
  int exit_code = -1;
  uint64_t checksum = 0;  // parsed from the child's stdout (0 if absent)
  ibox::SupervisorStats stats;
  int64_t create_ns = 0;  // time in BoxContext::Create
  int64_t run_ns = 0;     // time in Supervisor::run
};

// Runs one box_build job: a fresh box for `visitor` (default BoxOptions but
// for its state directory, created under `state_parent`), then the make
// child under a Supervisor with `config`. With `probe`, the work tree is
// served through a TimingDriver mount; with `spans`, box.create and
// supervisor.run spans (and the probe's driver.<op> spans under the latter)
// are recorded under `parent_span`.
ibox::Result<BuildJob> run_build_job(const BuildTree& tree,
                                     const ibox::Identity& visitor,
                                     const std::string& self,
                                     const std::string& state_parent,
                                     const ibox::SandboxConfig& config,
                                     DriverProbe* probe, SpanLog* spans,
                                     uint64_t parent_span);

// The same child run natively (no box): its checksum, or an error when it
// failed.
ibox::Result<uint64_t> run_build_native(const BuildTree& tree,
                                        const std::string& self);

}  // namespace perfbench
