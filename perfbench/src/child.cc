// The programs the boxed workloads run inside an identity box. They are
// this binary re-exec'd with a child flag, so the benchmark needs nothing
// installed beyond what it builds.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/app_profile.h"
#include "util/fs.h"
#include "workloads.h"

namespace perfbench {

using namespace ibox;

int build_child_main(const std::string& work_dir, uint64_t seed,
                     const std::string& self) {
  auto profile = profile_by_name("make");
  if (!profile.ok()) return 1;
  auto checksum = run_profile(*profile, work_dir, seed, self);
  if (!checksum.ok()) {
    std::fprintf(stderr, "build child: %s\n", checksum.error().message().c_str());
    return 1;
  }
  std::printf("%" PRIu64 "\n", *checksum);
  return 0;
}

int compile_child_main(const std::string& work_dir) {
  // A compiler-like burst over the profile's header tree (same layout as
  // sim/app_profile): stat and read a few headers, write one object. Its
  // compute is a token amount, unlike sim/app_profile's own spawn child,
  // so that a boxed job's time is interposition rather than hashing.
  uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string path = work_dir + "/src" + std::to_string(i % 16) +
                             "/f" + std::to_string(i) + ".h";
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return 1;
    UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    char buf[64];
    if (!fd || ::read(fd.get(), buf, sizeof(buf)) <= 0) return 1;
    checksum = checksum * 31 + static_cast<unsigned char>(buf[0]) + st.st_size;
  }
  for (int round = 0; round < 20000; ++round) {
    checksum ^= checksum >> 33;
    checksum *= 0xff51afd7ed558ccdull;
  }
  return write_file(work_dir + "/out/unit.o", std::to_string(checksum)).ok()
             ? 0
             : 1;
}

namespace {

int remote_worker(const std::string& dir, int index, uint64_t nonce,
                  int report_fd) {
  std::string block(kRemoteBlock, '\0');
  std::string head;  // the first kRemoteOutputBytes of the input
  head.reserve(kRemoteOutputBytes);
  uint64_t digest = kFoldBasis;
  {
    UniqueFd in(::open((dir + "/input.bin").c_str(), O_RDONLY | O_CLOEXEC));
    if (!in) return 1;
    while (true) {
      const ssize_t n = ::read(in.get(), block.data(), block.size());
      if (n < 0) return 1;
      if (n == 0) break;
      digest = fold_bytes(digest, block.data(), static_cast<size_t>(n));
      const size_t keep =
          std::min(static_cast<size_t>(n), kRemoteOutputBytes - head.size());
      head.append(block.data(), keep);
    }
  }
  if (head.size() != kRemoteOutputBytes) return 1;
  const char mask = output_mask(nonce);
  for (char& c : head) c ^= mask;
  {
    // Every byte of the fixed-size output is rewritten, so the file is
    // overwritten in place rather than truncated (see overwrite_file).
    UniqueFd out(::open((dir + "/output.bin").c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC, 0644));
    if (!out) return 1;
    for (size_t off = 0; off < head.size(); off += kRemoteBlock) {
      if (::write(out.get(), head.data() + off, kRemoteBlock) !=
          static_cast<ssize_t>(kRemoteBlock)) {
        return 1;
      }
    }
  }
  // The metadata burst a job does around its bulk I/O.
  for (int i = 0; i < 50; ++i) {
    const std::string meta = dir + "/m" + std::to_string(i % kRemoteMetaFiles);
    if (i % 2 == 0) {
      struct stat st;
      if (::stat(meta.c_str(), &st) != 0) return 1;
    } else {
      UniqueFd fd(::open(meta.c_str(), O_RDONLY | O_CLOEXEC));
      if (!fd) return 1;
    }
  }
  char line[64];
  const int len = std::snprintf(line, sizeof(line), "w%d %016" PRIx64 "\n",
                                index, digest);
  return ::write(report_fd, line, static_cast<size_t>(len)) == len ? 0 : 1;
}

}  // namespace

int remote_child_main(const std::string& mount, uint64_t nonce) {
  // Workers report through a pipe (each line one atomic write) and the
  // parent prints them with a single write: concurrent writes by the
  // workers to the inherited stdout occasionally overwrote each other.
  int report[2];
  if (::pipe(report) != 0) return 1;
  std::vector<pid_t> pids;
  for (int k = 0; k < kRemoteWorkers; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      ::close(report[0]);
      ::_exit(remote_worker(mount + "/w" + std::to_string(k), k, nonce,
                            report[1]));
    }
    pids.push_back(pid);
  }
  ::close(report[1]);
  std::string lines;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(report[0], buf, sizeof(buf))) > 0) {
    lines.append(buf, static_cast<size_t>(n));
  }
  ::close(report[0]);
  int failures = 0;
  for (pid_t pid : pids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) failures++;
  }
  if (failures != 0) return 1;
  return ::write(STDOUT_FILENO, lines.data(), lines.size()) ==
                 static_cast<ssize_t>(lines.size())
             ? 0
             : 1;
}

}  // namespace perfbench
