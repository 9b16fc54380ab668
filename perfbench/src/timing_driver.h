// TimingDriver: a Driver decorator that times every call it forwards.
//
// The traced runs mount it over the layer being measured (the box_build
// work tree, the box_remote ChirpDriver) so per-call counts, time and bytes
// are taken where the work happens, using only the public Driver and
// FileHandle interfaces. It forwards every virtual of both, so a boxed
// program sees the same filesystem with and without it (checked by the
// perfbench tests).
#pragma once

#include <memory>

#include "harness.h"
#include "vfs/driver.h"

namespace perfbench {

// What a TimingDriver accumulates. Single-threaded, like the supervisor
// event loop that calls the driver.
struct DriverProbe {
  uint64_t calls = 0;
  int64_t busy_ns = 0;
  uint64_t bytes = 0;  // moved by pread/pwrite
  // When set, one "driver.<op>" span per call, under `parent`. The job
  // runners point these at the job's supervisor.run span.
  SpanLog* spans = nullptr;
  uint64_t parent = 0;
};

class TimingDriver final : public ibox::Driver {
 public:
  TimingDriver(std::unique_ptr<ibox::Driver> inner, DriverProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string_view scheme() const override { return inner_->scheme(); }

  ibox::Result<std::unique_ptr<ibox::FileHandle>> open(
      const ibox::RequestContext& ctx, const std::string& path, int flags,
      int mode) override;
  ibox::Result<ibox::VfsStat> stat(const ibox::RequestContext& ctx,
                                   const std::string& path) override;
  ibox::Result<ibox::VfsStat> lstat(const ibox::RequestContext& ctx,
                                    const std::string& path) override;
  ibox::Status mkdir(const ibox::RequestContext& ctx, const std::string& path,
                     int mode) override;
  ibox::Status rmdir(const ibox::RequestContext& ctx,
                     const std::string& path) override;
  ibox::Status unlink(const ibox::RequestContext& ctx,
                      const std::string& path) override;
  ibox::Status rename(const ibox::RequestContext& ctx, const std::string& from,
                      const std::string& to) override;
  ibox::Result<std::vector<ibox::DirEntry>> readdir(
      const ibox::RequestContext& ctx, const std::string& path) override;
  ibox::Status symlink(const ibox::RequestContext& ctx,
                       const std::string& target,
                       const std::string& linkpath) override;
  ibox::Result<std::string> readlink(const ibox::RequestContext& ctx,
                                     const std::string& path) override;
  ibox::Status link(const ibox::RequestContext& ctx, const std::string& oldpath,
                    const std::string& newpath) override;
  ibox::Status truncate(const ibox::RequestContext& ctx,
                        const std::string& path, uint64_t length) override;
  ibox::Status utime(const ibox::RequestContext& ctx, const std::string& path,
                     uint64_t atime, uint64_t mtime) override;
  ibox::Status chmod(const ibox::RequestContext& ctx, const std::string& path,
                     int mode) override;
  ibox::Status access(const ibox::RequestContext& ctx, const std::string& path,
                      ibox::Access wanted) override;
  ibox::Result<std::string> getacl(const ibox::RequestContext& ctx,
                                   const std::string& path) override;
  ibox::Status setacl(const ibox::RequestContext& ctx, const std::string& path,
                      const std::string& subject,
                      const std::string& rights) override;

 private:
  std::unique_ptr<ibox::Driver> inner_;
  DriverProbe& probe_;
};

}  // namespace perfbench
