#include "timing_driver.h"

namespace perfbench {

using namespace ibox;

namespace {

// Runs `call`, charging its duration to the probe as one call named `name`.
template <typename F>
auto timed(DriverProbe& probe, const char* name, F&& call) {
  const int64_t start = now_ns();
  auto result = call();
  const int64_t end = now_ns();
  probe.calls++;
  probe.busy_ns += end - start;
  if (probe.spans != nullptr) probe.spans->add(probe.parent, name, start, end);
  return result;
}

class TimingFileHandle final : public FileHandle {
 public:
  TimingFileHandle(std::unique_ptr<FileHandle> inner, DriverProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Result<size_t> pread(void* buf, size_t count, uint64_t offset) override {
    auto got = timed(probe_, "driver.pread",
                     [&] { return inner_->pread(buf, count, offset); });
    if (got.ok()) probe_.bytes += *got;
    return got;
  }
  Result<size_t> pwrite(const void* buf, size_t count,
                        uint64_t offset) override {
    auto put = timed(probe_, "driver.pwrite",
                     [&] { return inner_->pwrite(buf, count, offset); });
    if (put.ok()) probe_.bytes += *put;
    return put;
  }
  Result<VfsStat> fstat() override {
    return timed(probe_, "driver.fstat", [&] { return inner_->fstat(); });
  }
  Status ftruncate(uint64_t length) override {
    return timed(probe_, "driver.ftruncate",
                 [&] { return inner_->ftruncate(length); });
  }
  Status fsync() override {
    return timed(probe_, "driver.fsync", [&] { return inner_->fsync(); });
  }
  // A getter, not an operation: forwarded untimed so the supervisor can
  // still splice local data through the real descriptor.
  int native_fd() const override { return inner_->native_fd(); }

 private:
  std::unique_ptr<FileHandle> inner_;
  DriverProbe& probe_;
};

}  // namespace

Result<std::unique_ptr<FileHandle>> TimingDriver::open(
    const RequestContext& ctx, const std::string& path, int flags, int mode) {
  auto handle = timed(probe_, "driver.open",
                      [&] { return inner_->open(ctx, path, flags, mode); });
  if (!handle.ok()) return handle.error();
  return std::unique_ptr<FileHandle>(
      std::make_unique<TimingFileHandle>(std::move(*handle), probe_));
}

Result<VfsStat> TimingDriver::stat(const RequestContext& ctx,
                                   const std::string& path) {
  return timed(probe_, "driver.stat", [&] { return inner_->stat(ctx, path); });
}

Result<VfsStat> TimingDriver::lstat(const RequestContext& ctx,
                                    const std::string& path) {
  return timed(probe_, "driver.lstat",
               [&] { return inner_->lstat(ctx, path); });
}

Status TimingDriver::mkdir(const RequestContext& ctx, const std::string& path,
                           int mode) {
  return timed(probe_, "driver.mkdir",
               [&] { return inner_->mkdir(ctx, path, mode); });
}

Status TimingDriver::rmdir(const RequestContext& ctx,
                           const std::string& path) {
  return timed(probe_, "driver.rmdir",
               [&] { return inner_->rmdir(ctx, path); });
}

Status TimingDriver::unlink(const RequestContext& ctx,
                            const std::string& path) {
  return timed(probe_, "driver.unlink",
               [&] { return inner_->unlink(ctx, path); });
}

Status TimingDriver::rename(const RequestContext& ctx, const std::string& from,
                            const std::string& to) {
  return timed(probe_, "driver.rename",
               [&] { return inner_->rename(ctx, from, to); });
}

Result<std::vector<DirEntry>> TimingDriver::readdir(const RequestContext& ctx,
                                                    const std::string& path) {
  return timed(probe_, "driver.readdir",
               [&] { return inner_->readdir(ctx, path); });
}

Status TimingDriver::symlink(const RequestContext& ctx,
                             const std::string& target,
                             const std::string& linkpath) {
  return timed(probe_, "driver.symlink",
               [&] { return inner_->symlink(ctx, target, linkpath); });
}

Result<std::string> TimingDriver::readlink(const RequestContext& ctx,
                                           const std::string& path) {
  return timed(probe_, "driver.readlink",
               [&] { return inner_->readlink(ctx, path); });
}

Status TimingDriver::link(const RequestContext& ctx, const std::string& oldpath,
                          const std::string& newpath) {
  return timed(probe_, "driver.link",
               [&] { return inner_->link(ctx, oldpath, newpath); });
}

Status TimingDriver::truncate(const RequestContext& ctx,
                              const std::string& path, uint64_t length) {
  return timed(probe_, "driver.truncate",
               [&] { return inner_->truncate(ctx, path, length); });
}

Status TimingDriver::utime(const RequestContext& ctx, const std::string& path,
                           uint64_t atime, uint64_t mtime) {
  return timed(probe_, "driver.utime",
               [&] { return inner_->utime(ctx, path, atime, mtime); });
}

Status TimingDriver::chmod(const RequestContext& ctx, const std::string& path,
                           int mode) {
  return timed(probe_, "driver.chmod",
               [&] { return inner_->chmod(ctx, path, mode); });
}

Status TimingDriver::access(const RequestContext& ctx, const std::string& path,
                            Access wanted) {
  return timed(probe_, "driver.access",
               [&] { return inner_->access(ctx, path, wanted); });
}

Result<std::string> TimingDriver::getacl(const RequestContext& ctx,
                                         const std::string& path) {
  return timed(probe_, "driver.getacl",
               [&] { return inner_->getacl(ctx, path); });
}

Status TimingDriver::setacl(const RequestContext& ctx, const std::string& path,
                            const std::string& subject,
                            const std::string& rights) {
  return timed(probe_, "driver.setacl",
               [&] { return inner_->setacl(ctx, path, subject, rights); });
}

}  // namespace perfbench
