// Layer timings taken from outside the kernel: span scopes the benchmark
// opens around every call it makes into a layer, and decorators that open
// them around the calls layers make into each other (a BlockDevice under the
// file system, a FileSystem under the Vfs, a SocketLayer over each stack).
//
// A span is (name, start, end, parent, request id), recorded into the
// calling thread's memory. When a thread's outermost span closes, its tree is
// folded: each span's self time is its duration minus the part its children
// cover, and both feed per-name aggregates. Spans that open with no parent on
// a thread the benchmark does not drive (aio engine workers) take the request
// id of the batch that owns the file they touch; the submitter's
// aio.harvest_wait span then subtracts the time those worker spans cover, so
// the wait is not counted twice.
//
// Recording is off unless SetEnabled(true): an idle decorator costs one
// relaxed load per call.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/block/block_device.h"
#include "src/net/socket_layer.h"
#include "src/vfs/filesystem.h"

namespace perfbench {

enum class Sp : uint8_t {
  // Request roots, one per closed-loop op.
  kReq,
  kBatch,
  kFileOp,
  // net (SocketLayer decorator)
  kNetSend,
  kNetRecv,
  kNetCtl,
  // vfs (benchmark call sites)
  kVfsPread,
  kVfsPwrite,
  kVfsRead,
  kVfsWrite,
  kVfsOpen,
  kVfsClose,
  kVfsStat,
  kVfsUnlink,
  kVfsRename,
  kVfsReaddir,
  kVfsFsync,
  kVfsSync,
  kVfsOther,
  // fs (FileSystem decorator)
  kFsReadAt,
  kFsWriteAt,
  kFsWriteAtBatch,
  kFsStatHandle,
  kFsOpenByPath,
  kFsCreate,
  kFsStat,
  kFsUnlink,
  kFsRename,
  kFsReaddir,
  kFsFsync,
  kFsSync,
  kFsOther,
  // block (BlockDevice decorator)
  kBlockRead,
  kBlockWrite,
  kBlockFlush,
  // aio (benchmark call sites)
  kAioEnqueue,
  kAioSubmit,
  kAioHarvestWait,
  kCount,
};
inline constexpr size_t kSpanNames = static_cast<size_t>(Sp::kCount);

// "net.send", "fs.read_at", ...; roots are "req", "batch", "op".
const char* SpanName(Sp name);
// "net", "vfs", "fs", "block", "aio"; nullptr for roots.
const char* SpanLayer(Sp name);

// Log-linear histogram: 32 sub-buckets per power of two (about 3% error).
class LogHist {
 public:
  void Add(uint64_t v);
  void Merge(const LogHist& other);
  uint64_t Quantile(double q) const;

 private:
  static constexpr size_t kSub = 32;
  static constexpr size_t kBuckets = 64 * kSub;
  static size_t Index(uint64_t v);
  static uint64_t Mid(size_t index);
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

struct SpanAgg {
  uint64_t count = 0;
  uint64_t self_ns = 0;
  LogHist dur;
};

struct TraceSummary {
  std::array<SpanAgg, kSpanNames> spans;
  uint64_t roots = 0;          // request roots folded
  uint64_t root_dur_ns = 0;    // their summed durations
};

namespace trace {

void SetEnabled(bool enabled);
bool Enabled();
// Merges every thread's aggregates (call with the load quiescent).
TraceSummary Collect();
// Drops all aggregates, pending cross-thread spans and the span sample.
void Reset();
// Writes the raw spans kept from the first request trees of each thread
// (name, start, end, parent, request id) as JSON lines. Returns false if the
// file cannot be written.
bool WriteSpanSample(const std::string& path);

// Max request owners (callers whose files worker threads may touch).
inline constexpr int kMaxOwners = 8;

}  // namespace trace

// RAII span. `req_hint` is the request id used when this span opens with no
// parent on its thread.
class Scope {
 public:
  explicit Scope(Sp name, uint64_t req_hint = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int32_t index_ = -1;  // -1: not recording
};

// Runs `call` inside a span named `name` and returns its result.
template <typename F>
auto Timed(Sp name, F&& call) {
  Scope scope(name);
  return call();
}

// A request root. `owner` is the caller slot (< trace::kMaxOwners); worker
// spans on that owner's files are attributed to this request while it is open.
class RootScope : public Scope {
 public:
  RootScope(Sp name, int owner);

 private:
  static uint64_t NextRequest(int owner);
};

class TracedBlockDevice : public skern::BlockDevice {
 public:
  explicit TracedBlockDevice(skern::BlockDevice& inner) : inner_(inner) {}
  skern::Status ReadBlock(uint64_t block, skern::MutableByteView out) override;
  skern::Status WriteBlock(uint64_t block, skern::ByteView data) override;
  skern::Status Flush() override;
  uint64_t BlockCount() const override { return inner_.BlockCount(); }

 private:
  skern::BlockDevice& inner_;
};

// Forwards every FileSystem virtual, including the optional handle plane.
// `owner_of_path` (may be empty) maps a path to the caller slot that owns it,
// for attributing worker-thread handle I/O.
class TracedFileSystem : public skern::FileSystem {
 public:
  TracedFileSystem(std::shared_ptr<skern::FileSystem> inner,
                   std::function<int(const std::string&)> owner_of_path);

  skern::Status Create(const std::string& path) override;
  skern::Status Mkdir(const std::string& path) override;
  skern::Status Unlink(const std::string& path) override;
  skern::Status Rmdir(const std::string& path) override;
  skern::Status Write(const std::string& path, uint64_t offset, skern::ByteView data) override;
  skern::Result<skern::Bytes> Read(const std::string& path, uint64_t offset,
                                   uint64_t length) override;
  skern::Status Truncate(const std::string& path, uint64_t new_size) override;
  skern::Status Rename(const std::string& from, const std::string& to) override;
  skern::Result<skern::FileAttr> Stat(const std::string& path) override;
  skern::Result<std::vector<std::string>> Readdir(const std::string& path) override;
  skern::Status Chmod(const std::string& path, uint32_t mode) override;
  skern::Status Chown(const std::string& path, uint32_t uid, uint32_t gid) override;
  skern::Status Sync() override;
  skern::Status Fsync(const std::string& path) override;
  std::string Name() const override { return inner_->Name(); }

  bool SupportsHandleIo() const override { return inner_->SupportsHandleIo(); }
  skern::Result<skern::InodeHandle> OpenByPath(const std::string& path) override;
  void CloseHandle(skern::InodeHandle handle) override;
  skern::Result<skern::Bytes> ReadAt(skern::InodeHandle handle, uint64_t offset,
                                     uint64_t length) override;
  skern::Status WriteAt(skern::InodeHandle handle, uint64_t offset,
                        skern::ByteView data) override;
  skern::Result<size_t> WriteAtBatch(skern::InodeHandle handle, const skern::WriteSlice* slices,
                                     size_t count) override;
  skern::Result<skern::FileAttr> StatHandle(skern::InodeHandle handle) override;
  skern::Status FsyncHandle(skern::InodeHandle handle) override;

 private:
  // Request id for a handle op that opens with no parent span.
  uint64_t HandleRequest(skern::InodeHandle handle);

  std::shared_ptr<skern::FileSystem> inner_;
  std::function<int(const std::string&)> owner_of_path_;
  std::mutex owners_mu_;
  std::unordered_map<skern::InodeHandle, int> owners_;  // guarded by owners_mu_
};

class TracedSocketLayer : public skern::SocketLayer {
 public:
  explicit TracedSocketLayer(std::unique_ptr<skern::SocketLayer> inner)
      : inner_(std::move(inner)) {}

  skern::Result<skern::SocketId> Socket(uint8_t proto) override;
  skern::Status Bind(skern::SocketId s, uint16_t port) override;
  skern::Status Listen(skern::SocketId s) override;
  skern::Result<skern::SocketId> Accept(skern::SocketId s) override;
  skern::Status Connect(skern::SocketId s, skern::NetAddr remote) override;
  skern::Status Send(skern::SocketId s, skern::ByteView data) override;
  skern::Result<skern::Bytes> Recv(skern::SocketId s, uint64_t max) override;
  skern::Status SendTo(skern::SocketId s, skern::NetAddr remote, skern::ByteView data) override;
  skern::Result<std::pair<skern::NetAddr, skern::Bytes>> RecvFrom(skern::SocketId s) override;
  skern::Status Close(skern::SocketId s) override;
  skern::Status SendChain(skern::SocketId s, skern::BufChain chain) override;
  skern::Result<skern::BufChain> RecvChain(skern::SocketId s, uint64_t max) override;
  skern::Status SetOption(skern::SocketId s, int option, int64_t value) override;
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<skern::SocketLayer> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
