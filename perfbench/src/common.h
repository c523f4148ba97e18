// Shared pieces of the skern service benchmark: the benchmark's own random
// generator and content patterns (so op streams never change when the
// kernel's Rng does), failure accounting, per-caller tallies, the workload
// interface, and the stats snapshot every workload takes at the edges of its
// timed window.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/block/block_device.h"
#include "src/fs/safefs/safefs.h"
#include "src/vfs/vfs.h"

namespace perfbench {

uint64_t NowNs();

// SplitMix64 finalizer; also the content-pattern hash.
uint64_t Mix64(uint64_t x);

// SplitMix64 stream.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound);  // uniform on [0, bound); bound > 0
  double Unit();                   // uniform on [0, 1)

 private:
  uint64_t state_;
};

// Seeded stream for one caller of one workload.
Gen CallerGen(uint64_t seed, const char* workload, int caller);

// Zipf(s) ranks on [0, n) by inverse CDF.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s);
  size_t Sample(Gen& gen) const;

 private:
  std::vector<double> cdf_;
};

// Deterministic content for `key`: n bytes, every 8-byte word a hash of
// (key, word index).
void FillPattern(uint64_t key, uint8_t* out, size_t n);
// Offset of the first byte where `got` differs from `want`, or -1.
int64_t FirstDiff(skern::ByteView got, skern::ByteView want);

// Failed operations and output mismatches. Keeps the first few descriptions
// (path and offset) for the report; the rest are only counted.
class FailureLog {
 public:
  static constexpr size_t kKept = 8;
  void Add(std::string what);
  uint64_t count() const;
  std::vector<std::string> first() const;

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  std::vector<std::string> first_;
};

// One closed-loop caller's tallies for one window.
struct CallerStats {
  std::vector<uint32_t> lat_ns;  // one entry per completed op, in completion order
  // Optional slicing of the window into equal time slices: the ops completed
  // in slice k are lat_ns[slice_end[k - 1], slice_end[k]).
  uint64_t window_start_ns = 0;
  uint64_t slice_ns = 0;  // 0 = not sliced
  std::vector<size_t> slice_end;
  uint64_t ops = 0;              // completed ops
  uint64_t attempted = 0;
  uint64_t failed = 0;           // errors and output mismatches
  uint64_t user_bytes_written = 0;
  uint64_t recv_calls = 0;       // kv_rpc: RecvChain calls
  uint64_t recv_eagain = 0;      // ... of which returned kEAGAIN
  uint64_t aio_enqueues = 0;     // ingest_aio: Enqueue calls
  uint64_t aio_submits = 0;      // ... and Submit calls

  void RecordOk(uint64_t start_ns, uint64_t end_ns) {
    ++ops;
    if (slice_ns != 0) {
      uint64_t slice = (end_ns - window_start_ns) / slice_ns;
      while (slice_end.size() < slice) {
        slice_end.push_back(lat_ns.size());
      }
    }
    uint64_t d = end_ns - start_ns;
    lat_ns.push_back(d > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(d));
  }
};

// Cumulative stats-accessor readings; per-layer counts are deltas of two.
using Counters = std::map<std::string, double>;

struct WorkloadOptions {
  uint64_t seed = 1;
  bool traced = false;  // install the span decorators
  // Self-test only: the semantic fault SafeFs runs with.
  skern::SafeFsSemanticFault fault = skern::SafeFsSemanticFault::kNone;
};

// Setup cannot go on without its stack: prints what failed and exits 2.
[[noreturn]] void SetupFailed(const char* what, skern::Errno e);
void CheckSetup(const skern::Status& st, const char* what);

// A RAM disk formatted with safefs and mounted at "/" of a fresh Vfs. When
// traced, a TracedBlockDevice sits under the file system and a
// TracedFileSystem is mounted in its place; `owner_of_path` (may be empty)
// maps paths to the caller that owns them (see TracedFileSystem). Members
// are declared in dependency order, so they are destroyed top-down.
struct Stack {
  Stack(const WorkloadOptions& opts, uint64_t blocks, uint64_t inodes, uint64_t journal_blocks,
        std::function<int(const std::string&)> owner_of_path = nullptr);

  std::unique_ptr<skern::RamDisk> disk;
  std::unique_ptr<TracedBlockDevice> traced_disk;
  std::shared_ptr<skern::SafeFs> fs;
  std::unique_ptr<skern::Vfs> vfs;
};

// The stats every skern stack exposes: device, journal, safefs planes,
// dcache, vfs dispatches, slab caches, lock contention.
void SnapshotStack(const Stack& stack, Counters& out);

// Order-sensitive digest of a whole tree (names, attrs, file bytes), read
// through the Vfs as root.
uint64_t TreeDigest(skern::Vfs& vfs, const std::string& root);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int callers() const = 0;
  // Format, populate, open descriptors, establish connections (setup_s).
  virtual void Setup() = 0;
  // One closed-loop caller: issues ops, each waiting for its reply, until
  // `stop` or until `max_ops` have been attempted (0 = no cap).
  virtual void Run(int caller, const std::atomic<bool>& stop, uint64_t max_ops,
                   CallerStats& out) = 0;
  virtual Counters Snapshot() = 0;
  // Checks that need quiescence (ingest_aio: crash, remount, read back).
  // Returns the number of items checked; mismatches go to failures().
  virtual uint64_t FinalCheck() { return 0; }
  virtual std::vector<std::pair<std::string, std::string>> Sizes() const = 0;
  virtual skern::Vfs& vfs() = 0;

  FailureLog& failures() { return failures_; }

 protected:
  FailureLog failures_;
};

std::unique_ptr<Workload> MakeKvRpc(const WorkloadOptions& opts);
std::unique_ptr<Workload> MakeIngestAio(const WorkloadOptions& opts);
std::unique_ptr<Workload> MakeFileserver(const WorkloadOptions& opts);
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& opts);

// Digest of the first `n` ops each generator yields for `seed` (self-test:
// same seed, same stream).
uint64_t KvRpcStreamDigest(uint64_t seed, uint64_t n);
uint64_t IngestAioStreamDigest(uint64_t seed, uint64_t n);
uint64_t FileserverStreamDigest(uint64_t seed, uint64_t n);

int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
