// fileserver_cold: a filebench-fileserver-style mix over a tree larger than
// every cache in the stack. About 12 Ki files of 4-8 KiB (72 MiB, 4.5x the
// 16 MiB safefs read cache) sit in a depth-4 directory tree with more names
// than the 8192-entry dcache holds, so path resolution, the global safefs
// lock with its write-back drain, dcache misses and device reads do the work.
// Each caller owns the files it creates (ids congruent to its index), so its
// generator-side model knows every name and byte the tree must hold; the
// directories, the read cache and the journal are shared.
#include <cstdio>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

using skern::Bytes;
using skern::ByteView;

// Two callers, not four: see kTenants in kv_rpc.cc.
constexpr int kCallers = 2;
constexpr uint32_t kFanout = 4;
constexpr uint32_t kLeafDirs = kFanout * kFanout * kFanout * kFanout;  // depth 4: 256
constexpr uint32_t kInitialFiles = 12288;                               // 48 per leaf
constexpr uint32_t kMinFileBytes = 4096;
constexpr uint32_t kMaxFileBytes = 8192;
constexpr uint64_t kDiskBlocks = 32768;  // 128 MiB, the safefs bitmap limit
constexpr uint64_t kInodes = 20480;
constexpr uint64_t kJournalBlocks = 2048;
constexpr uint64_t kSyncEveryMutations = 64;
// A caller's live-file count stays within this band around its share of the
// initial population: a create past the band becomes an unlink and vice versa.
constexpr size_t kDrift = 512;
constexpr uint32_t kPopulateSyncEvery = 1024;

enum class FsKind : uint8_t { kStat, kRead, kCreate, kUnlink, kRename, kReaddir };

struct FileRec {
  uint32_t dir = 0;   // leaf directory index
  uint32_t name = 0;  // unique id; congruent to the owning caller mod kCallers
  uint32_t size = 0;
  uint64_t key = 0;   // content pattern key
};

struct FsOp {
  FsKind kind = FsKind::kStat;
  FileRec file;  // the file acted on (created, for kCreate)
  FileRec to;    // kRename: the new name
  uint32_t dir = 0;  // kReaddir
};

std::string DirPath(uint32_t leaf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/d%u/d%u/d%u/d%u", leaf / 64, leaf / 16 % 4, leaf / 4 % 4,
                leaf % 4);
  return buf;
}

std::string FilePath(const FileRec& f) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/f%08x", f.name);
  return DirPath(f.dir) + buf;
}

FileRec InitialFile(uint64_t seed, uint32_t i) {
  FileRec f;
  f.dir = i / (kInitialFiles / kLeafDirs);
  f.name = i;
  f.key = Mix64(seed ^ Mix64(i));
  f.size = kMinFileBytes + static_cast<uint32_t>(Mix64(f.key) % (kMaxFileBytes - kMinFileBytes + 1));
  return f;
}

// One caller's op stream plus the model of the files it owns. Next() applies
// the op to the model as if it succeeded.
class FsGen {
 public:
  FsGen(uint64_t seed, int caller)
      : caller_(static_cast<uint32_t>(caller)),
        gen_(CallerGen(seed, "fileserver_cold", caller)) {
    for (uint32_t i = caller_; i < kInitialFiles; i += kCallers) {
      live_.push_back(InitialFile(seed, i));
    }
    base_ = live_.size();
  }

  FsOp Next() {
    FsOp op;
    uint64_t roll = gen_.Below(100);
    if (roll < 35) {
      op.kind = FsKind::kStat;
    } else if (roll < 70) {
      op.kind = FsKind::kRead;
    } else if (roll < 80) {
      op.kind = live_.size() >= base_ + kDrift ? FsKind::kUnlink : FsKind::kCreate;
    } else if (roll < 90) {
      op.kind = live_.size() <= base_ - kDrift ? FsKind::kCreate : FsKind::kUnlink;
    } else if (roll < 95) {
      op.kind = FsKind::kRename;
    } else {
      op.kind = FsKind::kReaddir;
    }
    switch (op.kind) {
      case FsKind::kStat:
      case FsKind::kRead:
        op.file = live_[gen_.Below(live_.size())];
        break;
      case FsKind::kCreate:
        op.file.dir = static_cast<uint32_t>(gen_.Below(kLeafDirs));
        op.file.name = FreshName();
        op.file.key = gen_.Next();
        op.file.size = kMinFileBytes + static_cast<uint32_t>(gen_.Below(kMaxFileBytes - kMinFileBytes + 1));
        live_.push_back(op.file);
        break;
      case FsKind::kUnlink: {
        size_t i = gen_.Below(live_.size());
        op.file = live_[i];
        live_[i] = live_.back();
        live_.pop_back();
        break;
      }
      case FsKind::kRename: {
        size_t i = gen_.Below(live_.size());
        op.file = live_[i];
        op.to = op.file;
        op.to.dir = static_cast<uint32_t>(gen_.Below(kLeafDirs));
        op.to.name = FreshName();
        live_[i] = op.to;
        break;
      }
      case FsKind::kReaddir:
        op.dir = static_cast<uint32_t>(gen_.Below(kLeafDirs));
        break;
    }
    return op;
  }

 private:
  uint32_t FreshName() { return kInitialFiles + caller_ + kCallers * next_name_++; }

  uint32_t caller_;
  Gen gen_;
  std::vector<FileRec> live_;
  size_t base_ = 0;
  uint32_t next_name_ = 0;
};

class Fileserver : public Workload {
 public:
  explicit Fileserver(const WorkloadOptions& opts) : opts_(opts) {}

  int callers() const override { return kCallers; }
  skern::Vfs& vfs() override { return *stack_->vfs; }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"callers", "2"},
            {"files", "12288 of 4-8 KiB (about 72 MiB) in 256 leaf dirs of a depth-4 tree"},
            {"mix", "stat 35%, open+read+close 35%, create+write+close 10%, unlink 10%, "
                    "rename 5%, readdir 5%; SyncAll every 64 mutating ops per caller"},
            {"disk", "32768 blocks (128 MiB), 20480 inodes, journal 2048 blocks"}};
  }

  void Setup() override {
    stack_ = std::make_unique<Stack>(opts_, kDiskBlocks, kInodes, kJournalBlocks);
    skern::Vfs& vfs = *stack_->vfs;
    for (uint32_t leaf = 0; leaf < kLeafDirs; ++leaf) {
      std::string path = DirPath(leaf);
      // Create the missing ancestors of this leaf, top down.
      for (size_t pos = 1; pos <= path.size(); ++pos) {
        if (pos == path.size() || path[pos] == '/') {
          skern::Status st = vfs.Mkdir(path.substr(0, pos));
          if (!st.ok() && st.code() != skern::Errno::kEEXIST) {
            SetupFailed("mkdir", st.code());
          }
        }
      }
    }
    Bytes content;
    for (uint32_t i = 0; i < kInitialFiles; ++i) {
      FileRec f = InitialFile(opts_.seed, i);
      content.resize(f.size);
      FillPattern(f.key, content.data(), f.size);
      auto fd = vfs.Open(FilePath(f), skern::kOpenWrite | skern::kOpenCreate);
      if (!fd.ok()) {
        SetupFailed("create", fd.error());
      }
      CheckSetup(vfs.Write(*fd, ByteView(content)), "populate");
      CheckSetup(vfs.Close(*fd), "close");
      if ((i + 1) % kPopulateSyncEvery == 0) {
        CheckSetup(vfs.SyncAll(), "sync");
      }
    }
    CheckSetup(vfs.SyncAll(), "sync");
    for (int c = 0; c < kCallers; ++c) {
      gens_[c] = std::make_unique<FsGen>(opts_.seed, c);
    }
    if (opts_.fault != skern::SafeFsSemanticFault::kNone) {
      stack_->fs->SetSemanticFault(opts_.fault);
    }
  }

  void Run(int c, const std::atomic<bool>& stop, uint64_t max_ops, CallerStats& out) override {
    Bytes content;
    while (!stop.load(std::memory_order_relaxed) && (max_ops == 0 || out.attempted < max_ops)) {
      FsOp op = gens_[c]->Next();
      if (op.kind == FsKind::kCreate || op.kind == FsKind::kRead) {
        content.resize(op.file.size);
        FillPattern(op.file.key, content.data(), op.file.size);
      }
      ++out.attempted;
      std::string failure;
      Bytes got;
      uint64_t start = NowNs();
      {
        RootScope root(Sp::kFileOp, c);
        failure = Execute(op, content, got);
        if (failure.empty() && op.kind != FsKind::kStat && op.kind != FsKind::kRead &&
            op.kind != FsKind::kReaddir && ++mutations_[c] % kSyncEveryMutations == 0) {
          skern::Status st = Timed(Sp::kVfsSync, [&] { return vfs().SyncAll(); });
          if (!st.ok()) {
            failure = std::string("SyncAll: ") + skern::ErrnoName(st.code());
          }
        }
      }
      uint64_t end = NowNs();
      if (failure.empty() && op.kind == FsKind::kRead) {
        int64_t diff = FirstDiff(ByteView(got), ByteView(content));
        if (diff >= 0) {
          failure = "read " + FilePath(op.file) + " offset " + std::to_string(diff) +
                    ": content differs (read " + std::to_string(got.size()) + " of " +
                    std::to_string(op.file.size) + " bytes)";
        }
      }
      if (!failure.empty()) {
        ++out.failed;
        failures_.Add(std::move(failure));
        continue;
      }
      if (op.kind == FsKind::kCreate) {
        out.user_bytes_written += op.file.size;
      }
      out.RecordOk(start, end);
    }
  }

  Counters Snapshot() override {
    Counters out;
    SnapshotStack(*stack_, out);
    return out;
  }

 private:
  static std::string Err(const char* what, const std::string& path, skern::Errno e) {
    return std::string(what) + " " + path + ": " + skern::ErrnoName(e);
  }

  // Runs one op; returns a failure description, or "" on success.
  std::string Execute(const FsOp& op, const Bytes& content, Bytes& got) {
    std::string path = op.kind == FsKind::kReaddir ? DirPath(op.dir) : FilePath(op.file);
    switch (op.kind) {
      case FsKind::kStat: {
        auto attr = Timed(Sp::kVfsStat, [&] { return vfs().Stat(path); });
        if (!attr.ok()) {
          return Err("stat", path, attr.error());
        }
        if (attr->is_dir || attr->size != op.file.size) {
          return "stat " + path + ": size " + std::to_string(attr->size) + ", expected " +
                 std::to_string(op.file.size);
        }
        return "";
      }
      case FsKind::kRead: {
        auto fd = Timed(Sp::kVfsOpen, [&] { return vfs().Open(path, skern::kOpenRead); });
        if (!fd.ok()) {
          return Err("open", path, fd.error());
        }
        auto data = Timed(Sp::kVfsRead, [&] { return vfs().Read(*fd, kMaxFileBytes + 1); });
        skern::Status closed = Timed(Sp::kVfsClose, [&] { return vfs().Close(*fd); });
        if (!data.ok()) {
          return Err("read", path, data.error());
        }
        if (!closed.ok()) {
          return Err("close", path, closed.code());
        }
        got = std::move(*data);
        return "";
      }
      case FsKind::kCreate: {
        auto fd = Timed(Sp::kVfsOpen,
                        [&] { return vfs().Open(path, skern::kOpenWrite | skern::kOpenCreate); });
        if (!fd.ok()) {
          return Err("create", path, fd.error());
        }
        skern::Status wrote = Timed(Sp::kVfsWrite, [&] { return vfs().Write(*fd, ByteView(content)); });
        skern::Status closed = Timed(Sp::kVfsClose, [&] { return vfs().Close(*fd); });
        if (!wrote.ok()) {
          return Err("write", path, wrote.code());
        }
        if (!closed.ok()) {
          return Err("close", path, closed.code());
        }
        return "";
      }
      case FsKind::kUnlink: {
        skern::Status st = Timed(Sp::kVfsUnlink, [&] { return vfs().Unlink(path); });
        return st.ok() ? "" : Err("unlink", path, st.code());
      }
      case FsKind::kRename: {
        std::string to = FilePath(op.to);
        skern::Status st = Timed(Sp::kVfsRename, [&] { return vfs().Rename(path, to); });
        return st.ok() ? "" : Err("rename", path, st.code());
      }
      case FsKind::kReaddir: {
        auto names = Timed(Sp::kVfsReaddir, [&] { return vfs().Readdir(path); });
        return names.ok() ? "" : Err("readdir", path, names.error());
      }
    }
    return "unknown op";
  }

  WorkloadOptions opts_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<FsGen> gens_[kCallers];
  uint64_t mutations_[kCallers] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeFileserver(const WorkloadOptions& opts) {
  return std::make_unique<Fileserver>(opts);
}

uint64_t FileserverStreamDigest(uint64_t seed, uint64_t n) {
  uint64_t h = 0;
  for (int c = 0; c < kCallers; ++c) {
    FsGen gen(seed, c);
    for (uint64_t i = 0; i < n; ++i) {
      FsOp op = gen.Next();
      h = Mix64(h ^ static_cast<uint64_t>(op.kind));
      h = Mix64(h ^ (uint64_t{op.file.dir} << 32 | op.file.name));
      h = Mix64(h ^ op.file.key ^ op.file.size);
      h = Mix64(h ^ (uint64_t{op.to.dir} << 32 | op.to.name) ^ op.dir);
    }
  }
  return h;
}

}  // namespace perfbench
