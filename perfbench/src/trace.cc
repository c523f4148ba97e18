#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/src/common.h"

namespace perfbench {

namespace {

struct NameRow {
  const char* name;
  const char* layer;
};

constexpr NameRow kNames[kSpanNames] = {
    {"req", nullptr},
    {"batch", nullptr},
    {"op", nullptr},
    {"net.send", "net"},
    {"net.recv", "net"},
    {"net.ctl", "net"},
    {"vfs.pread", "vfs"},
    {"vfs.pwrite", "vfs"},
    {"vfs.read", "vfs"},
    {"vfs.write", "vfs"},
    {"vfs.open", "vfs"},
    {"vfs.close", "vfs"},
    {"vfs.stat", "vfs"},
    {"vfs.unlink", "vfs"},
    {"vfs.rename", "vfs"},
    {"vfs.readdir", "vfs"},
    {"vfs.fsync", "vfs"},
    {"vfs.sync", "vfs"},
    {"vfs.other", "vfs"},
    {"fs.read_at", "fs"},
    {"fs.write_at", "fs"},
    {"fs.write_at_batch", "fs"},
    {"fs.stat_handle", "fs"},
    {"fs.open_by_path", "fs"},
    {"fs.create", "fs"},
    {"fs.stat", "fs"},
    {"fs.unlink", "fs"},
    {"fs.rename", "fs"},
    {"fs.readdir", "fs"},
    {"fs.fsync", "fs"},
    {"fs.sync", "fs"},
    {"fs.other", "fs"},
    {"block.read", "block"},
    {"block.write", "block"},
    {"block.flush", "block"},
    {"aio.enqueue", "aio"},
    {"aio.submit", "aio"},
    {"aio.harvest_wait", "aio"},
};

bool IsRequestRoot(Sp name) { return name == Sp::kReq || name == Sp::kBatch || name == Sp::kFileOp; }

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t req = 0;
  int32_t parent = -1;
  Sp name = Sp::kReq;
};

// Raw spans kept per thread for WriteSpanSample (whole trees only).
constexpr size_t kSampleSpans = 4096;

struct ThreadTrace {
  std::vector<Span> spans;   // the open tree; spans[0] is its root
  std::vector<int32_t> stack;
  std::vector<uint64_t> covered;  // fold scratch
  std::mutex mu;                  // guards summary and sample
  TraceSummary summary;
  std::vector<Span> sample;  // parents index into the same tree's first span
  std::vector<size_t> sample_roots;
};

std::atomic<bool> g_enabled{false};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // guarded by g_threads_mu
thread_local ThreadTrace* t_trace = nullptr;

std::array<std::atomic<uint64_t>, trace::kMaxOwners> g_owner_req{};
std::array<std::atomic<uint64_t>, trace::kMaxOwners> g_owner_seq{};

// Worker-thread root spans waiting for the request that owns them to fold.
std::mutex g_orphans_mu;
std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> g_orphans;
constexpr size_t kMaxOrphanRequests = 1 << 16;

ThreadTrace& This() {
  if (t_trace == nullptr) {
    auto owned = std::make_unique<ThreadTrace>();
    t_trace = owned.get();
    std::lock_guard<std::mutex> guard(g_threads_mu);
    g_threads.push_back(std::move(owned));
  }
  return *t_trace;
}

uint64_t Overlap(uint64_t a0, uint64_t a1, uint64_t b0, uint64_t b1) {
  uint64_t lo = std::max(a0, b0);
  uint64_t hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0;
}

void Fold(ThreadTrace& t) {
  const size_t n = t.spans.size();
  t.covered.assign(n, 0);
  for (size_t i = 1; i < n; ++i) {
    const Span& s = t.spans[i];
    if (s.parent >= 0) {
      t.covered[s.parent] += s.end - s.start;
    }
  }
  const Span& root = t.spans[0];
  const bool request = IsRequestRoot(root.name);
  if (request) {
    std::vector<std::pair<uint64_t, uint64_t>> workers;
    {
      std::lock_guard<std::mutex> guard(g_orphans_mu);
      auto it = g_orphans.find(root.req);
      if (it != g_orphans.end()) {
        workers = std::move(it->second);
        g_orphans.erase(it);
      }
    }
    for (size_t i = 1; i < n && !workers.empty(); ++i) {
      if (t.spans[i].name == Sp::kAioHarvestWait) {
        for (const auto& [ws, we] : workers) {
          t.covered[i] += Overlap(ws, we, t.spans[i].start, t.spans[i].end);
        }
      }
    }
  } else if (root.req != 0) {
    std::lock_guard<std::mutex> guard(g_orphans_mu);
    if (g_orphans.size() < kMaxOrphanRequests) {
      g_orphans[root.req].emplace_back(root.start, root.end);
    }
  }
  std::lock_guard<std::mutex> guard(t.mu);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = t.spans[i];
    uint64_t dur = s.end - s.start;
    SpanAgg& agg = t.summary.spans[static_cast<size_t>(s.name)];
    ++agg.count;
    agg.self_ns += dur - std::min(dur, t.covered[i]);
    agg.dur.Add(dur);
  }
  if (request) {
    ++t.summary.roots;
    t.summary.root_dur_ns += root.end - root.start;
  }
  if (t.sample.size() + n <= kSampleSpans) {
    t.sample_roots.push_back(t.sample.size());
    t.sample.insert(t.sample.end(), t.spans.begin(), t.spans.end());
  }
  t.spans.clear();
}

}  // namespace

const char* SpanName(Sp name) { return kNames[static_cast<size_t>(name)].name; }
const char* SpanLayer(Sp name) { return kNames[static_cast<size_t>(name)].layer; }

size_t LogHist::Index(uint64_t v) {
  if (v < kSub) {
    return static_cast<size_t>(v);
  }
  size_t e = 63 - static_cast<size_t>(__builtin_clzll(v));  // >= 5
  size_t mant = static_cast<size_t>(v >> (e - 5)) & (kSub - 1);
  return (e - 4) * kSub + mant;
}

uint64_t LogHist::Mid(size_t index) {
  if (index < kSub) {
    return index;
  }
  size_t e = index / kSub + 4;
  uint64_t low = static_cast<uint64_t>(kSub + index % kSub) << (e - 5);
  return low + ((uint64_t{1} << (e - 5)) >> 1);
}

void LogHist::Add(uint64_t v) {
  ++buckets_[Index(v)];
  ++count_;
}

void LogHist::Merge(const LogHist& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

uint64_t LogHist::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t target = std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return Mid(i);
    }
  }
  return Mid(kBuckets - 1);
}

namespace trace {

void SetEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

TraceSummary Collect() {
  TraceSummary out;
  std::lock_guard<std::mutex> guard(g_threads_mu);
  for (const auto& t : g_threads) {
    std::lock_guard<std::mutex> tg(t->mu);
    for (size_t i = 0; i < kSpanNames; ++i) {
      const SpanAgg& src = t->summary.spans[i];
      SpanAgg& dst = out.spans[i];
      dst.count += src.count;
      dst.self_ns += src.self_ns;
      dst.dur.Merge(src.dur);
    }
    out.roots += t->summary.roots;
    out.root_dur_ns += t->summary.root_dur_ns;
  }
  return out;
}

void Reset() {
  {
    std::lock_guard<std::mutex> guard(g_threads_mu);
    for (const auto& t : g_threads) {
      std::lock_guard<std::mutex> tg(t->mu);
      t->summary = TraceSummary{};
      t->sample.clear();
      t->sample_roots.clear();
    }
  }
  std::lock_guard<std::mutex> guard(g_orphans_mu);
  g_orphans.clear();
}

bool WriteSpanSample(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> guard(g_threads_mu);
  for (size_t tid = 0; tid < g_threads.size(); ++tid) {
    ThreadTrace& t = *g_threads[tid];
    std::lock_guard<std::mutex> tg(t.mu);
    for (size_t r = 0; r < t.sample_roots.size(); ++r) {
      size_t begin = t.sample_roots[r];
      size_t end = r + 1 < t.sample_roots.size() ? t.sample_roots[r + 1] : t.sample.size();
      for (size_t i = begin; i < end; ++i) {
        const Span& s = t.sample[i];
        std::fprintf(f,
                     "{\"thread\": %zu, \"span\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                     "\"start_ns\": %llu, \"end_ns\": %llu, \"req\": %llu}\n",
                     tid, i, s.parent < 0 ? -1LL : static_cast<long long>(begin + s.parent),
                     SpanName(s.name), static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end), static_cast<unsigned long long>(s.req));
      }
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace trace

Scope::Scope(Sp name, uint64_t req_hint) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadTrace& t = This();
  int32_t parent = t.stack.empty() ? -1 : t.stack.back();
  Span span;
  span.name = name;
  span.parent = parent;
  span.req = parent >= 0 ? t.spans[parent].req : req_hint;
  index_ = static_cast<int32_t>(t.spans.size());
  t.spans.push_back(span);
  t.stack.push_back(index_);
  t.spans.back().start = NowNs();
}

Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  uint64_t end = NowNs();
  ThreadTrace& t = *t_trace;
  t.spans[index_].end = end;
  t.stack.pop_back();
  if (t.stack.empty()) {
    Fold(t);
  }
}

RootScope::RootScope(Sp name, int owner) : Scope(name, NextRequest(owner)) {}

uint64_t RootScope::NextRequest(int owner) {
  uint64_t seq = g_owner_seq[owner].fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t req = (static_cast<uint64_t>(owner + 1) << 48) | seq;
  g_owner_req[owner].store(req, std::memory_order_release);
  return req;
}


// --- BlockDevice decorator ---

skern::Status TracedBlockDevice::ReadBlock(uint64_t block, skern::MutableByteView out) {
  Scope s(Sp::kBlockRead);
  return inner_.ReadBlock(block, out);
}

skern::Status TracedBlockDevice::WriteBlock(uint64_t block, skern::ByteView data) {
  Scope s(Sp::kBlockWrite);
  return inner_.WriteBlock(block, data);
}

skern::Status TracedBlockDevice::Flush() {
  Scope s(Sp::kBlockFlush);
  return inner_.Flush();
}

// --- FileSystem decorator ---

TracedFileSystem::TracedFileSystem(std::shared_ptr<skern::FileSystem> inner,
                                   std::function<int(const std::string&)> owner_of_path)
    : inner_(std::move(inner)), owner_of_path_(std::move(owner_of_path)) {}

uint64_t TracedFileSystem::HandleRequest(skern::InodeHandle handle) {
  if (!trace::Enabled() || (t_trace != nullptr && !t_trace->stack.empty())) {
    return 0;  // not recording, or the span gets its parent's request
  }
  std::lock_guard<std::mutex> guard(owners_mu_);
  auto it = owners_.find(handle);
  return it == owners_.end() ? 0 : g_owner_req[it->second].load(std::memory_order_acquire);
}

skern::Status TracedFileSystem::Create(const std::string& path) {
  Scope s(Sp::kFsCreate);
  return inner_->Create(path);
}

skern::Status TracedFileSystem::Mkdir(const std::string& path) {
  Scope s(Sp::kFsOther);
  return inner_->Mkdir(path);
}

skern::Status TracedFileSystem::Unlink(const std::string& path) {
  Scope s(Sp::kFsUnlink);
  return inner_->Unlink(path);
}

skern::Status TracedFileSystem::Rmdir(const std::string& path) {
  Scope s(Sp::kFsOther);
  return inner_->Rmdir(path);
}

skern::Status TracedFileSystem::Write(const std::string& path, uint64_t offset,
                                      skern::ByteView data) {
  Scope s(Sp::kFsOther);
  return inner_->Write(path, offset, data);
}

skern::Result<skern::Bytes> TracedFileSystem::Read(const std::string& path, uint64_t offset,
                                                   uint64_t length) {
  Scope s(Sp::kFsOther);
  return inner_->Read(path, offset, length);
}

skern::Status TracedFileSystem::Truncate(const std::string& path, uint64_t new_size) {
  Scope s(Sp::kFsOther);
  return inner_->Truncate(path, new_size);
}

skern::Status TracedFileSystem::Rename(const std::string& from, const std::string& to) {
  Scope s(Sp::kFsRename);
  return inner_->Rename(from, to);
}

skern::Result<skern::FileAttr> TracedFileSystem::Stat(const std::string& path) {
  Scope s(Sp::kFsStat);
  return inner_->Stat(path);
}

skern::Result<std::vector<std::string>> TracedFileSystem::Readdir(const std::string& path) {
  Scope s(Sp::kFsReaddir);
  return inner_->Readdir(path);
}

skern::Status TracedFileSystem::Chmod(const std::string& path, uint32_t mode) {
  Scope s(Sp::kFsOther);
  return inner_->Chmod(path, mode);
}

skern::Status TracedFileSystem::Chown(const std::string& path, uint32_t uid, uint32_t gid) {
  Scope s(Sp::kFsOther);
  return inner_->Chown(path, uid, gid);
}

skern::Status TracedFileSystem::Sync() {
  Scope s(Sp::kFsSync);
  return inner_->Sync();
}

skern::Status TracedFileSystem::Fsync(const std::string& path) {
  Scope s(Sp::kFsFsync);
  return inner_->Fsync(path);
}

skern::Result<skern::InodeHandle> TracedFileSystem::OpenByPath(const std::string& path) {
  Scope s(Sp::kFsOpenByPath);
  auto handle = inner_->OpenByPath(path);
  if (handle.ok() && owner_of_path_) {
    int owner = owner_of_path_(path);
    if (owner >= 0) {
      std::lock_guard<std::mutex> guard(owners_mu_);
      owners_[*handle] = owner;
    }
  }
  return handle;
}

void TracedFileSystem::CloseHandle(skern::InodeHandle handle) {
  {
    std::lock_guard<std::mutex> guard(owners_mu_);
    owners_.erase(handle);
  }
  Scope s(Sp::kFsOther);
  inner_->CloseHandle(handle);
}

skern::Result<skern::Bytes> TracedFileSystem::ReadAt(skern::InodeHandle handle, uint64_t offset,
                                                     uint64_t length) {
  Scope s(Sp::kFsReadAt, HandleRequest(handle));
  return inner_->ReadAt(handle, offset, length);
}

skern::Status TracedFileSystem::WriteAt(skern::InodeHandle handle, uint64_t offset,
                                        skern::ByteView data) {
  Scope s(Sp::kFsWriteAt, HandleRequest(handle));
  return inner_->WriteAt(handle, offset, data);
}

skern::Result<size_t> TracedFileSystem::WriteAtBatch(skern::InodeHandle handle,
                                                     const skern::WriteSlice* slices,
                                                     size_t count) {
  Scope s(Sp::kFsWriteAtBatch, HandleRequest(handle));
  return inner_->WriteAtBatch(handle, slices, count);
}

skern::Result<skern::FileAttr> TracedFileSystem::StatHandle(skern::InodeHandle handle) {
  Scope s(Sp::kFsStatHandle, HandleRequest(handle));
  return inner_->StatHandle(handle);
}

skern::Status TracedFileSystem::FsyncHandle(skern::InodeHandle handle) {
  Scope s(Sp::kFsFsync, HandleRequest(handle));
  return inner_->FsyncHandle(handle);
}

// --- SocketLayer decorator ---

skern::Result<skern::SocketId> TracedSocketLayer::Socket(uint8_t proto) {
  Scope s(Sp::kNetCtl);
  return inner_->Socket(proto);
}

skern::Status TracedSocketLayer::Bind(skern::SocketId sock, uint16_t port) {
  Scope s(Sp::kNetCtl);
  return inner_->Bind(sock, port);
}

skern::Status TracedSocketLayer::Listen(skern::SocketId sock) {
  Scope s(Sp::kNetCtl);
  return inner_->Listen(sock);
}

skern::Result<skern::SocketId> TracedSocketLayer::Accept(skern::SocketId sock) {
  Scope s(Sp::kNetCtl);
  return inner_->Accept(sock);
}

skern::Status TracedSocketLayer::Connect(skern::SocketId sock, skern::NetAddr remote) {
  Scope s(Sp::kNetCtl);
  return inner_->Connect(sock, remote);
}

skern::Status TracedSocketLayer::Send(skern::SocketId sock, skern::ByteView data) {
  Scope s(Sp::kNetSend);
  return inner_->Send(sock, data);
}

skern::Result<skern::Bytes> TracedSocketLayer::Recv(skern::SocketId sock, uint64_t max) {
  Scope s(Sp::kNetRecv);
  return inner_->Recv(sock, max);
}

skern::Status TracedSocketLayer::SendTo(skern::SocketId sock, skern::NetAddr remote,
                                        skern::ByteView data) {
  Scope s(Sp::kNetSend);
  return inner_->SendTo(sock, remote, data);
}

skern::Result<std::pair<skern::NetAddr, skern::Bytes>> TracedSocketLayer::RecvFrom(
    skern::SocketId sock) {
  Scope s(Sp::kNetRecv);
  return inner_->RecvFrom(sock);
}

skern::Status TracedSocketLayer::Close(skern::SocketId sock) {
  Scope s(Sp::kNetCtl);
  return inner_->Close(sock);
}

skern::Status TracedSocketLayer::SendChain(skern::SocketId sock, skern::BufChain chain) {
  Scope s(Sp::kNetSend);
  return inner_->SendChain(sock, std::move(chain));
}

skern::Result<skern::BufChain> TracedSocketLayer::RecvChain(skern::SocketId sock, uint64_t max) {
  Scope s(Sp::kNetRecv);
  return inner_->RecvChain(sock, max);
}

skern::Status TracedSocketLayer::SetOption(skern::SocketId sock, int option, int64_t value) {
  Scope s(Sp::kNetCtl);
  return inner_->SetOption(sock, option, value);
}

}  // namespace perfbench
