// ingest_aio: durable log ingest through the io_uring-shaped plane. One
// submitter appends 4 KiB records to its log segments (2 MiB each, the safefs
// file-size limit, truncated when the log wraps onto them) in batches of 32
// writes plus one AioFsync, executed by a one-worker AioEngine. A record
// is durable once the fsync completion behind it is harvested; after the
// timed window the device crashes (losing everything unflushed), safefs
// remounts, and every durable record must read back byte-exact.
#include <cstdio>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/aio/aio.h"

namespace perfbench {
namespace {

using skern::Bytes;
using skern::ByteView;

// One submitter and one worker. With two of each, the submitters share the
// engine's single completion event, a lost wakeup costs a 1 ms timeout, and
// p99 swung by 70% with the host's load; see also kTenants in kv_rpc.cc.
constexpr int kSubmitters = 1;
constexpr size_t kEngineWorkers = 1;
constexpr uint32_t kSegments = 4;  // per submitter
constexpr uint64_t kRecordBytes = 4096;
constexpr uint64_t kSegmentRecords = 512;  // 2 MiB
constexpr size_t kBatch = 32;
constexpr size_t kQueueDepth = 64;
constexpr uint64_t kDiskBlocks = 8192;  // 32 MiB
constexpr uint64_t kInodes = 64;
constexpr uint64_t kJournalBlocks = 1024;

// One batch of a submitter's log: kBatch consecutive records of one segment.
struct IngestBatch {
  uint32_t segment = 0;
  uint64_t first = 0;     // record index within the segment
  bool rollover = false;  // the log wrapped onto this segment: truncate first
  uint64_t keys[kBatch] = {};
};

class IngestGen {
 public:
  IngestGen(uint64_t seed, int submitter) : gen_(CallerGen(seed, "ingest_aio", submitter)) {}

  IngestBatch Next() {
    IngestBatch b;
    if (next_ == kSegmentRecords) {
      next_ = 0;
      segment_ = (segment_ + 1) % kSegments;
      b.rollover = true;
    }
    b.segment = segment_;
    b.first = next_;
    for (uint64_t& key : b.keys) {
      key = gen_.Next();
    }
    next_ += kBatch;
    return b;
  }

 private:
  Gen gen_;
  uint32_t segment_ = 0;
  uint64_t next_ = 0;
};

std::string SegmentPath(int submitter, uint32_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/log/s%d/seg%u", submitter, segment);
  return buf;
}

class IngestAio : public Workload {
 public:
  explicit IngestAio(const WorkloadOptions& opts) : opts_(opts) {}

  int callers() const override { return kSubmitters; }
  skern::Vfs& vfs() override { return *stack_->vfs; }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"callers", "1 submitter + AioEngine with 1 worker"},
            {"records", "4 KiB, batches of 32 writes + 1 AioFsync, queue depth 64"},
            {"segments", "4 x 2 MiB per submitter, truncated at rollover"},
            {"disk", "8192 blocks (32 MiB), journal 1024 blocks"}};
  }

  void Setup() override {
    // Engine workers carry no span of ours; their handle I/O is charged to
    // the batch open on the submitter that owns the segment.
    stack_ = std::make_unique<Stack>(opts_, kDiskBlocks, kInodes, kJournalBlocks,
                                     [](const std::string& path) {
                                       return path.rfind("/log/s", 0) == 0 && path.size() > 6
                                                  ? path[6] - '0'
                                                  : -1;
                                     });
    skern::Vfs& vfs = *stack_->vfs;
    CheckSetup(vfs.Mkdir("/log"), "mkdir");
    engine_ = std::make_unique<skern::AioEngine>(kEngineWorkers);
    for (int s = 0; s < kSubmitters; ++s) {
      CheckSetup(vfs.Mkdir("/log/s" + std::to_string(s)), "mkdir");
      Submitter& sub = subs_[s];
      for (uint32_t k = 0; k < kSegments; ++k) {
        auto fd = vfs.Open(SegmentPath(s, k),
                             skern::kOpenRead | skern::kOpenWrite | skern::kOpenCreate);
        if (!fd.ok()) {
          SetupFailed("create", fd.error());
        }
        sub.fds[k] = *fd;
      }
      sub.gen = std::make_unique<IngestGen>(opts_.seed, s);
      sub.queue = std::make_unique<skern::AioQueue>(vfs, kQueueDepth, *engine_);
      sub.buffers.assign(kBatch, Bytes(kRecordBytes));
    }
    CheckSetup(vfs.SyncAll(), "sync");
    if (opts_.fault != skern::SafeFsSemanticFault::kNone) {
      stack_->fs->SetSemanticFault(opts_.fault);
    }
  }

  void Run(int s, const std::atomic<bool>& stop, uint64_t max_ops, CallerStats& out) override {
    Submitter& sub = subs_[s];
    std::vector<skern::AioCompletion> done;
    uint64_t enqueued_at[kBatch];
    while (!stop.load(std::memory_order_relaxed) && (max_ops == 0 || out.attempted < max_ops)) {
      IngestBatch b = sub.gen->Next();
      skern::Fd fd = sub.fds[b.segment];
      std::vector<Durable>& durable = sub.durable[b.segment];
      out.attempted += kBatch;
      done.clear();
      bool queued = true;
      uint64_t end = 0;
      {
        RootScope root(Sp::kBatch, s);
        if (b.rollover) {
          skern::Status st =
              Timed(Sp::kVfsOther, [&] { return vfs().Truncate(SegmentPath(s, b.segment), 0); });
          if (!st.ok()) {
            Fail(out, kBatch, SegmentPath(s, b.segment) + " truncate: " + skern::ErrnoName(st.code()));
            continue;
          }
          durable.clear();
        }
        for (size_t i = 0; i < kBatch && queued; ++i) {
          FillPattern(b.keys[i], sub.buffers[i].data(), kRecordBytes);
          skern::AioOp op;
          op.kind = skern::AioOpKind::kWrite;
          op.fd = fd;
          op.offset = (b.first + i) * kRecordBytes;
          // Registered-buffer idiom: the batch is harvested before reuse.
          op.view = ByteView(sub.buffers[i]);
          op.user_data = i;
          enqueued_at[i] = NowNs();
          ++out.aio_enqueues;
          queued = Timed(Sp::kAioEnqueue, [&] { return sub.queue->Enqueue(std::move(op)); });
        }
        if (queued) {
          skern::AioOp sync;
          sync.kind = skern::AioOpKind::kFsync;
          sync.fd = fd;
          sync.user_data = kBatch;
          ++out.aio_enqueues;
          queued = Timed(Sp::kAioEnqueue, [&] { return sub.queue->Enqueue(std::move(sync)); });
        }
        ++out.aio_submits;
        size_t submitted = Timed(Sp::kAioSubmit, [&] { return sub.queue->Submit(); });
        Timed(Sp::kAioHarvestWait, [&] { return sub.queue->HarvestBlocking(done, submitted); });
        end = NowNs();
      }
      if (!queued || done.size() != kBatch + 1) {
        Fail(out, kBatch, SegmentPath(s, b.segment) + " offset " +
                              std::to_string(b.first * kRecordBytes) + ": batch not accepted");
        continue;
      }
      bool ok = true;
      for (const skern::AioCompletion& c : done) {
        if (c.error != skern::Errno::kOk) {
          ok = false;
          uint64_t offset = (b.first + std::min<uint64_t>(c.user_data, kBatch)) * kRecordBytes;
          failures_.Add(SegmentPath(s, b.segment) + " offset " + std::to_string(offset) + ": " +
                        (c.user_data == kBatch ? "fsync " : "write ") + skern::ErrnoName(c.error));
        }
      }
      if (!ok) {
        out.failed += kBatch;
        continue;
      }
      for (size_t i = 0; i < kBatch; ++i) {
        out.RecordOk(enqueued_at[i], end);
        durable.push_back(Durable{b.first + i, b.keys[i]});
      }
      out.user_bytes_written += kBatch * kRecordBytes;
    }
  }

  Counters Snapshot() override {
    Counters out;
    SnapshotStack(*stack_, out);
    double submitted = 0;
    double sq_full = 0;
    for (const Submitter& sub : subs_) {
      skern::AioQueueStats st = sub.queue->stats();
      submitted += static_cast<double>(st.submitted);
      sq_full += static_cast<double>(st.sq_full);
    }
    out["aio.submitted"] = submitted;
    out["aio.sq_full"] = sq_full;
    return out;
  }

  // Crash with every unflushed write lost, remount, and read back every
  // record whose fsync completion was harvested.
  uint64_t FinalCheck() override {
    Stack& st = *stack_;
    st.disk->CrashNow(skern::CrashPersistence::kLoseAll);
    for (Submitter& sub : subs_) {
      sub.queue.reset();
    }
    engine_.reset();
    st.vfs.reset();
    st.fs.reset();
    auto fs = skern::SafeFs::Mount(*st.disk);
    if (!fs.ok()) {
      failures_.Add(std::string("remount after crash: ") + skern::ErrnoName(fs.error()));
      return 1;
    }
    st.fs = *fs;
    st.vfs = std::make_unique<skern::Vfs>();
    CheckSetup(st.vfs->Mount("/", st.fs), "remount");
    uint64_t checked = 0;
    Bytes want(kRecordBytes);
    for (int s = 0; s < kSubmitters; ++s) {
      for (uint32_t k = 0; k < kSegments; ++k) {
        std::string path = SegmentPath(s, k);
        for (const Durable& rec : subs_[s].durable[k]) {
          ++checked;
          uint64_t offset = rec.index * kRecordBytes;
          FillPattern(rec.key, want.data(), kRecordBytes);
          auto got = st.fs->Read(path, offset, kRecordBytes);
          if (!got.ok()) {
            failures_.Add("after crash: " + path + " offset " + std::to_string(offset) + ": " +
                          skern::ErrnoName(got.error()));
            continue;
          }
          int64_t diff = FirstDiff(ByteView(*got), ByteView(want));
          if (diff >= 0) {
            failures_.Add("after crash: " + path + " offset " +
                          std::to_string(offset + static_cast<uint64_t>(diff)) +
                          ": durable record differs (read " + std::to_string(got->size()) +
                          " bytes)");
          }
        }
      }
    }
    return checked;
  }

 private:
  // A record whose fsync completion was harvested.
  struct Durable {
    uint64_t index;  // record slot within the segment
    uint64_t key;    // content pattern key
  };

  struct Submitter {
    skern::Fd fds[kSegments] = {};
    std::unique_ptr<IngestGen> gen;
    std::unique_ptr<skern::AioQueue> queue;
    std::vector<Bytes> buffers;  // one per batch slot
    // The records durable in each segment's current incarnation.
    std::vector<Durable> durable[kSegments];
  };

  void Fail(CallerStats& out, uint64_t records, std::string what) {
    out.failed += records;
    failures_.Add(std::move(what));
  }

  WorkloadOptions opts_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<skern::AioEngine> engine_;  // outlives the queues below
  Submitter subs_[kSubmitters];
};

}  // namespace

std::unique_ptr<Workload> MakeIngestAio(const WorkloadOptions& opts) {
  return std::make_unique<IngestAio>(opts);
}

uint64_t IngestAioStreamDigest(uint64_t seed, uint64_t n) {
  uint64_t h = 0;
  for (int s = 0; s < kSubmitters; ++s) {
    IngestGen gen(seed, s);
    for (uint64_t i = 0; i < n; ++i) {
      IngestBatch b = gen.Next();
      h = Mix64(h ^ (uint64_t{b.segment} << 32 | b.first << 1 | (b.rollover ? 1 : 0)));
      for (uint64_t key : b.keys) {
        h = Mix64(h ^ key);
      }
    }
  }
  return h;
}

}  // namespace perfbench
